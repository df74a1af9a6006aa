"""Command-line front end: generation, runs, sweeps, reports, certificate replay.

All commands read one JSON config document (flag overrides for the common
knobs) and write delimited outputs plus a manifest; `run` exits non-zero
whenever the verifier records a false execution, so CI can gate on it.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .baselines import ReplayError
from .frames import FrameError
from .runner import (
    SWEEP_METHODS,
    SWEEP_SEEDS,
    RunConfig,
    run_benchmark,
    run_misspec_sweep,
    run_strength_sweep,
    run_weight_sweep,
    write_generated_instances,
    write_report,
    write_run_outputs,
    write_sweep_csv,
)
from .scm import build_benchmark
from .verifier import certificate_from_json_dict, verify_certificate


def _items(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _seed(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text  # the seeds check refuses it by name


# The keys each regenerating sweep sets itself, and those of the regime slice
# it never builds: the strength sweep builds only the adversarial slice, the
# misspec sweep only the moderate one.
_FIXED_BY_SWEEP = {
    "strength": ("seeds", "adversarial_strength", "moderate_per_family",
                 "latent_fraction_moderate"),
    "misspec": ("seeds", "adversarial_strength", "adversarial_per_family"),
}


def _fixed_grid(kind: str, what: str) -> str:
    return (f"sweep {kind} uses seeds {SWEEP_SEEDS[0]}-{SWEEP_SEEDS[-1]} and its own grid, "
            f"so it takes no {what}")


def _load_config(config_path: str | None = None, seed_list: str | None = None,
                 methods: str | None = None, n_rows: int | None = None,
                 strength: float | None = None, out: str | None = None,
                 default_methods: tuple[str, ...] | None = None,
                 fixed_sweep: str | None = None) -> RunConfig:
    """The run config from the document and the flags; ``default_methods``
    replaces the config's default when neither names any methods.  The
    ``fixed_sweep`` kind sets the seeds and strength itself and reads one
    regime's keys, so a document that sets the others is refused rather than
    ignored."""
    obj = {}
    if config_path:
        try:
            obj = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise click.ClickException(f"cannot read config {config_path}: {exc}")
    if fixed_sweep is not None and isinstance(obj, dict):
        for key in _FIXED_BY_SWEEP[fixed_sweep]:
            if key in obj:
                refusal = _fixed_grid(fixed_sweep, f"'{key}' key")
                raise click.ClickException(f"invalid configuration: {refusal}")
    flags = {
        "seeds": None if seed_list is None else [_seed(s) for s in _items(seed_list)],
        "methods": None if methods is None else _items(methods),
        "n_rows": n_rows,
        "adversarial_strength": strength,
        "output_dir": out,
    }
    if isinstance(obj, dict):
        obj.update((key, value) for key, value in flags.items() if value is not None)
        if default_methods is not None:
            obj.setdefault("methods", list(default_methods))
    try:
        return RunConfig.from_json_dict(obj)
    except ValueError as exc:
        raise click.ClickException(f"invalid configuration: {exc}")


@contextmanager
def _clean_errors(config: RunConfig):
    """Report a replay shard that cannot be scored as written, and a strength whose
    data overflows to infinity (the config check bounds the rest), as config
    errors.  Inputs report their own OSError, so one here is an output that
    cannot be written, such as an output directory that is an existing file."""
    try:
        yield
    except ReplayError as exc:
        raise click.ClickException(f"invalid configuration: {exc}") from None
    except OSError as exc:
        raise click.ClickException(
            f"cannot write outputs to {config.output_dir}: {exc}") from None
    except FrameError as exc:
        raise click.ClickException(
            f"invalid configuration: adversarial_strength "
            f"{config.bench.adversarial_strength!r} generates data that is not "
            f"finite ({exc})"
        ) from None


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON config document.")(fn)
    fn = click.option("--seed-list", default=None, help="Comma-separated seeds.")(fn)
    fn = click.option("--n-rows", type=int, default=None, help="Rows per data frame.")(fn)
    fn = click.option("--strength", type=float, default=None,
                      help="Adversarial hidden-confounder strength.")(fn)
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    return fn


# `generate` draws the same instances whatever the methods, so it takes no --methods.
_methods_option = click.option("--methods", default=None, help="Comma-separated method ids.")


@click.group()
def main() -> None:
    """Causal intervention verifier and benchmark harness."""


@main.command()
@_common_options
def generate(**flags) -> None:
    """Write instance files (one JSON-lines file per seed and regime)."""
    config = _load_config(**flags)
    out_dir = Path(config.output_dir)
    with _clean_errors(config):
        instances, counterbalance = build_benchmark(config.bench)
        paths = write_generated_instances(out_dir, instances, counterbalance)
    click.echo(f"wrote {len(instances)} instances across {len(paths)} files to {out_dir}")


@main.command()
@_common_options
@_methods_option
def run(**flags) -> None:
    """Evaluate the configured methods and write summaries, records, and
    certificates.  Exits non-zero if the verifier falsely executed anything."""
    config = _load_config(**flags)
    with _clean_errors(config):
        result = run_benchmark(config)
        manifest = write_run_outputs(result)
    out_dir = Path(config.output_dir)
    click.echo(f"evaluated {len(config.methods)} methods on {len(result.instances)} "
               f"instances; outputs in {out_dir}")
    civex_false = manifest.get("civex_false_executions")
    if civex_false is not None:
        click.echo(f"verifier false executions: {civex_false}")
        if civex_false > 0:
            sys.exit(1)


@main.command()
@click.argument("kind", type=click.Choice(["strength", "weights", "misspec"]))
@_common_options
@_methods_option
def sweep(kind, **flags) -> None:
    """Run one sensitivity sweep and write its table."""
    fixed = kind != "weights"
    if fixed and (flags["seed_list"] is not None or flags["strength"] is not None):
        raise click.UsageError(_fixed_grid(kind, "--seed-list or --strength"))
    config = _load_config(**flags, default_methods=SWEEP_METHODS if fixed else None,
                          fixed_sweep=kind if fixed else None)
    out_dir = Path(config.output_dir)
    with _clean_errors(config):
        if kind == "strength":
            rows = run_strength_sweep(config, methods=config.methods)
        elif kind == "misspec":
            rows = run_misspec_sweep(config, methods=config.methods)
        else:
            result = run_benchmark(config)
            write_run_outputs(result)
            rows = run_weight_sweep(result)
        path = write_sweep_csv(out_dir, kind, rows)
    click.echo(f"wrote {len(rows)} sweep rows to {path}")


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def report(run_dir) -> None:
    """Render report.md from a run directory's delimited outputs."""
    try:
        path = write_report(Path(run_dir))
    except KeyError as exc:
        raise click.ClickException(f"cannot read run directory {run_dir}: no column {exc}")
    except (OSError, TypeError, ValueError, csv.Error) as exc:
        raise click.ClickException(f"cannot read run directory {run_dir}: {exc}")
    click.echo(f"wrote {path}")


@main.command("verify-cert")
@click.argument("cert_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("data_path", type=click.Path(exists=True, dir_okay=False))
def verify_cert(cert_path, data_path) -> None:
    """Replay a stored certificate against stored data; exit 0 on exact match."""
    try:
        cert = certificate_from_json_dict(
            json.loads(Path(cert_path).read_text(encoding="utf-8"))
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(f"cannot parse certificate: {exc}")
    mismatches = verify_certificate(cert, Path(data_path).read_bytes())
    if mismatches:
        click.echo(f"certificate mismatch: {', '.join(mismatches)}")
        sys.exit(1)
    click.echo("certificate verified: digests and estimate reproduce exactly")


if __name__ == "__main__":
    main()
