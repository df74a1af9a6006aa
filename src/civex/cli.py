"""Command-line front end: generation, runs, sweeps, replay import, reports.

All commands read one JSON config document (flag overrides for the common
knobs) and write delimited outputs plus a manifest; `run` exits non-zero
whenever the verifier records a false execution, so CI can gate on it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import click

from .baselines import load_replay_shard
from .runner import (
    SWEEP_METHODS,
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


def _load_config(config_path: str | None, seed_list: str | None, methods: str | None,
                 n_rows: int | None, strength: float | None, out: str | None) -> RunConfig:
    obj = {}
    if config_path:
        try:
            obj = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise click.ClickException(f"cannot read config {config_path}: {exc}")
    flags = {
        "seeds": None if seed_list is None else [_seed(s) for s in _items(seed_list)],
        "methods": None if methods is None else _items(methods),
        "n_rows": n_rows,
        "adversarial_strength": strength,
        "output_dir": out,
    }
    if isinstance(obj, dict):
        obj.update((key, value) for key, value in flags.items() if value is not None)
    try:
        return RunConfig.from_json_dict(obj)
    except ValueError as exc:
        raise click.ClickException(f"invalid configuration: {exc}")


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON config document.")(fn)
    fn = click.option("--seed-list", default=None, help="Comma-separated seeds.")(fn)
    fn = click.option("--methods", default=None, help="Comma-separated method ids.")(fn)
    fn = click.option("--n-rows", type=int, default=None, help="Rows per data frame.")(fn)
    fn = click.option("--strength", type=float, default=None,
                      help="Adversarial hidden-confounder strength.")(fn)
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    return fn


@click.group()
def main() -> None:
    """Causal intervention verifier and benchmark harness."""


@main.command()
@_common_options
def generate(config_path, seed_list, methods, n_rows, strength, out) -> None:
    """Write instance files (one JSON-lines file per seed and regime)."""
    config = _load_config(config_path, seed_list, methods, n_rows, strength, out)
    out_dir = config.resolved_output_dir()
    instances, counterbalance = build_benchmark(config.bench)
    paths = write_generated_instances(out_dir, instances, counterbalance)
    click.echo(f"wrote {len(instances)} instances across {len(paths)} files to {out_dir}")


@main.command()
@_common_options
def run(config_path, seed_list, methods, n_rows, strength, out) -> None:
    """Evaluate the configured methods and write summaries, records, and
    certificates.  Exits non-zero if the verifier falsely executed anything."""
    config = _load_config(config_path, seed_list, methods, n_rows, strength, out)
    result = run_benchmark(config)
    manifest = write_run_outputs(result)
    out_dir = config.resolved_output_dir()
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
def sweep(kind, config_path, seed_list, methods, n_rows, strength, out) -> None:
    """Run one sensitivity sweep and write its table."""
    config = _load_config(config_path, seed_list, methods, n_rows, strength, out)
    out_dir = config.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_methods = config.methods if methods is not None else SWEEP_METHODS
    if kind == "strength":
        rows = run_strength_sweep(config, methods=sweep_methods)
    elif kind == "misspec":
        rows = run_misspec_sweep(config, methods=sweep_methods)
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
    path = write_report(Path(run_dir))
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


@main.command("import-replay")
@click.argument("tag")
@click.argument("shards", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@_common_options
def import_replay(tag, shards, config_path, seed_list, methods, n_rows, strength, out) -> None:
    """Validate recorded-verdict CSVs and install them under the output root."""
    if not shards:
        raise click.ClickException("no shard files given")
    config = _load_config(config_path, seed_list, methods, n_rows, strength, out)
    dest = config.resolved_output_dir() / "replay" / tag
    dest.mkdir(parents=True, exist_ok=True)
    imported = 0
    for shard in shards:
        try:
            entries = load_replay_shard(shard)
        except ValueError as exc:
            click.echo(f"skipping {shard}: {exc}")
            continue
        shutil.copy(shard, dest / Path(shard).name)
        imported += 1
        click.echo(f"imported {shard} ({len(entries)} verdicts)")
    if imported == 0:
        raise click.ClickException("no valid shards imported")
    click.echo(f"replay tag '{tag}' ready under {dest}")


if __name__ == "__main__":
    main()
