import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from civex.baselines import ALL_METHODS
from civex.evaluation import MethodSummary, ScoreWeights
from civex.cli import main
from civex.frames import Frame
from civex import runner
from civex.runner import (
    RunConfig,
    run_benchmark,
    run_weight_sweep,
    write_run_outputs,
)
from civex.scm import BenchmarkSpec
from civex.verifier import VerifierConfig, certificate_to_json_dict

TINY = {
    "seeds": [42, 43],
    "moderate_per_family": 3,
    "adversarial_per_family": 2,
    "n_rows": 400,
}
ONE_PER_FAMILY = {"seeds": [42], "moderate_per_family": 1, "adversarial_per_family": 1}
# The strength and misspec sweeps set their own seeds and build one regime's
# slice, and refuse a document that sets the seeds or the other slice's size.
SWEEP_TINY = {
    "strength": {"adversarial_per_family": 2, "n_rows": 400},
    "misspec": {"moderate_per_family": 3, "n_rows": 400},
}


def write_config(tmp_path: Path, out_name: str, base: dict = TINY, **extra) -> Path:
    cfg = dict(base)
    cfg["output_dir"] = str(tmp_path / out_name)
    cfg.update(extra)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def generated_instance_count(out_dir: Path) -> int:
    """The JSON lines, one per instance, across ``out_dir``'s instance files."""
    return sum(isinstance(json.loads(line), dict)
               for path in out_dir.glob("instances_s*_*.jsonl")
               for line in path.read_text(encoding="utf-8").splitlines())


# The SHA-256 of each sweep CSV the sweep tests below write, which pins
# every byte of those tables.
SWEEP_SHA256 = {
    "weights": "35cadf1ef1d02bb4a46ef8587fbff4a17fefd0830891b5afa1b527dc86112076",
    "strength": "0b63c43163755747664c1db392fdc017e0594d62568d61756d0c99a481932712",
    "misspec": "cded7af94c87826b261cad89c949af2720580d5b106f96e23bd4f865e2ed2780",
    "weights_replay": "1914501931c02a6f116f5d1460a69522adaff58ec7e3891a8e483036a6f8242a",
}


# The SHA-256 of each file of a ``seeds=(42,)`` run with every other setting
# at its default.  The manifest is hashed as written, after dropping
# ``config.output_dir``.  "certificates/" hashes each certificate and data
# file's path and digest, in path order.
RUN_SHA256 = {
    "counterbalance.csv": "f648e8295c26e545606cf90f4ba0df1ddc29aaa58032f5f6bbae5907e996c8b8",
    "manifest.json": "5c75297e96e30f10f6d1c1a296d3db3b406e70d01161c3afc88510113cf91688",
    "pairwise_wilcoxon.csv": "0905a7f7ef14e74b31b091b8703f0884518619b70f1e2170563806cea5b77eef",
    "records.csv": "23d4e36074aa5b1e99f81e8c9cd9987fb844fe89609efec2f9c02c2987b81dc4",
    "summary_adversarial.csv": "2bbede146c38262de0c65b42ddd86adf17f873e2c479836907ec51a340823216",
    "summary_moderate.csv": "88ec182191c499320327b42de55e17e1b0d76e823a0880cc5b2c466e2f11f362",
    "certificates/": "ecce7801c43c463471594027c9ed0bae0d69667aad1639cb19f68601f4db5ba1",
}


def run_digests(out: Path) -> dict[str, str]:
    """``RUN_SHA256``'s digests of the run written to ``out``."""
    digests, certificates = {}, hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name, data = path.relative_to(out).as_posix(), path.read_bytes()
        if name == "manifest.json":
            manifest = json.loads(data)
            del manifest["config"]["output_dir"]
            data = json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
        if name.startswith("certificates/"):
            certificates.update(name.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
        else:
            digests[name] = hashlib.sha256(data).hexdigest()
    digests["certificates/"] = certificates.hexdigest()
    return digests


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_bytes_map(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerateCommand:
    def test_writes_one_file_per_seed_and_regime(self, tmp_path):
        cfg = write_config(tmp_path, "gen")
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "gen"
        files = sorted(p.name for p in out.glob("instances_*.jsonl"))
        assert files == [
            "instances_s42_adversarial.jsonl",
            "instances_s42_moderate.jsonl",
            "instances_s43_adversarial.jsonl",
            "instances_s43_moderate.jsonl",
        ]
        assert (out / "counterbalance.csv").is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "gen2")
        runner = CliRunner()
        assert runner.invoke(main, ["generate", "--config", str(cfg)]).exit_code == 0
        first = read_bytes_map(tmp_path / "gen2")
        assert runner.invoke(main, ["generate", "--config", str(cfg)]).exit_code == 0
        assert read_bytes_map(tmp_path / "gen2") == first

    def test_zero_seeds_is_a_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, "bad", seeds=[])
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "invalid configuration" in result.output

    def test_methods_flag_is_not_an_option(self, tmp_path):
        cfg = write_config(tmp_path, "gm")
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg),
                                           "--methods", "CIVeX"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--methods" in result.output
        assert not (tmp_path / "gm").exists()

    def test_generated_files_hold_one_line_per_instance(self, tmp_path):
        cfg = write_config(tmp_path, "gen3")
        assert CliRunner().invoke(main, ["generate", "--config", str(cfg)]).exit_code == 0
        assert generated_instance_count(tmp_path / "gen3") == 2 * 6 * (3 + 2)


class TestRunCommand:
    def test_run_writes_summaries_and_gates_on_safety(self, tmp_path):
        cfg = write_config(tmp_path, "run")
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "run"
        for name in ("summary_moderate.csv", "summary_adversarial.csv",
                     "records.csv", "counterbalance.csv", "manifest.json",
                     "pairwise_wilcoxon.csv"):
            assert (out / name).is_file(), name
        summary = (out / "summary_moderate.csv").read_text(encoding="utf-8")
        assert summary.count("\n") == len(ALL_METHODS) + 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["civex_false_executions"] == 0
        assert manifest["n_instances"] == 60

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, "runa")
        cfg_b = write_config(tmp_path, "runb")
        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(cfg_a)]).exit_code == 0
        assert runner.invoke(main, ["run", "--config", str(cfg_b)]).exit_code == 0
        a = read_bytes_map(tmp_path / "runa")
        b = read_bytes_map(tmp_path / "runb")
        # Manifests record their own output directories; everything else must match.
        a.pop("manifest.json"), b.pop("manifest.json")
        assert a == b

    def test_run_bytes_are_pinned(self, tmp_path):
        run = run_benchmark(RunConfig(bench=BenchmarkSpec(seeds=(42,))))
        write_run_outputs(run, tmp_path / "run")
        assert len(list((tmp_path / "run").rglob("*.cert.json"))) == 202
        assert run_digests(tmp_path / "run") == RUN_SHA256

    def test_more_than_twenty_seeds_run(self, tmp_path):
        # The signed-rank test over 21 per-seed means used to raise after the
        # summaries were written, so no certificate or manifest was.
        cfg = write_config(tmp_path, "seeds", {
            "seeds": list(range(21)), "moderate_per_family": 1, "adversarial_per_family": 1,
            "n_rows": 50, "methods": ["CIVeX", "PolicyGate", "OracleSCM"]})
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "seeds" / "pairwise_wilcoxon.csv").read_text(encoding="utf-8")
        assert rows.count(",21,") == 4
        assert (tmp_path / "seeds" / "manifest.json").is_file()

    @pytest.mark.parametrize("n_rows", [2, 3])
    def test_smallest_frames_run_to_the_end(self, tmp_path, n_rows):
        # A pooled-variance difference needs three rows, so at two no instance
        # has one: the regime diagnostics are NaN rather than a traceback, and
        # no estimate can certify an execution.
        cfg = write_config(tmp_path, "small", n_rows=n_rows)
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "verifier false executions" in result.output
        manifest = json.loads((tmp_path / "small" / "manifest.json").read_text(encoding="utf-8"))
        summary = (tmp_path / "small" / "summary_moderate.csv").read_text(encoding="utf-8")
        if n_rows == 2:
            assert result.exit_code == 0, result.output
            assert manifest["civex_false_executions"] == 0
            assert all(math.isnan(v) for v in manifest["diagnostics"]["moderate"].values())
            assert summary.splitlines()[1].endswith(",nan,nan,nan")
        else:
            assert all(math.isfinite(v) for v in manifest["diagnostics"]["moderate"].values())

    @pytest.mark.parametrize("command, base", [
        (["generate"], ONE_PER_FAMILY),
        (["run", "--methods", "CIVeX"], ONE_PER_FAMILY),
        (["sweep", "weights", "--methods", "CIVeX"], ONE_PER_FAMILY),
        (["sweep", "strength", "--methods", "CIVeX"], {"adversarial_per_family": 1}),
        (["sweep", "misspec", "--methods", "CIVeX"], {"moderate_per_family": 1}),
    ])
    def test_output_path_that_cannot_be_written_is_a_clean_error(self, tmp_path, command,
                                                                 base):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory", encoding="utf-8")
        cfg = write_config(tmp_path, "unused", {**base, "n_rows": 50}, output_dir=str(taken))
        result = CliRunner().invoke(main, [*command, "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"Error: cannot write outputs to {taken}: ")
        assert taken.read_text(encoding="utf-8") == "a file, not a directory"

    def test_method_override(self, tmp_path):
        cfg = write_config(tmp_path, "runm")
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--methods", "AlwaysAbstain,OracleSCM"])
        assert result.exit_code == 0
        text = (tmp_path / "runm" / "summary_moderate.csv").read_text(encoding="utf-8")
        assert "AlwaysAbstain" in text and "OracleSCM" in text and "CIVeX" not in text


class TestCertificateWriter:
    def test_each_certified_frame_is_serialized_once(self, tmp_path, monkeypatch):
        config = RunConfig.from_json_dict(TINY)
        run = run_benchmark(config)
        frames = {(inst_id, len(result.trace))
                  for (_, inst_id), result in run.decisions.items()
                  if result.terminal.certificate is not None}
        n_certs = sum(result.terminal.certificate is not None
                      for result in run.decisions.values())
        # Several methods certify the same frames, so sharing must matter.
        assert n_certs > len(frames) > 0
        calls = []
        original = Frame.canonical_bytes

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Frame, "canonical_bytes", counting)
        manifest = write_run_outputs(run, tmp_path / "a")
        assert len(calls) == len(frames)
        assert manifest["n_certificates"] == n_certs
        write_run_outputs(run, tmp_path / "b")
        first = read_bytes_map(tmp_path / "a")
        assert read_bytes_map(tmp_path / "b") == first
        data_files = [name for name in first if name.endswith(".data.txt")]
        assert len(data_files) == n_certs
        for name in data_files:
            cert = json.loads(first[name.replace(".data.txt", ".cert.json")])
            assert hashlib.sha256(first[name]).hexdigest() == cert["provenance"]

    @staticmethod
    def _certificates(run):
        """(method, frame, certificate) for every certificate of the run."""
        return [(method, (inst_id, len(result.trace)), result.terminal.certificate)
                for (method, inst_id), result in run.decisions.items()
                if result.terminal.certificate is not None]

    def test_each_distinct_certificate_is_encoded_once(self, tmp_path, monkeypatch):
        run = run_benchmark(RunConfig.from_json_dict(TINY))
        certs = self._certificates(run)
        distinct = {(frame, json.dumps(certificate_to_json_dict(cert), sort_keys=True))
                    for _, frame, cert in certs}
        # Several methods issue equal certificates for the same frame.
        assert len(certs) > len(distinct) > 0
        calls = []
        original = runner.certificate_to_json_dict

        def counting(cert):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(runner, "certificate_to_json_dict", counting)
        write_run_outputs(run, tmp_path / "run")
        assert len(calls) == len(distinct)

    def test_negative_zero_certificate_is_encoded_apart(self, tmp_path):
        run = run_benchmark(RunConfig.from_json_dict(TINY))
        by_frame = {}
        for method, frame, cert in self._certificates(run):
            by_frame.setdefault((frame, cert), []).append(method)
        # Two methods with equal certificates for one frame.
        ((inst_id, _), _), methods = next(item for item in by_frame.items()
                                          if len(item[1]) > 1)
        # Still equal under ``==`` (0.0 == -0.0), but written differently.
        for method, risk in zip(methods[:2], (0.0, -0.0)):
            result = run.decisions[(method, inst_id)]
            cert = replace(result.terminal.certificate, risk=risk)
            run.decisions[(method, inst_id)] = replace(
                result, trace=(*result.trace[:-1], replace(result.terminal, certificate=cert)))
        write_run_outputs(run, tmp_path / "run")
        for method, risk in zip(methods[:2], (0.0, -0.0)):
            path = tmp_path / "run" / "certificates" / method / f"{inst_id}.cert.json"
            assert repr(json.loads(path.read_text(encoding="utf-8"))["risk"]) == repr(risk)


class TestSweepCommands:
    def test_weights_sweep_emits_twenty_configurations(self, tmp_path):
        cfg = write_config(tmp_path, "sw")
        result = CliRunner().invoke(main, ["sweep", "weights", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "sw" / "sweep_weights.csv").read_text(encoding="utf-8")
        header, *body = rows.strip().split("\n")
        assert "w_miss" in header and "c_exp" in header
        pairs = {tuple(line.split(",")[:2]) for line in body}
        assert len(pairs) == 20
        assert sha256_hex(rows) == SWEEP_SHA256["weights"]

    def test_strength_sweep_runs_on_reduced_grid(self, tmp_path):
        cfg = write_config(tmp_path, "ss", SWEEP_TINY["strength"])
        result = CliRunner().invoke(
            main, ["sweep", "strength", "--config", str(cfg),
                   "--methods", "CIVeX,PolicyGate,AlwaysAbstain"])
        assert result.exit_code == 0, result.output
        body = (tmp_path / "ss" / "sweep_strength.csv").read_text(encoding="utf-8")
        assert body.count("\n") == 8 * 3 + 1
        assert sha256_hex(body) == SWEEP_SHA256["strength"]

    @pytest.mark.parametrize("kind", ["strength", "misspec"])
    @pytest.mark.parametrize("flag", [["--seed-list", "1"], ["--strength", "9"]])
    def test_fixed_grid_sweep_refuses_seed_and_strength_flags(self, tmp_path, kind, flag):
        cfg = write_config(tmp_path, "fixed", SWEEP_TINY[kind])
        result = CliRunner().invoke(main, ["sweep", kind, "--config", str(cfg), *flag])
        assert result.exit_code == 2
        assert (f"sweep {kind} uses seeds 42-46 and its own grid, so it takes no "
                f"--seed-list or --strength") in result.output
        assert not (tmp_path / "fixed").exists()

    @pytest.mark.parametrize("kind", ["strength", "misspec"])
    @pytest.mark.parametrize("key, value", [("seeds", [7, 8]), ("adversarial_strength", 9.0)])
    def test_fixed_grid_sweep_refuses_seed_and_strength_keys(self, tmp_path, kind, key, value):
        cfg = write_config(tmp_path, "fixed", SWEEP_TINY[kind], **{key: value})
        result = CliRunner().invoke(main, ["sweep", kind, "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: invalid configuration: sweep {kind} uses seeds "
                                 f"42-46 and its own grid, so it takes no '{key}' key\n")
        assert not (tmp_path / "fixed").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("strength", "moderate_per_family", 3),
        ("strength", "latent_fraction_moderate", 0.5),
        ("misspec", "adversarial_per_family", 2),
    ])
    def test_fixed_grid_sweep_refuses_the_other_slices_keys(self, tmp_path, kind, key, value):
        # The strength sweep builds only the adversarial slice, the misspec
        # sweep only the moderate one; each ignored the other slice's keys.
        cfg = write_config(tmp_path, "slice", SWEEP_TINY[kind], **{key: value})
        result = CliRunner().invoke(main, ["sweep", kind, "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: invalid configuration: sweep {kind} uses seeds "
                                 f"42-46 and its own grid, so it takes no '{key}' key\n")
        assert not (tmp_path / "slice").exists()

    def test_misspec_sweep(self, tmp_path):
        cfg = write_config(tmp_path, "sm", SWEEP_TINY["misspec"])
        result = CliRunner().invoke(
            main, ["sweep", "misspec", "--config", str(cfg), "--methods", "CIVeX"])
        assert result.exit_code == 0, result.output
        body = (tmp_path / "sm" / "sweep_misspec.csv").read_text(encoding="utf-8")
        assert body.count("\n") == 4 + 1
        assert sha256_hex(body) == SWEEP_SHA256["misspec"]

    def test_misspec_sweep_takes_methods_from_the_config(self, tmp_path):
        cfg = write_config(tmp_path, "smc", SWEEP_TINY["misspec"], methods=["CIVeX"])
        result = CliRunner().invoke(main, ["sweep", "misspec", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        header, *body = (tmp_path / "smc" / "sweep_misspec.csv").read_text(
            encoding="utf-8").splitlines()
        method = header.split(",").index("method")
        assert [line.split(",")[method] for line in body] == ["CIVeX"] * 4


class TestReportCommand:
    def test_report_renders_tables(self, tmp_path):
        cfg = write_config(tmp_path, "rep")
        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(cfg)]).exit_code == 0
        assert runner.invoke(main, ["report", str(tmp_path / "rep")]).exit_code == 0
        text = (tmp_path / "rep" / "report.md").read_text(encoding="utf-8")
        assert "## Moderate confounding" in text
        assert "## Adversarial confounding" in text
        assert "| Method |" in text
        assert "Certificate-only ablation" in text

    def test_strength_table_keeps_the_sweep_order(self, tmp_path):
        methods = ["SchemaGate", "ContextOnlyNoCausal", "CIVeX"]
        rows = [runner.SweepRow({"strength": s}, MethodSummary(
                    m, "adversarial", 10, 3, 1, 0.1, 1 / 3, 0.2, 0.1, 0.3, 0.25, (0.2, 0.3),
                    {42: 0.25}, "disqualified"))
                for s in (1.0, 0.5) for m in methods]
        runner.write_sweep_csv(tmp_path, "strength", rows)
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0, result.output
        text = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert "| Strength | SchemaGate | ContextOnlyNoCausal | CIVeX |" in text
        assert text.index("| 0.5 | 10.0% / +0.25 |") < text.index("| 1.0 |")

    def test_unreadable_summary_is_a_clean_error(self, tmp_path):
        (tmp_path / "summary_moderate.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: cannot read run directory {tmp_path}: "
                                 f"no column 'mean_utility'\n")
        assert not (tmp_path / "report.md").exists()


class TestVerifyCertCommand:
    def test_stored_certificates_verify_and_tamper_fails(self, tmp_path):
        cfg = write_config(tmp_path, "vc")
        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(cfg)]).exit_code == 0
        certs = sorted((tmp_path / "vc" / "certificates").rglob("*.cert.json"))
        assert certs
        cert = certs[0]
        data = cert.with_name(cert.name.replace(".cert.json", ".data.txt"))
        ok = runner.invoke(main, ["verify-cert", str(cert), str(data)])
        assert ok.exit_code == 0, ok.output
        blob = bytearray(data.read_bytes())
        blob[40] ^= 1
        tampered = tmp_path / "tampered.txt"
        tampered.write_bytes(bytes(blob))
        bad = runner.invoke(main, ["verify-cert", str(cert), str(tampered)])
        assert bad.exit_code == 1
        assert "provenance" in bad.output

    def test_wrongly_typed_field_is_a_clean_error(self, tmp_path):
        cert = tmp_path / "bad.cert.json"
        cert.write_text(json.dumps({"graph": {"nodes": 7, "directed": [], "bidirected": [],
                                              "treatment": "T", "outcome": "Y"}}),
                        encoding="utf-8")
        data = tmp_path / "data.txt"
        data.write_text("T,Y\n1.0,2.0", encoding="utf-8")
        result = CliRunner().invoke(main, ["verify-cert", str(cert), str(data)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "cannot parse certificate" in result.output


SHARD = ("seed,regime,family,index,stage1,terminal\n"
         "42,moderate,db_index_operation,0,EXECUTE,EXECUTE\n"
         "43,moderate,db_index_operation,0,REJECT,REJECT\n")


class TestReplayShards:
    """A shard reaches a run only through the config's ``replay`` key."""

    def _config(self, tmp_path, out_name, shard_text=SHARD, **extra):
        shard = tmp_path / "shard.csv"
        if shard_text is not None:
            shard.write_text(shard_text, encoding="utf-8")
        extra = {"methods": ["AlwaysAbstain", "Replay(demo)"],
                 "replay": {"demo": [str(shard)]}, **extra}
        return write_config(tmp_path, out_name, **extra)

    def test_named_shard_is_scored(self, tmp_path):
        cfg = self._config(tmp_path, "rp")
        run = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert run.exit_code == 0, run.output
        summary = (tmp_path / "rp" / "summary_moderate.csv").read_text(encoding="utf-8")
        manifest = json.loads((tmp_path / "rp" / "manifest.json").read_text())
        assert manifest["replay_coverage"]["demo"] == 2
        # Shard covers one instance per seed; everything else abstains.
        header, *rows = summary.splitlines()
        row = dict(zip(header.split(","),
                       next(r for r in rows if r.startswith("Replay(demo),")).split(",")))
        assert row["seeds_covered"] == "2"
        assert row["n_executes"] == "1"

    def test_rerun_from_the_manifest_reproduces_the_run(self, tmp_path):
        cfg = self._config(tmp_path, "first")
        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(cfg)]).exit_code == 0
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        again = tmp_path / "again.json"
        again.write_text(json.dumps(manifest["config"]), encoding="utf-8")
        rerun = runner.invoke(main, ["run", "--config", str(again),
                                     "--out", str(tmp_path / "second")])
        assert rerun.exit_code == 0, rerun.output
        first, second = (read_bytes_map(tmp_path / name) for name in ("first", "second"))
        assert first.pop("manifest.json") != second.pop("manifest.json")
        assert first == second

    def test_records_show_the_recorded_stage1(self, tmp_path):
        cfg = self._config(tmp_path, "st", SHARD.replace("0,EXECUTE,EXECUTE",
                                                         "0,EXPERIMENT,EXECUTE"))
        run = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert run.exit_code == 0, run.output
        records = (tmp_path / "st" / "records.csv").read_text(encoding="utf-8").splitlines()
        replayed = [r.split(",")[:7] for r in records if r.startswith("Replay(demo),")]
        assert ["Replay(demo)", "42", "moderate", "db_index_operation", "0",
                "EXPERIMENT", "EXECUTE"] in replayed
        assert ["Replay(demo)", "43", "moderate", "db_index_operation", "0",
                "REJECT", "REJECT"] in replayed

    def test_weights_sweep_scores_the_replay_method(self, tmp_path):
        cfg = self._config(tmp_path, "swr")
        result = CliRunner().invoke(main, ["sweep", "weights", "--config", str(cfg),
                                           "--methods", "CIVeX,Replay(demo)"])
        assert result.exit_code == 0, result.output
        body = (tmp_path / "swr" / "sweep_weights.csv").read_text(encoding="utf-8")
        header, *lines = body.splitlines()
        method = header.split(",").index("method")
        methods = [line.split(",")[method] for line in lines]
        # 20 weight configurations, two regimes each.
        assert methods.count("Replay(demo)") == methods.count("CIVeX") == 20 * 2
        assert sha256_hex(body) == SWEEP_SHA256["weights_replay"]

    def test_import_replay_is_gone(self):
        result = CliRunner().invoke(main, ["import-replay", "demo", "shard.csv"])
        assert result.exit_code == 2
        assert "No such command" in result.output and "import-replay" in result.output

    @pytest.mark.parametrize("shard_text, message", [
        (None, "No such file"),
        ("seed,regime,family,index,stage1,terminal\n42,moderate\n", "too few fields"),
        ("nope\n1\n", "missing required columns"),
        (SHARD + "42,moderate,db_index_operation,0,EXECUTE,REJECT\n", "a second time"),
        (SHARD.replace("43,moderate", "43,moderat"), "unknown regime or family"),
        (SHARD.replace("REJECT,REJECT", "REJECT,EXECUTE"), "stage 1 'REJECT', which is neither"),
    ])
    def test_missing_or_malformed_shard_is_refused(self, tmp_path, shard_text, message):
        cfg = self._config(tmp_path, "bad", shard_text)
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: invalid configuration: replay shard ")
        assert message in result.output
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("replay", [{}, {"demo": []}, {"other": ["shard.csv"]}])
    def test_replay_method_without_shards_is_refused(self, tmp_path, replay):
        cfg = self._config(tmp_path, "none", replay=replay)
        for command in (["run"], ["sweep", "weights"]):
            result = CliRunner().invoke(main, [*command, "--config", str(cfg)])
            assert result.exit_code == 1
            assert result.output == ("Error: invalid configuration: "
                                     "replay names no shard for Replay(demo)\n")
            assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("kind", ["strength", "misspec"])
    def test_regenerating_sweep_refuses_replay(self, tmp_path, kind):
        cfg = self._config(tmp_path, "sweep", base=SWEEP_TINY[kind])
        result = CliRunner().invoke(main, ["sweep", kind, "--config", str(cfg),
                                           "--methods", "CIVeX,Replay(demo)"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            f"Error: invalid configuration: replay method Replay(demo) cannot run in "
            f"the {kind} sweep")
        assert not (tmp_path / "sweep").exists()


class TestConfigSurface:
    """The config document: what the manifest records, and what is refused."""

    def test_manifest_config_loads_back_to_the_run_config(self, tmp_path):
        shard = tmp_path / "shard.csv"
        shard.write_text("seed,regime,family,index,stage1,terminal\n"
                         "42,moderate,db_index_operation,0,EXECUTE,EXECUTE\n",
                         encoding="utf-8")
        config = RunConfig(
            bench=BenchmarkSpec(seeds=(42,), moderate_per_family=2, adversarial_per_family=1,
                                n_rows=200, action_cost=0.1),
            verifier=VerifierConfig(alpha=0.1, tau_u=0.25, tau_r=0.4,
                                    forbidden_tools=frozenset({"add_index", "drop_table"})),
            weights=ScoreWeights(w_miss=0.5, c_exp=0.25),
            methods=("CIVeX", "SchemaGate", "Replay(demo)"),
            output_dir=str(tmp_path / "run"),
            replay={"demo": (str(shard),)},
        )
        write_run_outputs(run_benchmark(config))
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert RunConfig.from_json_dict(manifest["config"]) == config

    @pytest.mark.parametrize("key, value", [
        ("parallelism", 4), ("cert_only", True), ("cert_only", False),
        ("obs_assoc_per_instance", True), ("obs_assoc_per_instance", False),
    ])
    def test_retired_key_is_refused(self, tmp_path, key, value):
        # Keys that older manifests record; a config holds only the keys that
        # the manifest writes, so an older config must drop them.
        cfg = write_config(tmp_path, "removed", **{key: value})
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert f"invalid configuration: unknown config key(s): {key}" in result.output
        assert not (tmp_path / "removed").exists()

    def test_misspelled_key_is_refused(self, tmp_path):
        cfg = write_config(tmp_path, "typo", forbiden_tools=["add_index"])
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: unknown config key(s): forbiden_tools" in result.output
        assert not (tmp_path / "typo").exists()
        with pytest.raises(ValueError, match="n_row, tau_U"):
            RunConfig.from_json_dict({"n_row": 50, "tau_U": 5, "tau_u": 1.0})

    def test_every_emitted_key_loads(self):
        config = RunConfig(bench=BenchmarkSpec(seeds=(7,), n_rows=50),
                           verifier=VerifierConfig(tau_u=0.5,
                                                   forbidden_tools=frozenset({"add_index"})),
                           methods=("CIVeX",), output_dir="runs/x")
        document = config.to_json_dict()
        assert RunConfig.from_json_dict(document) == config
        for key, value in document.items():
            RunConfig.from_json_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("forbidden_tools", "add_index"),
        ("seeds", "42"),
        ("methods", "CIVeX"),
        ("replay", {"demo": "shards/demo.csv"}),
        # An object used to load as the list of its keys.
        ("forbidden_tools", {"add_index": 1}),
        ("seeds", {"42": 1}),
        ("methods", {"CIVeX": 1}),
        ("replay", {"demo": {"shards/demo.csv": 1}}),
        ("forbidden_tools", None),
        ("seeds", None),
        ("methods", None),
        ("replay", {"demo": None}),
    ])
    def test_bare_string_for_a_list_is_refused(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig.from_json_dict({key: value})
        cfg = write_config(tmp_path, "bare", **{key: value})
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration" in result.output

    @pytest.mark.parametrize("key, value, message", [
        ("n_rows", 2.5, "n_rows must be an integer"),
        ("seeds", [42.5], "seeds must be a non-empty list of distinct integers"),
        ("moderate_per_family", True, "moderate_per_family must be an integer"),
        ("adversarial_per_family", 2.0, "adversarial_per_family must be an integer"),
    ])
    def test_count_or_seed_that_is_not_an_integer_is_refused(self, tmp_path, key, value,
                                                              message):
        cfg = write_config(tmp_path, "typed", **{key: value})
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert f"invalid configuration: {message}" in result.output
        assert not (tmp_path / "typed").exists()

    @pytest.mark.parametrize("key", [
        "moderate_per_family", "adversarial_per_family", "n_rows", "adversarial_strength",
        "latent_fraction_moderate", "reversible_fraction", "action_cost", "alpha", "tau_u",
        "tau_r", "w_miss", "c_exp",
    ])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_for_a_number_is_refused(self, tmp_path, key, value):
        # JSON true loads as Python's True, which is the integer 1: "tau_u": true
        # used to gate on a utility threshold of 1 and write true to the manifest.
        cfg = write_config(tmp_path, "typed", **{key: value})
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert f"invalid configuration: {key} must be" in result.output
        assert not (tmp_path / "typed").exists()

    @pytest.mark.parametrize("extra, flags, key", [
        ({"seeds": [42, 42]}, [], "seeds"),
        ({"methods": ["CIVeX", "CIVeX"]}, [], "methods"),
        ({}, ["--seed-list", "42,42"], "seeds"),
        ({}, ["--methods", "CIVeX,CIVeX"], "methods"),
    ])
    def test_repeated_seed_or_method_is_refused(self, tmp_path, extra, flags, key):
        # A repeated seed ran and counted its instances twice; a repeated
        # method wrote each of its summary rows twice.
        cfg = write_config(tmp_path, "twice", **extra)
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), *flags])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert f"invalid configuration: {key} must be" in result.output
        assert not (tmp_path / "twice").exists()

    def test_readme_lists_the_config_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("A config document is one flat JSON object"):]
        start = section.index("```json") + len("```json")
        block = json.loads(section[start:section.index("```", start)])
        defaults = RunConfig().to_json_dict()
        assert list(block) == list(defaults)
        for key, default in defaults.items():
            if key not in ("methods", "replay"):  # the two examples
                assert block[key] == default, key
        RunConfig.from_json_dict(block)

    @pytest.mark.parametrize("key, value, name", [
        ("adversarial_strength", float("nan"), "adversarial_strength"),
        ("adversarial_strength", float("inf"), "adversarial_strength"),
        ("action_cost", float("nan"), "action_cost"),
        ("latent_fraction_moderate", 2.0, "latent_fraction_moderate"),
        ("reversible_fraction", -1, "reversible_fraction"),
        ("w_miss", float("nan"), "w_miss"),
        ("c_exp", float("inf"), "c_exp"),
        ("forbidden_tools", [1, 2], "forbidden_tools"),
    ])
    def test_value_out_of_range_is_refused(self, tmp_path, key, value, name):
        # json writes NaN and Infinity, and reads them back.
        cfg = write_config(tmp_path, "ranged", **{key: value})
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert f"invalid configuration: {name}" in result.output
        assert not (tmp_path / "ranged").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["generate"], ["run"], ["sweep", "weights"]])
    def test_strength_that_generation_cannot_honour_is_refused(self, tmp_path, command):
        # Finite and > 0, so the config check passes, but the generated
        # outcome overflows to infinity; this used to end in a FrameError
        # traceback.  A large strength that stays finite still generates.
        # Neither prints numpy's overflow warnings.
        small = {"seeds": [42], "moderate_per_family": 1, "adversarial_per_family": 1,
                 "n_rows": 50}
        cfg = write_config(tmp_path, "huge", **small, adversarial_strength=1e308)
        result = CliRunner().invoke(main, [*command, "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: adversarial_strength 1e+308" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "huge").exists()
        cfg = write_config(tmp_path, "large", **small, adversarial_strength=1e6)
        result = CliRunner().invoke(main, ["generate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert generated_instance_count(tmp_path / "large") == 12

    @pytest.mark.parametrize("document", [[], "run", 3])
    def test_config_that_is_not_an_object_is_refused(self, tmp_path, document):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        result = CliRunner().invoke(main, ["generate", "--config", str(path)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration" in result.output

    @pytest.mark.parametrize("extra, name", [
        ({"methods": [1]}, "methods"),
        ({"methods": ["CIVeX", None]}, "methods"),
        ({"output_dir": 5}, "output_dir"),
        ({"methods": ["CIVeX", "Replay(x)"], "replay": {"x": [3]}}, "replay"),
    ])
    def test_value_of_the_wrong_type_is_refused(self, tmp_path, monkeypatch, extra, name):
        # A non-string output directory, method id or shard path used to end
        # in a traceback, after the whole run for output_dir; a shard path of
        # 3 was opened as file descriptor 3.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "typed", **extra)
        result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert f"invalid configuration: {name}" in result.output
        assert "Traceback" not in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["typed.json"]


class TestRunnerApi:
    def test_run_config_validation(self):
        with pytest.raises(ValueError, match="methods"):
            RunConfig(methods=())
        with pytest.raises(ValueError, match="methods must be .* distinct method ids"):
            RunConfig(methods=("NotAMethod",))

    def test_weight_sweep_reuses_cached_decisions(self):
        config = RunConfig(
            bench=BenchmarkSpec(seeds=(42,), moderate_per_family=3,
                                adversarial_per_family=2),
            methods=("CIVeX", "AlwaysAbstain"),
            output_dir="unused",
        )
        result = run_benchmark(config)
        rows = run_weight_sweep(result)
        assert len(rows) == 20 * 2 * 2
        default = [r for r in rows
                   if r.point == {"w_miss": 0.3, "c_exp": 0.05}
                   and r.summary.method == "CIVeX" and r.summary.regime == "moderate"]
        summary = result.summaries[("CIVeX", "moderate")]
        assert default[0].summary.mean_utility == pytest.approx(summary.mean_utility, abs=1e-12)
