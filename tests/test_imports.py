"""What a civex process loads: no scipy at all, the gate and `civex
verify-cert` without the benchmark; and what each module exports.

The normal quantile is a port of Cephes ``ndtri`` and the signed-rank test
ranks with numpy, so scipy is a test oracle, not a runtime dependency.  The
checks run in a fresh interpreter, because this test process imports scipy
itself (as an oracle) and every civex module.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import civex

SRC = Path(__file__).resolve().parents[1] / "src"

# With ``sys.modules["scipy"] = None`` any scipy import raises, so a code path
# that needs scipy fails here even if the module list were not checked.
# Import, a smoke-size run with every default method written to disk, then
# `civex verify-cert` on one written certificate, all in one process.
SCRIPT = """
import sys
sys.modules["scipy"] = None

import json
from pathlib import Path

import civex, civex.cli
from civex.runner import RunConfig, run_benchmark, write_run_outputs
from civex.scm import BenchmarkSpec

out = Path(sys.argv[1])
config = RunConfig(bench=BenchmarkSpec(seeds=(42,), moderate_per_family=2,
                                       adversarial_per_family=1))
write_run_outputs(run_benchmark(config), out)
cert = sorted(out.glob("certificates/*/*.cert.json"))[0]
data = cert.with_name(cert.name.replace(".cert.json", ".data.txt"))
try:
    civex.cli.main(["verify-cert", str(cert), str(data)], standalone_mode=False)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(name for name, module in sys.modules.items() if module is not None)
print(json.dumps({"verify_exit": code, "modules": loaded}))
"""


# The package root, then the gate and certificate replay on their own.
GATE_SCRIPT = """
import json, sys
import civex
root = sorted(name for name in sys.modules if name.startswith("civex."))
import civex.verifier
print(json.dumps({"root": root, "verifier": sorted(sys.modules)}))
"""


# `civex verify-cert` alone, on the certificate and data named on the command line.
VERIFY_SCRIPT = """
import json, sys
import civex.cli
try:
    civex.cli.main(["verify-cert", *sys.argv[1:]], standalone_mode=False)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"verify_exit": code, "modules": sorted(sys.modules)}))
"""


def _fresh(script: str, *args: str) -> dict:
    """The JSON line the script prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_module_is_loaded(tmp_path):
    result = _fresh(SCRIPT, str(tmp_path / "run"))
    assert result["verify_exit"] == 0
    assert "civex.cli" in result["modules"]
    loaded = [name for name in result["modules"]
              if name == "scipy" or name.startswith("scipy.")]
    assert loaded == []


def test_gate_loads_without_the_benchmark():
    # The package root re-exports nothing, and the verifier imports the
    # benchmark's types for annotations only, so a process that gates or
    # replays loads neither the benchmark nor the harness.
    result = _fresh(GATE_SCRIPT)
    assert result["root"] == []
    benchmark = {"civex.scm", "civex.evaluation", "civex.baselines", "civex.runner",
                 "civex.cli", "click"}
    assert "civex.verifier" in result["verifier"]
    assert benchmark.isdisjoint(result["verifier"])


def test_verify_cert_loads_no_benchmark_module(tmp_path):
    # The certificates of seed 42's first instances, as a default run writes
    # them: a run's instances do not depend on how many it draws.
    from civex.runner import RunConfig, run_benchmark, write_run_outputs
    from civex.scm import BenchmarkSpec
    bench = BenchmarkSpec(seeds=(42,), moderate_per_family=2, adversarial_per_family=1)
    write_run_outputs(run_benchmark(RunConfig(bench=bench, methods=("CIVeX",))), tmp_path)
    cert = sorted(tmp_path.glob("certificates/*/*.cert.json"))[0]
    data = cert.with_name(cert.name.replace(".cert.json", ".data.txt"))
    # The policy document is read by the gate's own config reader, so
    # `--config` loads no benchmark module either.
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"tau_u": 0.0, "forbidden_tools": ["drop_table"]}),
                      encoding="utf-8")
    benchmark = {"civex.runner", "civex.scm", "civex.baselines", "civex.evaluation"}
    for args in ((), ("--config", str(policy))):
        result = _fresh(VERIFY_SCRIPT, str(cert), str(data), *args)
        assert result["verify_exit"] == 0
        assert "civex.cli" in result["modules"]
        assert benchmark.isdisjoint(result["modules"])


@pytest.mark.parametrize("name", ["civex"] + [
    f"civex.{module.name}" for module in pkgutil.iter_modules(civex.__path__)])
def test_every_exported_name_exists(name):
    # A deletion that leaves its ``__all__`` entry behind breaks
    # ``from module import *``.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
