"""What a civex process loads: no scipy at all; and what each module exports.

The normal quantile is a port of Cephes ``ndtri`` and the signed-rank test
ranks with numpy, so scipy is a test oracle, not a runtime dependency.  The
check runs in a fresh interpreter, because this test process imports scipy
itself (as an oracle).
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


def test_no_scipy_module_is_loaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["verify_exit"] == 0
    assert "civex.cli" in result["modules"]
    loaded = [name for name in result["modules"]
              if name == "scipy" or name.startswith("scipy.")]
    assert loaded == []


@pytest.mark.parametrize("name", ["civex"] + [
    f"civex.{module.name}" for module in pkgutil.iter_modules(civex.__path__)])
def test_every_exported_name_exists(name):
    # A deletion that leaves its ``__all__`` entry behind breaks
    # ``from module import *``.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
