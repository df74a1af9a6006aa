import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="module")
def small_run():
    """A run of every default method on seed 42: two instances of each family
    and regime, 80-row frames."""
    from civex.runner import RunConfig, run_benchmark
    from civex.scm import BenchmarkSpec
    spec = BenchmarkSpec(seeds=(42,), moderate_per_family=2, adversarial_per_family=2, n_rows=80)
    return run_benchmark(RunConfig(bench=spec))
