"""Causal intervention verifier, synthetic tool-call benchmark, and harness.

The package root exports only ``__version__``; every other name is imported
from its own module, so ``import civex.verifier`` loads the gate and the
certificate replay without the benchmark.
"""

__version__ = "0.1.0"
