"""A placeholder for the retired columnar batch executor.

No plan contains a ``Vectorized`` node: the streaming executor is the one
executor.  The class stays only because the end-to-end benchmark's layer
breakdown (``benchmarks/e2e/layers.py``) imports it to count vectorized
plans, so ``relational.vectorized_plan_pct`` reads 0.  The next benchmark
refresh (ROADMAP item 1) drops that metric and this module.
"""

from dataclasses import dataclass

from repro.relational.algebra import Plan


@dataclass(frozen=True)
class Vectorized(Plan):
    """Never instantiated; see the module docstring."""

    child: Plan
