"""Tabulated simulator: flat-array policy execution for the hot loop.

The simulated oracle used to answer every policy symbol by stepping a
pure-Python :class:`~repro.cache.cacheset.CacheSet` one block at a time —
the inner loop that dominates every Table 2 wall clock.  This subsystem
replaces that loop for bounded policies:

* :mod:`~repro.simkernel.tables` compiles any registered policy into dense
  ``next_state`` / ``output`` transition arrays via the existing
  ``to_mealy`` enumeration;
* :mod:`~repro.simkernel.batch` steps whole chunks of words over those
  arrays in the :class:`BatchSimulator`, which speaks the learning stack's
  batched/resumable oracle protocol.

Consumers choose with the ``kernel=`` knob threaded through
:class:`~repro.polca.algorithm.PolcaMembershipOracle`,
:class:`~repro.polca.pipeline.PolicyLearningPipeline` and the experiment
CLI (``--kernel {auto,scalar}``): ``auto`` runs the tabulated stepper when
the interface and the policy allow it, ``scalar`` the per-symbol policy
objects.  Answers and statistics are bit-identical either way, a property
``tests/test_property_fuzz.py`` enforces.
"""

from repro.simkernel.batch import BatchSimulator
from repro.simkernel.tables import (
    DEFAULT_STATE_BOUND,
    TabulatedPolicy,
    tabulate_policy,
)

__all__ = [
    "BatchSimulator",
    "DEFAULT_STATE_BOUND",
    "TabulatedPolicy",
    "tabulate_policy",
]
