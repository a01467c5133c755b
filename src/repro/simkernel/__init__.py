"""Tabulated simulator kernels: flat-array policy execution for the hot loop.

The simulated oracle used to answer every policy symbol by stepping a
pure-Python :class:`~repro.cache.cacheset.CacheSet` one block at a time —
the inner loop that dominates every Table 2 wall clock.  This subsystem
replaces that loop for bounded policies:

* :mod:`~repro.simkernel.tables` compiles any registered policy into dense
  ``next_state`` / ``output`` transition arrays via the existing
  ``to_mealy`` enumeration;
* :mod:`~repro.simkernel.steppers` provides two interchangeable chunk
  steppers over those arrays — a vectorized numpy kernel (lockstep gathers
  over a states vector) and a dependency-free pure-Python fallback;
* :mod:`~repro.simkernel.batch` wraps table + stepper into the
  :class:`BatchSimulator` facade, which speaks the learning stack's
  batched/resumable oracle protocol.

Consumers pick a kernel with the ``kernel=`` knob threaded through
:class:`~repro.polca.algorithm.PolcaMembershipOracle`,
:class:`~repro.polca.pipeline.PolicyLearningPipeline` and the experiment
CLI (``--kernel {auto,python,numpy,scalar}``); answers
and statistics are bit-identical across kernels and the legacy scalar path
by construction, a property ``tests/test_property_fuzz.py`` enforces.
"""

from repro.simkernel.batch import BatchSimulator
from repro.simkernel.steppers import (
    KERNEL_NAMES,
    NumpyKernel,
    PythonKernel,
    numpy_available,
    resolve_kernel,
)
from repro.simkernel.tables import (
    DEFAULT_STATE_BOUND,
    TabulatedPolicy,
    tabulate_policy,
)

__all__ = [
    "BatchSimulator",
    "DEFAULT_STATE_BOUND",
    "KERNEL_NAMES",
    "NumpyKernel",
    "PythonKernel",
    "TabulatedPolicy",
    "numpy_available",
    "resolve_kernel",
    "tabulate_policy",
]
