"""The numpy probe below; the tabulated stepper is ``BatchSimulator._run``."""

from __future__ import annotations


# Kept only because pipebench/run.py imports it during its set-up phase.
def numpy_available() -> bool:
    """True when numpy can be imported in this interpreter."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True
