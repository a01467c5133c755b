"""Exception hierarchy shared across the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries while still being able to react
to specific failure modes (parse errors, learning divergence, synthesis
failure, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PolicyError(ReproError):
    """A replacement policy was configured or driven incorrectly."""


class CacheError(ReproError):
    """A cache model invariant was violated (bad block, bad line index, ...)."""


class AddressingError(CacheError):
    """Address translation / set-index / slice computation failed."""


class MBLSyntaxError(ReproError):
    """A MemBlockLang expression could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class MBLExpansionError(ReproError):
    """A syntactically valid MBL expression could not be expanded.

    Typical causes are tagging an already-tagged expression or requesting
    more distinct blocks than the configured block universe provides.
    """


class CacheQueryError(ReproError):
    """The CacheQuery frontend/backend could not execute a query."""


class StoreError(ReproError):
    """The shared prefix store could not record, encode or persist data."""


class StoreCorruptionError(StoreError):
    """A prefix-store file on disk is unreadable, malformed or truncated.

    Raised with a message naming the file and the first structural problem
    found, so a half-written store (e.g. a killed run) surfaces as an
    actionable diagnostic instead of a raw traceback.  Loading is
    all-or-nothing: a store that fails to load stays empty.
    """


class LearningError(ReproError):
    """The automata-learning loop failed (non-determinism, budget, ...)."""


class NonDeterminismError(LearningError):
    """The system under learning produced two different outputs for one query.

    The paper relies on this signal to detect incorrect reset sequences and
    adaptive (non-deterministic) cache sets (section 7.1).
    """

    def __init__(self, query, first, second) -> None:
        self.query = tuple(query)
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(
            "non-deterministic behaviour observed for query "
            f"{list(self.query)}: {list(first)} vs {list(second)}"
        )


class OutputLengthMismatchError(NonDeterminismError):
    """An oracle returned the wrong number of outputs for an input word.

    A Mealy-style output query must produce exactly one output symbol per
    input symbol; anything else means the oracle truncated or padded its
    answer (e.g. a hardware probe dropping measurements).  Kept a subclass
    of :class:`NonDeterminismError` because callers treat both as "the
    oracle cannot be trusted", but carries the actual observation instead
    of pretending the input word was a second output word.
    """

    def __init__(self, word, outputs) -> None:
        self.word = tuple(word)
        self.outputs = tuple(outputs)
        # NonDeterminismError compatibility: the "conflict" is between the
        # expected and the observed answer length.
        self.query = self.word
        self.first = self.outputs
        self.second = ()
        LearningError.__init__(
            self,
            f"oracle returned {len(self.outputs)} outputs for the "
            f"{len(self.word)}-symbol query {list(self.word)}: {list(self.outputs)}",
        )


class NonMinimalMachineError(LearningError):
    """A construction that needs a minimal Mealy machine found two equivalent states.

    Raised by the characterization-set machinery behind the W/Wp conformance
    suites; the conformance oracle catches exactly this error to fall back to
    the minimized machine.
    """


class ResetError(LearningError):
    """A reset sequence failed to bring the cache to a reproducible state."""


class SynthesisError(ReproError):
    """The synthesizer exhausted its search space without finding a program."""


class BudgetExceeded(ReproError):
    """A configured time / query / state budget was exceeded."""

    def __init__(self, message: str, *, spent=None, budget=None) -> None:
        self.spent = spent
        self.budget = budget
        super().__init__(message)
