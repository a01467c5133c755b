"""Policy input/output alphabets (Table 1 of the paper).

A replacement policy of associativity ``n`` consumes inputs

* ``Ln(i)`` — "the block stored in cache line *i* was accessed (a hit)", and
* ``Evct`` — "a miss happened, pick a line to evict",

and produces outputs

* ``⊥`` (here :data:`MISS_OUTPUT`, rendered ``"-"``) for ``Ln(i)`` inputs, and
* a line index in ``0..n-1`` for ``Evct`` inputs.

Inputs are *interned*: ``Line(i)`` always returns the same instance for a
given ``i`` and ``Evict()`` always returns :data:`EVICT`.  Equality and
hashing are therefore object identity, inherited from :class:`object` and
run at C speed — every trie node, observation-table cell, hypothesis
transition and suite dedupe in the learning loop is a dict or set lookup
keyed by these symbols.  They stay immutable, are ordered by line index,
and have readable ``repr``s in learned models and error messages.

Identity hashes depend on memory addresses, so the iteration order of a
``set`` of symbols (or of words over them) differs between processes:
nothing that reaches output may depend on it.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from functools import total_ordering
from typing import Dict, Tuple, Union


class _Interned:
    """Immutability shared by the interned symbol classes."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@total_ordering
class Line(_Interned):
    """Input symbol ``Ln(i)``: access the block currently stored in line ``i``."""

    __slots__ = ("index",)
    index: int

    def __new__(cls, index: int) -> "Line":
        # operator.index rejects 1.0 (which would hash like 1 and alias Line(1)).
        index = operator.index(index)
        line = _LINES.get(index)
        if line is None:
            if index < 0:
                raise ValueError(f"line index must be non-negative, got {index}")
            line = object.__new__(cls)
            object.__setattr__(line, "index", index)
            line = _LINES.setdefault(index, line)
        return line

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through the constructor, which
        # returns the interned instance.
        return (Line, (self.index,))

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Line):
            return self.index < other.index
        return NotImplemented

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Ln({self.index})"

    __repr__ = __str__


#: The interned ``Line`` instances, keyed by index.
_LINES: Dict[int, Line] = {}


@total_ordering
class Evict(_Interned):
    """Input symbol ``Evct``: request that the policy frees one line."""

    __slots__ = ()

    def __new__(cls) -> "Evict":
        return EVICT

    def __reduce__(self):
        return (Evict, ())

    def __lt__(self, other: object) -> bool:
        # There is one Evct instance, and it is not less than itself.
        return False if isinstance(other, Evict) else NotImplemented

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "Evct"

    __repr__ = __str__


#: The singleton eviction-request input.
EVICT: Evict = object.__new__(Evict)

#: Output produced for ``Ln(i)`` inputs (the paper's ``⊥``).
MISS_OUTPUT = "-"

PolicyInput = Union[Line, Evict]
#: Policy outputs are either :data:`MISS_OUTPUT` or a line index.
PolicyOutput = Union[str, int]


def policy_input_alphabet(associativity: int) -> Tuple[PolicyInput, ...]:
    """Return the full policy input alphabet for the given associativity.

    The order is ``Ln(0), ..., Ln(n-1), Evct`` which matches the order used in
    the paper's examples and keeps learned models stable across runs.
    """
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    return tuple(Line(i) for i in range(associativity)) + (EVICT,)


def policy_output_alphabet(associativity: int) -> Tuple[PolicyOutput, ...]:
    """Return the full policy output alphabet for the given associativity."""
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    return (MISS_OUTPUT,) + tuple(range(associativity))


def is_line_input(symbol: PolicyInput) -> bool:
    """Return ``True`` when ``symbol`` is an ``Ln(i)`` access."""
    return isinstance(symbol, Line)


def is_evict_input(symbol: PolicyInput) -> bool:
    """Return ``True`` when ``symbol`` is the ``Evct`` request."""
    return isinstance(symbol, Evict)


def validate_output(symbol: PolicyInput, output: PolicyOutput, associativity: int) -> None:
    """Check the well-formedness conditions of Definition 2.1.

    ``Ln(i)`` inputs must produce ``⊥``; ``Evct`` must produce a line index in
    range.  Raises :class:`ValueError` on violation.
    """
    if isinstance(symbol, Line):
        if output != MISS_OUTPUT:
            raise ValueError(f"Ln({symbol.index}) must output {MISS_OUTPUT!r}, got {output!r}")
    else:
        if not isinstance(output, int) or not 0 <= output < associativity:
            raise ValueError(
                f"Evct must output a line index in [0, {associativity}), got {output!r}"
            )
