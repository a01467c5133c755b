"""Conformance-test suite generation: W-method and Wp-method.

The paper approximates equivalence queries by conformance testing
(Section 3.3): a test suite that is *m-complete* for the hypothesis ``H``
guarantees that any policy with fewer than ``m`` states that agrees with
``H`` on the suite is trace-equivalent to it (Theorem 3.3).  The classic
constructions are:

* the **W-method** (Chow): ``P · Σ^{≤k+1} · W`` where ``P`` is a transition
  cover of ``H``, ``W`` a characterization set, and ``k`` the *depth* — the
  number of extra states beyond ``|H|`` the suite can expose;
* the **Wp-method** (Fujiwara et al., the method named in the paper): the
  same first phase with the state cover, and a cheaper second phase that
  uses per-state identification sets instead of the full ``W``.

Both constructions are provided; the equivalence oracle defaults to the
Wp-method with depth ``k = 1`` as in the paper's experiments.

Streaming
---------

At depth ≥ 2 the suites grow into the hundreds of thousands of words
(PLRU-8: ~350k), and materialising them used to take noticeable time
before the first test word could be executed.  :func:`iter_w_method_suite` / :func:`iter_wp_method_suite`
generate the **same words in the same order** lazily: the covers and
characterization machinery are built eagerly (so a non-minimal machine
still fails fast with :class:`~repro.errors.NonMinimalMachineError`), but the
cross-product enumeration is a generator the conformance tester can drain
chunk by chunk.  The list-returning :func:`w_method_suite` /
:func:`wp_method_suite` are thin wrappers kept for callers that genuinely
need the whole suite (suite-size accounting, tests).

The only per-word state the generators keep is the deduplication set —
O(distinct words) keys, unavoidable for exact parity with the materialised
suites — but words are *yielded* one at a time, so execution overlaps
generation and the parent's queued-word footprint is bounded by the
consumer's in-flight window instead of the full suite.
"""

from __future__ import annotations

from itertools import product
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.mealy import MealyMachine
from repro.errors import LearningError, NonMinimalMachineError

Input = Hashable
Word = Tuple[Input, ...]


# --------------------------------------------------------------------- covers

def state_cover(machine: MealyMachine) -> Dict[Hashable, Word]:
    """Return a shortest access word for every state (BFS from the initial state)."""
    cover: Dict[Hashable, Word] = {machine.initial_state: ()}
    frontier: List[Hashable] = [machine.initial_state]
    while frontier:
        next_frontier: List[Hashable] = []
        for state in frontier:
            for symbol in machine.inputs:
                successor, _ = machine.step(state, symbol)
                if successor not in cover:
                    cover[successor] = cover[state] + (symbol,)
                    next_frontier.append(successor)
        frontier = next_frontier
    return cover


def transition_cover(machine: MealyMachine) -> List[Word]:
    """Return the transition cover: every state's access word extended by every input."""
    cover = state_cover(machine)
    words: List[Word] = []
    for state in machine.states:
        access = cover.get(state)
        if access is None:
            continue
        for symbol in machine.inputs:
            words.append(access + (symbol,))
    return words


# --------------------------------------------------- characterization machinery

def _distinguishing_suffix(
    machine: MealyMachine,
    state_a: Hashable,
    state_b: Hashable,
    cache: Optional[Dict[frozenset, Word]] = None,
) -> Word:
    """Return a shortest input word on which ``state_a`` and ``state_b`` differ.

    The search is symmetric in its two states (swapping them swaps both
    roles everywhere in the BFS), so an optional ``cache`` keyed by the
    unordered pair lets one suite generation reuse the suffix the
    characterization pass already found when the identification pass asks
    about the same pair — same word either way, just computed once.
    """
    if state_a == state_b:
        raise LearningError("cannot distinguish a state from itself")
    if cache is not None:
        pair_key = frozenset((state_a, state_b))
        hit = cache.get(pair_key)
        if hit is not None:
            return hit
    suffix = machine.counterexample_against(state_b, machine.step, state=state_a)
    if suffix is None:
        raise NonMinimalMachineError("states are equivalent; the machine is not minimal")
    if cache is not None:
        cache[pair_key] = suffix
    return suffix


def characterization_set(
    machine: MealyMachine, *, _suffix_cache: Optional[Dict[frozenset, Word]] = None
) -> List[Word]:
    """Return a characterization set ``W``: suffixes separating every state pair.

    The machine must be minimal (the learner's hypotheses are by
    construction).  The set is built greedily: for every pair of states not
    yet separated by the current ``W``, a shortest distinguishing suffix is
    added.

    Each ``(state, word)`` output tail is computed once and the signature
    lists extended lazily as ``W`` grows, so the greedy pair scan costs
    O(|S|·|W|) machine runs instead of the O(|S|²·|W|) the per-pair
    recomputation used to pay — the returned set is unchanged (same
    suffixes, same order), this is purely how often ``machine.run`` fires.
    """
    states = list(machine.states)
    if len(states) <= 1:
        # Any single-symbol word works as a placeholder so product sets are
        # non-empty.
        return [(machine.inputs[0],)]
    w_set: List[Word] = []
    signatures: Dict[Hashable, List] = {state: [] for state in states}

    def signature(state: Hashable) -> List:
        outputs = signatures[state]
        while len(outputs) < len(w_set):
            outputs.append(machine.run(w_set[len(outputs)], state))
        return outputs

    for i, state_a in enumerate(states):
        for state_b in states[i + 1:]:
            if signature(state_a) == signature(state_b):
                w_set.append(
                    _distinguishing_suffix(machine, state_a, state_b, _suffix_cache)
                )
    return w_set


def identification_sets(
    machine: MealyMachine, *, _suffix_cache: Optional[Dict[frozenset, Word]] = None
) -> Dict[Hashable, List[Word]]:
    """Return per-state identification sets ``W_s`` (for the Wp-method phase 2).

    ``W_s`` distinguishes ``s`` from every other state of the machine.

    Output tails are memoised per ``(state, suffix)`` across the whole
    construction — the same suffix separates many pairs, and without the
    cache the pair scan re-runs it O(|S|²) times.  The returned sets are
    unchanged.
    """
    states = list(machine.states)
    sets: Dict[Hashable, List[Word]] = {}
    tails: Dict[Tuple[Hashable, Word], Tuple] = {}

    def tail(word: Word, state: Hashable) -> Tuple:
        key = (state, word)
        answer = tails.get(key)
        if answer is None:
            answer = machine.run(word, state)
            tails[key] = answer
        return answer

    for state in states:
        suffixes: List[Word] = []

        def separated(other: Hashable) -> bool:
            return any(tail(word, state) != tail(word, other) for word in suffixes)

        for other in states:
            if other == state or separated(other):
                continue
            suffixes.append(
                _distinguishing_suffix(machine, state, other, _suffix_cache)
            )
        if not suffixes:
            suffixes.append((machine.inputs[0],))
        sets[state] = suffixes
    return sets


# ----------------------------------------------------------------- test suites

def _middle_words(alphabet: Sequence[Input], depth: int) -> Iterator[Word]:
    """Yield all words over ``alphabet`` of length 0..depth."""
    for length in range(depth + 1):
        for word in product(alphabet, repeat=length):
            yield word


def iter_w_method_suite(machine: MealyMachine, depth: int = 1) -> Iterator[Word]:
    """Yield the W-method suite ``P · Σ^{≤depth} · W`` lazily (deduplicated).

    Validation and the cover/characterization constructions run eagerly —
    a negative depth or a non-minimal machine raises before the first word
    — but the cross-product enumeration is lazy, in exactly the order the
    materialised :func:`w_method_suite` returns.
    """
    if depth < 0:
        raise LearningError(f"depth must be >= 0, got {depth}")
    prefixes = transition_cover(machine)
    w_set = characterization_set(machine, _suffix_cache={})

    def generate() -> Iterator[Word]:
        seen: Set[Word] = set()
        for prefix in prefixes:
            for middle in _middle_words(machine.inputs, depth):
                for suffix in w_set:
                    word = prefix + middle + suffix
                    if word and word not in seen:
                        seen.add(word)
                        yield word

    return generate()


def w_method_suite(machine: MealyMachine, depth: int = 1) -> List[Word]:
    """Return the W-method test suite ``P · Σ^{≤depth} · W`` (deduplicated)."""
    return list(iter_w_method_suite(machine, depth))


def iter_wp_method_suite(machine: MealyMachine, depth: int = 1) -> Iterator[Word]:
    """Yield the Wp-method suite lazily, in the materialised suite's order.

    Phase 1 checks every state of the hypothesis with the full
    characterization set; phase 2 checks every transition (extended by up to
    ``depth`` extra symbols) with the identification set of the state it is
    supposed to reach.  As with :func:`iter_w_method_suite`, validation and
    the characterization machinery run eagerly; enumeration is lazy.
    """
    if depth < 0:
        raise LearningError(f"depth must be >= 0, got {depth}")
    access = state_cover(machine)
    suffix_cache: Dict[frozenset, Word] = {}
    w_set = characterization_set(machine, _suffix_cache=suffix_cache)

    def generate() -> Iterator[Word]:
        seen: Set[Word] = set()

        # Phase 1: state cover x Sigma^{<=depth} x W.
        for base in access.values():
            for middle in _middle_words(machine.inputs, depth):
                for suffix in w_set:
                    word = base + middle + suffix
                    if word and word not in seen:
                        seen.add(word)
                        yield word

        # Phase 2: transition cover x Sigma^{<=depth} x W_{target state}.
        # The identification sets are built only when phase 2 actually
        # starts: a conformance round whose counterexample surfaces in
        # phase 1 never pays for them (the fail-fast minimality guarantee
        # is unchanged — ``characterization_set`` above already raises on a
        # non-minimal machine, and a machine it accepts cannot make
        # ``identification_sets`` fail).
        ident = identification_sets(machine, _suffix_cache=suffix_cache)
        for state in machine.states:
            base = access.get(state)
            if base is None:
                continue
            for symbol in machine.inputs:
                prefix = base + (symbol,)
                for middle in _middle_words(machine.inputs, depth):
                    stem = prefix + middle
                    target = machine.state_after(stem)
                    for suffix in ident[target]:
                        word = stem + suffix
                        if word and word not in seen:
                            seen.add(word)
                            yield word

    return generate()


def wp_method_suite(machine: MealyMachine, depth: int = 1) -> List[Word]:
    """Return the Wp-method test suite for ``machine`` with the given depth."""
    return list(iter_wp_method_suite(machine, depth))


def suite_total_symbols(suite: Iterable[Word]) -> int:
    """Return the total number of input symbols in a test suite (cost metric)."""
    return sum(len(word) for word in suite)
