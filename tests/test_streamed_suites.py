"""Tests for the lazily streamed W-/Wp-method suites.

The generators must yield **exactly** the suite the PR 1 materialised
implementation produced — same words, same order, for every registry
machine at depths 1 and 2 — and the conformance oracle consuming them must
never pull more than one ``batch_size`` batch ahead of execution (instead
of materialising ~350k words before the first batch runs).
"""

from __future__ import annotations

import types
from itertools import islice, product
from typing import List, Set, Tuple

import pytest

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.equivalence import ConformanceEquivalenceOracle
from repro.learning.oracles import CachedMembershipOracle, MealyMachineOracle
from repro.learning.wpmethod import (
    characterization_set,
    identification_sets,
    iter_w_method_suite,
    iter_wp_method_suite,
    state_cover,
    transition_cover,
    w_method_suite,
    wp_method_suite,
)
from repro.policies.registry import available_policies, make_policy

Word = Tuple[object, ...]


def _machine(name: str, associativity: int = 2):
    return make_policy(name, associativity).to_mealy(max_states=200_000).minimize()


# ----------------------------------------- the PR 1 reference implementations


def _middle_words(alphabet, depth):
    for length in range(depth + 1):
        for word in product(alphabet, repeat=length):
            yield word


def _reference_w_suite(machine, depth):
    """The eager W-method construction exactly as PR 1 materialised it."""
    prefixes = transition_cover(machine)
    w_set = characterization_set(machine)
    suite: List[Word] = []
    seen: Set[Word] = set()
    for prefix in prefixes:
        for middle in _middle_words(machine.inputs, depth):
            for suffix in w_set:
                word = prefix + middle + suffix
                if word and word not in seen:
                    seen.add(word)
                    suite.append(word)
    return suite


def _reference_wp_suite(machine, depth):
    """The eager Wp-method construction exactly as PR 1 materialised it."""
    access = state_cover(machine)
    w_set = characterization_set(machine)
    ident = identification_sets(machine)
    suite: List[Word] = []
    seen: Set[Word] = set()

    def add(word):
        if word and word not in seen:
            seen.add(word)
            suite.append(word)

    for word in access.values():
        for middle in _middle_words(machine.inputs, depth):
            for suffix in w_set:
                add(word + middle + suffix)
    for state in machine.states:
        base = access.get(state)
        if base is None:
            continue
        for symbol in machine.inputs:
            prefix = base + (symbol,)
            for middle in _middle_words(machine.inputs, depth):
                word = prefix + middle
                target = machine.state_after(word)
                for suffix in ident[target]:
                    add(word + suffix)
    return suite


# --------------------------------------------------------------- exact parity


@pytest.mark.parametrize("policy_name", available_policies())
@pytest.mark.parametrize("depth", [1, 2])
def test_streamed_wp_suite_matches_materialised_suite(policy_name, depth):
    machine = _machine(policy_name)
    expected = _reference_wp_suite(machine, depth)
    assert list(iter_wp_method_suite(machine, depth)) == expected
    assert wp_method_suite(machine, depth) == expected


@pytest.mark.parametrize("policy_name", available_policies())
@pytest.mark.parametrize("depth", [1, 2])
def test_streamed_w_suite_matches_materialised_suite(policy_name, depth):
    machine = _machine(policy_name)
    expected = _reference_w_suite(machine, depth)
    assert list(iter_w_method_suite(machine, depth)) == expected
    assert w_method_suite(machine, depth) == expected


# ------------------------------------------------------------------- laziness


class TestLaziness:
    def test_suites_are_generators(self):
        machine = _machine("LRU")
        assert isinstance(iter_wp_method_suite(machine, 1), types.GeneratorType)
        assert isinstance(iter_w_method_suite(machine, 1), types.GeneratorType)

    def test_prefix_of_the_stream_matches_the_list(self):
        machine = _machine("SRRIP-HP")
        suite = wp_method_suite(machine, 2)
        assert list(islice(iter_wp_method_suite(machine, 2), 10)) == suite[:10]

    def test_negative_depth_raises_eagerly(self):
        machine = _machine("FIFO")
        with pytest.raises(LearningError):
            iter_wp_method_suite(machine, -1)  # no iteration needed
        with pytest.raises(LearningError):
            iter_w_method_suite(machine, -1)

    def test_non_minimal_machine_raises_eagerly(self):
        minimal = _machine("LRU")
        doubled = [f"{state}/{copy}" for state in minimal.states for copy in (0, 1)]
        transitions = {}
        outputs = {}
        for state in minimal.states:
            for copy in (0, 1):
                for symbol in minimal.inputs:
                    successor, output = minimal.step(state, symbol)
                    transitions[(f"{state}/{copy}", symbol)] = f"{successor}/0"
                    outputs[(f"{state}/{copy}", symbol)] = output
        non_minimal = MealyMachine(
            doubled, f"{minimal.initial_state}/0", list(minimal.inputs), transitions, outputs
        )
        # The error must surface at call time (so the conformance oracle's
        # fallback can catch it), not on first next().
        with pytest.raises(LearningError):
            iter_wp_method_suite(non_minimal, 1)


# ------------------------------------------------------- the in-flight window


class _TrackingOracle(ConformanceEquivalenceOracle):
    """Counts how far ahead of consumption the suite generator ever ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.words_generated = 0
        self.max_outstanding = 0

    def _suite(self, hypothesis):
        inner = super()._suite(hypothesis)

        def tracked():
            for word in inner:
                self.words_generated += 1
                outstanding = self.words_generated - self.statistics.test_words
                self.max_outstanding = max(self.max_outstanding, outstanding)
                yield word

        return tracked()


class TestInflightWindow:
    def test_serial_streaming_holds_one_batch_at_a_time(self):
        reference = _machine("SRRIP-HP")
        suite_size = len(wp_method_suite(reference, 2))
        batch_size = 16
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = _TrackingOracle(engine, depth=2, batch_size=batch_size)
        assert oracle.find_counterexample(reference) is None
        assert oracle.statistics.test_words == suite_size
        assert oracle.max_outstanding <= batch_size

    def test_streamed_truncation_accounting_stays_exact(self):
        reference = _machine("SRRIP-HP")
        suite_size = len(wp_method_suite(reference, 1))
        cap = 5
        assert suite_size > cap
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = ConformanceEquivalenceOracle(engine, depth=1, max_tests=cap)
        assert oracle.find_counterexample(reference) is None
        assert oracle.statistics.tests_skipped == suite_size - cap
        assert oracle.statistics.test_words == cap

    def test_truncation_accounting_exact_when_counterexample_found(self):
        reference = _machine("LRU", 4)
        wrong = _machine("FIFO", 4)
        suite_size = len(wp_method_suite(wrong, 1))
        cap = suite_size - 3
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = ConformanceEquivalenceOracle(
            engine, depth=1, max_tests=cap, batch_size=8
        )
        assert oracle.find_counterexample(wrong) is not None
        # Even though the run stopped at the counterexample, the capped-off
        # tail is fully accounted (it was never going to run either way).
        assert oracle.statistics.tests_skipped == suite_size - cap
