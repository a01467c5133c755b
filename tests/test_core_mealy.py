"""Unit and property tests for the Mealy machine core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mealy import (
    MealyDefinitionError,
    MealyMachine,
    StateBoundError,
    mealy_from_step_function,
)


def _toggle_machine():
    """A two-state machine that outputs the state it leaves."""
    states = ["even", "odd"]
    inputs = ["a", "b"]
    transitions = {
        ("even", "a"): "odd",
        ("even", "b"): "even",
        ("odd", "a"): "even",
        ("odd", "b"): "odd",
    }
    outputs = {
        ("even", "a"): 0,
        ("even", "b"): 0,
        ("odd", "a"): 1,
        ("odd", "b"): 1,
    }
    return MealyMachine(states, "even", inputs, transitions, outputs)


class TestConstruction:
    def test_missing_transition_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(["s"], "s", ["a"], {}, {("s", "a"): 0})

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(["s"], "t", ["a"], {("s", "a"): "s"}, {("s", "a"): 0})

    def test_duplicate_states_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(
                ["s", "s"], "s", ["a"], {("s", "a"): "s"}, {("s", "a"): 0}
            )

    def test_transition_to_unknown_state_rejected(self):
        with pytest.raises(MealyDefinitionError):
            MealyMachine(["s"], "s", ["a"], {("s", "a"): "t"}, {("s", "a"): 0})


class TestSemantics:
    def test_run_and_state_after(self):
        machine = _toggle_machine()
        assert machine.run(["a", "a", "b"]) == (0, 1, 0)
        assert machine.state_after(["a"]) == "odd"
        assert machine.state_after([]) == "even"

    def test_trace_and_accepts_trace(self):
        machine = _toggle_machine()
        trace = machine.trace(["a", "b"])
        assert trace.outputs == (0, 1)
        assert machine.accepts_trace(trace)
        bad = trace.append("a", 0)
        assert not machine.accepts_trace(bad)

    def test_step_unknown_symbol(self):
        machine = _toggle_machine()
        with pytest.raises(MealyDefinitionError):
            machine.step("even", "c")


class TestTransformations:
    def test_reachable_drops_unreachable_states(self):
        states = ["s", "dead"]
        inputs = ["a"]
        transitions = {("s", "a"): "s", ("dead", "a"): "dead"}
        outputs = {("s", "a"): 0, ("dead", "a"): 1}
        machine = MealyMachine(states, "s", inputs, transitions, outputs)
        assert machine.reachable().size == 1

    def test_minimize_merges_equivalent_states(self):
        # Two states that behave identically must collapse into one.
        states = [0, 1, 2]
        inputs = ["a"]
        transitions = {(0, "a"): 1, (1, "a"): 2, (2, "a"): 1}
        outputs = {(0, "a"): "x", (1, "a"): "x", (2, "a"): "x"}
        machine = MealyMachine(states, 0, inputs, transitions, outputs)
        assert machine.minimize().size == 1

    def test_minimize_preserves_semantics(self):
        machine = _toggle_machine()
        minimal = machine.minimize()
        for word in (["a"], ["a", "b", "a"], ["b", "b", "a", "a"]):
            assert machine.run(word) == minimal.run(word)

    def test_relabel_is_equivalent(self):
        machine = _toggle_machine()
        relabelled = machine.relabel()
        assert relabelled.states == [0, 1]
        assert machine.equivalent(relabelled)


class TestEquivalence:
    def test_equivalent_machines(self):
        assert _toggle_machine().equivalent(_toggle_machine())

    def test_counterexample_is_shortest(self):
        machine = _toggle_machine()
        other = _toggle_machine()
        # Flip one output: the counterexample must be the single symbol word.
        other.outputs[("even", "a")] = 9
        counterexample = machine.find_counterexample(other)
        assert counterexample == ("a",)

    def test_alphabet_mismatch_rejected(self):
        machine = _toggle_machine()
        other = MealyMachine(["s"], "s", ["z"], {("s", "z"): "s"}, {("s", "z"): 0})
        with pytest.raises(MealyDefinitionError):
            machine.find_counterexample(other)

    def test_walk_against_a_step_function(self):
        machine = _toggle_machine()
        # An unbounded counter whose output is its parity: trace-equivalent
        # to the toggle on "a", but it never revisits a state.
        def counter(state, symbol):
            successor = state + 1 if symbol == "a" else state
            return successor, state % 2

        with pytest.raises(StateBoundError, match="max_pairs=10"):
            machine.counterexample_against(0, counter, max_pairs=10)
        assert machine.counterexample_against(0, lambda s, x: (s, 0)) == ("a", "a")
        assert machine.counterexample_against("even", machine.step) is None

    def test_to_dot_mentions_all_states(self):
        dot = _toggle_machine().to_dot()
        assert "digraph" in dot and "Evct" not in dot
        assert dot.count("->") >= 4

    def test_transition_table_rows(self):
        rows = _toggle_machine().transition_table()
        assert len(rows) == 4
        assert ("even", "a", 0, "odd") in rows


class TestStepFunctionEnumeration:
    def test_counter_machine(self):
        machine = mealy_from_step_function(
            0, ["inc"], lambda state, _: ((state + 1) % 5, state)
        )
        assert machine.size == 5
        assert machine.run(["inc"] * 6) == (0, 1, 2, 3, 4, 0)

    def test_max_states_guard(self):
        with pytest.raises(MealyDefinitionError):
            mealy_from_step_function(
                0, ["inc"], lambda state, _: (state + 1, state), max_states=10
            )


@settings(max_examples=30, deadline=None)
@given(
    num_states=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_machines_equal_their_minimization(num_states, seed):
    """Property: minimization never changes the trace semantics."""
    import random

    rng = random.Random(seed)
    inputs = ["a", "b"]
    states = list(range(num_states))
    transitions = {
        (s, i): rng.choice(states) for s in states for i in inputs
    }
    outputs = {(s, i): rng.randint(0, 1) for s in states for i in inputs}
    machine = MealyMachine(states, 0, inputs, transitions, outputs)
    minimal = machine.minimize()
    assert minimal.size <= machine.reachable().size
    assert machine.find_counterexample(minimal) is None
