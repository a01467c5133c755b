"""Deterministic Mealy machines.

This module provides the automaton model used everywhere in the library:

* replacement policies are Mealy machines (Definition 2.1 in the paper);
* the learner (our LearnLib substitute) produces hypotheses as Mealy machines;
* the synthesizer checks candidate programs by Mealy trace-equivalence.

The implementation favours explicit data structures over cleverness: a
machine is a set of states with a transition map ``(state, input) -> state``
and an output map ``(state, input) -> output``.  States can be arbitrary
hashable objects (policy control states, observation-table rows, age
vectors), which keeps the rest of the code free of encoding concerns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.trace import Trace
from repro.errors import ReproError

State = Hashable
Input = Hashable
Output = Hashable

StateT = TypeVar("StateT", bound=Hashable)


class MealyDefinitionError(ReproError):
    """The machine definition is incomplete or inconsistent."""


class StateBoundError(MealyDefinitionError):
    """An exploration discovered more states (or state pairs) than its bound."""


@dataclass
class MealyMachine:
    """A deterministic, complete Mealy machine.

    Parameters
    ----------
    states:
        Collection of states.  Order is preserved and used for display.
    initial_state:
        The initial state; must be a member of ``states``.
    inputs:
        The input alphabet.
    transitions:
        Mapping ``(state, input) -> successor state``.
    outputs:
        Mapping ``(state, input) -> output symbol``.
    """

    states: List[State]
    initial_state: State
    inputs: List[Input]
    transitions: Dict[Tuple[State, Input], State]
    outputs: Dict[Tuple[State, Input], Output]
    name: str = ""
    _state_set: set = field(init=False, repr=False, default_factory=set)

    def __post_init__(self) -> None:
        self.states = list(self.states)
        self.inputs = list(self.inputs)
        self._state_set = set(self.states)
        if len(self._state_set) != len(self.states):
            raise MealyDefinitionError("duplicate states in machine definition")
        if self.initial_state not in self._state_set:
            raise MealyDefinitionError(f"initial state {self.initial_state!r} not in states")
        for state in self.states:
            for symbol in self.inputs:
                key = (state, symbol)
                if key not in self.transitions:
                    raise MealyDefinitionError(f"missing transition for {key!r}")
                if key not in self.outputs:
                    raise MealyDefinitionError(f"missing output for {key!r}")
                if self.transitions[key] not in self._state_set:
                    raise MealyDefinitionError(
                        f"transition {key!r} leads to unknown state {self.transitions[key]!r}"
                    )

    # ------------------------------------------------------------------ basic

    @property
    def size(self) -> int:
        """Number of states."""
        return len(self.states)

    def step(self, state: State, symbol: Input) -> Tuple[State, Output]:
        """Return ``(successor, output)`` for one input symbol."""
        key = (state, symbol)
        try:
            return self.transitions[key], self.outputs[key]
        except KeyError as exc:
            raise MealyDefinitionError(f"no transition for {key!r}") from exc

    def run(self, word: Sequence[Input], state: Optional[State] = None) -> Tuple[Output, ...]:
        """Return the output word produced when reading ``word``.

        This is the "output query" used by the learner: the machine is reset
        to ``state`` (the initial state by default) and the outputs of every
        input symbol are collected.
        """
        current = self.initial_state if state is None else state
        produced: List[Output] = []
        for symbol in word:
            current, output = self.step(current, symbol)
            produced.append(output)
        return tuple(produced)

    def state_after(self, word: Sequence[Input], state: Optional[State] = None) -> State:
        """Return the state reached after reading ``word``."""
        current = self.initial_state if state is None else state
        for symbol in word:
            current, _ = self.step(current, symbol)
        return current

    def trace(self, word: Sequence[Input]) -> Trace:
        """Return the full input/output trace for ``word`` from the initial state."""
        return Trace.from_pairs(tuple(word), self.run(word))

    def accepts_trace(self, trace: Trace) -> bool:
        """Return ``True`` iff ``trace`` belongs to the machine's trace semantics."""
        return self.run(trace.inputs) == trace.outputs

    # ------------------------------------------------------- transformations

    def reachable(self) -> "MealyMachine":
        """Return the sub-machine restricted to states reachable from the initial state."""
        seen = {self.initial_state}
        order = [self.initial_state]
        queue = deque(order)
        while queue:
            state = queue.popleft()
            for symbol in self.inputs:
                successor = self.transitions[(state, symbol)]
                if successor not in seen:
                    seen.add(successor)
                    order.append(successor)
                    queue.append(successor)
        transitions = {
            (state, symbol): self.transitions[(state, symbol)]
            for state in order
            for symbol in self.inputs
        }
        outputs = {
            (state, symbol): self.outputs[(state, symbol)]
            for state in order
            for symbol in self.inputs
        }
        return MealyMachine(order, self.initial_state, list(self.inputs), transitions, outputs, self.name)

    def minimize(self) -> "MealyMachine":
        """Return the minimal machine equivalent to this one.

        Uses Moore-style partition refinement: states start partitioned by
        their output row (the outputs they produce for every input) and the
        partition is refined until successor blocks stabilise.  The result is
        relabelled with consecutive integers, the initial state becoming the
        block containing the original initial state.
        """
        machine = self.reachable()
        # Initial partition by output signature.
        signature: Dict[State, Tuple[Output, ...]] = {
            state: tuple(machine.outputs[(state, symbol)] for symbol in machine.inputs)
            for state in machine.states
        }
        blocks: Dict[Tuple, List[State]] = {}
        for state in machine.states:
            blocks.setdefault(signature[state], []).append(state)
        partition = list(blocks.values())
        block_of: Dict[State, int] = {}
        for index, block in enumerate(partition):
            for state in block:
                block_of[state] = index

        while True:
            new_blocks: Dict[Tuple, List[State]] = {}
            for state in machine.states:
                key = (
                    block_of[state],
                    tuple(
                        block_of[machine.transitions[(state, symbol)]]
                        for symbol in machine.inputs
                    ),
                )
                new_blocks.setdefault(key, []).append(state)
            if len(new_blocks) == len(partition):
                break
            partition = list(new_blocks.values())
            block_of = {}
            for index, block in enumerate(partition):
                for state in block:
                    block_of[state] = index

        # Build the quotient machine with stable (BFS from initial) numbering.
        representative = {block_of[state]: state for block in partition for state in block}
        initial_block = block_of[machine.initial_state]
        numbering: Dict[int, int] = {}
        order: List[int] = []
        queue = deque([initial_block])
        numbering[initial_block] = 0
        order.append(initial_block)
        while queue:
            block = queue.popleft()
            state = representative[block]
            for symbol in machine.inputs:
                succ_block = block_of[machine.transitions[(state, symbol)]]
                if succ_block not in numbering:
                    numbering[succ_block] = len(numbering)
                    order.append(succ_block)
                    queue.append(succ_block)

        states = [numbering[block] for block in order]
        transitions: Dict[Tuple[State, Input], State] = {}
        outputs: Dict[Tuple[State, Input], Output] = {}
        for block in order:
            state = representative[block]
            for symbol in machine.inputs:
                transitions[(numbering[block], symbol)] = numbering[
                    block_of[machine.transitions[(state, symbol)]]
                ]
                outputs[(numbering[block], symbol)] = machine.outputs[(state, symbol)]
        return MealyMachine(states, 0, list(machine.inputs), transitions, outputs, machine.name)

    def relabel(self) -> "MealyMachine":
        """Return an isomorphic machine whose states are ``0..n-1`` in BFS order."""
        machine = self.reachable()
        numbering: Dict[State, int] = {machine.initial_state: 0}
        order = [machine.initial_state]
        queue = deque(order)
        while queue:
            state = queue.popleft()
            for symbol in machine.inputs:
                successor = machine.transitions[(state, symbol)]
                if successor not in numbering:
                    numbering[successor] = len(numbering)
                    order.append(successor)
                    queue.append(successor)
        transitions = {
            (numbering[state], symbol): numbering[machine.transitions[(state, symbol)]]
            for state in order
            for symbol in machine.inputs
        }
        outputs = {
            (numbering[state], symbol): machine.outputs[(state, symbol)]
            for state in order
            for symbol in machine.inputs
        }
        return MealyMachine(
            [numbering[state] for state in order], 0, list(machine.inputs), transitions, outputs, machine.name
        )

    # ------------------------------------------------------------ comparison

    def find_counterexample(self, other: "MealyMachine") -> Optional[Tuple[Input, ...]]:
        """Return a shortest input word on which the two machines disagree.

        Returns ``None`` if the machines are trace-equivalent.  Both machines
        must share the same input alphabet (as a set); the output alphabets
        may differ.
        """
        if set(self.inputs) != set(other.inputs):
            raise MealyDefinitionError("machines have different input alphabets")
        return self.counterexample_against(other.initial_state, other.step)

    def counterexample_against(
        self,
        initial_state: State,
        step: Callable[[State, Input], Tuple[State, Output]],
        *,
        state: Optional[State] = None,
        max_pairs: Optional[int] = None,
    ) -> Optional[Tuple[Input, ...]]:
        """Return a shortest word on which this machine and ``step`` disagree.

        ``step(state, input) -> (next_state, output)`` is any deterministic
        system started in ``initial_state`` (a machine's :meth:`step`, or a
        replacement policy's), read over this machine's inputs from
        ``state`` (the initial state by default).  The walk is a
        breadth-first search over the reachable (own state, other state)
        pairs, in input order, that stops at the first output mismatch; the
        other system is never enumerated on its own.  Returns ``None`` when
        no reachable pair disagrees.  Raises :class:`StateBoundError` when
        more than ``max_pairs`` pairs are reached before that is settled.
        """
        transitions = self.transitions
        outputs = self.outputs
        start = (self.initial_state if state is None else state, initial_state)
        visited = {start}
        queue: deque = deque([(start, ())])
        while queue:
            (state_a, state_b), word = queue.popleft()
            for symbol in self.inputs:
                key = (state_a, symbol)
                next_b, out_b = step(state_b, symbol)
                extended = word + (symbol,)
                if outputs[key] != out_b:
                    return extended
                pair = (transitions[key], next_b)
                if pair not in visited:
                    if max_pairs is not None and len(visited) >= max_pairs:
                        raise StateBoundError(
                            f"product walk exceeded max_pairs={max_pairs}"
                        )
                    visited.add(pair)
                    queue.append((pair, extended))
        return None

    def equivalent(self, other: "MealyMachine") -> bool:
        """Return ``True`` iff the two machines have the same trace semantics."""
        return self.find_counterexample(other) is None

    # --------------------------------------------------------------- exports

    def to_dot(self) -> str:
        """Render the machine in Graphviz DOT format (for inspection/docs)."""
        lines = ["digraph mealy {", "  rankdir=LR;", '  __start [shape=point, label=""];']
        index = {state: i for i, state in enumerate(self.states)}
        for state in self.states:
            lines.append(f'  s{index[state]} [shape=circle, label="{state}"];')
        lines.append(f"  __start -> s{index[self.initial_state]};")
        for state in self.states:
            for symbol in self.inputs:
                succ = self.transitions[(state, symbol)]
                out = self.outputs[(state, symbol)]
                lines.append(
                    f'  s{index[state]} -> s{index[succ]} [label="{symbol}/{out}"];'
                )
        lines.append("}")
        return "\n".join(lines)

    def transition_table(self) -> List[Tuple[State, Input, Output, State]]:
        """Return the machine as a flat list of ``(state, input, output, successor)`` rows."""
        rows = []
        for state in self.states:
            for symbol in self.inputs:
                rows.append(
                    (state, symbol, self.outputs[(state, symbol)], self.transitions[(state, symbol)])
                )
        return rows


def mealy_from_step_function(
    initial_state: StateT,
    inputs: Iterable[Input],
    step: Callable[[StateT, Input], Tuple[StateT, Output]],
    *,
    max_states: int = 1_000_000,
    name: str = "",
) -> MealyMachine:
    """Enumerate the Mealy machine induced by a step function.

    ``step(state, input) -> (next_state, output)`` must be deterministic and
    produce hashable states.  The exploration is a breadth-first search from
    ``initial_state``; it raises :class:`StateBoundError` when more than
    ``max_states`` states are discovered, which guards against accidentally
    enumerating an unbounded system.

    This is how concrete replacement-policy implementations (``repro.policies``)
    are converted into explicit automata, e.g. to obtain ground-truth state
    counts for Table 2 or reference machines for conformance checks.
    """
    input_list = list(inputs)
    states: List[StateT] = [initial_state]
    seen = {initial_state}
    transitions: Dict[Tuple[State, Input], State] = {}
    outputs: Dict[Tuple[State, Input], Output] = {}
    queue = deque([initial_state])
    while queue:
        state = queue.popleft()
        for symbol in input_list:
            successor, output = step(state, symbol)
            transitions[(state, symbol)] = successor
            outputs[(state, symbol)] = output
            if successor not in seen:
                if len(seen) >= max_states:
                    raise StateBoundError(
                        f"state enumeration exceeded max_states={max_states}"
                    )
                seen.add(successor)
                states.append(successor)
                queue.append(successor)
    return MealyMachine(states, initial_state, input_list, transitions, outputs, name)
