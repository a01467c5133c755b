"""Differential test: the incremental L* table fills exactly like a full rescan.

:meth:`ObservationTable.missing_cells` examines only the rows and columns
added since the last fill.  The oracle here is the original full-scan
implementation — every ``(prefix, suffix)`` pair of ``all_prefixes() x
suffixes`` not yet in the cell map — kept in the test so the two can be run
side by side.  Every ``fill`` batch is recorded in order under both, and the
batches, the hypotheses of every round, and the learner's query and symbol
counts must be identical.
"""

from __future__ import annotations

import pytest

import repro.learning.learner as learner_module
from repro.learning.observation_table import ObservationTable
from repro.polca.pipeline import learn_simulated_policy
from repro.policies.registry import available_policies, make_policy


class _RecordingTable(ObservationTable):
    """The production table, recording every fill batch and hypothesis."""

    batches: list
    hypotheses: list

    def missing_cells(self):
        missing = super().missing_cells()
        self.batches.append(missing)
        return missing

    def hypothesis(self):
        machine = super().hypothesis()
        self.hypotheses.append(
            (machine.states, machine.initial_state, machine.transitions, machine.outputs)
        )
        return machine


class _FullScanTable(_RecordingTable):
    """The oracle: rescan every row under every column on each fill."""

    def missing_cells(self):
        missing = [
            (prefix, suffix)
            for prefix in self.all_prefixes()
            for suffix in self.suffixes
            if (prefix, suffix) not in self._cells
        ]
        self.batches.append(missing)
        return missing


def _learn_with(table_class, monkeypatch, name: str, associativity: int):
    batches: list = []
    hypotheses: list = []

    class Table(table_class):
        def __init__(self, *args, **kwargs):
            self.batches = batches
            self.hypotheses = hypotheses
            super().__init__(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(learner_module, "ObservationTable", Table)
        report = learn_simulated_policy(
            make_policy(name, associativity), learner="lstar", identify=False
        )
    return report, batches, hypotheses


def _assert_identical_fills(monkeypatch, name: str, associativity: int) -> None:
    incremental, batches, hypotheses = _learn_with(
        _RecordingTable, monkeypatch, name, associativity
    )
    full, oracle_batches, oracle_hypotheses = _learn_with(
        _FullScanTable, monkeypatch, name, associativity
    )
    assert len(batches) == len(oracle_batches)
    for index, (batch, expected) in enumerate(zip(batches, oracle_batches)):
        assert batch == expected, f"{name}-{associativity}: fill batch {index} differs"
    assert hypotheses == oracle_hypotheses
    assert incremental.machine == full.machine
    result, oracle_result = incremental.learning_result, full.learning_result
    assert result.counterexamples == oracle_result.counterexamples
    assert result.per_round_queries == oracle_result.per_round_queries
    assert result.learner_queries == oracle_result.learner_queries
    assert result.learner_symbols == oracle_result.learner_symbols


#: Targets whose L* run takes 5-40 s (160-1 024 states): BRRIP, NEW1, NEW2
#: and SRRIP at associativity 4.
_SLOW = {
    (name, 4)
    for name in available_policies()
    if name.startswith(("BRRIP", "NEW", "SRRIP"))
}

_TARGETS = [(name, associativity) for name in available_policies() for associativity in (2, 4)]
_TARGETS.append(("PLRU", 8))


@pytest.mark.parametrize(
    "name, associativity", [target for target in _TARGETS if target not in _SLOW]
)
def test_incremental_fill_matches_full_scan(monkeypatch, name, associativity):
    _assert_identical_fills(monkeypatch, name, associativity)


@pytest.mark.slow
@pytest.mark.parametrize("name, associativity", sorted(_SLOW))
def test_incremental_fill_matches_full_scan_slow(monkeypatch, name, associativity):
    _assert_identical_fills(monkeypatch, name, associativity)
