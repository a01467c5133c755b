"""Unit tests for the classification-tree (TTT) learner.

Covers the tree's own semantics (growth, splitting, counterexample
refinement, LCA suffixes, the minimality check), the two TTT mechanisms
on their own terms — discriminator finalization (temporary suffixes
replaced by verified shortest candidates, never longer) and incremental
sifting (post-split re-sift volume bounded by the split leaf's
residents, not the whole transition table) — plus the facade
(``make_learner("ttt")``, the loud failures for unsupported learner and
strategy names), store/resume interaction, and the per-round and
``learner_symbols`` accounting the comparison benchmarks read.  The
registry-wide bit-identity matrix lives in
``tests/test_differential_learning.py``; random-machine fuzzing in
``tests/test_property_fuzz.py``.
"""

from __future__ import annotations

import pytest

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.experiments.cli import main as cli_main
from repro.experiments.table2 import run_table2
from repro.learning.equivalence import (
    ConformanceEquivalenceOracle,
    PerfectEquivalenceOracle,
)
from repro.learning.kv import ClassificationTree, equivalent_state_pair
from repro.learning.learner import LEARNER_NAMES, MealyLearner, make_learner
from repro.learning.oracles import CachedMembershipOracle, MealyMachineOracle
from repro.learning.ttt import TTTLearner, TTTTree
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import PolicyLearningPipeline, learn_simulated_policy
from repro.policies.registry import available_policies, make_policy

#: A 3-state minimal reference machine: ``b`` walks 0 -> 1 -> 2 -> 0 and
#: every state has a distinct output signature.
REFERENCE = MealyMachine(
    states=[0, 1, 2],
    initial_state=0,
    inputs=["a", "b"],
    transitions={
        (0, "a"): 0,
        (0, "b"): 1,
        (1, "a"): 1,
        (1, "b"): 2,
        (2, "a"): 0,
        (2, "b"): 0,
    },
    outputs={
        (0, "a"): "x",
        (0, "b"): "y",
        (1, "a"): "z",
        (1, "b"): "y",
        (2, "a"): "x",
        (2, "b"): "z",
    },
)


def _tree(machine: MealyMachine = REFERENCE) -> ClassificationTree:
    return ClassificationTree(
        machine.inputs, CachedMembershipOracle(MealyMachineOracle(machine))
    )


def _leaf(tree: ClassificationTree, state: int):
    return tree._leaves[tree.access_word(state)]


def _learn_ttt(machine: MealyMachine = REFERENCE) -> TTTLearner:
    engine = CachedMembershipOracle(MealyMachineOracle(machine))
    learner = TTTLearner(machine.inputs, engine, PerfectEquivalenceOracle(machine))
    learner.learn()
    return learner


def _lstar_longest_suffix(policy_name: str) -> int:
    """Longest suffix column of L*'s final observation table, learned the
    way the pipeline learns (Polca oracle, depth-1 Wp conformance)."""
    polca = PolcaMembershipOracle(SimulatedCacheInterface(make_policy(policy_name, 2)))
    engine = CachedMembershipOracle(polca)
    equivalence = ConformanceEquivalenceOracle(engine, depth=1)
    learner = MealyLearner(polca.alphabet(), engine, equivalence)
    learner.learn()
    return max(len(suffix) for suffix in learner.table.suffixes)


# ------------------------------------------------------------------ the tree


class TestTTTTree:
    def test_no_seeded_chain_root_is_a_single_symbol(self):
        tree = TTTTree(
            REFERENCE.inputs, CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        )
        assert tree.root.suffix == (REFERENCE.inputs[0],)
        assert tree.root.children == {}
        assert tree.discriminator_lengths() == {}
        # Every discriminator the finished tree holds was created by a split
        # or is the root: one per state boundary, none of them empty.
        learner = _learn_ttt()
        lengths = learner.tree.discriminator_lengths()
        assert min(lengths) >= 1
        assert sum(lengths.values()) == learner.tree.num_states - 1

    def test_learns_the_reference_bit_identically_to_lstar(self):
        ttt = TTTLearner(
            REFERENCE.inputs,
            CachedMembershipOracle(MealyMachineOracle(REFERENCE)),
            PerfectEquivalenceOracle(REFERENCE),
        ).learn()
        lstar = MealyLearner(
            REFERENCE.inputs,
            CachedMembershipOracle(MealyMachineOracle(REFERENCE)),
            PerfectEquivalenceOracle(REFERENCE),
        ).learn()
        assert ttt.machine == lstar.machine
        assert ttt.machine.size == REFERENCE.size
        assert ttt.machine.equivalent(REFERENCE)

    def test_idle_hypothesis_rebuild_executes_nothing(self):
        """Incremental sifting: with nothing pending, a rebuild is pure
        table assembly — zero new executions, zero new engine queries."""
        learner = _learn_ttt()
        tree = learner.tree
        before = learner.membership_oracle.statistics.membership_queries
        machine = tree.hypothesis()
        assert learner.membership_oracle.statistics.membership_queries == before
        assert machine.size == REFERENCE.size

    def test_growth_accounting_sums_to_the_state_count(self):
        learner = _learn_ttt()
        tree = learner.tree
        assert tree.leaves_from_sifting + tree.leaves_from_splits == tree.num_states
        assert tree.num_states == REFERENCE.size

    def test_access_words_are_prefix_closed(self):
        tree = _learn_ttt().tree
        access = set(tree.access_words())
        for word in access:
            assert not word or word[:-1] in access

    def test_empty_alphabet_is_rejected(self):
        with pytest.raises(LearningError):
            ClassificationTree((), CachedMembershipOracle(MealyMachineOracle(REFERENCE)))


# ---------------------------------------------------------------- refinement


class TestRefinement:
    def test_split_adds_exactly_one_state_and_one_discriminator(self):
        # The first build separates ε from ("b",) at the root; ("b", "b")
        # (state 2) still shares ε's leaf, and suffix ("b",) answers y after
        # ε but z after ("b", "b").
        tree = _tree()
        tree.hypothesis()
        assert tree.access_words() == ((), ("b",))
        discriminators_before = sum(tree.discriminator_lengths().values())
        tree.split(_leaf(tree, 0), ("b", "b"), ("b",))
        assert tree.num_states == 3
        assert sum(tree.discriminator_lengths().values()) == discriminators_before + 1
        assert tree.leaves_from_splits == 1
        assert tree.access_words() == ((), ("b",), ("b", "b"))
        assert tree.hypothesis().equivalent(REFERENCE)

    def test_split_rejects_empty_suffix(self):
        tree = _tree()
        tree.hypothesis()
        with pytest.raises(LearningError):
            tree.split(_leaf(tree, 0), ("b", "b"), ())

    def test_split_rejects_non_distinguishing_suffix(self):
        tree = _tree()
        tree.hypothesis()
        # ("a",) after ε and after ("a",) both answer "x": no split.
        with pytest.raises(LearningError):
            tree.split(_leaf(tree, 0), ("a",), ("a",))

    def test_refine_rejects_a_spurious_counterexample(self):
        learner = _learn_ttt()
        tree = learner.tree
        hypothesis = tree.hypothesis()
        # Learning is exact, so every word agrees — any "counterexample"
        # must be called out as spurious instead of corrupting the tree.
        with pytest.raises(LearningError, match="spurious"):
            tree.refine(hypothesis, ("b", "b", "a"))

    def test_lca_suffix_requires_distinct_states(self):
        learner = _learn_ttt()
        with pytest.raises(LearningError):
            learner.tree.lca_suffix(0, 0)

    def test_lca_suffix_separates_the_pair(self):
        learner = _learn_ttt()
        tree = learner.tree
        suffix = tree.lca_suffix(0, 2)
        assert tuple(REFERENCE.run(tree.access_word(0) + suffix)) != tuple(
            REFERENCE.run(tree.access_word(2) + suffix)
        )


class TestEquivalentStatePair:
    def test_minimal_machine_has_no_pair(self):
        assert equivalent_state_pair(REFERENCE) is None

    def test_duplicated_state_is_found(self):
        doubled = MealyMachine(
            states=[0, 1],
            initial_state=0,
            inputs=["a"],
            transitions={(0, "a"): 1, (1, "a"): 0},
            outputs={(0, "a"): "x", (1, "a"): "x"},
        )
        assert equivalent_state_pair(doubled) == (0, 1)


# -------------------------------------------------------------- finalization


class TestFinalization:
    def test_finalized_discriminators_are_never_longer(self):
        """The core TTT pin: every finalization replaced a temporary suffix
        with one of at most the same length."""
        for policy_name in ("NEW2", "CLOCK", "SRRIP-HP"):
            report = learn_simulated_policy(
                make_policy(policy_name, 2), depth=1, identify=False, learner="ttt"
            )
            shrinkage = report.extra["ttt_finalization_shrinkage"]
            assert shrinkage, f"{policy_name}: no split was ever finalized"
            assert all(final <= temporary for temporary, final in shrinkage)

    def test_every_split_is_accounted_finalized_or_temporary(self):
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner="ttt"
        )
        assert (
            report.extra["ttt_finalized_discriminators"]
            + report.extra["ttt_temporary_discriminators"]
            == report.extra["kv_leaves_from_splits"]
        )

    def test_max_discriminator_length_at_most_lstar_suffixes(self):
        """Finalization keeps every discriminator at most as long as L*'s
        longest suffix column, and shorter than the machine has states."""
        for policy_name in ("NEW2", "CLOCK", "SRRIP-HP"):
            lstar = learn_simulated_policy(
                make_policy(policy_name, 2), depth=1, identify=False, learner="lstar"
            )
            ttt = learn_simulated_policy(
                make_policy(policy_name, 2), depth=1, identify=False, learner="ttt"
            )
            assert ttt.machine == lstar.machine
            longest = ttt.extra["max_discriminator_length"]
            assert longest <= _lstar_longest_suffix(policy_name)
            assert longest < make_policy(policy_name, 2).to_mealy().minimize().size


# -------------------------------------------------------- incremental sifting


class TestIncrementalSifting:
    def test_post_split_resift_is_bounded_by_the_split_subtree(self):
        """Each split re-enqueues at most the words parked on the split leaf
        — always strictly below the full transition table a from-scratch
        rebuild would re-sift."""
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner="ttt"
        )
        resifted = report.extra["ttt_words_resifted_per_split"]
        assert len(resifted) == report.extra["kv_leaves_from_splits"]
        full_table = report.num_states * len(report.machine.inputs)
        assert all(0 <= count < full_table for count in resifted)

    def test_nru_pays_no_fanin_resift_overhead(self):
        """NRU is the policy where re-sifting every transition word after a
        split asks *more* executed learner queries than L*; the residency
        map re-sifts only the split leaf's words and stays within L*."""
        lstar = learn_simulated_policy(
            make_policy("NRU", 2), depth=1, identify=False, learner="lstar"
        )
        ttt = learn_simulated_policy(
            make_policy("NRU", 2), depth=1, identify=False, learner="ttt"
        )
        assert ttt.machine == lstar.machine
        assert ttt.extra["learner_queries"] <= lstar.extra["learner_queries"]


# --------------------------------------------------------- registry-wide cost


@pytest.mark.parametrize("policy_name", available_policies())
def test_ttt_issues_at_most_lstar_learner_queries(policy_name):
    """TTT ≤ L* on executed learner-attributed queries across the registry.

    ``learner_queries`` excludes conformance-suite executions, which depend
    on how much of the suite's vocabulary each learner happened to
    pre-cache — the suite asks the same *questions* either way.
    """
    lstar = learn_simulated_policy(
        make_policy(policy_name, 2), depth=1, identify=False, learner="lstar"
    )
    ttt = learn_simulated_policy(
        make_policy(policy_name, 2), depth=1, identify=False, learner="ttt"
    )
    assert ttt.machine == lstar.machine
    assert ttt.extra["learner_queries"] <= lstar.extra["learner_queries"]


def test_per_round_queries_sum_to_engine_total():
    for learner_name in LEARNER_NAMES:
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner=learner_name
        )
        result = report.learning_result
        assert result.learner == learner_name
        assert len(result.per_round_queries) == result.rounds
        assert sum(result.per_round_queries) == result.statistics.membership_queries
        assert 0 < result.learner_queries <= result.statistics.membership_queries


def test_learner_symbols_accounting():
    """``learner_symbols`` mirrors ``learner_queries``: positive, bounded by
    the engine's executed-symbol total, and the suite-attribution identity
    holds for every learner."""
    for learner_name in LEARNER_NAMES:
        report = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner=learner_name
        )
        result = report.learning_result
        assert 0 < result.learner_symbols <= result.statistics.membership_symbols
        assert report.extra["learner_symbols"] == result.learner_symbols


# --------------------------------------------------------- store interaction


class TestStoreAndResume:
    def test_warm_store_answers_a_repeat_ttt_run_without_executing(self, tmp_path):
        path = str(tmp_path / "ttt-store.json")
        configurations = [("SRRIP-HP", 2)]
        cold = run_table2(
            configurations=configurations, cache_path=path, learner="ttt"
        )
        assert cold[0].membership_queries > 0
        warm = run_table2(
            configurations=configurations, cache_path=path, learner="ttt"
        )
        assert warm[0].membership_queries == 0
        assert warm[0].learner_queries == 0
        assert warm[0].learner_symbols == 0
        assert warm[0].learned_states == cold[0].learned_states
        assert warm[0].learner == "ttt"

    def test_ttt_reads_a_store_warmed_by_lstar(self, tmp_path):
        """Cross-learner warm start: the store keys on measurements, not on
        who asked, so TTT reuses L*'s observations."""
        path = str(tmp_path / "cross-store.json")
        configurations = [("SRRIP-HP", 2)]
        cold = run_table2(
            configurations=configurations, cache_path=path, learner="lstar"
        )
        warm = run_table2(
            configurations=configurations, cache_path=path, learner="ttt"
        )
        assert warm[0].learned_states == cold[0].learned_states
        # TTT's sift and finalization vocabulary is a subset of what the L*
        # run measured (table rows + suite), so the warm run executes nothing.
        assert warm[0].membership_queries == 0

    def test_ttt_resume_sessions_learn_the_identical_machine(self):
        serial = learn_simulated_policy(
            make_policy("SRRIP-HP", 2), depth=1, identify=False, learner="ttt"
        )
        resumed = learn_simulated_policy(
            make_policy("SRRIP-HP", 2),
            depth=1,
            identify=False,
            learner="ttt",
            resume=True,
        )
        assert resumed.machine == serial.machine
        assert resumed.extra["resume"] is True


# --------------------------------------------------------------- the facade


def test_make_learner_builds_a_ttt_learner():
    engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
    learner = make_learner(
        "TTT", REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
    )
    lstar = make_learner(
        "lstar", REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
    )
    assert isinstance(learner, TTTLearner)
    assert isinstance(lstar, MealyLearner)
    assert (lstar.name, learner.name) == ("lstar", "ttt")
    assert TTTTree is ClassificationTree


def test_ttt_learner_reports_states_discovered():
    learner = _learn_ttt()
    assert learner.states_discovered == REFERENCE.size
    assert learner.tree is not None
    fresh = TTTLearner(
        REFERENCE.inputs,
        CachedMembershipOracle(MealyMachineOracle(REFERENCE)),
        PerfectEquivalenceOracle(REFERENCE),
    )
    assert fresh.states_discovered == 0


def test_unknown_learner_error_lists_the_valid_names():
    engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
    with pytest.raises(LearningError) as excinfo:
        make_learner(
            "observation-pack",
            REFERENCE.inputs,
            engine,
            PerfectEquivalenceOracle(REFERENCE),
        )
    message = str(excinfo.value)
    for name in LEARNER_NAMES:
        assert name in message


class TestForcedLearnerErrors:
    def test_ttt_rejects_the_prefix_counterexample_strategy(self):
        engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        with pytest.raises(LearningError, match="does not support"):
            TTTLearner(
                REFERENCE.inputs,
                engine,
                PerfectEquivalenceOracle(REFERENCE),
                counterexample_strategy="prefixes",
            )

    def test_lstar_still_accepts_both_strategies(self):
        engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        for strategy in ("rivest-schapire", "prefixes"):
            MealyLearner(
                REFERENCE.inputs,
                engine,
                PerfectEquivalenceOracle(REFERENCE),
                counterexample_strategy=strategy,
            )

    def test_pipeline_rejects_unknown_learner_names(self):
        with pytest.raises(LearningError, match="unknown learner"):
            PolicyLearningPipeline(
                SimulatedCacheInterface(make_policy("LRU", 2)), learner="nope"
            )

    def test_pipeline_rejects_unknown_learner_via_convenience_wrapper(self):
        with pytest.raises(LearningError, match="unknown learner"):
            learn_simulated_policy(make_policy("LRU", 2), learner="nope")

    def test_kv_is_no_longer_a_learner(self, capsys):
        """Plain Kearns–Vazirani was folded into the TTT tree: ``kv`` is an
        unknown name at the CLI, the factory and the pipeline."""
        import repro.learning
        import repro.learning.kv

        assert LEARNER_NAMES == ("lstar", "ttt")
        assert not hasattr(repro.learning.kv, "KVLearner")
        assert not hasattr(repro.learning, "KVLearner")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["table2", "--mode", "fast", "--learner", "kv"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'kv'" in capsys.readouterr().err
        engine = CachedMembershipOracle(MealyMachineOracle(REFERENCE))
        with pytest.raises(LearningError) as raised:
            make_learner(
                "kv", REFERENCE.inputs, engine, PerfectEquivalenceOracle(REFERENCE)
            )
        assert "('lstar', 'ttt')" in str(raised.value)
        with pytest.raises(LearningError, match="unknown learner"):
            learn_simulated_policy(make_policy("LRU", 2), learner="kv")
