"""Tests for Polca (Algorithm 1), reset strategies and the learning pipeline."""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import EVICT, MISS_OUTPUT, Line, policy_input_alphabet
from repro.core.mealy import MealyDefinitionError
from repro.core.trace import Trace
from repro.errors import NonDeterminismError, PolicyError
from repro.polca import (
    FlushRefillReset,
    NoReset,
    PolcaMembershipOracle,
    SequenceReset,
    SimulatedCacheInterface,
    default_block_names,
    polca_check_trace,
)
from repro.polca.pipeline import identify_policy, learn_policy_from_cache, learn_simulated_policy
from repro.polca.reset import reset_for_table4
from repro.policies.registry import available_policies, make_policy


class TestBlockNames:
    def test_letters_then_suffixes(self):
        names = default_block_names(30)
        assert names[:3] == ("A", "B", "C")
        assert names[26] == "A1"
        assert len(set(names)) == 30

    def test_zero_and_negative(self):
        assert default_block_names(0) == ()
        with pytest.raises(Exception):
            default_block_names(-1)


class TestSimulatedCacheInterface:
    def test_initial_blocks_hit_after_reset(self):
        interface = SimulatedCacheInterface(make_policy("LRU", 4))
        outcomes = interface.probe(interface.initial_blocks())
        assert all(outcome == "Hit" for outcome in outcomes)

    def test_fresh_block_misses(self):
        interface = SimulatedCacheInterface(make_policy("LRU", 4))
        fresh = interface.block_universe()[4]
        assert interface.probe((fresh,)) == ("Miss",)

    def test_universe_must_exceed_associativity(self):
        with pytest.raises(Exception):
            SimulatedCacheInterface(make_policy("LRU", 4), block_names=("A", "B"))

    def test_statistics(self):
        interface = SimulatedCacheInterface(make_policy("LRU", 2))
        interface.probe(("A",))
        assert interface.probe_count == 1 and interface.access_count == 1
        interface.reset_statistics()
        assert interface.probe_count == 0


class TestPolcaOracle:
    @pytest.mark.parametrize(
        "policy_name,associativity",
        [("FIFO", 4), ("LRU", 4), ("PLRU", 4), ("MRU", 4), ("SRRIP-HP", 2), ("NEW1", 4), ("NEW2", 4), ("LIP", 4)],
    )
    def test_output_queries_match_policy_semantics(self, policy_name, associativity):
        """Theorem 3.1, output-query form: Polca recovers exactly the policy outputs."""
        policy = make_policy(policy_name, associativity)
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(policy))
        reference = policy.to_mealy()
        import random

        rng = random.Random(17)
        alphabet = policy_input_alphabet(associativity)
        for _ in range(15):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            assert oracle.output_query(word) == reference.run(word)

    def test_check_trace_accepts_and_rejects(self):
        policy = make_policy("LRU", 2)
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(policy))
        good = Trace([(Line(0), MISS_OUTPUT), (EVICT, 1)])
        assert oracle.check_trace(good) is True
        bad = Trace([(Line(0), MISS_OUTPUT), (EVICT, 0)])
        assert oracle.check_trace(bad) is False

    def test_polca_check_trace_wrapper(self):
        policy = make_policy("FIFO", 2)
        interface = SimulatedCacheInterface(policy)
        assert polca_check_trace(interface, Trace([(EVICT, 0), (EVICT, 1), (EVICT, 0)]))

    def test_statistics_accumulate(self):
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("LRU", 2)))
        oracle.output_query((EVICT, Line(0)))
        assert oracle.statistics.policy_queries == 1
        assert oracle.statistics.cache_probes > 0
        assert oracle.statistics.block_accesses >= oracle.statistics.cache_probes

    def test_rejects_interface_without_spare_blocks(self):
        class TinyInterface:
            associativity = 2

            def initial_blocks(self):
                return ("A", "B")

            def block_universe(self):
                return ("A", "B")

            def probe(self, blocks):
                return tuple("Hit" for _ in blocks)

        with pytest.raises(PolicyError):
            PolcaMembershipOracle(TinyInterface())

    def test_detects_nondeterministic_cache(self):
        class BrokenInterface:
            """Claims a block is cached but then reports a miss for it."""

            associativity = 2

            def initial_blocks(self):
                return ("A", "B")

            def block_universe(self):
                return ("A", "B", "C")

            def probe(self, blocks):
                return tuple("Miss" for _ in blocks)

        oracle = PolcaMembershipOracle(BrokenInterface())
        with pytest.raises(NonDeterminismError):
            oracle.output_query((Line(0),))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=12),
    )
    def test_polca_matches_new1_on_random_words(self, seed, length):
        """Property: Polca's answers always agree with the policy's Mealy semantics."""
        import random

        policy = make_policy("NEW1", 4)
        oracle = PolcaMembershipOracle(SimulatedCacheInterface(policy))
        reference = policy.to_mealy()
        rng = random.Random(seed)
        alphabet = policy_input_alphabet(4)
        word = tuple(rng.choice(alphabet) for _ in range(length))
        assert oracle.output_query(word) == reference.run(word)


class TestResetStrategies:
    def test_flush_refill_prefix_flushes_whole_pool(self):
        reset = FlushRefillReset()
        prefix = reset.mbl_prefix(2, ("A", "B", "C"))
        assert prefix == "A! B! C! @"
        assert reset.describe() == "F+R"

    def test_sequence_reset(self):
        reset = SequenceReset("D C B A @")
        assert reset.mbl_prefix(4, ("A",)) == "D C B A @"
        assert reset.describe() == "D C B A @"

    def test_empty_sequence_rejected(self):
        with pytest.raises(Exception):
            SequenceReset("  ")

    def test_no_reset(self):
        assert NoReset().mbl_prefix(4, ("A",)) == ""

    def test_table4_reset_mapping(self):
        assert reset_for_table4("Haswell i7-4790", "L1").describe() == "@ @"
        assert reset_for_table4("Skylake i5-6500", "L2").describe() == "D C B A @"
        assert reset_for_table4("Skylake i5-6500", "L3").describe() == "F+R"
        assert reset_for_table4("Kaby Lake", "L1").describe() == "F+R"


class TestPipeline:
    @pytest.mark.parametrize("policy_name,associativity", [("FIFO", 4), ("LRU", 2), ("PLRU", 4)])
    def test_learn_simulated_policy_end_to_end(self, policy_name, associativity):
        policy = make_policy(policy_name, associativity)
        report = learn_simulated_policy(policy)
        assert report.identified_policy == policy_name
        assert report.num_states == policy.state_count()
        assert report.polca_statistics.cache_probes > 0
        assert report.wall_clock_seconds > 0

    def test_learn_policy_from_cache_generic_interface(self):
        interface = SimulatedCacheInterface(make_policy("MRU", 4))
        report = learn_policy_from_cache(interface)
        assert report.identified_policy == "MRU"

    def test_identify_policy_returns_none_for_unknown(self):
        machine = make_policy("FIFO", 3).to_mealy().minimize()
        assert identify_policy(machine, 3, candidates=["LRU", "PLRU"]) is None

    def test_identify_policy_respects_candidates(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        assert identify_policy(machine, 2, candidates=["LRU"]) == "LRU"

    def test_identify_policy_skips_candidates_undefined_at_the_associativity(self):
        # Tree PLRU needs a power-of-two associativity: at 3 it raises
        # PolicyError and is skipped, not fatal.
        with pytest.raises(PolicyError):
            make_policy("PLRU", 3)
        machine = make_policy("LRU", 3).to_mealy().minimize()
        assert identify_policy(machine, 3, candidates=["PLRU", "LRU"]) == "LRU"

    def test_identify_policy_warns_and_skips_candidates_beyond_the_pair_bound(
        self, monkeypatch, caplog
    ):
        import repro.polca.pipeline as pipeline

        # An equivalent candidate's walk visits one pair per policy state:
        # 24 for LRU-4, one more than the bound allows.
        monkeypatch.setattr(pipeline, "IDENTIFICATION_PAIR_BOUND", 23)
        lru4 = make_policy("LRU", 4).to_mealy().minimize()
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert identify_policy(lru4, 4, candidates=["LRU"]) is None
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "LRU" in record.getMessage()
        assert "associativity 4" in record.getMessage()
        assert "23" in record.getMessage()
        monkeypatch.setattr(pipeline, "IDENTIFICATION_PAIR_BOUND", 24)
        assert identify_policy(lru4, 4, candidates=["LRU"]) == "LRU"

    def test_identify_policy_propagates_unexpected_errors(self, monkeypatch):
        import repro.polca.pipeline as pipeline

        def broken(name, associativity):
            raise RuntimeError("registry bug")

        monkeypatch.setattr(pipeline, "make_policy", broken)
        machine = make_policy("LRU", 2).to_mealy().minimize()
        with pytest.raises(RuntimeError, match="registry bug"):
            identify_policy(machine, 2, candidates=["LRU"])

    def test_learn_simulated_policy_requires_policy_instance(self):
        with pytest.raises(Exception):
            learn_simulated_policy("LRU")


# -- name identity: the product walk against enumerate-and-minimise ----------


def _registry_params(*associativities):
    """Every registry policy defined at each associativity, as test params."""
    params = []
    for associativity in associativities:
        for name in available_policies():
            try:
                make_policy(name, associativity)
            except PolicyError:
                continue
            params.append(pytest.param(name, associativity, id=f"{name}-{associativity}"))
    return params


@pytest.fixture(scope="module")
def reference_machine():
    """Minimal registry machines, enumerated once per (policy, associativity).

    ``None`` marks a policy that is undefined at the associativity or has
    more reachable states than the enumeration bound, as the enumerating
    identification skipped both.
    """
    built = {}

    def reference(name, associativity):
        key = (name, associativity)
        if key not in built:
            try:
                policy = make_policy(name, associativity)
                built[key] = policy.to_mealy(max_states=200_000).minimize()
            except (PolicyError, MealyDefinitionError):
                built[key] = None
        return built[key]

    return reference


@pytest.fixture(scope="module")
def oracle_identify(reference_machine):
    """The enumerate -> minimise -> compare identification, as an oracle."""

    def identify(machine, associativity):
        for name in available_policies():
            reference = reference_machine(name, associativity)
            if reference is None or reference.size != machine.size:
                continue
            if reference.equivalent(machine):
                return name
        return None

    return identify


class TestIdentificationNames:
    def _assert_same_name(self, reference_machine, oracle_identify, name, associativity):
        machine = reference_machine(name, associativity)
        if machine is None:
            pytest.skip(f"{name}-{associativity} exceeds the enumeration bound")
        assert identify_policy(machine, associativity) == oracle_identify(
            machine, associativity
        )

    @pytest.mark.parametrize("name,associativity", _registry_params(2, 3, 4))
    def test_walk_names_what_enumeration_names(
        self, reference_machine, oracle_identify, name, associativity
    ):
        self._assert_same_name(reference_machine, oracle_identify, name, associativity)

    @pytest.mark.slow
    @pytest.mark.parametrize("name,associativity", _registry_params(6, 8))
    def test_walk_names_what_enumeration_names_at_high_associativity(
        self, reference_machine, oracle_identify, name, associativity
    ):
        self._assert_same_name(reference_machine, oracle_identify, name, associativity)

    @pytest.mark.parametrize(
        "name,associativity,expected",
        [
            # Two-way MRU and two-way tree PLRU both behave like the first
            # equivalent policy in registry order.
            ("MRU", 2, "LRU"),
            ("PLRU", 2, "NEW1"),
        ],
    )
    def test_low_associativity_coincidences_name_the_first_registry_match(
        self, reference_machine, oracle_identify, name, associativity, expected
    ):
        machine = reference_machine(name, associativity)
        assert identify_policy(machine, associativity) == expected
        assert oracle_identify(machine, associativity) == expected

    def test_depth_one_bip2_machine_is_named_lip(self, oracle_identify):
        # At the default depth 1 the learner stops at 2 of BIP-2's 8 states.
        report = learn_simulated_policy(make_policy("BIP", 2))
        assert report.num_states == 2
        assert report.identified_policy == "LIP"
        assert oracle_identify(report.machine, 2) == "LIP"

    @pytest.mark.parametrize(
        "name,associativity", [("PLRU", 8), ("MRU", 8), ("FIFO", 16)]
    )
    def test_high_associativity_policies_name_themselves(self, name, associativity):
        machine = make_policy(name, associativity).to_mealy().minimize()
        assert identify_policy(machine, associativity) == name
