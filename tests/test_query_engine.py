"""Tests for the batched, trie-backed query engine and its satellite fixes."""

import warnings

import pytest

from repro.cachequery.backend import CacheQueryBackend
from repro.core.mealy import MealyMachine
from repro.errors import (
    NonDeterminismError,
    NonMinimalMachineError,
    OutputLengthMismatchError,
)
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import SKYLAKE_I5_6500
from repro.hardware.timing import NoiseModel
from repro.learning import (
    CachedMembershipOracle,
    ConformanceEquivalenceOracle,
    FunctionOracle,
    MealyLearner,
    MealyMachineOracle,
    ObservationTable,
    PerfectEquivalenceOracle,
    RandomWalkEquivalenceOracle,
    ResponseTrie,
    dedupe_and_subsume,
    output_query_batch,
    supports_batching,
    supports_resume,
    wp_method_suite,
)
from repro.learning.learner import learn_mealy_machine
from repro.learning.wpmethod import characterization_set
from repro.mbl.expansion import expand
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.policies.registry import available_policies, make_policy


def _echo(word):
    """A deterministic, prefix-closed oracle function: position numbers."""
    return tuple(range(1, len(word) + 1))


class TestResponseTrie:
    def test_lookup_and_prefix_sharing(self):
        trie = ResponseTrie()
        trie.insert(("a", "b", "c"), (1, 2, 3))
        assert trie.lookup(("a", "b", "c")) == (1, 2, 3)
        assert trie.lookup(("a", "b")) == (1, 2)
        assert trie.lookup(("a",)) == (1,)
        assert trie.lookup(("b",)) is None
        assert trie.lookup(()) == ()
        # Three nodes store the word and both proper prefixes.
        assert len(trie) == 3

    def test_longest_cached_prefix(self):
        trie = ResponseTrie()
        trie.insert(("a", "b"), (1, 2))
        length, outputs = trie.longest_cached_prefix(("a", "b", "c", "d"))
        assert (length, outputs) == (2, (1, 2))
        assert trie.longest_cached_prefix(("x",)) == (0, ())

    def test_structural_sharing_of_common_prefixes(self):
        trie = ResponseTrie()
        trie.insert(("a", "b", "c"), (1, 2, 3))
        trie.insert(("a", "b", "d"), (1, 2, 4))
        # The shared prefix a·b is stored once: 3 + 1 nodes, not 6.
        assert len(trie) == 4

    def test_nondeterminism_on_conflicting_prefix(self):
        trie = ResponseTrie()
        trie.insert(("a", "b"), (1, 2))
        with pytest.raises(NonDeterminismError) as info:
            trie.insert(("a", "b", "c"), (1, 9, 3))
        assert info.value.query == ("a", "b")
        assert info.value.first == (1, 2)
        assert info.value.second == (1, 9)

    def test_insert_rejects_length_mismatch(self):
        trie = ResponseTrie()
        with pytest.raises(ValueError):
            trie.insert(("a", "b"), (1,))

    def test_clear(self):
        trie = ResponseTrie()
        trie.insert(("a",), (1,))
        trie.clear()
        assert len(trie) == 0
        assert trie.lookup(("a",)) is None


class TestDedupeAndSubsume:
    def test_duplicates_collapse(self):
        assert dedupe_and_subsume([("a",), ("a",), ("b",)]) == [("a",), ("b",)]

    def test_prefixes_are_subsumed(self):
        words = [("a",), ("a", "b"), ("a", "b", "c"), ("x", "y"), ("x",)]
        assert dedupe_and_subsume(words) == [("a", "b", "c"), ("x", "y")]

    def test_empty_word_dropped(self):
        assert dedupe_and_subsume([(), ("a",)]) == [("a",)]

    def test_order_of_maximal_words_preserved(self):
        words = [("b", "b"), ("a",), ("a", "c")]
        assert dedupe_and_subsume(words) == [("b", "b"), ("a", "c")]


class TestBatchedOracles:
    def test_function_oracle_batch_executes_only_maximal_words(self):
        oracle = FunctionOracle(_echo)
        words = [("a",), ("a", "b"), ("a", "b"), ("a", "b", "c")]
        answers = oracle.output_query_batch(words)
        assert answers == [(1,), (1, 2), (1, 2), (1, 2, 3)]
        # Only the maximal word was executed.
        assert oracle.statistics.membership_queries == 1
        assert oracle.statistics.membership_symbols == 3
        assert oracle.statistics.batches == 1

    def test_batch_helper_falls_back_to_serial_queries(self):
        class Plain:
            def __init__(self):
                self.calls = []

            def output_query(self, word):
                self.calls.append(tuple(word))
                return _echo(word)

        plain = Plain()
        assert not supports_batching(plain)
        answers = output_query_batch(plain, [("a", "b"), ("a",)])
        assert answers == [(1, 2), (1,)]
        assert plain.calls == [("a", "b")]  # the prefix was subsumed

    def test_mealy_oracle_supports_resume(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(machine)
        assert supports_resume(oracle)
        word = tuple(machine.inputs[:2])
        full = oracle.output_query(word)
        resumed = oracle.output_query_resume(word[:1], word[1:])
        assert full[1:] == resumed
        assert oracle.statistics.resumed_symbols == 1


class TestCachedMembershipOracle:
    def test_serves_prefixes_without_reexecution(self):
        delegate = FunctionOracle(_echo)
        cached = CachedMembershipOracle(delegate)
        cached.output_query(("a", "b", "c"))
        assert cached.output_query(("a", "b")) == (1, 2)
        assert delegate.statistics.membership_queries == 1
        assert cached.statistics.cache_hits == 1
        assert cached.size == 3

    def test_resume_executes_only_the_uncached_suffix(self):
        machine = make_policy("PLRU", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(machine)
        cached = CachedMembershipOracle(oracle)
        word = tuple(machine.inputs)[:3]
        cached.output_query(word[:2])
        executed_before = oracle.statistics.membership_symbols
        cached.output_query(word)
        # Only the one-symbol suffix was executed, not the whole word.
        assert oracle.statistics.membership_symbols == executed_before + 1
        assert cached.statistics.resumed_symbols == 1

    def test_batch_dedups_and_serves_from_cache(self):
        delegate = FunctionOracle(_echo)
        cached = CachedMembershipOracle(delegate)
        cached.output_query(("a",))
        executed_before = delegate.statistics.membership_queries
        answers = cached.output_query_batch(
            [("a",), ("a", "b"), ("a", "b"), ("c",), ()]
        )
        assert answers == [(1,), (1, 2), (1, 2), (1,), ()]
        assert cached.statistics.batches == 1
        # ("a",) came from the cache; only ("a","b") and ("c",) were executed.
        assert delegate.statistics.membership_queries == executed_before + 2

    def test_detects_nondeterminism_on_conflicting_prefixes(self):
        answers = iter([("x",), ("y", "z")])
        cached = CachedMembershipOracle(FunctionOracle(lambda word: next(answers)))
        cached.output_query(("a",))
        with pytest.raises(NonDeterminismError):
            cached.output_query(("a", "b"))

    def test_truncated_answer_raises_dedicated_error(self):
        cached = CachedMembershipOracle(FunctionOracle(lambda word: ("x",)))
        with pytest.raises(OutputLengthMismatchError) as info:
            cached.output_query(("a", "b"))
        # Regression: the old code raised NonDeterminismError(word, outputs,
        # word), printing the *input* word as a conflicting output.
        assert info.value.word == ("a", "b")
        assert info.value.outputs == ("x",)
        assert isinstance(info.value, NonDeterminismError)
        assert "2-symbol" in str(info.value)
        assert str(["a", "b"]) not in str(info.value).split(":")[-1]

    def test_cached_answer_is_a_pure_peek(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        engine = CachedMembershipOracle(MealyMachineOracle(machine))
        assert engine.cached_answer(tuple(machine.inputs)) is None
        assert engine.statistics.membership_queries == 0
        assert engine.statistics.cache_hits == 0


class TestObservationTableBatching:
    def test_fill_issues_one_batch_per_round(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(machine)
        ObservationTable(machine.inputs, oracle)
        # The constructor's fill is a single batch.
        assert oracle.statistics.batches == 1

    def test_row_memoisation_and_invalidation_on_add_suffix(self):
        machine = make_policy("LRU", 2).to_mealy().minimize()
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        row_before = table.row(())
        assert table.row(()) is row_before  # memoised: same object
        new_suffix = tuple(machine.inputs[:2])
        assert table.add_suffix(new_suffix)
        row_after = table.row(())
        assert row_after is not row_before
        assert len(row_after) == len(row_before) + 1
        assert row_after[: len(row_before)] == row_before

    def test_missing_cells_empty_after_fill(self):
        machine = make_policy("FIFO", 2).to_mealy().minimize()
        table = ObservationTable(machine.inputs, MealyMachineOracle(machine))
        assert table.missing_cells() == []
        table.add_short_prefix((machine.inputs[0],))
        assert table.missing_cells() == []


class TestConformanceBatchingAndTruncation:
    def test_truncation_is_recorded_not_silent(self):
        reference = make_policy("MRU", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=5)
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped > 0
        assert equivalence.statistics.test_words == 5

    def test_truncation_accounting_is_exact_and_accumulates(self):
        reference = make_policy("MRU", 4).to_mealy().minimize()
        suite_size = len(wp_method_suite(reference, 1))
        cap = 7
        assert suite_size > cap
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=cap)
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == suite_size - cap
        assert equivalence.statistics.test_words == cap
        # A second equivalence query accumulates instead of resetting.
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == 2 * (suite_size - cap)
        assert equivalence.statistics.test_words == 2 * cap
        assert oracle.statistics.membership_queries > 0

    def test_no_truncation_when_cap_exceeds_suite(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        suite_size = len(wp_method_suite(reference, 1))
        equivalence = ConformanceEquivalenceOracle(
            MealyMachineOracle(reference), depth=1, max_tests=suite_size
        )
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.tests_skipped == 0
        assert equivalence.statistics.test_words == suite_size

    def test_learning_result_surfaces_truncation(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=3)
        result = learn_mealy_machine(reference.inputs, oracle, equivalence)
        assert result.tests_skipped == equivalence.statistics.tests_skipped
        assert result.tests_skipped > 0
        assert not result.completeness_guaranteed

    def test_untruncated_suite_keeps_guarantee(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1)
        result = learn_mealy_machine(reference.inputs, oracle, equivalence)
        assert result.tests_skipped == 0
        assert result.completeness_guaranteed

    def test_batched_suite_finds_same_counterexample_region(self):
        reference = make_policy("LRU", 4).to_mealy().minimize()
        wrong = make_policy("FIFO", 4).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        for batch_size in (1, 7, 512):
            equivalence = ConformanceEquivalenceOracle(oracle, depth=1, batch_size=batch_size)
            counterexample = equivalence.find_counterexample(wrong)
            assert counterexample is not None
            assert reference.run(counterexample) != wrong.run(counterexample)

    def test_invalid_batch_size_rejected(self):
        oracle = FunctionOracle(_echo)
        with pytest.raises(ValueError):
            ConformanceEquivalenceOracle(oracle, batch_size=0)

    def test_negative_depth_rejected_up_front_without_warning(self):
        oracle = FunctionOracle(_echo)
        with warnings.catch_warnings():
            # A negative depth is a caller error, not a non-minimal
            # hypothesis: no "falling back to the minimized machine" warning.
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="depth"):
                ConformanceEquivalenceOracle(oracle, depth=-1)

    def test_negative_max_tests_rejected(self):
        oracle = FunctionOracle(_echo)
        with pytest.raises(ValueError, match="max_tests"):
            ConformanceEquivalenceOracle(oracle, max_tests=-1)

    def test_zero_max_tests_runs_nothing_and_is_flagged(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        suite_size = len(wp_method_suite(reference, 1))
        oracle = MealyMachineOracle(reference)
        equivalence = ConformanceEquivalenceOracle(oracle, depth=1, max_tests=0)
        assert equivalence.find_counterexample(reference) is None
        assert equivalence.statistics.test_words == 0
        assert equivalence.statistics.tests_skipped == suite_size
        assert oracle.statistics.membership_queries == 0

    def test_non_minimal_machine_raises_the_narrow_error(self):
        minimal = make_policy("LRU", 2).to_mealy().minimize()
        state = minimal.initial_state
        # One extra state that behaves exactly like the initial state.
        twin = "twin"
        transitions = dict(minimal.transitions)
        outputs = dict(minimal.outputs)
        for symbol in minimal.inputs:
            transitions[(twin, symbol)] = minimal.transitions[(state, symbol)]
            outputs[(twin, symbol)] = minimal.outputs[(state, symbol)]
        non_minimal = MealyMachine(
            list(minimal.states) + [twin], state, list(minimal.inputs), transitions, outputs
        )
        with pytest.raises(NonMinimalMachineError):
            characterization_set(non_minimal)


class TestRandomWalkBatching:
    def test_random_walk_uses_the_batched_engine(self):
        reference = make_policy("LRU", 4).to_mealy().minimize()
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = RandomWalkEquivalenceOracle(
            engine, reference.inputs, num_words=40, seed=7, batch_size=16
        )
        assert oracle.find_counterexample(reference) is None
        assert engine.statistics.batches >= 3  # ceil(40 / 16)
        assert oracle.statistics.test_words == 40

    def test_random_walk_finds_counterexample_within_first_batch(self):
        reference = make_policy("LRU", 4).to_mealy().minimize()
        wrong = make_policy("FIFO", 4).to_mealy().minimize()
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        oracle = RandomWalkEquivalenceOracle(
            engine, reference.inputs, num_words=200, seed=3, batch_size=32
        )
        counterexample = oracle.find_counterexample(wrong)
        assert counterexample is not None
        assert reference.run(counterexample) != wrong.run(counterexample)
        # Stopped at the first mismatching batch, not after all 200 words.
        assert oracle.statistics.test_words <= 200

    def test_random_walk_counterexample_stable_for_seed(self):
        reference = make_policy("LRU", 4).to_mealy().minimize()
        wrong = make_policy("FIFO", 4).to_mealy().minimize()

        def run_once(batch_size):
            engine = CachedMembershipOracle(MealyMachineOracle(reference))
            oracle = RandomWalkEquivalenceOracle(
                engine, reference.inputs, num_words=200, seed=11, batch_size=batch_size
            )
            return oracle.find_counterexample(wrong)

        # The first mismatching word in generation order does not depend on
        # how the words are chunked into batches.
        assert run_once(1) == run_once(64) == run_once(200)

    def test_random_walk_rejects_bad_batch_size(self):
        engine = CachedMembershipOracle(
            MealyMachineOracle(make_policy("LRU", 2).to_mealy().minimize())
        )
        with pytest.raises(ValueError):
            RandomWalkEquivalenceOracle(engine, ("a",), batch_size=0)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"min_length": 5, "max_length": 4}, "min_length"),
            ({"min_length": -2}, "min_length"),
            ({"min_length": 0}, "min_length"),
            ({"num_words": -1}, "num_words"),
        ],
    )
    def test_random_walk_rejects_bad_lengths_and_counts(self, options, message):
        oracle = FunctionOracle(_echo)
        with pytest.raises(ValueError, match=message):
            RandomWalkEquivalenceOracle(oracle, ("a",), **options)

    def test_random_walk_accepts_equal_bounds_and_zero_words(self):
        reference = make_policy("LRU", 2).to_mealy().minimize()
        oracle = MealyMachineOracle(reference)
        walker = RandomWalkEquivalenceOracle(
            oracle, reference.inputs, min_length=1, max_length=1, num_words=0
        )
        assert walker.find_counterexample(reference) is None
        assert walker.statistics.test_words == 0


class TestPolcaBatch:
    def test_batch_matches_serial_answers_and_saves_probes(self):
        interface = SimulatedCacheInterface(make_policy("PLRU", 4))
        serial = PolcaMembershipOracle(SimulatedCacheInterface(make_policy("PLRU", 4)))
        batched = PolcaMembershipOracle(interface)
        alphabet = batched.alphabet()
        words = [
            (alphabet[0],),
            (alphabet[0], alphabet[-1]),
            (alphabet[0], alphabet[-1], alphabet[1]),
            (alphabet[0], alphabet[-1]),
        ]
        answers = batched.output_query_batch(words)
        assert answers == [serial.output_query(word) for word in words]
        # Only the maximal word was executed by the batched oracle.
        assert batched.statistics.policy_queries == 1
        assert serial.statistics.policy_queries == 4


class TestLearnerEngineEquivalence:
    def test_trie_engine_executes_fewer_symbols(self):
        """The trie engine against no cache at all: learner and conformance
        tester share one uncached oracle, so every repeat re-executes."""
        reference = make_policy("PLRU", 4).to_mealy().minimize()
        executed = {}
        for cached in (True, False):
            oracle = MealyMachineOracle(reference)
            engine = CachedMembershipOracle(oracle) if cached else oracle
            equivalence = ConformanceEquivalenceOracle(engine, depth=1)
            result = learn_mealy_machine(
                reference.inputs, engine, equivalence, cache_queries=cached
            )
            assert reference.equivalent(result.machine)
            executed[cached] = oracle.statistics.membership_symbols
        assert executed[True] < executed[False]

    def test_dict_cache_backend_is_gone(self):
        """The pre-trie dictionary cache and its ``cache_backend`` knob were
        removed; the trie engine is the only response cache."""
        import repro.learning
        import repro.learning.learner as learner_module

        assert not hasattr(repro.learning, "DictCachedMembershipOracle")
        assert not hasattr(learner_module, "CACHE_BACKENDS")
        reference = make_policy("FIFO", 2).to_mealy()
        with pytest.raises(TypeError):
            MealyLearner(
                reference.inputs,
                MealyMachineOracle(reference),
                PerfectEquivalenceOracle(reference),
                cache_backend="dict",
            )

    def test_already_wrapped_oracle_is_not_double_wrapped(self):
        reference = make_policy("FIFO", 2).to_mealy()
        engine = CachedMembershipOracle(MealyMachineOracle(reference))
        learner = MealyLearner(
            reference.inputs, engine, PerfectEquivalenceOracle(reference)
        )
        assert learner.membership_oracle is engine


class TestSerialQueryPath:
    def test_process_pool_is_gone(self, capsys):
        """The process pool and the thread-executor fan-out were removed:
        every query runs serially through the one engine."""
        import importlib

        from repro.experiments.cli import main as cli_main
        from repro.polca.pipeline import PolicyLearningPipeline, learn_simulated_policy

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["table2", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        with pytest.raises(TypeError):
            learn_simulated_policy(make_policy("LRU", 2), workers=2)
        with pytest.raises(TypeError):
            PolicyLearningPipeline(
                SimulatedCacheInterface(make_policy("LRU", 2)), workers=2
            )
        reference = make_policy("LRU", 2).to_mealy()
        oracle = MealyMachineOracle(reference)
        with pytest.raises(TypeError):
            MealyLearner(
                reference.inputs, oracle, PerfectEquivalenceOracle(reference), workers=2
            )
        for option in ("pool", "executor"):
            with pytest.raises(TypeError):
                ConformanceEquivalenceOracle(oracle, **{option: None})
        with pytest.raises(ImportError):
            importlib.import_module("repro.learning.parallel")


class TestBackendCodegenRegression:
    def test_generated_code_initialises_mask_and_accumulates(self):
        cpu = SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=0.0))
        backend = CacheQueryBackend(cpu)
        backend.configure_target("L2", 0)
        (query,) = expand("A? B?", backend.associativity, backend.pool_blocks())
        code = backend.generate_code(query)
        # Regression: cmovb used r11 without initialising it and never
        # advanced the bit counter; each profiled access now sets its own
        # mask bit and ORs it into the r10 bitmask.
        assert "mov r11, 0x1" in code
        assert "mov r11, 0x2" in code
        assert code.count("or r10, r9") == 2
        assert code.index("mov r11, 0x1") < code.index("cmovb r9, r11")
        assert "xor r10, r10" in code


class TestCacheQueryBatchFrontend:
    def _frontend(self):
        from repro.cachequery.frontend import CacheQuery, CacheQueryConfig
        from repro.cachequery.backend import BackendConfig

        cpu = SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=0.0))
        return CacheQuery(
            cpu,
            CacheQueryConfig(level="L2", set_index=0, backend=BackendConfig(repetitions=1)),
        )

    def test_query_batch_dedups_concrete_queries(self):
        frontend = self._frontend()
        expression = "A B C?"
        results = frontend.query_batch([expression, expression, "A B?"])
        assert len(results) == 3
        assert results[0] == results[1]
        # Two distinct concrete queries executed, not three.
        assert frontend.backend.executed_queries == 2
        stats = frontend.cache_statistics()
        assert stats["entries"] == 2

    def test_probe_batch_matches_serial_probes(self):
        from repro.cachequery.frontend import CacheQuerySetInterface

        interface = CacheQuerySetInterface(self._frontend())
        blocks = interface.initial_blocks()
        sequences = [blocks[:2], (), blocks[:2], (blocks[0],)]
        batched = interface.probe_batch(sequences)
        serial_interface = CacheQuerySetInterface(self._frontend())
        serial = [serial_interface.probe(sequence) for sequence in sequences]
        assert batched == serial


@pytest.mark.slow
class TestFullRegistryEquivalenceSlow:
    def test_engine_learns_every_registered_policy_unchanged(self):
        """The trie engine learns every policy of the registry exactly
        (associativity 2 keeps this tractable)."""
        for name in available_policies():
            try:
                reference = make_policy(name, 2).to_mealy().minimize()
            except Exception:
                continue
            oracle = MealyMachineOracle(reference)
            result = learn_mealy_machine(
                reference.inputs, oracle, PerfectEquivalenceOracle(reference)
            )
            assert reference.equivalent(result.machine), name
            assert result.machine.size == reference.size, name
