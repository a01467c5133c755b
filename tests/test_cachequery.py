"""Tests for the CacheQuery frontend/backend and the hit/miss classification."""

import pytest

from repro.cache.cacheset import HIT, MISS
from repro.cachequery import (
    BackendConfig,
    CacheQuery,
    CacheQueryBackend,
    CacheQueryConfig,
    CacheQuerySetInterface,
    HitMissClassifier,
    QueryCache,
    calibrate_classifier,
)
from repro.errors import CacheQueryError
from repro.hardware.cpu import SimulatedCPU
from repro.hardware.profiles import SKYLAKE_I5_6500
from repro.hardware.timing import NoiseModel
from repro.mbl.expansion import expand


def _cpu(noise: float = 0.0) -> SimulatedCPU:
    return SimulatedCPU(SKYLAKE_I5_6500, noise=NoiseModel(std=noise))


class TestClassification:
    def test_threshold_classification(self):
        classifier = HitMissClassifier(threshold_cycles=20)
        assert classifier.classify(5) == HIT
        assert classifier.classify(50) == MISS

    def test_majority_vote_suppresses_outliers(self):
        classifier = HitMissClassifier(threshold_cycles=20)
        assert classifier.classify_majority([5, 300, 6]) == HIT
        assert classifier.classify_majority([300, 280, 6]) == MISS

    def test_majority_vote_requires_samples(self):
        with pytest.raises(CacheQueryError):
            HitMissClassifier(20).classify_majority([])

    def test_calibration_produces_separating_threshold(self):
        cpu = _cpu(noise=1.0)
        classifier = calibrate_classifier(cpu, "L1")
        assert cpu.timing.base_latency("L1") < classifier.threshold_cycles
        assert classifier.threshold_cycles < cpu.timing.base_latency("L2")

    def test_calibration_needs_enough_samples(self):
        with pytest.raises(CacheQueryError):
            calibrate_classifier(_cpu(), "L1", samples=2)

    def test_calibration_falls_back_to_the_midpoint_for_an_unknown_level(self):
        cpu = _cpu()
        classifier = calibrate_classifier(cpu, "L4")
        midpoint = (cpu.timing.base_latency("L1") + cpu.timing.base_latency(None)) / 2
        assert classifier.threshold_cycles == midpoint

    def test_calibration_propagates_unexpected_timing_errors(self, monkeypatch):
        cpu = _cpu()

        def broken(level):
            raise RuntimeError("timing model bug")

        monkeypatch.setattr(cpu.timing, "hit_threshold", broken)
        with pytest.raises(RuntimeError, match="timing model bug"):
            calibrate_classifier(cpu, "L1")


class TestQueryCache:
    def test_put_get_and_statistics(self):
        cache = QueryCache()
        assert cache.get("L2", 0, 5, "A B?") is None
        cache.put("L2", 0, 5, "A B?", ("Hit",))
        assert cache.get("L2", 0, 5, "A B?") == ("Hit",)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_keys_include_target(self):
        cache = QueryCache()
        cache.put("L2", 0, 5, "A?", ("Hit",))
        assert cache.get("L2", 0, 6, "A?") is None
        assert cache.get("L1", 0, 5, "A?") is None

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(str(path))
        cache.put("L1", 0, 1, "A?", ("Miss",))
        cache.save()
        reloaded = QueryCache(str(path))
        assert reloaded.get("L1", 0, 1, "A?") == ("Miss",)

    def test_clear(self):
        cache = QueryCache()
        cache.put("L1", 0, 0, "A?", ("Hit",))
        cache.clear()
        assert len(cache) == 0

    def test_hit_ratio(self):
        cache = QueryCache()
        assert cache.hit_ratio == 0.0  # never queried: no division by zero
        cache.put("L1", 0, 0, "A?", ("Hit",))
        cache.get("L1", 0, 0, "A?")  # hit
        cache.get("L1", 0, 0, "B?")  # miss
        cache.get("L1", 0, 0, "A?")  # hit
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_ratio == pytest.approx(2 / 3)

    def test_persistence_round_trip_multiple_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = QueryCache(str(path))
        entries = {
            ("L1", 0, 1, "A?"): ("Miss",),
            ("L2", 1, 3, "A? B?"): ("Hit", "Miss"),
            ("L3", 2, 7, "A! B C? D? E?"): ("Miss", "Hit", "Hit"),
        }
        for (level, slice_index, set_index, query), outcomes in entries.items():
            cache.put(level, slice_index, set_index, query, outcomes)
        cache.save()
        reloaded = QueryCache(str(path))
        assert len(reloaded) == len(entries)
        for (level, slice_index, set_index, query), outcomes in entries.items():
            assert reloaded.get(level, slice_index, set_index, query) == outcomes
        # The reload starts with fresh statistics; the lookups above were hits.
        assert reloaded.hits == len(entries) and reloaded.misses == 0
        assert reloaded.hit_ratio == 1.0

    def test_save_is_noop_without_path_and_reload_is_idempotent(self, tmp_path):
        QueryCache().save()  # purely in-memory: must not raise
        path = tmp_path / "cache.json"
        cache = QueryCache(str(path))
        cache.put("L1", 0, 0, "A?", ("Hit",))
        cache.save()
        cache.save()  # saving twice must not duplicate entries
        assert len(QueryCache(str(path))) == 1

    @pytest.mark.parametrize(
        "content",
        ["", "{ not json", '{"level": "L1"}', '[{"level": "L1"}]', "[42]"],
        ids=["empty", "truncated", "not-a-list", "missing-keys", "bad-entry"],
    )
    def test_corrupted_file_raises_cachequery_error(self, tmp_path, content):
        path = tmp_path / "cache.json"
        path.write_text(content)
        with pytest.raises(CacheQueryError, match=str(path)):
            QueryCache(str(path))

    def test_binary_garbage_raises_cachequery_error(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        with pytest.raises(CacheQueryError):
            QueryCache(str(path))

    def test_outcome_count_must_match_profiled_accesses(self):
        with pytest.raises(CacheQueryError, match="profiles"):
            QueryCache().put("L1", 0, 0, "A B?", ("Hit", "Miss"))

    def test_prefix_of_cached_query_is_served_without_execution(self):
        """The trie rebase: a shorter query rides on a longer one's answer."""
        cache = QueryCache()
        cache.put("L2", 0, 3, "A! B? C? D?", ("Hit", "Miss", "Hit"))
        assert cache.get("L2", 0, 3, "A! B? C?") == ("Hit", "Miss")
        assert cache.get("L2", 0, 3, "A! B?") == ("Hit",)
        # Profiling markers do not change cache state, so an unprofiled
        # variant of the same access path shares the measurements.
        assert cache.get("L2", 0, 3, "A! B C?") == ("Miss",)
        # ...but a position never measured cannot be served.
        cache.put("L2", 0, 3, "A! B C X?", ("Hit",))
        assert cache.get("L2", 0, 3, "A! B C? X?") == ("Miss", "Hit")

    def test_conflicting_measurements_raise_non_determinism(self):
        from repro.errors import NonDeterminismError

        cache = QueryCache()
        cache.put("L1", 0, 0, "A B?", ("Hit",))
        with pytest.raises(NonDeterminismError):
            cache.put("L1", 0, 0, "A B? C?", ("Miss", "Hit"))

    def test_legacy_json_cache_migrates_on_open(self, tmp_path):
        """Pre-PR-5 flat caches load transparently and re-save as a store."""
        path = tmp_path / "cache.json"
        legacy = [
            {"level": "L2", "slice": 0, "set": 5, "query": "A B?", "outcomes": ["Hit"]},
            {
                "level": "L2",
                "slice": 0,
                "set": 5,
                "query": "A B? C?",
                "outcomes": ["Hit", "Miss"],
            },
            {"level": "L1", "slice": 1, "set": 2, "query": "X?", "outcomes": ["Miss"]},
        ]
        import json

        path.write_text(json.dumps(legacy))
        cache = QueryCache(str(path))
        assert cache.get("L2", 0, 5, "A B?") == ("Hit",)
        assert cache.get("L2", 0, 5, "A B? C?") == ("Hit", "Miss")
        assert cache.get("L1", 1, 2, "X?") == ("Miss",)
        cache.save()
        from repro.store import is_store_document

        # v2 is line-oriented: the header line identifies the document.
        assert is_store_document(json.loads(path.read_text().splitlines()[0]))
        reloaded = QueryCache(str(path))
        assert reloaded.get("L2", 0, 5, "A B? C?") == ("Hit", "Miss")

    def test_legacy_cache_with_conflicting_measurements_rejected(self, tmp_path):
        import json

        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                [
                    {"level": "L1", "slice": 0, "set": 0, "query": "A B?", "outcomes": ["Hit"]},
                    {
                        "level": "L1",
                        "slice": 0,
                        "set": 0,
                        "query": "A B? C?",
                        "outcomes": ["Miss", "Hit"],
                    },
                ]
            )
        )
        with pytest.raises(CacheQueryError, match="conflicting"):
            QueryCache(str(path))

    def test_trie_persistence_is_smaller_than_legacy_json(self, tmp_path):
        """Queries sharing a long reset prefix store it once on disk."""
        import json

        reset = " ".join(f"B{i}!" for i in range(12)) + " @"
        entries = [
            (
                "L2",
                0,
                0,
                f"{reset} " + " ".join(f"C{j}?" for j in range(depth + 1)),
                tuple("Hit" for _ in range(depth + 1)),
            )
            for depth in range(40)
        ]
        legacy_bytes = len(
            json.dumps(
                [
                    {"level": lvl, "slice": sl, "set": st, "query": q, "outcomes": list(o)}
                    for lvl, sl, st, q, o in entries
                ]
            )
        )
        path = tmp_path / "store.json"
        cache = QueryCache(str(path))
        for lvl, sl, st, query, outcomes in entries:
            cache.put(lvl, sl, st, query, outcomes)
        cache.save()
        assert path.stat().st_size < legacy_bytes / 3

    def test_corrupt_file_never_partially_populates_a_shared_store(self, tmp_path):
        """All-or-nothing loading: a file whose tail is malformed must not
        leave its valid head in a shared store other views depend on."""
        import json

        from repro.store import PrefixStore

        path = tmp_path / "cache.json"
        # Legacy file: first entry valid, second has more outcomes than
        # profiled accesses.
        path.write_text(
            json.dumps(
                [
                    {"level": "L1", "slice": 0, "set": 0, "query": "A?", "outcomes": ["Hit"]},
                    {
                        "level": "L1",
                        "slice": 0,
                        "set": 0,
                        "query": "B C?",
                        "outcomes": ["Hit", "Miss"],
                    },
                ]
            )
        )
        shared = PrefixStore()
        with pytest.raises(CacheQueryError, match="entry 1"):
            QueryCache(str(path), store=shared)
        assert shared.node_count == 0 and shared.namespaces() == ()
        # Native store file: valid first namespace, malformed second one.
        path.write_text(
            json.dumps(
                {
                    "format": "repro-prefix-store",
                    "version": 1,
                    "namespaces": [
                        {"key": ["mbl", "L1", 0, 0], "trie": [None, {"A": ["Hit", {}, 1]}]},
                        {"key": ["mbl", "L1", 0, 1], "trie": [None]},
                    ],
                }
            )
        )
        shared = PrefixStore()
        with pytest.raises(CacheQueryError, match="malformed"):
            QueryCache(str(path), store=shared)
        assert shared.node_count == 0 and shared.namespaces() == ()

    def test_loaded_file_conflicting_with_shared_store_is_rejected(self, tmp_path):
        from repro.store import PrefixStore

        path = tmp_path / "cache.json"
        writer = QueryCache(str(path))
        writer.put("L1", 0, 0, "A?", ("Hit",))
        writer.save()
        shared = PrefixStore()
        live = QueryCache(store=shared)
        live.put("L1", 0, 0, "A?", ("Miss",))
        with pytest.raises(CacheQueryError, match="conflict"):
            QueryCache(str(path), store=shared)
        # The live measurement is untouched.
        assert live.get("L1", 0, 0, "A?") == ("Miss",)

    def test_shared_store_is_not_loaded_twice(self, tmp_path):
        from repro.store import PrefixStore

        path = tmp_path / "store.json"
        first = QueryCache(str(path))
        first.put("L1", 0, 0, "A?", ("Hit",))
        first.save()
        store = PrefixStore(str(path))  # loads the file itself
        joined = QueryCache(str(path), store=store)
        assert len(joined) == 1  # not duplicated by a second load
        assert joined.get("L1", 0, 0, "A?") == ("Hit",)


class TestBackend:
    def test_requires_target_configuration(self):
        backend = CacheQueryBackend(_cpu())
        with pytest.raises(CacheQueryError):
            backend.pool_blocks()

    def test_invalid_target_rejected(self):
        backend = CacheQueryBackend(_cpu())
        with pytest.raises(CacheQueryError):
            backend.configure_target("L2", 5000)
        with pytest.raises(CacheQueryError):
            backend.configure_target("L3", 0, slice_index=99)

    def test_pool_blocks_map_to_target_set(self):
        cpu = _cpu()
        backend = CacheQueryBackend(cpu)
        backend.configure_target("L2", 33)
        mapper = cpu.hierarchy.level("L2").mapper
        for block in backend.pool_blocks():
            assert mapper.locate(backend.block_address(block)) == (0, 33)

    def test_unknown_block_rejected(self):
        backend = CacheQueryBackend(_cpu())
        backend.configure_target("L1", 0)
        with pytest.raises(CacheQueryError):
            backend.block_address("ZZ")

    def test_execute_profiles_against_ground_truth_counters(self):
        """Timing-based verdicts must agree with the architectural state."""
        cpu = _cpu()
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1, profile_with_counters=True))
        backend.configure_target("L2", 7)
        (query,) = expand("A B C D A?", backend.associativity, backend.pool_blocks())
        counter_verdict = backend.execute(query)
        timed_backend = CacheQueryBackend(cpu, BackendConfig(repetitions=3))
        timed_backend.configure_target("L2", 7)
        timed_verdict = timed_backend.execute(query)
        assert counter_verdict == timed_verdict == (HIT,)

    def test_execute_eviction_probe_finds_exactly_one_victim(self):
        cpu = _cpu()
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1))
        backend.configure_target("L2", 9)
        blocks = backend.pool_blocks()
        fresh = blocks[backend.associativity]
        # Each probe starts with a Flush+Refill reset so the four probes are
        # independent, exactly like the queries Polca issues.
        reset = " ".join(f"{block}!" for block in blocks)
        results = []
        for probe in blocks[: backend.associativity]:
            (query,) = expand(
                f"{reset} @ {fresh} {probe}?", backend.associativity, blocks
            )
            results.append(backend.execute(query)[0])
        assert results.count(MISS) == 1

    def test_flush_tag_invalidates_block(self):
        cpu = _cpu()
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1))
        backend.configure_target("L1", 3)
        (query,) = expand("A A! A?", backend.associativity, backend.pool_blocks())
        assert backend.execute(query) == (MISS,)

    def test_empty_query_rejected(self):
        backend = CacheQueryBackend(_cpu())
        backend.configure_target("L1", 0)
        with pytest.raises(CacheQueryError):
            backend.execute(())

    def test_generate_code_mentions_profiling(self):
        backend = CacheQueryBackend(_cpu())
        backend.configure_target("L2", 0)
        (query,) = expand("A B?", backend.associativity, backend.pool_blocks())
        code = backend.generate_code(query)
        assert "movabs" in code and "rdtsc" in code and "clflush" not in code

    def test_prefetcher_restored_after_execution(self):
        cpu = _cpu()
        cpu.set_prefetcher(True)
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=1))
        backend.configure_target("L1", 0)
        (query,) = expand("A?", backend.associativity, backend.pool_blocks())
        backend.execute(query)
        assert cpu.prefetcher.enabled is True

    def test_repetition_majority_recovers_from_noise(self):
        cpu = SimulatedCPU(
            SKYLAKE_I5_6500,
            noise=NoiseModel(std=3.0, outlier_probability=0.05, seed=3),
        )
        backend = CacheQueryBackend(cpu, BackendConfig(repetitions=7))
        backend.configure_target("L1", 11)
        blocks = backend.pool_blocks()
        # The query resets its own context (flush A and B) so the repeated
        # executions used for majority voting all observe the same state.
        (query,) = expand("A! B! A A? B?", backend.associativity, blocks)
        assert backend.execute(query) == (HIT, MISS)


class TestFrontend:
    def test_query_returns_one_result_per_expansion(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=3))
        results = frontend.query("@ E _?")
        assert len(results) == frontend.associativity
        assert all(len(result) == 1 for result in results)

    def test_response_cache_serves_repeats(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=1))
        frontend.query("A B C?")
        executed_before = frontend.backend.executed_queries
        frontend.query("A B C?")
        assert frontend.backend.executed_queries == executed_before
        assert frontend.cache.hits >= 1

    def test_configure_switches_target(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=1))
        frontend.configure(level="L2", set_index=8)
        assert frontend.config.level == "L2"
        assert frontend.associativity == 4

    def test_batch_mode_restores_target(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=2))
        results = frontend.batch("@ E A?", [4, 5, 6])
        assert set(results) == {4, 5, 6}
        assert frontend.config.set_index == 2

    def test_interactive_mode_commands(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=0))
        script = iter(["blocks", "set 2", "level L2", "A B?", "bogus $ query", "quit"])
        outputs = []
        frontend.interactive(input_fn=lambda _: next(script), output_fn=outputs.append)
        assert any("A" in line for line in outputs)
        assert any("error" in line for line in outputs)
        assert frontend.config.level == "L2"

    def test_interactive_mode_reports_bad_input_and_keeps_reading(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=0))
        script = iter(["set abc", "set 3", "quit"])
        outputs = []
        frontend.interactive(input_fn=lambda _: next(script), output_fn=outputs.append)
        assert any(line.startswith("error: ") for line in outputs)
        assert frontend.config.set_index == 3  # the line after the error ran

    def test_interactive_mode_propagates_programming_errors(self, monkeypatch):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=0))

        def broken_query(expression):
            raise RuntimeError("bug in query")

        monkeypatch.setattr(frontend, "query", broken_query)
        script = iter(["A B?", "quit"])
        with pytest.raises(RuntimeError, match="bug in query"):
            frontend.interactive(input_fn=lambda _: next(script), output_fn=lambda _: None)

    def test_set_interface_probe_profiles_every_block(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L2", set_index=17))
        interface = CacheQuerySetInterface(frontend)
        outcomes = interface.probe(["A", "B", "C", "D", "E", "A"])
        assert len(outcomes) == 6
        assert outcomes[:4] == (HIT, HIT, HIT, HIT)
        assert outcomes[4] == MISS

    def test_set_interface_empty_probe(self):
        frontend = CacheQuery(_cpu(), CacheQueryConfig(level="L1", set_index=0))
        assert CacheQuerySetInterface(frontend).probe([]) == ()
