"""Which calls the traced run wraps, and the per-layer metrics it derives.

Each layer of the pipeline is traced at its public entry points by
wrapping the class or module attribute (see :func:`install`).  Span names
map to layers through :data:`LAYER_OF_SPAN`; the ``pass`` and ``target``
spans the workloads open themselves belong to ``pipeline``, the glue
between layers (Polca and kernel construction, report assembly); the
speed reference's samples (see :mod:`speed`) belong to ``benchmark``.

The program is serial: no layer waits on a queue or a lock held by
another worker, so waiting time is not applicable to any layer.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence

from spans import Tracer, self_times, totals_by_name

LAYER_OF_SPAN = {
    "pass": "pipeline",
    "target": "pipeline",
    "identify": "identify",
    "mealy.minimize": "mealy",
    "learner": "learner",
    "learner.hypothesis": "learner",
    "conformance": "conformance",
    "conformance.suite_gen": "conformance",
    "engine": "engine",
    "polca": "polca",
    "simkernel": "simkernel",
    "cachequery.probe": "cachequery",
    "cachequery.backend": "cachequery",
    "store.open": "store",
    "store.save": "store",
    "speed.sample": "benchmark",
}

LAYERS = (
    "pipeline",
    "identify",
    "mealy",
    "learner",
    "conformance",
    "engine",
    "polca",
    "simkernel",
    "cachequery",
    "store",
    "benchmark",
)

#: Every per-layer metric and its unit, in report order.
PER_LAYER_METRICS: Dict[str, str] = {
    "identify.s": "s",
    "identify.calls": "count",
    "identify.reference_states": "count",
    "mealy.minimize_s": "s",
    "mealy.minimize_calls": "count",
    "learner.self_s": "s",
    "learner.hypothesis_s": "s",
    "learner.hypothesis_calls": "count",
    "learner.rounds": "count",
    "learner.queries": "count",
    "learner.symbols": "count",
    "conformance.s": "s",
    "conformance.self_s": "s",
    "conformance.suite_gen_s": "s",
    "conformance.equivalence_queries": "count",
    "conformance.test_words": "count",
    "conformance.test_words_per_round": "count",
    "engine.self_s": "s",
    "engine.batches": "count",
    "engine.words_requested": "count",
    "engine.words_executed": "count",
    "engine.hit_ratio": "ratio",
    "engine.trie_nodes": "count",
    "polca.self_s": "s",
    "polca.queries": "count",
    "polca.symbols": "count",
    "polca.cache_probes": "count",
    "polca.block_accesses": "count",
    "simkernel.s": "s",
    "simkernel.words": "count",
    "simkernel.symbols_per_s": "1/s",
    "cachequery.probe_s": "s",
    "cachequery.self_s": "s",
    "cachequery.probes": "count",
    "cachequery.backend_s": "s",
    "cachequery.backend_calls": "count",
    "cachequery.querycache_hit_ratio": "ratio",
    "store.open_s": "s",
    "store.save_s": "s",
    "store.records_saved": "count",
    "store.bytes_on_disk": "bytes",
    "store.nodes": "count",
    "store.warm_sul_queries": "count",
    "store.cold_s": "s",
    "store.warm_s": "s",
    "pipeline.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.self_sum_gap_s": "s",
}

#: Counts summed straight from the targets' learning reports.
REPORT_COUNTS = (
    "learner.rounds",
    "learner.queries",
    "learner.symbols",
    "conformance.equivalence_queries",
    "conformance.test_words",
    "engine.batches",
    "engine.words_requested",
    "engine.words_executed",
    "engine.trie_nodes",
    "polca.queries",
    "polca.symbols",
    "polca.cache_probes",
    "polca.block_accesses",
    "store.records_saved",
    "store.bytes_on_disk",
    "store.nodes",
    "store.warm_sul_queries",
    "store.cold_s",
    "store.warm_s",
)


def _count_simkernel(tracer: Tracer, args: tuple, result) -> None:
    words = args[1]
    tracer.count("simkernel.words", len(words))
    tracer.count("simkernel.symbols", sum(len(word) for word in words))


def _count_reference(tracer: Tracer, args: tuple, result) -> None:
    if tracer.inside("identify"):
        tracer.count("identify.reference_states", result.size)


def _count_probe(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("cachequery.probes")


def _count_probe_batch(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("cachequery.probes", len(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points so calls record spans on ``tracer``."""
    import repro.learning.equivalence as equivalence
    import repro.polca.pipeline as pipeline
    from repro.cachequery.backend import CacheQueryBackend
    from repro.cachequery.frontend import CacheQuerySetInterface
    from repro.core.mealy import MealyMachine
    from repro.learning.kv import ClassificationTree
    from repro.learning.learner import ActiveLearner
    from repro.learning.observation_table import ObservationTable
    from repro.learning.oracles import CachedMembershipOracle
    from repro.learning.ttt import TTTTree
    from repro.policies.base import ReplacementPolicy
    from repro.polca.algorithm import PolcaMembershipOracle
    from repro.simkernel.batch import BatchSimulator

    wrap = tracer.wrap
    wrap(pipeline, "identify_policy", "identify")
    wrap(ReplacementPolicy, "to_mealy", None, _count_reference)
    wrap(MealyMachine, "minimize", "mealy.minimize")
    wrap(ActiveLearner, "learn", "learner")
    for tree in (ObservationTable, ClassificationTree, TTTTree):
        wrap(tree, "hypothesis", "learner.hypothesis")
    wrap(equivalence.ConformanceEquivalenceOracle, "find_counterexample", "conformance")
    wrap(equivalence, "iter_wp_method_suite", "conformance.suite_gen")
    wrap(equivalence, "iter_w_method_suite", "conformance.suite_gen")
    # The serial tester pulls suite words chunk by chunk; the lazy suite
    # generator runs inside these pulls.
    tracer.wrap_generator(equivalence, "_chunks", "conformance.suite_gen")
    for attribute in ("output_query", "output_query_batch"):
        wrap(CachedMembershipOracle, attribute, "engine")
    for attribute in ("output_query", "output_query_batch", "output_query_resume"):
        wrap(PolcaMembershipOracle, attribute, "polca")
    for attribute in ("answer_words", "answer_words_from_states"):
        wrap(BatchSimulator, attribute, "simkernel", _count_simkernel)
    wrap(CacheQuerySetInterface, "probe", "cachequery.probe", _count_probe)
    wrap(CacheQuerySetInterface, "probe_batch", "cachequery.probe", _count_probe_batch)
    for attribute in ("execute", "execute_operations"):
        wrap(CacheQueryBackend, attribute, "cachequery.backend")


def layer_metrics(tracer: Tracer, outcomes: Sequence) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (tracing-overhead fields excluded)."""
    spans = tracer.spans
    selfs = self_times(spans)
    totals = totals_by_name(spans, selfs)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    counters = tracer.counters
    reported: Dict[str, float] = {name: 0 for name in REPORT_COUNTS}
    for outcome in outcomes:
        for name in REPORT_COUNTS:
            reported[name] += outcome.counts.get(name, 0)
    querycache_hits = sum(o.counts.get("cachequery.querycache_hits", 0) for o in outcomes)
    querycache_lookups = sum(
        o.counts.get("cachequery.querycache_lookups", 0) for o in outcomes
    )
    simkernel_s = inclusive("simkernel")
    metrics = dict(reported)
    metrics.update(
        {
            "identify.s": inclusive("identify"),
            "identify.calls": calls("identify"),
            "identify.reference_states": counters.get("identify.reference_states", 0),
            "mealy.minimize_s": inclusive("mealy.minimize"),
            "mealy.minimize_calls": calls("mealy.minimize"),
            "learner.self_s": own("learner", "learner.hypothesis"),
            "learner.hypothesis_s": inclusive("learner.hypothesis"),
            "learner.hypothesis_calls": calls("learner.hypothesis"),
            "conformance.s": inclusive("conformance"),
            "conformance.self_s": own("conformance", "conformance.suite_gen"),
            "conformance.suite_gen_s": inclusive("conformance.suite_gen"),
            "conformance.test_words_per_round": (
                reported["conformance.test_words"]
                / reported["conformance.equivalence_queries"]
                if reported["conformance.equivalence_queries"]
                else 0.0
            ),
            "engine.self_s": own("engine"),
            "engine.hit_ratio": (
                1.0 - reported["engine.words_executed"] / reported["engine.words_requested"]
                if reported["engine.words_requested"]
                else 0.0
            ),
            "polca.self_s": own("polca"),
            "simkernel.s": simkernel_s,
            "simkernel.words": counters.get("simkernel.words", 0),
            "simkernel.symbols_per_s": (
                counters.get("simkernel.symbols", 0) / simkernel_s if simkernel_s else 0.0
            ),
            "cachequery.probe_s": inclusive("cachequery.probe"),
            "cachequery.self_s": own("cachequery.probe", "cachequery.backend"),
            "cachequery.probes": counters.get("cachequery.probes", 0),
            "cachequery.backend_s": inclusive("cachequery.backend"),
            "cachequery.backend_calls": calls("cachequery.backend"),
            "cachequery.querycache_hit_ratio": (
                querycache_hits / querycache_lookups if querycache_lookups else 0.0
            ),
            "store.open_s": inclusive("store.open"),
            "store.save_s": inclusive("store.save"),
            "pipeline.self_s": own("pass", "target"),
            "trace.spans": len(spans),
        }
    )
    return metrics


def layer_table(tracer: Tracer) -> List[str]:
    """Human-readable busy/self/wait lines for one traced pass."""
    selfs = self_times(tracer.spans)
    totals = totals_by_name(tracer.spans, selfs)
    rows = {layer: [0, 0.0] for layer in LAYERS}
    for name, (n, _inclusive, own) in totals.items():
        layer = LAYER_OF_SPAN[name]
        rows[layer][0] += n
        rows[layer][1] += own
    wall = sum(selfs)
    lines = [f"  {'layer':<12}{'spans':>9}{'self s':>10}{'share':>8}  wait"]
    for layer in LAYERS:
        n, own = rows[layer]
        share = own / wall if wall else 0.0
        lines.append(f"  {layer:<12}{n:>9}{own:>10.3f}{share:>8.1%}  n/a (serial)")
    return lines


def median_metrics(per_pass: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Median of every metric over the traced passes."""
    return {name: median(m[name] for m in per_pass) for name in per_pass[0]}
