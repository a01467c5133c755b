"""The benchmark's four workloads, their targets and the ground-truth check.

Every workload runs through the library's public entry points
(``run_table2``, ``learn_simulated_policy``, ``run_table4_configuration``,
``open_store``) in this one serial process, with the default kernel and no
worker pool.  The targets are fixed; the seed only sets the order in which
a pass visits them.  Each learned machine is checked against the registry
policy its target is built from, after the pass's clock has stopped.
"""

from __future__ import annotations

import gc
import os
import random
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.experiments.table2 as table2
import repro.experiments.table4 as table4
from repro.core.mealy import MealyMachine
from repro.hardware.profiles import cpu_profile
from repro.policies.registry import make_policy
from repro.polca.pipeline import PolicyLearningReport, learn_simulated_policy
from repro.store import open_store


@dataclass
class Outcome:
    """One target learned in one pass."""

    target: str
    #: ``None`` when the target matched ground truth, else why it did not.
    failure: Optional[str]
    sul_queries: int = 0
    block_accesses: int = 0
    states: int = 0
    identified: Optional[str] = None
    #: Per-layer counts read from the learning report.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Extra report lines (the cold and warm halves of a store pass).
    lines: List[str] = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    #: ``wall_s`` at the reference speed (see :mod:`speed`).
    normalised_s: float
    outcomes: List[Outcome]


class GroundTruth:
    """Minimal registry machines, built once per (policy, associativity)."""

    def __init__(self) -> None:
        self._machines: Dict[Tuple[str, int], MealyMachine] = {}

    def machine(self, policy: str, associativity: int) -> MealyMachine:
        key = (policy.upper(), associativity)
        if key not in self._machines:
            self._machines[key] = make_policy(policy, associativity).to_mealy().minimize()
        return self._machines[key]

    def check(
        self,
        report: PolicyLearningReport,
        policy: str,
        associativity: int,
        *,
        identified: bool,
    ) -> Optional[str]:
        """Return ``None`` when ``report`` is right, else the reason it is not.

        The learned machine must be equivalent to the policy at
        ``associativity``; where identification ran, the named policy's
        machine must be equivalent to it as well.
        """
        truth = self.machine(policy, associativity)
        if not report.machine.equivalent(truth):
            return (
                f"learned {report.machine.size} states, "
                f"{policy}-{associativity} has {truth.size}"
            )
        if identified:
            name = report.identified_policy
            if name is None:
                return "identification named no policy"
            if not self.machine(name, associativity).equivalent(truth):
                return f"identified as {name}, not equivalent to {policy}-{associativity}"
        return None


def report_counts(report: PolicyLearningReport) -> Dict[str, float]:
    """The per-layer counts a learning report carries."""
    result = report.learning_result
    statistics = result.statistics
    polca = report.polca_statistics
    return {
        "learner.rounds": result.rounds,
        "learner.queries": result.learner_queries,
        "learner.symbols": result.learner_symbols,
        "conformance.equivalence_queries": statistics.equivalence_queries,
        "conformance.test_words": statistics.test_words,
        "engine.batches": statistics.batches,
        "engine.words_requested": statistics.cache_hits
        + statistics.subsumed_words
        + statistics.membership_queries,
        "engine.words_executed": statistics.membership_queries,
        "engine.trie_nodes": report.extra.get("cached_prefixes", 0),
        "polca.queries": polca.policy_queries,
        "polca.symbols": polca.policy_symbols,
        "polca.cache_probes": polca.cache_probes,
        "polca.block_accesses": polca.block_accesses,
    }


def outcome_from_report(
    target: str, report: PolicyLearningReport, failure: Optional[str]
) -> Outcome:
    return Outcome(
        target=target,
        failure=failure,
        sul_queries=report.polca_statistics.policy_queries,
        block_accesses=report.polca_statistics.block_accesses,
        states=report.num_states,
        identified=report.identified_policy,
        counts=report_counts(report),
    )


@contextmanager
def captured_reports(module, attribute: str) -> Iterator[List[tuple]]:
    """Keep ``(args, report)`` of every call to ``module.attribute`` in the block.

    ``run_table2`` and ``run_table4_configuration`` return table rows, which
    carry no machine; the ground-truth check needs the machine, so the
    benchmark keeps the report each row was built from.
    """
    original = getattr(module, attribute)
    reports: List[tuple] = []

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append((args, report))
        return report

    setattr(module, attribute, capture)
    try:
        yield reports
    finally:
        setattr(module, attribute, original)


class NullTracer:
    """Stands in for :class:`spans.Tracer` in untraced passes."""

    target: Optional[str] = None

    def span(self, name: str):
        return nullcontext()


#: What ``Workload.learn`` returns: a check to run once the clock has stopped.
Check = Callable[[], Outcome]


class Workload:
    """A named set of fixed targets; one pass learns each target once."""

    name = ""
    why = ""
    #: Targets whose learned machines are known to be wrong.  They count as
    #: failures; a run is only incorrect when another target fails.
    known_wrong: frozenset = frozenset()

    def __init__(self, output_dir: str) -> None:
        self.output_dir = output_dir
        self.truth = GroundTruth()

    def targets(self) -> List[str]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the targets' ground truth and run a cheap warm-up through
        the same entry points (it triggers the library's lazy imports)."""
        raise NotImplementedError

    def learn(self, target: str, tracer) -> Check:
        """Learn ``target``; return the check that turns it into an :class:`Outcome`."""
        raise NotImplementedError

    def run_pass(self, rng: random.Random, tracer=None, speed=None) -> PassResult:
        """Learn every target once, in an order drawn from ``rng``.

        ``speed`` (a :class:`speed.SpeedReference`) samples the host's speed
        during the pass, for the normalised time.
        """
        tracer = tracer if tracer is not None else NullTracer()
        order = list(self.targets())
        rng.shuffle(order)
        checks: List[Check] = []
        gc.collect()  # every pass starts from the same heap state
        with speed if speed is not None else nullcontext():
            start = time.perf_counter()
            with tracer.span("pass"):
                for target in order:
                    tracer.target = target
                    with tracer.span("target"):
                        try:
                            checks.append(self.learn(target, tracer))
                        except Exception as error:  # a target that raises fails
                            traceback.print_exc()
                            failure = f"raised {type(error).__name__}: {error}"
                            checks.append(lambda t=target, f=failure: Outcome(t, f))
                    tracer.target = None
            wall_s = time.perf_counter() - start
        return PassResult(
            wall_s=wall_s,
            normalised_s=speed.normalise(wall_s) if speed is not None else wall_s,
            outcomes=[check() for check in checks],
        )


class Table2Fast(Workload):
    name = "table2-fast"
    why = (
        "16 small L* machines learned and identified: the only workload where "
        "identification and reference minimisation show"
    )

    #: The default-depth rows of the randomized policies: the depth-1 Wp
    #: suite is not complete for them, and they learn 2/4/16 states against
    #: a true 8/48/64.
    known_wrong = frozenset({"BIP-2", "BRRIP-HP-2", "BRRIP-FP-2"})

    #: (target, policy, associativity, depth)
    TARGETS: Tuple[Tuple[str, str, int, int], ...] = tuple(
        (f"{policy}-{assoc}", policy, assoc, 1)
        for policy, assoc in table2.table2_configurations("fast")
    ) + (
        ("BIP-2", "BIP", 2, 1),
        ("BRRIP-HP-2", "BRRIP-HP", 2, 1),
        ("BRRIP-FP-2", "BRRIP-FP", 2, 1),
        ("SRRIP-HP-2@depth2", "SRRIP-HP", 2, 2),
    )

    def targets(self) -> List[str]:
        return [spec[0] for spec in self.TARGETS]

    def setup(self) -> None:
        for _, policy, assoc, _ in self.TARGETS:
            self.truth.machine(policy, assoc)
        table2.run_table2(configurations=[("PLRU", 2)])

    def learn(self, target, tracer):
        _, policy, assoc, depth = next(spec for spec in self.TARGETS if spec[0] == target)
        with captured_reports(table2, "learn_simulated_policy") as reports:
            table2.run_table2(configurations=[(policy, assoc)], depth=depth)
        ((_, report),) = reports

        def check() -> Outcome:
            failure = self.truth.check(report, policy, assoc, identified=True)
            return outcome_from_report(target, report, failure)

        return check


class Plru8Learn(Workload):
    name = "plru8-learn"
    why = (
        "PLRU-8 (128 states) by L* and by TTT, no identification: conformance, "
        "engine and learner work at scale"
    )

    LEARNERS = ("lstar", "ttt")

    def targets(self) -> List[str]:
        return [f"PLRU-8/{learner}" for learner in self.LEARNERS]

    def setup(self) -> None:
        self.truth.machine("PLRU", 8)
        for learner in self.LEARNERS:
            learn_simulated_policy(make_policy("PLRU", 2), learner=learner, identify=False)

    def learn(self, target, tracer):
        learner = target.split("/")[1]
        report = learn_simulated_policy(make_policy("PLRU", 8), learner=learner, identify=False)

        def check() -> Outcome:
            failure = self.truth.check(report, "PLRU", 8, identified=False)
            return outcome_from_report(target, report, failure)

        return check


class Table4Fast(Workload):
    name = "table4-fast"
    why = (
        "Table 4 fast rows through CacheQuery (MBL, backend, simulated timing, "
        "QueryCache, scalar Polca): the hardware-path layers"
    )

    def __init__(self, output_dir: str) -> None:
        super().__init__(output_dir)
        self._by_name = {
            f"{c.cpu}/{c.level}": c
            for c in table4.table4_configurations("fast")
            if c.learnable
        }

    def targets(self) -> List[str]:
        return list(self._by_name)

    @staticmethod
    def ground_truth_policy(configuration) -> str:
        """The policy the simulated CPU runs in the targeted set."""
        spec = cpu_profile(configuration.cpu).level(configuration.level)
        if spec.adaptive is not None:
            return spec.adaptive.leader_a_policy  # the configurations target leader-A sets
        return spec.policy

    def setup(self) -> None:
        for configuration in self._by_name.values():
            self.truth.machine(self.ground_truth_policy(configuration), 2)
        table4.run_table4_configuration(next(iter(self._by_name.values())))

    def learn(self, target, tracer):
        configuration = self._by_name[target]
        with captured_reports(table4, "learn_policy_from_cache") as reports:
            row = table4.run_table4_configuration(configuration)
        (((interface, *_), report),) = reports
        querycache = interface.frontend.cache

        def check() -> Outcome:
            policy = self.ground_truth_policy(configuration)
            failure = self.truth.check(
                report, policy, row.effective_associativity, identified=True
            )
            outcome = outcome_from_report(target, report, failure)
            outcome.counts["cachequery.querycache_hits"] = querycache.hits
            outcome.counts["cachequery.querycache_lookups"] = (
                querycache.hits + querycache.misses
            )
            return outcome

        return check


class Plru8Store(Workload):
    name = "plru8-store"
    why = (
        "PLRU-8 TTT cold into a fresh store file, saved, then warm from the "
        "reopened file: store writes, then mostly reads"
    )

    def targets(self) -> List[str]:
        return ["PLRU-8/ttt/store"]

    def _fresh_path(self, tag: str) -> str:
        path = os.path.join(self.output_dir, f"plru8-store-{tag}.bin")
        self._remove(path)
        return path

    @staticmethod
    def _remove(path: str) -> None:
        """Delete a store file and the writer-lock file saving leaves beside it."""
        for leftover in (path, f"{path}.lock"):
            if os.path.exists(leftover):
                os.remove(leftover)

    def setup(self) -> None:
        self.truth.machine("PLRU", 8)
        path = self._fresh_path("warm-up")
        try:
            for _ in range(2):  # cold, then warm from the saved file
                store = open_store(path)
                learn_simulated_policy(
                    make_policy("PLRU", 2), learner="ttt", identify=False, store=store
                )
                store.save()
        finally:
            self._remove(path)

    def learn(self, target, tracer):
        path = self._fresh_path("pass")
        halves = []
        try:
            for half in ("cold", "warm"):
                start = time.perf_counter()
                with tracer.span("store.open"):
                    store = open_store(path)
                report = learn_simulated_policy(
                    make_policy("PLRU", 8), learner="ttt", identify=False, store=store
                )
                records = store.pending_records
                with tracer.span("store.save"):
                    store.save()
                halves.append((half, time.perf_counter() - start, report, records))
            size = os.path.getsize(path)
            nodes = store.node_count
        finally:
            self._remove(path)

        def check() -> Outcome:
            (_, cold_s, cold, cold_records), (_, warm_s, warm, warm_records) = halves
            failure = self.truth.check(cold, "PLRU", 8, identified=False)
            if failure is None:
                failure = self.truth.check(warm, "PLRU", 8, identified=False)
            if failure is None and warm.machine != cold.machine:
                failure = "warm machine differs from the cold machine"
            outcome = outcome_from_report(target, cold, failure)
            for name, value in report_counts(warm).items():
                outcome.counts[name] += value
            warm_sul = warm.polca_statistics.policy_queries
            outcome.sul_queries += warm_sul
            outcome.block_accesses += warm.polca_statistics.block_accesses
            outcome.counts.update(
                {
                    "store.records_saved": cold_records + warm_records,
                    "store.bytes_on_disk": size,
                    "store.nodes": nodes,
                    "store.warm_sul_queries": warm_sul,
                    "store.cold_s": cold_s,
                    "store.warm_s": warm_s,
                }
            )
            for half, seconds, report, _ in halves:
                outcome.lines.append(
                    f"  {half:<4}  {seconds:7.3f} s  rounds={report.learning_result.rounds}"
                    f"  sul_queries={report.polca_statistics.policy_queries}"
                    f"  states={report.num_states}"
                )
            return outcome

        return check


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (Table2Fast, Plru8Learn, Table4Fast, Plru8Store)
}
