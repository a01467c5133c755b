"""L* vs TTT: cost per discovered state across the registry.

The acceptance experiment of the tree-learner PRs, in three parts:

* **Curve** — every registry policy at associativity 2, conformance depth
  1, learned by both learners.  For each policy the benchmark records
  the learner-attributed executed membership queries *and symbols* (engine
  totals minus conformance-suite executions — the apples-to-apples cost of
  the learning algorithm, see ``LearningResult.learner_queries`` /
  ``learner_symbols``), wall-clock seconds, and — for TTT — the longest
  discriminator of the final classification tree.  Both learners must
  produce bit-identical minimal machines.
* **Head-to-head** — the configurations the PRs' acceptance criteria name:
  PLRU at associativity 8 (the paper's 128-state machine) and SRRIP-HP at
  conformance depth 2.  TTT must issue strictly fewer learner-attributed
  queries and symbols than L* and keep PLRU-8 wall clock within 1.5x of L*.
* **Budgeted attempt** — PLRU-16 (32768 states) and SRRIP-HP-4 at depth 3
  under a hard executed-query budget that no learner can finish within
  (L* cannot finish these in any practical budget; PLRU-16 alone is days of
  compute).  The benchmark records how many states each learner discovered
  when the budget cut it off, read live from ``ActiveLearner
  .states_discovered``.

Run standalone (``--json OUT`` writes a machine-readable result so the
perf trajectory accumulates ``BENCH_*.json`` points)::

    PYTHONPATH=src python benchmarks/bench_kv_vs_lstar.py --json BENCH_kv_vs_lstar.json

or through pytest (the PLRU-8 head-to-head takes ~30 s and is marked slow)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kv_vs_lstar.py -m "not slow"
"""

import argparse
import json
import sys
import time

import pytest

from repro.errors import BudgetExceeded
from repro.learning import CachedMembershipOracle, ConformanceEquivalenceOracle
from repro.learning.learner import make_learner
from repro.policies.registry import available_policies, make_policy
from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_simulated_policy

#: Every learner the benchmark compares, in report order.
LEARNERS = ("lstar", "ttt")

#: The acceptance head-to-heads: (policy, associativity, conformance depth).
HEAD_TO_HEAD = [
    ("PLRU", 8, 1),
    ("SRRIP-HP", 2, 2),
]

#: Registry policies with at least 7 minimal states at associativity 2 —
#: the rows where the TTT acceptance criterion demands strictly fewer
#: learner-attributed executed symbols than L*.
LARGE_CURVE_POLICIES = ("BIP", "BRRIP-FP", "CLOCK", "NEW2", "SRRIP-FP", "SRRIP-HP")

#: Configurations L* cannot finish: (policy, associativity, depth, budget).
#: PLRU-16 is the paper's 32768-state machine; SRRIP-HP-4 at depth 3 pairs a
#: 178-state machine with a depth-3 Wp suite.  The budget counts *executed*
#: membership queries through the shared engine.
BUDGETED_ATTEMPTS = [
    ("PLRU", 16, 1, 8_000),
    ("SRRIP-HP", 4, 3, 8_000),
]


class QueryBudgetOracle:
    """Wrap an oracle with a hard cap on executed queries.

    Sits *below* the caching engine, so cache hits are free and only words
    that really execute spend budget — the same accounting as the engine's
    ``membership_queries`` statistic.  Exceeding the cap raises
    :class:`~repro.errors.BudgetExceeded` out of the learning loop, leaving
    the learner inspectable mid-run (``states_discovered``).
    """

    def __init__(self, inner, budget):
        self.inner = inner
        self.budget = budget
        self.executed = 0

    def output_query(self, word):
        if self.executed >= self.budget:
            raise BudgetExceeded(
                "query budget exhausted", spent=self.executed, budget=self.budget
            )
        self.executed += 1
        return self.inner.output_query(word)


def run_learners(policy_name, associativity, depth, learners=LEARNERS):
    """Learn one configuration with every learner; assert identical machines."""
    entry = {
        "policy": policy_name,
        "associativity": associativity,
        "depth": depth,
    }
    machines = {}
    for learner_name in learners:
        start = time.perf_counter()
        report = learn_simulated_policy(
            make_policy(policy_name, associativity),
            depth=depth,
            identify=False,
            learner=learner_name,
        )
        seconds = time.perf_counter() - start
        machines[learner_name] = report.machine
        result = report.learning_result
        record = {
            "states": report.num_states,
            "learner_queries": result.learner_queries,
            "learner_symbols": result.learner_symbols,
            "total_queries": result.statistics.membership_queries,
            "rounds": result.rounds,
            "seconds": round(seconds, 3),
        }
        # TTT carries its final classification tree's longest
        # discriminator; the observation table has no analogue.
        if "max_discriminator_length" in report.extra:
            record["max_discriminator_length"] = report.extra["max_discriminator_length"]
        if "ttt_finalized_discriminators" in report.extra:
            record["finalized_discriminators"] = report.extra[
                "ttt_finalized_discriminators"
            ]
        entry[learner_name] = record
    baseline = learners[0]
    for learner_name in learners[1:]:
        assert machines[learner_name] == machines[baseline], (
            f"{policy_name}-{associativity}: {learner_name} learned a different "
            f"machine than {baseline}!"
        )
    entry["identical_machines"] = True
    states = entry[baseline]["states"]
    for learner_name in learners:
        entry[f"{learner_name}_queries_per_state"] = round(
            entry[learner_name]["learner_queries"] / states, 2
        )
    return entry


def run_budgeted(policy_name, associativity, depth, budget, learner_name):
    """Learn under a hard executed-query budget; record where it cut off."""
    cache = SimulatedCacheInterface(make_policy(policy_name, associativity))
    polca = PolcaMembershipOracle(cache, kernel="auto")
    limited = QueryBudgetOracle(polca, budget)
    engine = CachedMembershipOracle(limited)
    equivalence = ConformanceEquivalenceOracle(engine, depth=depth)
    learner = make_learner(learner_name, polca.alphabet(), engine, equivalence)
    start = time.perf_counter()
    try:
        result = learner.learn()
        finished, states = True, result.num_states
    except BudgetExceeded:
        finished, states = False, learner.states_discovered
    finally:
        close = getattr(equivalence, "close", None)
        if close is not None:
            close()
    return {
        "finished": finished,
        "states_discovered": states,
        "executed_queries": limited.executed,
        "seconds": round(time.perf_counter() - start, 3),
    }


def run_benchmark(policies=None):
    """Produce the full BENCH payload (curve + head-to-heads + budgeted)."""
    payload = {
        "benchmark": "bench_kv_vs_lstar",
        "learners": list(LEARNERS),
        "curve": [],
        "head_to_head": [],
        "budgeted_attempts": [],
    }
    for policy_name in policies if policies is not None else available_policies():
        payload["curve"].append(run_learners(policy_name, 2, 1))
    for policy_name, associativity, depth in HEAD_TO_HEAD:
        entry = run_learners(policy_name, associativity, depth)
        entry["ttt_strictly_fewer_queries"] = (
            entry["ttt"]["learner_queries"] < entry["lstar"]["learner_queries"]
        )
        entry["ttt_strictly_fewer_symbols"] = (
            entry["ttt"]["learner_symbols"] < entry["lstar"]["learner_symbols"]
        )
        entry["ttt_wall_vs_lstar"] = round(
            entry["ttt"]["seconds"] / entry["lstar"]["seconds"], 2
        )
        payload["head_to_head"].append(entry)
    for policy_name, associativity, depth, budget in BUDGETED_ATTEMPTS:
        entry = {
            "policy": policy_name,
            "associativity": associativity,
            "depth": depth,
            "budget": budget,
        }
        for learner_name in LEARNERS:
            entry[learner_name] = run_budgeted(
                policy_name, associativity, depth, budget, learner_name
            )
        payload["budgeted_attempts"].append(entry)
    return payload


def report_payload(payload):
    print(
        f"{'policy':>10} {'states':>6} {'L* lq':>7} {'TTT lq':>7} "
        f"{'L* sym':>8} {'TTT sym':>8} {'TTT disc':>8}"
    )
    for entry in payload["curve"]:
        print(
            f"{entry['policy']:>10} {entry['lstar']['states']:>6} "
            f"{entry['lstar']['learner_queries']:>7} "
            f"{entry['ttt']['learner_queries']:>7} "
            f"{entry['lstar']['learner_symbols']:>8} "
            f"{entry['ttt']['learner_symbols']:>8} "
            f"{entry['ttt']['max_discriminator_length']:>8}"
        )
    for entry in payload["head_to_head"]:
        print(
            f"head-to-head {entry['policy']}-{entry['associativity']} depth "
            f"{entry['depth']}: learner queries L* {entry['lstar']['learner_queries']} "
            f"/ TTT {entry['ttt']['learner_queries']}; symbols "
            f"{entry['lstar']['learner_symbols']} / {entry['ttt']['learner_symbols']}; "
            f"wall {entry['lstar']['seconds']}s / {entry['ttt']['seconds']}s "
            f"(TTT/L* = {entry['ttt_wall_vs_lstar']})"
        )
    for entry in payload["budgeted_attempts"]:
        cutoffs = ", ".join(
            f"{name} finished={entry[name]['finished']} at "
            f"{entry[name]['states_discovered']} states"
            for name in LEARNERS
        )
        print(
            f"budgeted {entry['policy']}-{entry['associativity']} depth "
            f"{entry['depth']} (budget {entry['budget']}): {cutoffs}"
        )


def check_acceptance(payload):
    """Assert the acceptance criteria on a full payload; return the findings."""
    findings = []
    for entry in payload["head_to_head"]:
        label = f"{entry['policy']}-{entry['associativity']}"
        assert entry["ttt_strictly_fewer_queries"], (
            f"{label}: TTT did not issue strictly fewer learner-attributed "
            "queries than L*"
        )
        assert entry["ttt_strictly_fewer_symbols"], (
            f"{label}: TTT did not execute strictly fewer learner-attributed "
            "symbols than L*"
        )
        if entry["policy"] == "PLRU" and entry["associativity"] == 8:
            assert entry["ttt_wall_vs_lstar"] <= 1.5, (
                f"PLRU-8: TTT wall clock {entry['ttt_wall_vs_lstar']}x L* "
                "exceeds the 1.5x acceptance bound"
            )
            findings.append(
                f"PLRU-8 wall: TTT {entry['ttt']['seconds']}s vs L* "
                f"{entry['lstar']['seconds']}s ({entry['ttt_wall_vs_lstar']}x)"
            )
    by_policy = {entry["policy"]: entry for entry in payload["curve"]}
    for policy_name in LARGE_CURVE_POLICIES:
        entry = by_policy.get(policy_name)
        if entry is None:
            continue
        assert entry["ttt"]["learner_symbols"] < entry["lstar"]["learner_symbols"], (
            f"{policy_name}: TTT learner symbols "
            f"{entry['ttt']['learner_symbols']} not strictly below L*'s "
            f"{entry['lstar']['learner_symbols']}"
        )
        findings.append(
            f"{policy_name}: TTT {entry['ttt']['learner_symbols']} symbols "
            f"< L* {entry['lstar']['learner_symbols']}"
        )
    return findings


# --------------------------------------------------------------------- pytest


def test_curve_smoke_identical_and_no_worse():
    """Cheap registry slice: identical machines, TTT no worse than L*."""
    for policy_name in ("LRU", "CLOCK", "SRRIP-FP"):
        entry = run_learners(policy_name, 2, 1)
        assert entry["identical_machines"]
        assert entry["ttt"]["learner_queries"] <= entry["lstar"]["learner_queries"]


def test_curve_ttt_fewest_symbols_on_large_policies():
    """On >= 7-state registry policies TTT pays fewer learner symbols."""
    for policy_name in ("CLOCK", "NEW2"):
        entry = run_learners(policy_name, 2, 1)
        assert entry["ttt"]["learner_symbols"] < entry["lstar"]["learner_symbols"]


def test_head_to_head_srrip_depth2():
    """SRRIP-HP at depth 2: TTT strictly fewer queries and symbols."""
    entry = run_learners("SRRIP-HP", 2, 2)
    assert entry["identical_machines"]
    assert entry["ttt"]["learner_queries"] < entry["lstar"]["learner_queries"]
    assert entry["ttt"]["learner_symbols"] < entry["lstar"]["learner_symbols"]


@pytest.mark.slow
def test_head_to_head_plru8():
    """PLRU-8 (128 states): TTT cheaper, wall within 1.5x L*."""
    entry = run_learners("PLRU", 8, 1)
    assert entry["lstar"]["states"] == 128
    assert entry["identical_machines"]
    assert entry["ttt"]["learner_queries"] < entry["lstar"]["learner_queries"]
    assert entry["ttt"]["learner_symbols"] < entry["lstar"]["learner_symbols"]
    assert entry["ttt"]["seconds"] <= 1.5 * entry["lstar"]["seconds"]


def test_budgeted_attempt_cuts_off_lstar():
    """PLRU-16 under a query budget: L* cannot finish; mid-run states are live."""
    outcome = run_budgeted("PLRU", 16, 1, 2_000, "lstar")
    assert not outcome["finished"]
    assert 0 < outcome["states_discovered"] < 32768
    assert outcome["executed_queries"] == 2_000


# ----------------------------------------------------------------- standalone


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="write the machine-readable result to this path "
        "(the BENCH_*.json perf-trajectory format)",
    )
    arguments = parser.parse_args(sys.argv[1:] if argv is None else argv)
    payload = run_benchmark()
    report_payload(payload)
    for line in check_acceptance(payload):
        print(f"acceptance: {line}")
    if arguments.json:
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {arguments.json}")


if __name__ == "__main__":
    main()
