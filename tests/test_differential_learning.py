"""Differential conformance testing across the policy registry.

The paper's central correctness claim for any execution-strategy change is
that the *learned machine* does not change: batching (PR 1) and now
process-parallel conformance testing are pure optimisations of how suite
words reach the system under learning.  This harness checks that claim
policy by policy:

* every policy in the registry is learned twice — serially and with a
  2-worker process pool — and the two runs must produce **bit-identical**
  machines (same states, same transition/output maps, not merely
  trace-equivalent);
* the learned machine is then cross-checked against a fresh Polca-driven
  simulator on seeded random words, so a bug that affected *both* runs
  identically would still be caught.

The simulator cross-check is only sound when the machine was learned
*exactly* (Corollary 3.4: a depth-``k`` suite guarantees equivalence only
up to ``|H| + k`` states).  The bimodal policies need deeper suites for
that — BIP-2 has 8 states behind a 2-state depth-1 hypothesis, the BRRIP
variants 48/64 — so the registry-wide fast sweep replays every policy it
learns exactly and defers the two seconds-per-run BRRIP configurations to
``slow``-marked tests.

Every policy is exercised at associativity 2 to keep the suite fast; the
larger configurations live in ``benchmarks/bench_parallel_equivalence.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.polca.algorithm import PolcaMembershipOracle
from repro.polca.interfaces import SimulatedCacheInterface
from repro.polca.pipeline import learn_simulated_policy
from repro.policies.registry import available_policies, make_policy

#: Associativity used for the registry-wide sweep (small machines, fast suite).
ASSOCIATIVITY = 2

#: Conformance-test depth at which learning is *exact* at associativity 2
#: (the learned machine equals the policy's minimal machine); 1 elsewhere.
EXACT_DEPTH = {"BIP": 3, "BRRIP-HP": 3, "BRRIP-FP": 2}

#: Policies whose exact learning takes seconds — exercised at depth 1 in the
#: fast sweep (bit-identity only) and at exact depth in the slow tests.
SLOW_EXACT = ("BRRIP-HP", "BRRIP-FP")

#: Random replay configuration for the simulator cross-check.
REPLAY_WORDS = 25
REPLAY_MIN_LENGTH = 1
REPLAY_MAX_LENGTH = 12


def _learn(policy_name: str, depth: int, workers=None):
    policy = make_policy(policy_name, ASSOCIATIVITY)
    return learn_simulated_policy(policy, depth=depth, identify=False, workers=workers)


def _replay_words(policy_name: str, alphabet):
    """Seeded random test words over the policy alphabet (stable across runs)."""
    rng = random.Random(f"differential-{policy_name}-{ASSOCIATIVITY}")
    words = []
    for _ in range(REPLAY_WORDS):
        length = rng.randint(REPLAY_MIN_LENGTH, REPLAY_MAX_LENGTH)
        words.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return words


def _assert_differential(policy_name: str, depth: int, *, replay: bool) -> None:
    serial = _learn(policy_name, depth)
    parallel = _learn(policy_name, depth, workers=2)

    # The process-pool path must not change the learned machine in any way:
    # identical state lists, transitions and outputs, not just equivalence.
    assert parallel.machine == serial.machine
    assert parallel.machine.size == serial.machine.size
    assert parallel.machine.equivalent(serial.machine)
    assert parallel.extra["workers"] == 2

    if not replay:
        return
    # Cross-check the learned machine against a fresh simulator: replay
    # seeded random words through Polca and compare output words.  This
    # catches a bug that corrupted the serial and the parallel run alike.
    oracle = PolcaMembershipOracle(
        SimulatedCacheInterface(make_policy(policy_name, ASSOCIATIVITY))
    )
    alphabet = tuple(oracle.alphabet())
    assert tuple(parallel.machine.inputs) == alphabet
    for word in _replay_words(policy_name, alphabet):
        assert parallel.machine.run(word) == tuple(oracle.output_query(word)), (
            f"{policy_name}: learned machine disagrees with the simulator on {word!r}"
        )


@pytest.mark.parametrize("policy_name", available_policies())
def test_parallel_learning_is_bit_identical_and_matches_simulator(policy_name):
    exact = policy_name not in SLOW_EXACT
    depth = EXACT_DEPTH.get(policy_name, 1) if exact else 1
    _assert_differential(policy_name, depth, replay=exact)


@pytest.mark.slow
@pytest.mark.parametrize("policy_name", SLOW_EXACT)
def test_bimodal_policies_exact_differential(policy_name):
    """BRRIP needs depth 2-3 for exact learning; seconds per run, so slow-marked."""
    _assert_differential(policy_name, EXACT_DEPTH[policy_name], replay=True)


@pytest.mark.parametrize("policy_name", available_policies())
def test_ttt_learns_bit_identical_machines(policy_name):
    """The TTT differential axis: the refined tree learns the same machine.

    Discriminator finalization and incremental sifting change *how* the
    classification tree refines, never *what* is learned: every registry
    policy learned by TTT must be bit-identical to the L* machine, at
    workers 0 and 2 and under the forced scalar kernel, and the TTT
    refinement counters must be reported and internally consistent.
    """
    exact = policy_name not in SLOW_EXACT
    depth = EXACT_DEPTH.get(policy_name, 1) if exact else 1
    policy = make_policy(policy_name, ASSOCIATIVITY)

    lstar = learn_simulated_policy(policy, depth=depth, identify=False, learner="lstar")
    ttt = learn_simulated_policy(
        make_policy(policy_name, ASSOCIATIVITY), depth=depth, identify=False, learner="ttt"
    )
    assert ttt.machine == lstar.machine
    assert ttt.extra["learner"] == "ttt"
    assert (
        ttt.extra["kv_leaves_from_sifting"] + ttt.extra["kv_leaves_from_splits"]
        == ttt.num_states
    )
    # Every split left a discriminator behind, finalized or still temporary.
    assert (
        ttt.extra["ttt_finalized_discriminators"]
        + ttt.extra["ttt_temporary_discriminators"]
        == ttt.extra["kv_leaves_from_splits"]
    )
    assert len(ttt.extra["ttt_words_resifted_per_split"]) == ttt.extra[
        "kv_leaves_from_splits"
    ]

    ttt_parallel = learn_simulated_policy(
        make_policy(policy_name, ASSOCIATIVITY),
        depth=depth,
        identify=False,
        learner="ttt",
        workers=2,
    )
    assert ttt_parallel.machine == ttt.machine
    assert ttt_parallel.extra["workers"] == 2

    ttt_scalar = learn_simulated_policy(
        make_policy(policy_name, ASSOCIATIVITY),
        depth=depth,
        identify=False,
        learner="ttt",
        kernel="scalar",
    )
    assert ttt_scalar.machine == ttt.machine
    assert ttt_scalar.extra["kernel"] == "scalar"


def test_parallel_run_reports_worker_accounting():
    """A configuration whose suite exceeds the learner's cache exercises the
    pool for real: chunks are shipped, and per-worker counts come back."""
    report = _learn("PLRU", depth=1, workers=2)
    extra = report.extra
    assert extra["workers"] == 2
    assert extra["parallel_chunks"] >= 1
    assert extra["parallel_words"] >= 1
    assert sum(extra["worker_query_counts"].values()) >= 1
    assert sum(extra["worker_symbol_counts"].values()) >= 1
    # The widened worker protocol ships full statistics deltas: the raw
    # per-worker counters include the Polca-level probe costs.
    merged = {}
    for counters in extra["worker_statistics"].values():
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value
    assert merged.get("cache_probes", 0) >= 1
    assert merged.get("block_accesses", 0) >= 1


#: Statistics fields that legitimately differ between serial and parallel
#: runs (they count pool mechanics, not measurements).
PARALLEL_ONLY_FIELDS = ("parallel_chunks", "parallel_words")


@pytest.mark.parametrize("policy_name", ("LRU", "PLRU", "MRU", "SRRIP-HP"))
def test_probe_and_hit_columns_are_worker_count_invariant(policy_name):
    """Every reported column — engine hits/batches/subsumption AND the
    Polca probe/access counters — must be identical at --workers 0/2.

    Before PR 5 the probes column read 0 under ``--workers`` (worker-side
    Polca counters never left the worker processes) and cache_hits/batches
    drifted with the in-flight window; the widened worker return protocol
    plus consume-time chunk accounting closed both.
    """
    from dataclasses import asdict

    associativity = 4 if policy_name != "SRRIP-HP" else 2
    policy = make_policy(policy_name, associativity)
    serial = learn_simulated_policy(policy, depth=1, identify=False)
    parallel = learn_simulated_policy(
        make_policy(policy_name, associativity), depth=1, identify=False, workers=2
    )
    assert parallel.machine == serial.machine

    serial_engine = asdict(serial.learning_result.statistics)
    parallel_engine = asdict(parallel.learning_result.statistics)
    for field in PARALLEL_ONLY_FIELDS:
        serial_engine.pop(field), parallel_engine.pop(field)
    assert parallel_engine == serial_engine

    assert asdict(parallel.polca_statistics) == asdict(serial.polca_statistics)
    assert parallel.polca_statistics.cache_probes > 0
