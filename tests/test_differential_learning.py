"""Differential conformance testing across the policy registry.

The paper's central correctness claim for any execution-strategy change is
that the *learned machine* does not change.  This harness checks the
learned machines against ground truth, policy by policy:

* every policy in the registry is learned at a depth where learning is
  exact, and the learned machine must have the size of the policy's own
  minimal machine and be equivalent to it;
* the learned machine is then cross-checked against a fresh Polca-driven
  simulator on seeded random words, so a bug in the reference enumeration
  would still be caught;
* L* and TTT, and the tabulated and scalar kernels, must learn
  **bit-identical** machines (same states, same transition/output maps,
  not merely trace-equivalent).

Ground truth is only reachable when the machine is learned *exactly*
(Corollary 3.4: a depth-``k`` suite guarantees equivalence only up to
``|H| + k`` states).  The bimodal policies need deeper suites for that —
BIP-2 has 8 states behind a 2-state depth-1 hypothesis, the BRRIP variants
48/64 — so the registry-wide fast sweep checks every policy it learns
exactly and defers the two seconds-per-run BRRIP configurations to
``slow``-marked tests.

Every policy is exercised at associativity 2 to keep the suite fast.
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
#: fast sweep (size bound and L*/TTT identity only) and at exact depth in the
#: slow tests.
SLOW_EXACT = ("BRRIP-HP", "BRRIP-FP")

#: Random replay configuration for the simulator cross-check.
REPLAY_WORDS = 25
REPLAY_MIN_LENGTH = 1
REPLAY_MAX_LENGTH = 12


def _learn(policy_name: str, depth: int, **kwargs):
    policy = make_policy(policy_name, ASSOCIATIVITY)
    return learn_simulated_policy(policy, depth=depth, identify=False, **kwargs)


def _reference(policy_name: str):
    """The policy's own minimal machine: the ground truth of exact learning."""
    return make_policy(policy_name, ASSOCIATIVITY).to_mealy().minimize()


def _replay_words(policy_name: str, alphabet):
    """Seeded random test words over the policy alphabet (stable across runs)."""
    rng = random.Random(f"differential-{policy_name}-{ASSOCIATIVITY}")
    words = []
    for _ in range(REPLAY_WORDS):
        length = rng.randint(REPLAY_MIN_LENGTH, REPLAY_MAX_LENGTH)
        words.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return words


def _assert_matches_ground_truth(policy_name: str, machine) -> None:
    reference = _reference(policy_name)
    assert machine.size == reference.size
    assert machine.equivalent(reference)


def _assert_differential(policy_name: str, depth: int, *, exact: bool) -> None:
    report = _learn(policy_name, depth)
    if not exact:
        # Below the exact depth the hypothesis is a quotient of the target:
        # its states are pairwise distinguishable, so it is never larger.
        assert report.machine.size <= _reference(policy_name).size
        return
    _assert_matches_ground_truth(policy_name, report.machine)
    # Cross-check the learned machine against a fresh simulator: replay
    # seeded random words through Polca and compare output words.
    oracle = PolcaMembershipOracle(
        SimulatedCacheInterface(make_policy(policy_name, ASSOCIATIVITY))
    )
    alphabet = tuple(oracle.alphabet())
    assert tuple(report.machine.inputs) == alphabet
    for word in _replay_words(policy_name, alphabet):
        assert report.machine.run(word) == tuple(oracle.output_query(word)), (
            f"{policy_name}: learned machine disagrees with the simulator on {word!r}"
        )


@pytest.mark.parametrize("policy_name", available_policies())
def test_learning_matches_ground_truth_and_simulator(policy_name):
    exact = policy_name not in SLOW_EXACT
    depth = EXACT_DEPTH.get(policy_name, 1) if exact else 1
    _assert_differential(policy_name, depth, exact=exact)


@pytest.mark.slow
@pytest.mark.parametrize("policy_name", SLOW_EXACT)
def test_bimodal_policies_exact_differential(policy_name):
    """BRRIP needs depth 2-3 for exact learning; seconds per run, so slow-marked."""
    _assert_differential(policy_name, EXACT_DEPTH[policy_name], exact=True)


@pytest.mark.parametrize("policy_name", available_policies())
def test_ttt_learns_bit_identical_machines(policy_name):
    """The TTT differential axis: the refined tree learns the same machine.

    Discriminator finalization and incremental sifting change *how* the
    classification tree refines, never *what* is learned: every registry
    policy learned by TTT must be bit-identical to the L* machine, also
    under the forced scalar kernel, must match the policy's minimal
    machine where learning is exact, and the TTT refinement counters must
    be reported and internally consistent.
    """
    exact = policy_name not in SLOW_EXACT
    depth = EXACT_DEPTH.get(policy_name, 1) if exact else 1

    lstar = _learn(policy_name, depth, learner="lstar")
    ttt = _learn(policy_name, depth, learner="ttt")
    assert ttt.machine == lstar.machine
    if exact:
        _assert_matches_ground_truth(policy_name, ttt.machine)
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

    ttt_scalar = _learn(policy_name, depth, learner="ttt", kernel="scalar")
    assert ttt_scalar.machine == ttt.machine
    assert ttt_scalar.extra["kernel"] == "scalar"
