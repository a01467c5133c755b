"""The end-to-end policy-learning pipeline (Figure 1).

``learn_policy_from_cache`` chains the three boxes of the paper's Figure 1:
a cache interface (software-simulated or CacheQuery-backed), Polca as the
membership oracle, and the Mealy learner with Wp-method conformance testing
as the equivalence oracle.  The result bundles the learned machine with the
query statistics and, when possible, the *name* of a known policy the
machine is equivalent to (how the paper identifies "PLRU" or labels the
unknown machines "New1"/"New2").
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.mealy import MealyDefinitionError, MealyMachine, StateBoundError
from repro.errors import LearningError, PolicyError
from repro.learning.equivalence import ConformanceEquivalenceOracle
from repro.learning.learner import LEARNER_NAMES, LearningResult, make_learner
from repro.learning.oracles import CachedMembershipOracle
from repro.polca.algorithm import PolcaMembershipOracle, PolcaStatistics
from repro.polca.interfaces import CacheProbeInterface, SimulatedCacheInterface
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import available_policies, make_policy


@dataclass
class PolicyLearningReport:
    """Everything the experiment harness wants to know about one learning run."""

    machine: MealyMachine
    learning_result: LearningResult
    polca_statistics: PolcaStatistics
    associativity: int
    identified_policy: Optional[str] = None
    wall_clock_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def num_states(self) -> int:
        """Number of states of the learned (minimal) machine."""
        return self.machine.size


#: Most (learned state, policy state) pairs one candidate's identification
#: walk may visit.  For an equivalent candidate the walk visits exactly the
#: policy's reachable states, because the learned machine is minimal.
IDENTIFICATION_PAIR_BOUND = 200_000

_log = logging.getLogger("repro")


def identify_policy(
    machine: MealyMachine,
    associativity: int,
    candidates: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """Return the name of a registered policy trace-equivalent to ``machine``.

    This is how Table 4 labels learned automata: machines equivalent to a
    manually implemented reference (e.g. tree PLRU) get that name; machines
    equivalent to none of the references are "previously undocumented".

    Candidates (``candidates``, else every registered policy in name order)
    are tried in order and the first equivalent one is returned, so at low
    associativity coincidences resolve by order (MRU-2 is ``"LRU"``).  Each
    candidate is checked by one product walk of ``machine`` against the
    policy's own ``step`` (:meth:`MealyMachine.counterexample_against`),
    which stops at the first output mismatch; no reference machine is built.
    A candidate undefined at ``associativity`` is skipped, and so is one
    whose walk exceeds :data:`IDENTIFICATION_PAIR_BOUND` pairs, with a
    warning on the ``repro`` logger.
    """
    names = list(candidates) if candidates is not None else available_policies()
    inputs = set(machine.inputs)
    for name in names:
        try:
            policy = make_policy(name, associativity)
            if set(policy.input_alphabet()) != inputs:
                raise MealyDefinitionError(
                    f"{name}-{associativity} has a different input alphabet"
                )
            divergence = machine.counterexample_against(
                policy.initial_state(),
                policy.step,
                max_pairs=IDENTIFICATION_PAIR_BOUND,
            )
        except PolicyError:
            # Not defined for this associativity (PLRU at 3 or 6).
            continue
        except StateBoundError:
            _log.warning(
                "identification skipped %s at associativity %d: "
                "walk exceeded %d state pairs",
                name,
                associativity,
                IDENTIFICATION_PAIR_BOUND,
            )
            continue
        if divergence is None:
            return name
    return None


class PolicyLearningPipeline:
    """Configurable Polca + learner pipeline.

    Every query runs serially through one engine: the system under learning
    is a single cache set, which worker processes could not share.
    """

    def __init__(
        self,
        cache: CacheProbeInterface,
        *,
        depth: int = 1,
        method: str = "wp",
        counterexample_strategy: str = "rivest-schapire",
        identify: bool = True,
        identification_candidates: Optional[Sequence[str]] = None,
        max_tests: Optional[int] = None,
        batch_size: int = 64,
        resume: bool = False,
        store=None,
        kernel: Optional[str] = "auto",
        learner: str = "lstar",
    ) -> None:
        if learner.lower() not in LEARNER_NAMES:
            raise LearningError(
                f"unknown learner {learner!r}; expected one of {LEARNER_NAMES}"
            )
        self.cache = cache
        self.depth = depth
        self.method = method
        self.counterexample_strategy = counterexample_strategy
        self.identify = identify
        self.identification_candidates = identification_candidates
        self.max_tests = max_tests
        self.batch_size = batch_size
        self.resume = resume
        #: Which student runs the loop: ``"lstar"`` (observation table, the
        #: paper's configuration) or ``"ttt"`` (classification tree — far
        #: fewer membership queries per discovered state on large policies).
        #: Both learn the same minimal machine bit-identically.
        self.learner = learner.lower()
        #: Execution strategy for Polca's probes over simulated targets:
        #: ``"auto"`` (the tabulated stepper when the interface and the
        #: policy allow it, otherwise scalar) or ``"scalar"`` / ``None`` for
        #: the legacy per-symbol stepper.  Answers and statistics are
        #: identical either way.
        self.kernel = kernel
        #: Optional shared :class:`~repro.store.PrefixStore` the query
        #: engine's trie lives in — pass the same instance backing the
        #: frontend's ``QueryCache`` (and/or a path-backed store) so one
        #: file persists the whole measurement state of a run.
        self.store = store

    def _engine_namespace(self) -> Sequence[object]:
        """Namespace key of the learning trie inside a shared store."""
        derive = getattr(self.cache, "store_namespace", None)
        target = tuple(derive()) if callable(derive) else ()
        return ("learning",) + target

    def run(self) -> PolicyLearningReport:
        """Learn the policy of the configured cache interface.

        One trie-backed query engine is shared between the observation
        table and the conformance tester, so equivalence-testing words whose
        prefixes were already learned (or vice versa) never hit the cache
        interface twice.
        """
        start = time.perf_counter()
        polca = PolcaMembershipOracle(
            self.cache, resume=self.resume, kernel=self.kernel
        )
        engine = CachedMembershipOracle(
            polca, store=self.store, namespace=self._engine_namespace()
        )
        equivalence = ConformanceEquivalenceOracle(
            engine,
            depth=self.depth,
            method=self.method,
            max_tests=self.max_tests,
            batch_size=self.batch_size,
        )
        learner = make_learner(
            self.learner,
            polca.alphabet(),
            engine,
            equivalence,
            counterexample_strategy=self.counterexample_strategy,
        )
        result = learner.learn()
        machine = result.machine.minimize()
        identified = None
        if self.identify:
            identified = identify_policy(
                machine, self.cache.associativity, self.identification_candidates
            )
        elapsed = time.perf_counter() - start
        extra = {
            "kernel": polca.kernel_in_use,
            "learner": result.learner,
            "rounds": result.rounds,
            "per_round_queries": list(result.per_round_queries),
            "learner_queries": result.learner_queries,
            "learner_symbols": result.learner_symbols,
            "cache_hits": result.statistics.cache_hits,
            "batches": result.statistics.batches,
            "tests_skipped": result.statistics.tests_skipped,
            "cached_prefixes": engine.size,
        }
        tree = getattr(learner, "tree", None)
        if tree is not None:
            # Classification-tree counters (see repro.learning.kv).
            extra["kv_leaves_from_sifting"] = tree.leaves_from_sifting
            extra["kv_leaves_from_splits"] = tree.leaves_from_splits
            extra["kv_internal_refinements"] = tree.internal_refinements
            extra["discriminator_lengths"] = tree.discriminator_lengths()
            extra["max_discriminator_length"] = tree.max_discriminator_length
            extra["ttt_finalized_discriminators"] = tree.discriminators_finalized
            extra["ttt_temporary_discriminators"] = tree.temporary_discriminators
            extra["ttt_words_resifted_per_split"] = list(tree.words_resifted_per_split)
            extra["ttt_finalization_shrinkage"] = list(tree.finalization_shrinkage)
            extra["ttt_finalization_probe_words"] = tree.finalization_probe_words
        if self.resume:
            extra["resume"] = True
            extra["resumed_symbols"] = result.statistics.resumed_symbols
            extra["polca_resumed_symbols"] = polca.statistics.resumed_symbols
            extra["sessions_opened"] = polca.statistics.sessions_opened
            extra["session_extends"] = polca.statistics.session_extends
        if self.store is not None:
            extra["store"] = self.store.statistics()
        return PolicyLearningReport(
            machine=machine,
            learning_result=result,
            polca_statistics=polca.statistics,
            associativity=self.cache.associativity,
            identified_policy=identified,
            wall_clock_seconds=elapsed,
            extra=extra,
        )


def learn_policy_from_cache(cache: CacheProbeInterface, **kwargs) -> PolicyLearningReport:
    """Convenience wrapper around :class:`PolicyLearningPipeline`."""
    return PolicyLearningPipeline(cache, **kwargs).run()


def learn_simulated_policy(
    policy: ReplacementPolicy,
    *,
    depth: int = 1,
    **kwargs,
) -> PolicyLearningReport:
    """Learn a policy from its software-simulated cache (the Table 2 workflow)."""
    if not isinstance(policy, ReplacementPolicy):
        raise LearningError("learn_simulated_policy expects a ReplacementPolicy instance")
    interface = SimulatedCacheInterface(policy)
    return learn_policy_from_cache(interface, depth=depth, **kwargs)
