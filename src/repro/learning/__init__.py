"""Active automata learning for Mealy machines.

This package is the library's substitute for LearnLib (Section 3.4): an
observation-table L* learner for Mealy machines (Angluin's algorithm in
Niese's Mealy formulation), Rivest–Schapire counterexample processing, and
W-/Wp-method conformance testing used to approximate equivalence queries
with the ``(|H| + k)``-completeness guarantee of Theorem 3.3.

All membership queries flow through the batched, trie-backed query engine
(:mod:`repro.learning.query_engine`): the observation table and the
conformance tester stage whole rounds of words, and the
:class:`~repro.learning.oracles.CachedMembershipOracle` dedupes,
prefix-subsumes and caches them in a response trie before anything reaches
the system under learning.

Queries run serially through that one engine: the system under learning
is a single stateful cache set.
"""

from repro.learning.query_engine import (
    ResponseTrie,
    dedupe_and_subsume,
    output_query_batch,
    partition_batch,
    supports_batching,
    supports_resume,
)
from repro.learning.oracles import (
    CachedMembershipOracle,
    FunctionOracle,
    MealyMachineOracle,
    MembershipOracle,
    QueryStatistics,
)
from repro.learning.observation_table import ObservationTable
from repro.learning.counterexample import (
    process_counterexample_prefixes,
    process_counterexample_rivest_schapire,
)
from repro.learning.wpmethod import (
    characterization_set,
    iter_w_method_suite,
    iter_wp_method_suite,
    state_cover,
    transition_cover,
    w_method_suite,
    wp_method_suite,
)
from repro.learning.equivalence import (
    ConformanceEquivalenceOracle,
    EquivalenceOracle,
    PerfectEquivalenceOracle,
    RandomWalkEquivalenceOracle,
)
from repro.learning.learner import (
    ActiveLearner,
    LEARNER_NAMES,
    LearningResult,
    MealyLearner,
    learn_mealy_machine,
    make_learner,
)
from repro.learning.kv import ClassificationTree
from repro.learning.ttt import TTTLearner, TTTTree

__all__ = [
    "ResponseTrie",
    "dedupe_and_subsume",
    "output_query_batch",
    "partition_batch",
    "supports_batching",
    "supports_resume",
    "CachedMembershipOracle",
    "FunctionOracle",
    "MealyMachineOracle",
    "MembershipOracle",
    "QueryStatistics",
    "ObservationTable",
    "process_counterexample_prefixes",
    "process_counterexample_rivest_schapire",
    "characterization_set",
    "iter_w_method_suite",
    "iter_wp_method_suite",
    "state_cover",
    "transition_cover",
    "w_method_suite",
    "wp_method_suite",
    "ConformanceEquivalenceOracle",
    "EquivalenceOracle",
    "PerfectEquivalenceOracle",
    "RandomWalkEquivalenceOracle",
    "ActiveLearner",
    "LEARNER_NAMES",
    "LearningResult",
    "MealyLearner",
    "learn_mealy_machine",
    "make_learner",
    "ClassificationTree",
    "TTTLearner",
    "TTTTree",
]
