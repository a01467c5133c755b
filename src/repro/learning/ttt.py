"""TTT learner: the classification-tree student behind ``--learner ttt``.

:class:`TTTLearner` drives a :class:`~repro.learning.kv.ClassificationTree`
(discriminator finalization + incremental sifting, after Isberner et al.'s
TTT algorithm) through the equivalence loop of
:class:`~repro.learning.learner.ActiveLearner`.  Rivest–Schapire is the
only counterexample strategy: the tree refines one split at a time, so the
global prefix strategy of L* is meaningless here.

Mealy-specific subtlety: intermediate tree hypotheses need not be minimal
(two leaves can be merged behaviourally until a discriminator separates
them *in the hypothesis*), but the Wp-method suite generator requires
minimal machines (see :func:`~repro.learning.wpmethod.characterization_set`).
:meth:`TTTLearner._stable_hypothesis` therefore repairs minimality
internally: any equivalent state pair yields an internal counterexample
from the pair's lowest common ancestor suffix, which refines the tree
without spending an equivalence query.  Every hypothesis handed to the
conformance tester is minimal, so the minimize-and-warn fallback never
fires.

The learned machines are bit-identical to L*'s: every learner converges on
the canonical minimal machine of the target, whatever refinement
trajectory it takes.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.kv import ClassificationTree, equivalent_state_pair
from repro.learning.learner import ActiveLearner, LearningResult

Word = Tuple[Hashable, ...]

# The pipeline benchmark wraps ``TTTTree.hypothesis`` by this name; an alias
# (not a subclass) leaves no stale wrapper behind when the tracer uninstalls.
TTTTree = ClassificationTree


class TTTLearner(ActiveLearner):
    """Classification-tree learner behind the
    :class:`~repro.learning.learner.ActiveLearner` interface.

    Constructor, engine wrapping and result shape match
    :class:`~repro.learning.learner.MealyLearner`; only the hypothesis
    data structure differs.  Requesting
    ``counterexample_strategy="prefixes"`` raises
    :class:`~repro.errors.LearningError` at construction time.
    """

    name = "ttt"
    counterexample_strategies = ("rivest-schapire",)

    #: The classification tree of the current/most recent run (None before
    #: :meth:`learn`); exposed so budget-interrupted runs stay inspectable.
    tree: Optional[ClassificationTree] = None

    @property
    def states_discovered(self) -> int:
        """Leaves created so far — exact state count, readable mid-run."""
        return self.tree.num_states if self.tree is not None else 0

    def _stable_hypothesis(self, tree: ClassificationTree) -> MealyMachine:
        """Build a hypothesis and repair it to minimality without
        spending equivalence queries.

        An intermediate hypothesis can merge two discovered states
        behaviourally even though the tree distinguishes their access words.
        For any equivalent pair, the LCA discriminator yields an internal
        counterexample (the target disagrees with the hypothesis on at least
        one of ``access(q) + suffix``), which :meth:`ClassificationTree.refine`
        turns into a split.  Each repair adds a state, so the loop is bounded
        by the target's state count.
        """
        hypothesis = tree.hypothesis()
        while True:
            pair = equivalent_state_pair(hypothesis)
            if pair is None:
                return hypothesis
            suffix = tree.lca_suffix(*pair)
            for state in pair:
                probe = tree.access_word(state) + suffix
                if tuple(self.membership_oracle.output_query(probe)) != hypothesis.run(probe):
                    tree.internal_refinements += 1
                    tree.refine(hypothesis, probe)
                    break
            else:
                # Unreachable: equivalent hypothesis states answer the suffix
                # identically, but the target separates the two access words.
                raise LearningError(
                    "classification tree separates states "
                    f"{pair[0]} and {pair[1]} but no internal counterexample "
                    "distinguishes them"
                )
            hypothesis = tree.hypothesis()

    def _learn(self) -> LearningResult:
        self._start_run()
        tree = ClassificationTree(self.alphabet, self.membership_oracle)
        self.tree = tree
        counterexamples: List[Word] = []

        hypothesis = self._stable_hypothesis(tree)

        for round_number in range(1, self.max_rounds + 1):
            counterexample = self._find_counterexample(hypothesis)
            if counterexample is None:
                return self._result(hypothesis, round_number, counterexamples)
            word = tuple(counterexample)
            counterexamples.append(word)
            # Exhaust the counterexample: a single split often leaves the word
            # disagreeing with the refined hypothesis, and re-checking it is a
            # trie cache hit — so the learner keeps splitting on the same
            # evidence instead of spending a fresh equivalence round (and its
            # newly executed suite words) per discovered state.
            while hypothesis.run(word) != tuple(self.membership_oracle.output_query(word)):
                previous_size = hypothesis.size
                tree.refine(hypothesis, word)
                hypothesis = self._stable_hypothesis(tree)
                if hypothesis.size <= previous_size:
                    # Every split adds a leaf and hypothesis states are
                    # leaves, so a non-growing hypothesis means the tree is
                    # corrupted.
                    raise LearningError(
                        "classification-tree refinement failed to add a state "
                        f"for counterexample {list(word)}"
                    )
            self._end_round()

        raise self._rounds_exhausted()
