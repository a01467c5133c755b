"""The classification tree of the TTT learner (:mod:`repro.learning.ttt`).

Where L* (:class:`~repro.learning.learner.MealyLearner`) refills an
O(|S×Σ|·|E|) observation table on every stabilisation round, a
Kearns–Vazirani-style learner maintains a *classification tree*: inner
nodes carry distinguishing suffixes, leaves carry access words — one leaf
per discovered state.  A word is classified by *sifting* it down the
tree: at each inner node the oracle answers ``word + suffix`` and the
output tail selects the child to descend into.  Sifting a word whose
output tail has no child discovers a new state on the spot, without a
counterexample.  Each counterexample is decomposed with the
Rivest–Schapire binary search and adds exactly one leaf (state) plus one
discriminator.

On top of that structure the tree applies the two ideas of Isberner et
al.'s TTT algorithm (the successor of KV that AALpy ships — see
SNIPPETS.md snippet 1):

* **Discriminator finalization** — a split's Rivest–Schapire suffix is
  marked *temporary* and immediately challenged: single-symbol
  candidates are verified with one batched probe round (the probe words
  are the split leaves' output words, which the next hypothesis build
  needs anyway, so the verification is almost free), and one-symbol
  extensions of already-final discriminators are accepted when the
  response trie can decide them without executing anything.  A candidate
  replaces the temporary suffix only when real target answers prove it
  induces exactly the same child partition, so the tree invariant — the
  target separates the leaves at every inner node — survives every
  re-keying.  A node that resists finalization at its split stays
  temporary.

* **Incremental sifting** — the tree keeps a residency map from each
  leaf to the transition words parked on it plus a persistent transition
  and output table.  After a split only the words resident in the split
  subtree re-sift (they descend exactly one level, through the — ideally
  just finalized — new discriminator); everything else keeps its entry.
  :meth:`ClassificationTree.hypothesis` therefore costs O(new evidence),
  not O(all transitions).

Every sift level is dispatched as one deduped / prefix-subsumed batch
through :func:`~repro.learning.query_engine.output_query_batch` (or
fanned out across a :class:`~repro.learning.parallel.WorkerPool`), so the
tree reuses the query engine, the simkernel ``--kernel`` path and
``--resume`` stores, which live below the membership oracle and never see
which learner is asking.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.mealy import MealyMachine
from repro.errors import LearningError
from repro.learning.oracles import MembershipOracle
from repro.learning.parallel import WorkerPool
from repro.learning.query_engine import output_query_batch

Input = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Hashable, ...]


class _Leaf:
    """A leaf of the classification tree: one discovered state.

    ``access`` is the state's access word; ``state`` its index in creation
    order (the hypothesis state id).  ``parent``/``key`` locate the leaf in
    its parent's child map so a split can replace it in O(1).
    """

    __slots__ = ("access", "state", "parent", "key")

    def __init__(
        self,
        access: Word,
        state: int,
        parent: Optional["_Inner"],
        key: Optional[OutputWord],
    ) -> None:
        self.access = access
        self.state = state
        self.parent = parent
        self.key = key


class _Inner:
    """An inner node: a distinguishing suffix with output-tail children.

    ``temporary`` marks a discriminator taken verbatim from a
    Rivest–Schapire decomposition (so its length tracks the counterexample,
    not the tree) that finalization has not yet replaced by a shorter
    verified equivalent.
    """

    __slots__ = ("suffix", "children", "parent", "key", "temporary")

    def __init__(
        self,
        suffix: Word,
        parent: Optional["_Inner"],
        key: Optional[OutputWord],
    ) -> None:
        self.suffix = suffix
        self.children: Dict[OutputWord, _Node] = {}
        self.parent = parent
        self.key = key
        self.temporary = False


_Node = Union[_Leaf, _Inner]


class ClassificationTree:
    """Discrimination tree with finalization and incremental sifting.

    The root is the one unavoidable Mealy discriminator, the first input
    symbol; the initial state's leaf is created by the first
    :meth:`hypothesis` call.  Two operations grow the tree:

    * sifting inside :meth:`hypothesis` creates a leaf whenever a word's
      output tail has no child yet — sift-based state discovery;
    * :meth:`split` replaces a leaf by an inner node with two children —
      the Rivest–Schapire decomposition of a counterexample.

    Access words are prefix-closed by construction (every new access word
    extends an existing one by a single symbol), which keeps the key
    invariant that the hypothesis agrees with the target on every access
    word — the foundation of the binary-search soundness argument in
    :meth:`refine`.
    """

    def __init__(
        self,
        alphabet: Sequence[Input],
        oracle: MembershipOracle,
        *,
        pool: Optional[WorkerPool] = None,
        chunk_size: int = 64,
    ) -> None:
        if not alphabet:
            raise LearningError("cannot learn over an empty input alphabet")
        self.alphabet = tuple(alphabet)
        self.oracle = oracle
        self.pool = pool
        self.chunk_size = chunk_size
        self._access: List[Word] = []
        self._leaves: Dict[Word, _Leaf] = {}
        # The tree holds only the discriminators its splits actually created
        # (each finalized to the shortest verified candidate), so a sift pays
        # for the discriminators on its path.  States that no single symbol
        # at the root separates are discovered through counterexamples,
        # whose Rivest–Schapire suffixes finalization then shortens.
        self.root: _Node = _Inner((self.alphabet[0],), None, None)
        # Persistent hypothesis state: the transition/output tables survive
        # across rebuilds, and ``_pending`` holds the sift entries that still
        # have to descend ([state, symbol, word, node]).  ``_residents`` maps
        # each leaf to the transition words currently parked on it, so a
        # split knows the *only* words its new discriminator can re-route.
        self._transitions: Dict[Tuple[int, Input], int] = {}
        self._outputs: Dict[Tuple[int, Input], Hashable] = {}
        self._pending: List[List] = []
        self._residents: Dict[_Leaf, List[Tuple[int, Input]]] = {}
        self._scheduled_states = 0
        self._bootstrapped = False
        self._temporaries: List[_Inner] = []
        #: Growth accounting, reported by the pipeline: how many states each
        #: discovery mechanism contributed and how many internal minimality
        #: repairs ran.
        self.leaves_from_sifting = 0
        self.leaves_from_splits = 0
        self.internal_refinements = 0
        #: Temporary discriminators replaced by a verified shortest candidate
        #: (length-1 Rivest–Schapire suffixes count: they are already optimal).
        self.discriminators_finalized = 0
        #: ``(temporary length, finalized length)`` per finalization, in
        #: finalization order — the "finalized never longer" pin.
        self.finalization_shrinkage: List[Tuple[int, int]] = []
        #: Transition words re-enqueued per split, in split order; each entry
        #: is bounded by the split leaf's fan-in, not the transition table.
        self.words_resifted_per_split: List[int] = []
        #: Probe words submitted (mostly trie hits) while verifying
        #: finalization candidates.
        self.finalization_probe_words = 0

    # ------------------------------------------------------------- inspection

    @property
    def num_states(self) -> int:
        return len(self._access)

    def access_words(self) -> Tuple[Word, ...]:
        """Access words in state order (state ``i`` → ``access_words()[i]``)."""
        return tuple(self._access)

    def access_word(self, state: int) -> Word:
        return self._access[state]

    def discriminator_lengths(self) -> Dict[int, int]:
        """Histogram ``{suffix length: count}`` over the tree's discriminators.

        Only discriminators with at least one leaf below them count, so the
        root of a tree that has not built a hypothesis yet is not reported.
        """
        histogram: Dict[int, int] = {}
        stack: List[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner) and node.children:
                histogram[len(node.suffix)] = histogram.get(len(node.suffix), 0) + 1
                stack.extend(node.children.values())
        return histogram

    @property
    def max_discriminator_length(self) -> int:
        """Longest discriminator a sift can currently pay for (0 for a bare tree)."""
        histogram = self.discriminator_lengths()
        return max(histogram) if histogram else 0

    @property
    def temporary_discriminators(self) -> int:
        """Temporary discriminators still awaiting finalization."""
        return sum(1 for node in self._temporaries if node.temporary)

    # -------------------------------------------------------------- internals

    def _answer_batch(self, words: Sequence[Word]) -> List[OutputWord]:
        if self.pool is not None and self.pool.parallel:
            return self.pool.answer_batch(self.oracle, words, chunk_size=self.chunk_size)
        return output_query_batch(self.oracle, words)

    def _create_leaf(
        self,
        access: Word,
        parent: Optional[_Inner],
        key: Optional[OutputWord],
        *,
        sifted: bool,
    ) -> _Leaf:
        leaf = _Leaf(access, len(self._access), parent, key)
        self._access.append(access)
        self._leaves[access] = leaf
        if parent is not None:
            parent.children[key] = leaf
        if sifted:
            self.leaves_from_sifting += 1
        else:
            self.leaves_from_splits += 1
        return leaf

    # ------------------------------------------------------------- hypothesis

    def hypothesis(self) -> MealyMachine:
        """Build the hypothesis by sifting only what moved.

        The sifts run level-synchronously: each iteration gathers the
        ``word + suffix`` probes of *all* transitions still descending and
        answers them in one deduped / prefix-subsumed batch.  New states
        discovered mid-sift enqueue their own outgoing transitions, so the
        loop runs until the transition table closes over the discovered
        state set.  The entry list persists across calls: a call after a
        split advances only the re-enqueued residents (plus the new state's
        fresh transitions), and a call with nothing pending builds the
        machine straight from the persistent tables without a single probe.
        """
        if not self._bootstrapped:
            # The first build bootstraps ε's sift (state is None: creates the
            # initial state's leaf, records no transition) alongside state
            # 0's transition sifts, so ε's bare root probe is prefix-subsumed
            # by the length-2 transition probes in the same batch and never
            # executes on its own.
            self._pending.append([None, None, (), self.root])
            for symbol in self.alphabet:
                self._pending.append([0, symbol, (symbol,), self.root])
            self._scheduled_states = 1
            self._bootstrapped = True

        while True:
            while self._scheduled_states < len(self._access):
                source = self._scheduled_states
                base = self._access[source]
                for symbol in self.alphabet:
                    self._pending.append([source, symbol, base + (symbol,), self.root])
                self._scheduled_states += 1

            still_sifting: List[List] = []
            for entry in self._pending:
                node = entry[3]
                if isinstance(node, _Leaf):
                    if entry[0] is not None:  # ε's bootstrap entry: no edge
                        self._transitions[(entry[0], entry[1])] = node.state
                        self._residents.setdefault(node, []).append(
                            (entry[0], entry[1])
                        )
                else:
                    still_sifting.append(entry)
            self._pending = still_sifting
            if not self._pending:
                if self._scheduled_states == len(self._access):
                    break
                continue

            probes = [entry[2] + entry[3].suffix for entry in self._pending]
            answers = self._answer_batch(probes)
            for entry, answer in zip(self._pending, answers):
                word, node = entry[2], entry[3]
                key = tuple(answer)[len(word):]
                child = node.children.get(key)
                if child is None:
                    child = self._create_leaf(word, node, key, sifted=True)
                entry[3] = child

        # Output rows are keyed by (source state, symbol) and source access
        # words never change, so only rows of newly discovered states are
        # asked for.
        missing = [
            (state, symbol)
            for state in range(len(self._access))
            for symbol in self.alphabet
            if (state, symbol) not in self._outputs
        ]
        if missing:
            words = [self._access[state] + (symbol,) for state, symbol in missing]
            answers = self._answer_batch(words)
            for (state, symbol), answer in zip(missing, answers):
                self._outputs[(state, symbol)] = answer[-1]

        return MealyMachine(
            states=list(range(len(self._access))),
            initial_state=0,
            inputs=list(self.alphabet),
            transitions=dict(self._transitions),
            outputs=dict(self._outputs),
        )

    # ------------------------------------------------------------- refinement

    def refine(self, hypothesis: MealyMachine, counterexample: Word) -> None:
        """Rivest–Schapire decomposition of a counterexample into one split.

        Binary search over the patched words ``access(state(w[:i])) + w[i:]``
        for the index where agreement with the target flips (the same
        search as :func:`~repro.learning.counterexample
        .process_counterexample_rivest_schapire`, against the tree's access
        map instead of the table's row map).  The flip yields a
        distinguishing suffix and the pair of access words it separates;
        :meth:`split` then turns the confused leaf into an inner node.
        """
        word = tuple(counterexample)
        if not word:
            raise LearningError("counterexample must be a non-empty word")
        access = self._access
        oracle = self.oracle

        def disagrees(split: int) -> bool:
            prefix = word[:split]
            suffix = word[split:]
            patched = access[hypothesis.state_after(prefix)] + suffix
            if not patched:
                return False
            return tuple(oracle.output_query(patched)) != hypothesis.run(patched)

        if not disagrees(0):
            raise LearningError(
                f"spurious counterexample {list(word)}: hypothesis already "
                "agrees with the target"
            )
        low, high = 0, len(word)
        if disagrees(high):
            # Impossible while access words are prefix-closed: the hypothesis
            # agrees with the target on every access word by construction.
            raise LearningError(
                "classification tree is inconsistent: hypothesis disagrees "
                "with the target on an access word"
            )
        while high - low > 1:
            middle = (low + high) // 2
            if disagrees(middle):
                low = middle
            else:
                high = middle

        suffix = word[high:]
        source = hypothesis.state_after(word[:low])
        symbol = word[low]
        new_access = access[source] + (symbol,)
        confused_state = hypothesis.transitions[(source, symbol)]
        self.split(self._leaves[access[confused_state]], new_access, suffix)

    def split(self, leaf: _Leaf, new_access: Word, suffix: Word) -> _Leaf:
        """Replace ``leaf`` by an inner node distinguishing it from a new state.

        ``suffix`` must produce different output tails after ``leaf.access``
        and ``new_access``; the old leaf and a fresh leaf for ``new_access``
        become the inner node's two children, keyed by those tails.  The new
        node starts temporary, is finalized when a shorter suffix provably
        induces the same partition, and only the split leaf's resident
        transition words re-sift through it.
        """
        suffix = tuple(suffix)
        new_access = tuple(new_access)
        if not suffix:
            raise LearningError("a Mealy split needs a non-empty distinguishing suffix")
        answers = self._answer_batch([leaf.access + suffix, new_access + suffix])
        old_tail = tuple(answers[0])[len(leaf.access):]
        new_tail = tuple(answers[1])[len(new_access):]
        if old_tail == new_tail:
            raise LearningError(
                f"suffix {list(suffix)} does not distinguish access words "
                f"{list(leaf.access)} and {list(new_access)}"
            )
        inner = _Inner(suffix, leaf.parent, leaf.key)
        if leaf.parent is None:
            self.root = inner
        else:
            leaf.parent.children[leaf.key] = inner
        leaf.parent = inner
        leaf.key = old_tail
        inner.children[old_tail] = leaf
        new_leaf = self._create_leaf(new_access, inner, new_tail, sifted=False)

        inner.temporary = True
        self._temporaries.append(inner)
        # Finalize the fresh node *before* re-sifting its residents, so the
        # re-sift probes pay the finalized (short) suffix instead of the
        # verbatim Rivest–Schapire one.  This is the ONLY finalization
        # window: right now the subtree holds exactly the two split leaves
        # and zero parked residents (the old leaf's are about to re-sift
        # through ``inner`` with fresh probes — ``resift_leaf``), so the
        # two-word partition check is exhaustive and re-keying is sound.
        # Re-keying later, once residents have parked below the node on the
        # strength of the *old* suffix, would need every one of them
        # re-verified — a retry pass that profiling showed costs more than
        # every split combined while (residents' answers under untried
        # suffixes being absent from the trie) never deciding a candidate.
        self._finalize_node(inner, resift_leaf=leaf)

        residents = self._residents.pop(leaf, [])
        requeued = 0
        for state, symbol in residents:
            word = self._access[state] + (symbol,)
            if word == new_leaf.access:
                # The transition whose target the counterexample disproved:
                # its word *is* the new access word, so it lands on the new
                # leaf by construction — no probe needed.
                self._transitions[(state, symbol)] = new_leaf.state
                self._residents.setdefault(new_leaf, []).append((state, symbol))
            else:
                self._pending.append([state, symbol, word, inner])
                requeued += 1
        self.words_resifted_per_split.append(requeued)
        return new_leaf

    def lca_suffix(self, state_a: int, state_b: int) -> Word:
        """Distinguishing suffix at the lowest common ancestor of two leaves.

        By tree construction the target produces different output tails on
        ``access(a) + suffix`` and ``access(b) + suffix`` — that is why the
        two leaves sit in different subtrees of the LCA.
        """
        if state_a == state_b:
            raise LearningError("states are identical; no suffix separates them")
        path: set = set()
        node: Optional[_Node] = self._leaves[self._access[state_a]]
        while node is not None:
            path.add(node)
            node = node.parent
        node = self._leaves[self._access[state_b]].parent
        while node is not None:
            if node in path:
                return node.suffix
            node = node.parent
        raise LearningError("classification-tree leaves share no ancestor")

    # ----------------------------------------------------------- finalization

    def _leaves_below(self, node: _Node) -> List[_Leaf]:
        leaves: List[_Leaf] = []
        stack: List[_Node] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, _Leaf):
                leaves.append(current)
            else:
                stack.extend(current.children.values())
        return leaves

    def _final_discriminators(self, shorter_than: int) -> List[Word]:
        """Distinct final discriminators usable as extension bases, i.e.
        those whose one-symbol extension would still shrink the suffix."""
        suffixes: List[Word] = []
        seen = set()
        stack: List[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                if (
                    not node.temporary
                    and node.children
                    and len(node.suffix) + 1 < shorter_than
                    and node.suffix not in seen
                ):
                    seen.add(node.suffix)
                    suffixes.append(node.suffix)
                stack.extend(node.children.values())
        suffixes.sort(key=lambda s: (len(s), tuple(repr(symbol) for symbol in s)))
        return suffixes

    def _adopt(
        self,
        node: _Inner,
        candidate: Word,
        tails_by_child: List[Tuple[_Node, OutputWord]],
    ) -> None:
        """Re-key ``node`` to the verified shorter discriminator."""
        self.finalization_shrinkage.append((len(node.suffix), len(candidate)))
        node.suffix = candidate
        node.temporary = False
        node.children = {}
        for child, tail in tails_by_child:
            child.key = tail
            node.children[tail] = child
        self.discriminators_finalized += 1
        # Any entry still sifting strictly below this node routed through it
        # via the *old* suffix; restart it here so its descent re-derives
        # from real answers to the new one.  (``refine`` only runs between
        # completed builds, so this list is empty in practice — pure
        # insurance.)
        for entry in self._pending:
            current = entry[3]
            while current is not None and current is not node:
                current = current.parent
            if current is node and entry[3] is not node:
                entry[3] = node

    def _words_below(
        self, node: _Inner, resift_leaf: Optional[_Leaf]
    ) -> List[Tuple[_Node, List[Word]]]:
        """Per-child words whose routing a candidate suffix must preserve.

        That is every leaf access word below the child *plus* every resident
        transition word parked on those leaves: a resident's target state may
        not be separated from its leaf's by the tree yet, so leaf answers
        alone cannot prove the resident keeps routing to the same side —
        and a mis-parked resident becomes a mis-placed access word at its
        leaf's next split, corrupting the tree.  ``resift_leaf`` (the leaf a
        split is about to re-sift) contributes only its access word: its
        residents re-route from fresh answers immediately afterwards.
        """
        words_by_child: List[Tuple[_Node, List[Word]]] = []
        for child in node.children.values():
            words: List[Word] = []
            for leaf in self._leaves_below(child):
                words.append(leaf.access)
                if leaf is resift_leaf:
                    continue
                for state, symbol in self._residents.get(leaf, ()):
                    word = self._access[state] + (symbol,)
                    if word != leaf.access:
                        words.append(word)
            words_by_child.append((child, words))
        return words_by_child

    def _partition(
        self,
        words_by_child: List[Tuple[_Node, List[Word]]],
        answer_for,
    ) -> Optional[List[Tuple[_Node, OutputWord]]]:
        """Child re-keying for a candidate, or None when the partition breaks.

        Valid iff every child subtree's words share one output tail and the
        tails stay pairwise distinct — exactly the condition under which
        swapping the suffix preserves which child every word below the node
        (leaf access words and parked residents alike) routes to.
        """
        tails_by_child: List[Tuple[_Node, OutputWord]] = []
        seen_tails = set()
        for child, words in words_by_child:
            tails = set()
            for word in words:
                answer = answer_for(word)
                if answer is None:
                    return None
                tails.add(tuple(answer)[len(word):])
            if len(tails) != 1:
                return None
            tail = tails.pop()
            if tail in seen_tails:
                return None
            seen_tails.add(tail)
            tails_by_child.append((child, tail))
        return tails_by_child

    def _finalize_node(self, node: _Inner, *, resift_leaf: _Leaf) -> None:
        """Try to replace ``node``'s temporary suffix with a shorter one.

        Single-symbol candidates are verified with one real batched probe
        round; one-symbol extensions of final discriminators are decided
        from the response trie alone.
        """
        length = len(node.suffix)
        if length <= 1:
            # A one-symbol Rivest–Schapire suffix is already as short as a
            # Mealy discriminator can be.
            node.temporary = False
            self.discriminators_finalized += 1
            self.finalization_shrinkage.append((length, length))
            return
        words_by_child = self._words_below(node, resift_leaf)
        all_words = [word for _, words in words_by_child for word in words]

        # One deduped/prefix-subsumed batch: at a fresh split the words are
        # just the two leaves' access words, and their probe words are
        # output words the next hypothesis build needs anyway — so this
        # verification costs (almost) nothing beyond moving those
        # executions earlier.
        singles = [(symbol,) for symbol in self.alphabet]
        probes = [word + candidate for candidate in singles for word in all_words]
        self.finalization_probe_words += len(probes)
        flat = self._answer_batch(probes)
        answers: Dict[Tuple[Word, Word], OutputWord] = {}
        index = 0
        for candidate in singles:
            for word in all_words:
                answers[(candidate, word)] = flat[index]
                index += 1

        for candidate in singles:
            tails = self._partition(
                words_by_child, lambda word: answers.get((candidate, word))
            )
            if tails is not None:
                self._adopt(node, candidate, tails)
                return

        cached_answer = getattr(self.oracle, "cached_answer", None)
        if cached_answer is None:
            return
        # One-symbol extensions of already-final discriminators, shortest
        # first, decided purely from the response trie — no executions.
        for base in self._final_discriminators(shorter_than=length):
            for symbol in self.alphabet:
                candidate = (symbol,) + base
                tails = self._partition(
                    words_by_child,
                    lambda word: cached_answer(word + candidate),
                )
                if tails is not None:
                    self._adopt(node, candidate, tails)
                    return


def equivalent_state_pair(machine: MealyMachine) -> Optional[Tuple[int, int]]:
    """First pair of behaviourally equivalent states, or None if minimal.

    Standard partition refinement (the same computation as
    :meth:`~repro.core.mealy.MealyMachine.minimize`, reachable or not),
    returning the two smallest state ids of the first non-singleton block
    for deterministic repair order.
    """
    states = list(machine.states)
    inputs = list(machine.inputs)
    # Block ids are assigned by first occurrence in state order, so a stable
    # partition keeps stable labels and the fixpoint test below terminates.
    index_of: Dict[tuple, int] = {}
    block_of = {}
    for state in states:
        signature = tuple(machine.outputs[(state, symbol)] for symbol in inputs)
        block_of[state] = index_of.setdefault(signature, len(index_of))

    while True:
        index_of = {}
        updated = {}
        for state in states:
            signature = (
                block_of[state],
                tuple(block_of[machine.transitions[(state, symbol)]] for symbol in inputs),
            )
            updated[state] = index_of.setdefault(signature, len(index_of))
        if updated == block_of:
            break
        block_of = updated

    blocks: Dict[int, List[int]] = {}
    for state in sorted(states):
        blocks.setdefault(block_of[state], []).append(state)
    for block in sorted(blocks.values()):
        if len(block) > 1:
            return block[0], block[1]
    return None
