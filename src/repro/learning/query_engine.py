"""The batched, trie-backed query engine of the learning hot path.

Membership queries dominate the cost of every experiment the paper reports
(Tables 2 and 4 count them precisely), so this module centralises the three
optimisations every consumer of the oracle protocol shares:

* :class:`ResponseTrie` — a prefix tree over input words storing one output
  symbol per node.  Lookup and insertion are O(|w|); storing an answer
  automatically stores the answer of every prefix (Mealy output queries are
  prefix-closed), and inserting an answer that disagrees with a previously
  stored prefix raises :class:`~repro.errors.NonDeterminismError`, the
  signal the paper uses to reject broken reset sequences (Section 7.1).

* :func:`dedupe_and_subsume` — batch pre-processing: duplicate words are
  collapsed and words that are proper prefixes of other words in the batch
  are *subsumed* (answered by slicing the longer word's answer), so a batch
  executes only its maximal words.

* :func:`output_query_batch` — the dispatch helper: oracles that implement
  the batched protocol (``output_query_batch``) receive the whole batch at
  once; plain single-query oracles are driven word by word.  This is what
  lets the observation table, the conformance tester and the Polca pipeline
  talk to any oracle without caring whether it batches natively.

The batched-oracle protocol
---------------------------

An oracle *may* implement any of the following extensions on top of the
mandatory ``output_query(word)``:

``output_query_batch(words)``
    Answer many words in one call.  Implementations are expected to dedupe
    and prefix-subsume before touching the system under learning.

``output_query_resume(prefix, suffix, prefix_outputs=None)``
    Answer ``prefix + suffix`` while only *executing* ``suffix``, resuming
    from the state reached by ``prefix`` (the oracle must have answered a
    word extending ``prefix`` before).  ``prefix_outputs`` is the caller's
    cached answer for ``prefix``: machine-backed oracles ignore it (they
    recompute their state directly), while measurement-backed oracles
    (Polca with ``resume=True``) rebuild their resume state from it without
    touching the system under learning.  Oracles advertise the capability
    with a truthy ``supports_resume`` attribute.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.alphabet import EVICT, Evict, Line
from repro.store import PrefixStore, register_symbol_codec

Input = Hashable
Output = Hashable
Word = Tuple[Input, ...]
OutputWord = Tuple[Output, ...]

#: Namespace key the learning trie uses when none is given explicitly.
DEFAULT_LEARNING_NAMESPACE = ("learning",)

# Teach the shared store codec to persist policy-input symbols, so a
# learning trie living in a path-backed PrefixStore survives across runs
# (the --cache-path flag of the experiment CLI).
register_symbol_codec("Ln", Line, lambda s: str(s.index), lambda t: Line(int(t)))
register_symbol_codec("Ev", Evict, lambda s: "", lambda t: EVICT)


class ResponseTrie:
    """A prefix tree mapping input words to output words.

    Since PR 5 this is a thin learning-flavoured view over a
    :class:`~repro.store.PrefixStore` namespace — the same substrate the
    CacheQuery frontend's ``QueryCache`` uses — so one store instance (and
    one on-disk file) can back both caching stacks.  ``store`` may equally
    be a directory-backed :class:`~repro.store.ShardedStore`, which places
    this trie's namespace in its own append-log shard (its own writer
    lock), so concurrent learning jobs over disjoint targets share one
    corpus without contending.  The semantics are unchanged: caching the
    answer of ``u·v`` caches the answer of every prefix of ``u·v`` in the
    same O(|u·v|) nodes, and inserting an answer that disagrees with a
    stored prefix raises :class:`~repro.errors.NonDeterminismError`.
    """

    def __init__(
        self,
        store: Optional[PrefixStore] = None,
        namespace: Sequence[Hashable] = DEFAULT_LEARNING_NAMESPACE,
    ) -> None:
        # Any object with the PrefixStore namespace surface works here —
        # in particular a ShardedStore (see the class docstring).
        self.store = store if store is not None else PrefixStore()
        self._namespace = self.store.namespace(namespace)

    def __len__(self) -> int:
        return self._namespace.node_count

    def lookup(self, word: Sequence[Input]) -> Optional[OutputWord]:
        """Return the cached output word for ``word``, or ``None``."""
        if not word:
            return ()
        return self._namespace.lookup(word)

    def longest_cached_prefix(self, word: Sequence[Input]) -> Tuple[int, OutputWord]:
        """Return ``(k, outputs)`` for the longest cached prefix ``word[:k]``."""
        return self._namespace.lookup_prefix(word)

    def insert(self, word: Sequence[Input], outputs: Sequence[Output]) -> None:
        """Store ``outputs`` for ``word`` (and thereby for all its prefixes).

        Raises :class:`~repro.errors.NonDeterminismError` when a stored
        prefix disagrees with the new observation — the system under
        learning answered the same input prefix differently across runs.
        """
        word = tuple(word)
        outputs = tuple(outputs)
        if len(word) != len(outputs):
            raise ValueError(
                f"word of length {len(word)} needs exactly {len(word)} outputs, "
                f"got {len(outputs)}"
            )
        self._namespace.record(word, outputs, terminal=False)

    def clear(self) -> None:
        """Drop every cached response."""
        self._namespace.clear()


def dedupe_and_subsume(words: Sequence[Sequence[Input]]) -> List[Word]:
    """Return the *maximal* words of a batch, deduplicated, in first-seen order.

    A word is dropped when it is a duplicate or a proper prefix of another
    word in the batch: its answer is a slice of the longer word's answer, so
    executing the maximal words answers the whole batch.  The empty word is
    always dropped (its answer is the empty output word).
    """
    unique: List[Word] = []
    seen = set()
    for word in words:
        word = tuple(word)
        if word and word not in seen:
            seen.add(word)
            unique.append(word)
    if len(unique) <= 1:
        return unique
    # Map symbols to integer ids so words become comparable key lists
    # (symbols themselves need not be orderable), then sort: in
    # lexicographic order every proper prefix sits immediately before one
    # of its extensions, so a single next-neighbour check per word replaces
    # materializing (and hashing) every prefix of every word — the
    # difference between O(total symbols) and O(total symbols * length) on
    # the deep batches of the tabulated stepper.
    symbol_ids: dict = {}
    keys: List[List[int]] = []
    for word in unique:
        key: List[int] = []
        for symbol in word:
            code = symbol_ids.get(symbol)
            if code is None:
                code = symbol_ids[symbol] = len(symbol_ids)
            key.append(code)
        keys.append(key)
    order = sorted(range(len(unique)), key=keys.__getitem__)
    dropped = set()
    for here, there in zip(order, order[1:]):
        key = keys[here]
        longer = keys[there]
        if len(key) < len(longer) and longer[: len(key)] == key:
            dropped.add(here)
    return [word for index, word in enumerate(unique) if index not in dropped]


def partition_batch(words: Sequence[Word], lookup):
    """Partition a batch by what a cache can already answer.

    ``lookup`` is a pure peek (``word -> outputs or None``).  Returns
    ``(already_cached, cached, missing)``: ``already_cached`` counts the
    batch's words (duplicates included) fully answered by the cache as it
    stands *before* anything executes — the cache-hit count; ``cached`` is
    the ``(word, outputs)`` pairs among the deduped, prefix-subsumed maximal
    words the cache serves; ``missing`` the maximal words it cannot.  The
    engine (:class:`~repro.learning.oracles.CachedMembershipOracle`) records
    these counts through ``QueryStatistics.record_batch``.
    """
    already_cached = sum(1 for word in words if lookup(word) is not None)
    cached: List[Tuple[Word, OutputWord]] = []
    missing: List[Word] = []
    for word in dedupe_and_subsume(words):
        outputs = lookup(word)
        if outputs is not None:
            cached.append((word, outputs))
        else:
            missing.append(word)
    return already_cached, cached, missing


def supports_batching(oracle) -> bool:
    """True when ``oracle`` implements the batched-oracle protocol."""
    return callable(getattr(oracle, "output_query_batch", None))


def supports_resume(oracle) -> bool:
    """True when ``oracle`` can resume execution from a previously run prefix."""
    return bool(getattr(oracle, "supports_resume", False)) and callable(
        getattr(oracle, "output_query_resume", None)
    )


def output_query_batch(oracle, words: Sequence[Sequence[Input]]) -> List[OutputWord]:
    """Answer ``words`` through ``oracle``, batching when it supports it.

    The result has exactly one output word per input word, in input order
    (duplicates and prefixes included) — batching is transparent to callers.
    """
    words = [tuple(word) for word in words]
    if supports_batching(oracle):
        return [tuple(outputs) for outputs in oracle.output_query_batch(words)]
    return batch_via_single_queries(oracle, words)


def batch_via_single_queries(oracle, words: Sequence[Word]) -> List[OutputWord]:
    """Answer a batch through ``oracle.output_query``, executing only its
    maximal words and serving duplicates/prefixes by slicing.

    This is both the fallback for oracles without a native batch entry
    point and the shared implementation behind the simple batching oracles
    (:class:`~repro.learning.oracles.FunctionOracle`,
    :class:`~repro.learning.oracles.MealyMachineOracle`, Polca).
    """
    answers = ResponseTrie()
    for word in dedupe_and_subsume(words):
        answers.insert(word, oracle.output_query(word))
    return serve_from_trie(words, answers)


def serve_from_trie(words: Sequence[Word], answers: ResponseTrie) -> List[OutputWord]:
    """Answer every word of a batch from a trie holding its maximal answers."""
    results: List[OutputWord] = []
    for word in words:
        outputs = answers.lookup(word)
        if outputs is None:  # pragma: no cover - guarded by dedupe_and_subsume
            raise KeyError(f"word {word!r} was not answered by the batch")
        results.append(outputs)
    return results
