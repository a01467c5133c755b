"""Sharded measurement corpora: one append-log file per namespace key.

A single :class:`~repro.store.prefix_store.PrefixStore` file serialises
every writer on one lock and compacts everything together.  For a corpus
shared by many independent sweeps (the production shape: many learning
jobs feeding one measurement pool), :class:`ShardedStore` spreads the
namespaces of a store across a *directory*, one file — one append log,
one advisory lock — per namespace key:

* concurrent sweeps touching **disjoint** targets (different policies,
  different cache sets) write disjoint files and never contend;
* sweeps sharing a target serialise only on that target's shard, with the
  same catch-up/append protocol (and the same cross-writer
  :class:`~repro.errors.NonDeterminismError` conflict detection) as the
  single-file store;
* shards load lazily — a warm start touching one target reads one shard,
  not the whole corpus.

Shard files are named ``<readable-key>.<sha1-prefix>.shard``; the
authoritative key is stamped into each shard's v2 header line (the
filename is only a deterministic locator), so enumeration reads one small
header per shard and a filename/key mismatch is detected as corruption.

:func:`open_store` is the path-polymorphic constructor the experiment
CLI's ``--cache-path`` uses: an existing directory (or a path spelled with
a trailing separator or a ``.shards`` suffix) opens a :class:`ShardedStore`,
anything else the classic single-file :class:`PrefixStore`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import StoreCorruptionError, StoreError
from repro.store.prefix_store import NamespaceKey, PrefixNamespace, PrefixStore

SHARD_SUFFIX = ".shard"

#: Header field carrying a shard's authoritative namespace key.
SHARD_KEY_FIELD = "shard"

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def shard_filename(key: Sequence[Hashable]) -> str:
    """Deterministic shard file name for a namespace key.

    A readable (sanitised, truncated) rendering of the key plus a SHA-1
    prefix of its canonical JSON — collisions between distinct keys are
    practically impossible, and the stamped in-file key catches the
    impossible case as corruption instead of silent cross-talk.
    """
    from repro.store.codec import _encode_namespace_key

    canonical = json.dumps(_encode_namespace_key(key), separators=(",", ":"))
    digest = hashlib.sha1(canonical.encode()).hexdigest()[:12]
    readable = "-".join(_UNSAFE.sub("_", str(part)) for part in key)[:80].strip("-")
    return f"{readable or 'ns'}.{digest}{SHARD_SUFFIX}"


class ShardedStore:
    """A directory of single-namespace :class:`PrefixStore` shards.

    Mirrors the :class:`PrefixStore` surface every consumer uses —
    ``namespace``/``namespaces``/``save``/``compact``/``statistics``/
    ``node_count``/``entry_count`` — so ``QueryCache``, ``ResponseTrie``
    and the experiment runners work unchanged on top of it.
    """

    #: Duck-typing marker (see :attr:`PrefixStore.sharded`).
    sharded = True

    def __init__(self, path) -> None:
        self._path = Path(path)
        if self._path.exists() and not self._path.is_dir():
            raise StoreError(
                f"sharded store path {self._path} exists and is not a directory; "
                "use a PrefixStore for single-file stores"
            )
        self._path.mkdir(parents=True, exist_ok=True)
        self._shards: Dict[NamespaceKey, PrefixStore] = {}

    # ------------------------------------------------------------------ paths

    @property
    def path(self) -> Path:
        """The corpus directory."""
        return self._path

    def shard_path(self, key: Sequence[Hashable]) -> Path:
        """The file a namespace key lives in (whether or not it exists yet)."""
        return self._path / shard_filename(key)

    # -------------------------------------------------------------- namespaces

    def _shard(self, key: NamespaceKey) -> PrefixStore:
        shard = self._shards.get(key)
        if shard is None:
            shard = PrefixStore(
                str(self.shard_path(key)), header_extra={SHARD_KEY_FIELD: list(key)}
            )
            stamped = (
                shard.load_report.header_extra.get(SHARD_KEY_FIELD)
                if shard.load_report is not None
                else None
            )
            if stamped is not None and tuple(stamped) != key:
                raise StoreCorruptionError(
                    f"shard file {self.shard_path(key)} is stamped for namespace "
                    f"{tuple(stamped)!r} but was opened for {key!r}; the file was "
                    "renamed or the directory mixes two corpora"
                )
            self._shards[key] = shard
        return shard

    def namespace(self, key: Sequence[Hashable]) -> PrefixNamespace:
        """Return (creating/loading if needed) the namespace for ``key``."""
        return self._shard(tuple(key)).namespace(key)

    def _on_disk_keys(self) -> Tuple[NamespaceKey, ...]:
        from repro.store.codec import read_first_line

        keys = []
        for file in sorted(self._path.glob(f"*{SHARD_SUFFIX}")):
            try:
                header = json.loads(read_first_line(file))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise StoreCorruptionError(
                    f"shard file {file} has an unreadable header ({exc}); "
                    "delete the shard to drop its namespace"
                ) from exc
            stamped = header.get(SHARD_KEY_FIELD) if isinstance(header, dict) else None
            if not isinstance(stamped, list):
                raise StoreCorruptionError(
                    f"shard file {file} carries no namespace key in its header; "
                    "it was not written by a ShardedStore"
                )
            keys.append(tuple(stamped))
        return tuple(keys)

    def namespaces(self) -> Tuple[NamespaceKey, ...]:
        """Every namespace key in the corpus (loaded shards and on-disk ones)."""
        keys = list(self._shards)
        seen = set(keys)
        for key in self._on_disk_keys():
            if key not in seen:
                seen.add(key)
                keys.append(key)
        return tuple(keys)

    def drop_namespace(self, key: Sequence[Hashable]) -> None:
        """Remove one namespace: forget the loaded shard and delete its file."""
        key = tuple(key)
        self._shards.pop(key, None)
        path = self.shard_path(key)
        for victim in (path, path.parent / f"{path.name}.lock"):
            try:
                victim.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------ totals

    @property
    def node_count(self) -> int:
        """Total stored prefixes across the *loaded* shards."""
        return sum(shard.node_count for shard in self._shards.values())

    @property
    def entry_count(self) -> int:
        """Total recorded entries across the *loaded* shards."""
        return sum(shard.entry_count for shard in self._shards.values())

    @property
    def pending_records(self) -> int:
        """Journal records waiting for the next :meth:`save`, over all shards."""
        return sum(shard.pending_records for shard in self._shards.values())

    def statistics(self) -> Dict[str, object]:
        """Size summary: loaded-shard contents plus whole-corpus disk usage."""
        files = list(self._path.glob(f"*{SHARD_SUFFIX}"))
        return {
            "path": str(self._path),
            "namespaces": len(self.namespaces()),
            "entries": self.entry_count,
            "nodes": self.node_count,
            "bytes_on_disk": sum(file.stat().st_size for file in files),
            "shards": len(files),
            "loaded_shards": len(self._shards),
            "pending_records": self.pending_records,
            "sharded": True,
        }

    def clear(self) -> None:
        """Drop every namespace, on disk included."""
        for key in self.namespaces():
            self.drop_namespace(key)
        self._shards.clear()

    # ------------------------------------------------------------- persistence

    def save(self, path: Optional[str] = None, *, compact: bool = False) -> None:
        """Incrementally save every loaded shard (each under its own lock).

        Shards the process never touched have nothing to save.  Saving a
        sharded corpus to a different path is not supported — copy the
        directory instead.
        """
        if path is not None and Path(path) != self._path:
            raise StoreError(
                f"sharded store {self._path} persists in place; copy the "
                f"directory to save it elsewhere (got {path!r})"
            )
        for shard in self._shards.values():
            shard.save(compact=compact)

    def compact(self) -> None:
        """Fold every shard's append log into a compact snapshot.

        Unlike :meth:`save` this covers the whole corpus: on-disk shards
        this process never loaded are loaded and compacted too.
        """
        for key in self.namespaces():
            self._shard(key).compact()


def open_store(path, *, sharded: Optional[bool] = None):
    """Open ``path`` as the right kind of store (the ``--cache-path`` entry).

    ``sharded=None`` auto-detects: an existing directory, a path
    spelled with a trailing separator, or a ``.shards`` suffix opens a
    :class:`ShardedStore`; everything else a single-file
    :class:`PrefixStore`.
    """
    target = Path(path)
    if sharded is None:
        sharded = (
            target.is_dir()
            or str(path).endswith(os.sep)
            or target.suffix == ".shards"
        )
    return ShardedStore(target) if sharded else PrefixStore(str(target))
