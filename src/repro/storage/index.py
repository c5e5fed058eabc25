"""Secondary indexes over the MVCC store.

§3.3 argues applications should get "full-fledged storage systems
[offering] … reads, scans, writes, indices, and foreign key
constraints" rather than pubsub's ad hoc APIs.  This module provides
the "indices" part: a :class:`SecondaryIndex` maintained incrementally
from the store's commit history, mapping extracted index values to the
keys currently holding them — versioned, so index lookups can be served
at any retained version.

Internally the index stores postings as ``(value, key) -> present?``
in a :class:`~repro.core.versioned_map.VersionedMap`, updated from the
same `history.tail` feed the watch layers use — another demonstration
that an ordered commit history is the universal change substrate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro._types import Key, KeyRange, Mutation, Version
from repro.core.versioned_map import VersionedMap
from repro.storage.history import CommittedTransaction
from repro.storage.kv import MVCCStore

#: Extracts the indexed value from a row value; None = not indexed.
ValueExtractor = Callable[[Any], Optional[Any]]

#: Separator between encoded index value and primary key in postings.
_SEP = "\x00"


def _encode(value: Any) -> str:
    """Stable string encoding of an index value for posting keys."""
    return f"{type(value).__name__}:{value!r}"


class SecondaryIndex:
    """An incrementally maintained, versioned secondary index."""

    def __init__(
        self,
        store: MVCCStore,
        extractor: ValueExtractor,
        name: str = "index",
    ) -> None:
        self.store = store
        self.extractor = extractor
        self.name = name
        #: posting rows: f"{encoded_value}\x00{key}" -> True/absent
        self._postings = VersionedMap()
        #: current indexed value per key (to remove old postings)
        self._current: Dict[Key, str] = {}
        self.entries_indexed = 0
        # backfill existing state at the current version, then follow
        version = store.last_version
        for key, row in store.scan():
            self._add(key, row, version)
        self._cancel = store.history.tail(self._on_commit)

    def close(self) -> None:
        self._cancel()

    # ------------------------------------------------------------------
    # maintenance

    def _on_commit(self, commit: CommittedTransaction) -> None:
        for key, mutation in commit.writes:
            if mutation.is_delete:
                self._remove(key, commit.version)
            else:
                self._remove(key, commit.version)
                self._add(key, mutation.value, commit.version)

    def _add(self, key: Key, row: Any, version: Version) -> None:
        value = self.extractor(row)
        if value is None:
            return
        encoded = _encode(value)
        self._postings.apply(f"{encoded}{_SEP}{key}", Mutation.put(True), version)
        self._current[key] = encoded
        self.entries_indexed += 1

    def _remove(self, key: Key, version: Version) -> None:
        encoded = self._current.pop(key, None)
        if encoded is not None:
            self._postings.apply(
                f"{encoded}{_SEP}{key}", Mutation.delete(), version
            )

    # ------------------------------------------------------------------
    # queries

    def lookup(self, value: Any, version: Optional[Version] = None) -> List[Key]:
        """Keys whose indexed value equals ``value`` (at ``version``,
        default latest), sorted."""
        if version is None:
            version = self.store.last_version
        encoded = _encode(value)
        prefix_range = KeyRange(f"{encoded}{_SEP}", f"{encoded}{_SEP}\U0010ffff")
        postings = self._postings.items_at(prefix_range, version)
        return sorted(p.split(_SEP, 1)[1] for p in postings)

    def count(self, value: Any, version: Optional[Version] = None) -> int:
        return len(self.lookup(value, version))


class UniqueConstraintError(RuntimeError):
    """Raised when a unique index would hold two keys for one value."""

    def __init__(self, value: Any, existing_key: Key, new_key: Key) -> None:
        super().__init__(
            f"unique index violation: value {value!r} held by "
            f"{existing_key!r}, attempted by {new_key!r}"
        )
        self.value = value
        self.existing_key = existing_key
        self.new_key = new_key


class UniqueIndex(SecondaryIndex):
    """A secondary index enforcing at most one key per value.

    Enforcement is *checked at write time* via :meth:`check_insert`
    (cooperative, like application-level unique checks over a KV store);
    the index itself also detects violations that slip through and
    surfaces them on lookup.
    """

    def check_insert(self, key: Key, row: Any) -> None:
        """Raise if writing ``row`` at ``key`` would duplicate a value."""
        value = self.extractor(row)
        if value is None:
            return
        holders = self.lookup(value)
        for holder in holders:
            if holder != key:
                raise UniqueConstraintError(value, holder, key)

    def get_key(self, value: Any, version: Optional[Version] = None) -> Optional[Key]:
        """The single key holding ``value``, or None."""
        holders = self.lookup(value, version)
        if len(holders) > 1:
            raise UniqueConstraintError(value, holders[0], holders[1])
        return holders[0] if holders else None
