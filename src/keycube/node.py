"""State and local operations of one logical node.

A node owns an index table keyed by the exact (canonical) keyword set a
record was published under, not by the hashed bit string. Distinct keyword
sets that collide onto the same node id therefore keep separate entries,
which preserves exact-match lookup semantics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotInSupersetRegion, NotResponsible
from .topology import HashFn, KeywordSet, NodeId, keyword_bit, node_for_keywords


@dataclass(frozen=True)
class ObjectRecord:
    """A content identifier plus the keyword set it was published under."""

    cid: str
    keywords: KeywordSet

    def __post_init__(self):
        if not isinstance(self.cid, str) or not self.cid:
            raise ValueError(f"cid must be a non-empty string, got {self.cid!r}")
        if not isinstance(self.keywords, KeywordSet):
            object.__setattr__(self, "keywords", KeywordSet(self.keywords))


class NodeState:
    """Index table of one logical node; its neighbours follow from its id and are not stored.

    All table access goes through an internal lock, so one node's state
    may be shared by concurrent request handlers; mutations are serialized
    per node. Forwarding decisions never hold the lock.
    """

    def __init__(self, node_id: NodeId, hash_fn: HashFn = keyword_bit):
        self.id = node_id
        self.r = node_id.r
        self.hash_fn = hash_fn
        self._entries: dict[KeywordSet, set[str]] = {}
        self._lock = threading.Lock()

    def responsible_for(self, keywords: KeywordSet) -> bool:
        return node_for_keywords(keywords, self.r, self.hash_fn) == self.id

    def insert(self, record: ObjectRecord) -> None:
        """Store a record. Idempotent; the node must own the keyword set."""
        if not self.responsible_for(record.keywords):
            raise NotResponsible(
                f"node {self.id.text} does not own keyword set {list(record.keywords)}"
            )
        with self._lock:
            self._entries.setdefault(record.keywords, set()).add(record.cid)

    def remove(self, record: ObjectRecord) -> bool:
        """Drop a record. Returns False (and changes nothing) when absent."""
        with self._lock:
            cids = self._entries.get(record.keywords)
            if cids is None or record.cid not in cids:
                return False
            cids.discard(record.cid)
            if not cids:
                del self._entries[record.keywords]
            return True

    def pin_lookup(self, keywords: KeywordSet) -> set[str]:
        """Cids stored under exactly this keyword set (keyword-level equality)."""
        if not self.responsible_for(keywords):
            raise NotResponsible(
                f"node {self.id.text} does not own keyword set {list(keywords)}"
            )
        with self._lock:
            return set(self._entries.get(keywords, ()))

    def superset_lookup(self, keywords: Iterable[str], query_bits: NodeId,
                        limit: int) -> list[str]:
        """Up to `limit` cids whose keyword set includes `keywords`.

        `keywords` are the query's words, already checked where the query
        entered: a KeywordSet or, from the walk, the envelope's list as is.
        `query_bits` is `node_for_keywords(keywords)`, hashed once per query
        and carried by the walk. Deterministic selection: entries sorted by
        canonical keyword set, cids in byte order within an entry.
        """
        if not self.id.covers(query_bits):
            raise NotInSupersetRegion(
                f"node {self.id.text} is outside the superset region of {query_bits.text}"
            )
        out: list[str] = []
        if limit <= 0:
            return out
        with self._lock:
            for entry_keywords in sorted(self._entries):
                if not entry_keywords.issuperset(keywords):
                    continue
                for cid in sorted(self._entries[entry_keywords]):
                    out.append(cid)
                    if len(out) >= limit:
                        return out
        return out

    def records(self) -> Iterator[ObjectRecord]:
        """Snapshot of everything stored on this node."""
        with self._lock:
            snapshot = {ks: set(cids) for ks, cids in self._entries.items()}
        for ks in sorted(snapshot):
            for cid in sorted(snapshot[ks]):
                yield ObjectRecord(cid, ks)

    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def cid_count(self) -> int:
        with self._lock:
            return sum(len(c) for c in self._entries.values())

    # State must be transferable between executor contexts at rest; the
    # lock is an execution-side detail and is rebuilt on arrival.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


def make_record(cid: str, keywords: Iterable[str]) -> ObjectRecord:
    """Convenience constructor canonicalizing the keyword list."""
    return ObjectRecord(cid, KeywordSet(keywords))
