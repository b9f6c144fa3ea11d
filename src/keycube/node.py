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

from .errors import DimensionMismatch, NotInSupersetRegion, NotResponsible
from .topology import HashFn, KeywordSet, NodeId, keyword_bit, node_for_keywords


@dataclass(frozen=True)
class ObjectRecord:
    """A content identifier plus the keyword set it was published under."""

    cid: str
    keywords: KeywordSet

    def __post_init__(self):
        if type(self.cid) is not str or not self.cid:
            raise ValueError(f"cid must be a non-empty string, got {self.cid!r}")
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

    def _check_owner(self, keywords: KeywordSet, bits: NodeId | None) -> None:
        if bits is None:
            bits = node_for_keywords(keywords, self.r, self.hash_fn)
        if bits != self.id:
            raise NotResponsible(f"node {self.id.text} does not own keyword set {list(keywords)}")

    def insert(self, record: ObjectRecord, bits: NodeId | None = None) -> None:
        """Store a record. Idempotent; the node must own the keyword set.

        `bits` is the set's id if the caller has it (a routed insert passes its
        target) and is only compared with `self.id`; else the keywords are hashed.
        """
        self._check_owner(record.keywords, bits)
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

    def pin_lookup(self, keywords: KeywordSet, bits: NodeId | None = None) -> set[str]:
        """Cids stored under exactly this keyword set; ownership is checked as in `insert`."""
        self._check_owner(keywords, bits)
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
        r, value = self.id
        query_r, query_value = query_bits
        if r != query_r:
            raise DimensionMismatch(f"r={r} vs r={query_r}")
        if value & query_value != query_value:
            raise NotInSupersetRegion(
                f"node {self.id.text} is outside the superset region of {query_bits.text}"
            )
        out: list[str] = []
        if limit <= 0 or not self._entries:  # most nodes of a sparse cube hold nothing
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
