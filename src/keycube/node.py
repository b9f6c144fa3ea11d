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

from .topology import KeywordSet, NodeId


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
    per node. Forwarding decisions never hold the lock. The table trusts
    its caller: routing brought the op to the node that owns its keywords,
    or to a node of the query's superset region, and nothing checks it again.
    """

    def __init__(self, node_id: NodeId):
        self.id = node_id
        self._entries: dict[KeywordSet, set[str]] = {}
        self._lock = threading.Lock()

    def insert(self, keywords: KeywordSet, cid: str) -> None:
        """Store the routed op's `cid` under its `keywords`, both checked. Idempotent."""
        with self._lock:
            self._entries.setdefault(keywords, set()).add(cid)

    def remove(self, keywords: KeywordSet, cid: str) -> bool:
        """Drop `cid` from `keywords`, as `insert` takes them; False (and no change) if absent."""
        with self._lock:
            cids = self._entries.get(keywords)
            if cids is None or cid not in cids:
                return False
            cids.discard(cid)
            if not cids:
                del self._entries[keywords]
            return True

    def pin_lookup(self, keywords: KeywordSet) -> set[str]:
        """Cids stored under exactly this keyword set, which the caller routed here."""
        with self._lock:
            return set(self._entries.get(keywords, ()))

    def superset_lookup(self, keywords: Iterable[str], limit: int) -> list[str]:
        """The first `limit` distinct cids whose keyword set includes `keywords`.

        `keywords` are the query's words, already checked where the query
        entered: a KeywordSet or, from the walk, the envelope's list as is.
        The walk visit that calls this has checked that the node lies in the
        query's superset region. Deterministic selection: matching entries
        sorted by canonical keyword set, cids in byte order within an entry,
        each cid kept where it first occurs. A limit below 1 gives `[]`.
        """
        out: list[str] = []
        seen: set[str] = set()
        with self._lock:
            for entry_keywords in sorted(filter(set(keywords).issubset, self._entries)):
                for cid in sorted(self._entries[entry_keywords]):
                    if len(out) >= limit:
                        return out
                    if cid not in seen:
                        seen.add(cid)
                        out.append(cid)
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
