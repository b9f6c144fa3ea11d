"""Independent oracle for the hypercube workloads.

The model keeps its own copy of every stored record, indexed by the value
of the node that owns it, and answers each query the way the paper
specifies it. A pin query costs the Hamming distance from the start node
to the responsible node and returns the cids stored under exactly the
query's keyword set. A superset query adds one hop per spanning-tree edge
of a depth-first walk over the bit-superset region, visiting children in
ascending bit order and stopping at the node where the result quota is
met. Only `node_for_keywords` (the keyword hash) is borrowed from the
program; routing, storage and the walk are re-derived here.
"""

from __future__ import annotations

from keycube import KeywordSet, node_for_keywords


def popcount(value: int) -> int:
    return bin(value).count("1")


def bits_text(value: int, r: int) -> str:
    """Canonical id text: the leftmost character is bit position 0."""
    return "".join("1" if value >> i & 1 else "0" for i in range(r))


class IndexModel:
    """Records by owner node, plus the expected answer to every client call."""

    def __init__(self, r: int):
        self.r = r
        self.by_node: dict[int, dict[tuple[str, ...], set[str]]] = {}
        self.records: dict[str, frozenset[str]] = {}
        self._owner: dict[tuple[str, ...], int] = {}

    @classmethod
    def from_scan(cls, net) -> "IndexModel":
        """The brute-force view: every record `scan_records` reports."""
        model = cls(net.cfg.r)
        for _, record in net.scan_records():
            model.add(record.cid, record.keywords.words)
        return model

    def snapshot(self) -> dict[str, tuple[str, ...]]:
        return {cid: tuple(sorted(words)) for cid, words in self.records.items()}

    def owner(self, words: tuple[str, ...]) -> int:
        value = self._owner.get(words)
        if value is None:
            value = node_for_keywords(KeywordSet(words), self.r).value
            self._owner[words] = value
        return value

    def add(self, cid: str, words: tuple[str, ...]) -> None:
        self.by_node.setdefault(self.owner(words), {}).setdefault(words, set()).add(cid)
        self.records[cid] = frozenset(words)

    def remove(self, cid: str, words: tuple[str, ...]) -> bool:
        entries = self.by_node.get(self.owner(words), {})
        cids = entries.get(words)
        if not cids or cid not in cids:
            return False
        cids.discard(cid)
        if not cids:
            del entries[words]
        del self.records[cid]
        return True

    # -- expected answers ----------------------------------------------------

    def expect_pin(self, start: int, words: tuple[str, ...]) -> tuple[list[str], int]:
        target = self.owner(words)
        cids = sorted(self.by_node.get(target, {}).get(words, ()))
        return cids, popcount(start ^ target)

    def matches(self, words: tuple[str, ...]) -> int:
        query = frozenset(words)
        return sum(1 for kws in self.records.values() if query <= kws)

    def expect_superset(self, start: int, words: tuple[str, ...],
                        limit: int) -> tuple[list[str], int]:
        target = self.owner(words)
        query = frozenset(words)
        collected: list[str] = []
        seen: set[str] = set()
        visited = 0
        stack = [target]
        while stack:
            node = stack.pop()
            visited += 1
            entries = self.by_node.get(node)
            if entries:
                local: list[str] = []
                for kws in sorted(entries):
                    if query <= frozenset(kws):
                        local.extend(sorted(entries[kws]))
                        if len(local) >= limit:
                            break
                for cid in local[:limit]:
                    if len(collected) >= limit:
                        break
                    if cid not in seen:
                        seen.add(cid)
                        collected.append(cid)
            if len(collected) >= limit:
                break
            free = node & ~target
            ceiling = (free & -free).bit_length() - 1 if free else self.r
            stack.extend(node | 1 << i for i in reversed(range(ceiling))
                         if not node >> i & 1)
        return collected, popcount(start ^ target) + visited - 1

    # -- checks; each returns None or a description of the mismatch ----------

    def check_pin(self, start: int, words, cids, hops: int, visited: int) -> str | None:
        want_cids, want_hops = self.expect_pin(start, words)
        if hops != want_hops:
            return f"pin {words}: hops {hops}, expected {want_hops}"
        if visited != hops + 1:
            return f"pin {words}: {visited} visited nodes for {hops} hops"
        if list(cids) != want_cids:
            return f"pin {words}: cids {list(cids)}, expected {want_cids}"
        return None

    def check_superset(self, start: int, words, limit: int, cids, hops: int,
                       visited: int) -> str | None:
        query = frozenset(words)
        if len(set(cids)) != len(cids):
            return f"superset {words}: duplicate cids {list(cids)}"
        for cid in cids:
            if cid not in self.records or not query <= self.records[cid]:
                return f"superset {words}: {cid} is not a superset match"
        want_count = min(limit, self.matches(words))
        if len(cids) != want_count:
            return f"superset {words}: {len(cids)} cids, expected {want_count}"
        want_cids, want_hops = self.expect_superset(start, words, limit)
        if set(cids) != set(want_cids):
            return f"superset {words}: cids {sorted(cids)}, expected {sorted(want_cids)}"
        if hops != want_hops:
            return f"superset {words}: hops {hops}, expected {want_hops}"
        if visited != hops + 1:
            return f"superset {words}: {visited} visited nodes for {hops} hops"
        return None

    def check_write(self, kind: str, cid: str, words, reply: dict) -> str | None:
        """Apply an insert or remove to the model and check the node's reply."""
        node = bits_text(self.owner(words), self.r)
        if kind == "insert":
            self.add(cid, words)
            want = "stored"
        else:
            want = "removed" if self.remove(cid, words) else "not_found"
        if reply.get("status") != want or reply.get("node") != node:
            return f"{kind} {cid}: reply {reply}, expected {want} at {node}"
        return None
