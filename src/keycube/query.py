"""Distributed query execution over the hypercube.

Requests travel as JSON-able envelopes. A routed envelope is forwarded
greedily toward its target id one bit-fix at a time; every handling node
appends itself to the envelope's visited list. That list is the only
record of the path: a query's hop count is `len(visited) - 1`, computed
where the client reply is built, and no envelope or walk reply carries a
counter of its own. Superset searches switch at the responsible node into
a sequential depth-first walk of the spanning tree over the bit-superset
region, stopping as soon as the result quota is met. Each tree node is
visited once and each tree edge counts one hop, forward only; the
walk-back is free. A tree edge carries back only its subtree's new cids
and visited segment, which the parent appends. Every walk leg still
carries `collected`, every cid found so far, so a leg's cost grows with
min(limit, cids found) and an exhaustive walk is not linear in its hops.

A query's keywords are made a `KeywordSet` and hashed to its target id's
text once, where it enters; its envelope lists them in that canonical order.
The target wraps the list as a `KeywordSet` as is, checks a write's cid in
line, and hands both to `NodeState`, which checks no ownership of its own.
Every walk leg carries the root's id, so no node hashes them again. On the
wire, the decode in `network` is the one ownership check: `target` has r
bits and, where the op declares keywords, their list is canonical and
`target` is their id. So hops read `target` with the cached
`topology._parse_id`, not `NodeId.parse`.

Each hop is one `handle_forward` call, which takes a routed envelope's
greedy step itself and calls `_handle` only at the target; `_handle` also
takes the entry node's first step, and refuses an unknown op in process.
A walk visit checks its own r and region, the one region check, asks its
table only if the node holds entries, and steps its children's bits (the
tree rule `topology._child_bits`) in line. A client reply is checked once, where
`QueryResult.from_reply` reads it: one C-level exact-`str` pass over each
of its lists, its `hops` against the length of its path, then `_parse_id`
on each id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .errors import DimensionMismatch, KeycubeError, NotInSupersetRegion, RoutingFailure
from .node import NodeState
from .topology import (
    _STR,
    HashFn,
    KeywordSet,
    NodeId,
    _child_bits,
    _keyset_value,
    _parse_id,
    neighbors,
    next_hop,
)

# JSON type of each field an envelope must carry besides "op" and "visited".
_ROUTED_FIELDS = {"target": str, "keywords": list}
ENVELOPE_FIELDS: dict[str, dict[str, type]] = {
    "ping": {"target": str},
    "insert": {**_ROUTED_FIELDS, "cid": str},
    "remove": {**_ROUTED_FIELDS, "cid": str},
    "pin": _ROUTED_FIELDS,
    "superset": {**_ROUTED_FIELDS, "limit": int},
    "superset_visit": {"target": str, "keywords": list, "limit": int, "collected": list},
}


@dataclass(frozen=True)
class QueryResult:
    """Collected cids plus the hop count consumed answering the query."""

    cids: tuple[str, ...]
    hops: int
    nodes_visited: tuple[NodeId, ...] = field(default=())

    @classmethod
    def from_reply(cls, reply: dict) -> "QueryResult":
        """Read a client reply: string `cids`, a list of ids `visited` and an int
        `hops` that is `len(visited) - 1`, as every node builds it.

        Any other reply raises `RoutingFailure`, as does any reply the wire
        client cannot use.
        """
        cids, hops, visited = reply.get("cids"), reply.get("hops"), reply.get("visited")
        if (type(cids) is not list or not _STR.issuperset(map(type, cids))
                or type(hops) is not int or type(visited) is not list
                or not _STR.issuperset(map(type, visited)) or hops != len(visited) - 1):
            raise RoutingFailure(f"not a query reply: {reply!r:.200}")
        try:  # every entry is an exact str, as `_parse_id` needs
            return cls(tuple(cids), hops, tuple(map(_parse_id, visited)))
        except ValueError as exc:
            raise RoutingFailure(f"not a query reply: {exc}") from None


class Transport(Protocol):
    """Delivers an envelope to a node and returns that node's reply.

    `call` is a handover: the sender never reads or reuses an envelope after
    it, and the callee owns it, appending to its `visited` and, on a walk
    leg, to its `collected`. So in process the envelope itself is handed
    over, and a walk node builds a new leg for each child. An envelope holds
    only JSON values where it is built, and the wire sends the same text.
    A reply is the callee's too, and the caller reads it as it is.
    """

    def call(self, target: NodeId, envelope: dict) -> dict: ...


class LogicalNode:
    """Envelope handler bound to one node's state, a transport and the hash it routes by."""

    def __init__(self, state: NodeState, transport: Transport, hash_fn: HashFn):
        self.state = state
        self.transport = transport
        self.hash_fn = hash_fn
        self.id = state.id
        self.text = state.id.text  # computed once: every leg appends or compares it
        self._entries = state._entries  # the node's table, read here only for emptiness

    # -- client entry points (what /insert, /pin, ... invoke) --------------

    def client_insert(self, cid: str, keywords: KeywordSet) -> dict:
        return self._handle(self._routed_envelope("insert", keywords, cid=cid))

    def client_remove(self, cid: str, keywords: KeywordSet) -> dict:
        return self._handle(self._routed_envelope("remove", keywords, cid=cid))

    def client_pin(self, keywords: KeywordSet) -> dict:
        return self._handle(self._routed_envelope("pin", keywords))

    def client_superset(self, keywords: KeywordSet, limit: int) -> dict:
        if type(limit) is not int or limit < 1:
            raise ValueError(f"superset limit must be an integer >= 1, got {limit!r}")
        return self._handle(self._routed_envelope("superset", keywords, limit=limit))

    def client_ping(self, target: NodeId) -> dict:
        return self._handle({"op": "ping", "target": target.text, "visited": [self.text]})

    def info(self) -> dict:
        return {"id": self.text, "r": self.id.r,
                "neighbors": [n.text for n in sorted(neighbors(self.id))]}

    def _routed_envelope(self, op: str, keywords: KeywordSet, **extra) -> dict:
        if type(keywords) is not KeywordSet:  # canonical here: the target wraps the list as is
            keywords = KeywordSet(keywords)
        r = self.id.r  # the text of `node_for_keywords`' id, with no checks made again
        target = format(_keyset_value(keywords, r, self.hash_fn), f"0{r}b")[::-1]
        return {"op": op, "target": target, "keywords": list(keywords),
                "visited": [self.text], **extra}

    # -- envelope handling ---------------------------------------------------

    def handle_forward(self, envelope: dict) -> dict:
        """A neighbor's envelope, one call per hop: append this node to `visited`,
        then visit a walk leg, answer at the target, or take the greedy step,
        which refuses a target of another r with `DimensionMismatch`."""
        envelope["visited"].append(self.text)
        if envelope["op"] == "superset_visit":
            return self._superset_visit(envelope)
        target = envelope["target"]
        if target != self.text:
            return self.transport.call(next_hop(self.id, _parse_id(target)), envelope)
        return self._handle(envelope)

    def _handle(self, env: dict) -> dict:
        """Answer a routed envelope at its target, wrapping its trusted `keywords` list
        as is and checking a write's cid; at the entry, take `handle_forward`'s first step."""
        target = env["target"]
        if target != self.text:
            return self.transport.call(next_hop(self.id, _parse_id(target)), env)
        op, visited = env["op"], env["visited"]
        if op == "ping":
            return {"status": "ok", "node": self.text,
                    "hops": len(visited) - 1, "visited": visited}
        if op == "superset":  # the root visit: this node is on `visited` already
            visit = self._superset_visit({"op": "superset_visit", "target": target,
                                          "keywords": env["keywords"], "limit": env["limit"],
                                          "collected": [], "visited": visited})
            visited = visit["visited"]
            return {"cids": visit["cids"], "hops": len(visited) - 1, "visited": visited}
        if op not in ("insert", "remove", "pin"):
            raise KeycubeError(f"unknown op {op!r}")
        keywords = tuple.__new__(KeywordSet, env["keywords"])
        if op == "pin":
            cids = sorted(self.state.pin_lookup(keywords))
            return {"cids": cids, "hops": len(visited) - 1, "visited": visited}
        if type(cid := env["cid"]) is not str or not cid:  # as `ObjectRecord` checks it
            raise ValueError(f"cid must be a non-empty string, got {cid!r}")
        if op == "insert":
            self.state.insert(keywords, cid)
            return {"status": "stored", "node": self.text}
        found = self.state.remove(keywords, cid)
        return {"status": "removed" if found else "not_found", "node": self.text}

    def _superset_visit(self, env: dict) -> dict:
        """Visit one tree node: check it lies in the region, collect locally,
        then descend while short.

        `target` is the walk root, whose bits are the query's. `collected` is
        every cid found so far, so duplicates across nodes are dropped. The
        reply holds only what this subtree added: its new cids and its
        visited segment, which starts at `env["visited"]`.
        """
        (r, value), (root_r, query_value) = self.id, _parse_id(env["target"])
        if root_r != r:
            raise DimensionMismatch(f"r={r} vs r={root_r}")
        if value & query_value != query_value:
            raise NotInSupersetRegion(f"node {self.text} is outside the superset region "
                                      f"of {env['target']}")
        limit = env["limit"]
        collected: list[str] = env["collected"]  # handed over with the leg: extended in place
        found_before = len(collected)
        visited = env["visited"]

        # Most nodes of a sparse cube hold nothing, and are not asked. The table
        # returns its first `limit` distinct matches, so that local cap is
        # enough even with cross-node duplicate cids: if this node alone holds
        # >= limit matches, the union reaches the quota here; otherwise nothing
        # local was truncated. Only cids already collected are dropped here;
        # the set answers membership, the order is the list's.
        if self._entries and (local := self.state.superset_lookup(env["keywords"], limit)):
            seen = set(collected)
            for cid in local:
                if cid not in seen:
                    collected.append(cid)
                    if len(collected) >= limit:
                        break

        # A leaf builds no leg. The children are stepped lowest bit first, each
        # handed a leg of its own: a copy of `collected` as it stands and a new
        # path. The keywords list is shared, as no node mutates it.
        if len(collected) < limit and (bits := _child_bits(r, value, query_value)):
            target, keywords, call = env["target"], env["keywords"], self.transport.call
            while bits:
                bit = bits & -bits
                bits ^= bit
                leg = {"op": "superset_visit", "target": target, "keywords": keywords,
                       "limit": limit, "collected": collected.copy(), "visited": []}
                try:
                    reply = call(tuple.__new__(NodeId, (r, value | bit)), leg)
                except RoutingFailure as exc:
                    exc.visited = visited + exc.visited  # the whole path walked
                    raise
                collected += reply["cids"]
                visited += reply["visited"]
                if len(collected) >= limit:
                    break
        return {"cids": collected[found_before:], "visited": visited}
