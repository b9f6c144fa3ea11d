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

A query's keywords are hashed to its target id once, where it enters.
The node whose id text is `target` trusts it: insert and pin pass that id
to `NodeState` as the keywords' bits, and every walk leg carries the root's
id, so no node hashes them again. Handlers trust the envelopes they are
given; on the wire, the decode in `network` is the one ownership check: it
checks that `target` has r bits and, where the op declares keywords, that
it is their id. So a hop and a walk visit read `target` with the cached
`topology._parse_id`, not `NodeId.parse`. An unknown op is refused by the
wire decode, or in process by `_handle` at the envelope's target. A client
reply is checked once, where `QueryResult.from_reply` reads it: one
C-level exact-`str` pass over each of its lists, its `hops` against the
length of its path, then `_parse_id` on each id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .errors import KeycubeError, RoutingFailure
from .node import NodeState, ObjectRecord
from .topology import (
    KeywordSet,
    NodeId,
    _covered_children,
    _parse_id,
    neighbors,
    next_hop,
    node_for_keywords,
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
_STR = frozenset({str})


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

    The callee must neither keep nor mutate the envelope it is given: a
    walk node passes one leg dict to all its children in turn. Both
    transports hand the callee its own copy: in process, of the dict and
    its lists, which are flat lists of `str`. So an envelope holds only
    JSON values where it is built. A caller neither keeps nor mutates a
    reply, so in process it is copied once, strictly, at the client.
    """

    def call(self, target: NodeId, envelope: dict) -> dict: ...


class LogicalNode:
    """Envelope handler bound to one node's state and a transport."""

    def __init__(self, state: NodeState, transport: Transport):
        self.state = state
        self.transport = transport
        self.id = state.id
        self.text = state.id.text  # computed once: every leg appends or compares it

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
        return {
            "id": self.text,
            "r": self.state.r,
            "neighbors": [n.text for n in sorted(neighbors(self.id))],
        }

    def _routed_envelope(self, op: str, keywords: KeywordSet, **extra) -> dict:
        target = node_for_keywords(keywords, self.state.r, self.state.hash_fn)
        env = {
            "op": op,
            "target": target.text,
            "keywords": list(keywords),
            "visited": [self.text],
        }
        env.update(extra)
        return env

    # -- envelope handling ---------------------------------------------------

    def handle_forward(self, envelope: dict) -> dict:
        """Entry point for a neighbor's envelope, one call per hop; walk legs skip `_handle`."""
        envelope["visited"].append(self.text)
        if envelope["op"] == "superset_visit":
            return self._superset_visit(envelope)
        return self._handle(envelope)

    def _handle(self, env: dict) -> dict:
        """Forward a routed envelope one greedy step, or answer it at its target.

        Reads the trusted `target` with `_parse_id`; refuses an unknown op at the target.
        """
        target = env["target"]
        if target != self.text:
            return self.transport.call(next_hop(self.id, _parse_id(target)), env)
        op = env["op"]
        visited = env["visited"]
        if op == "ping":
            return {"status": "ok", "node": self.text,
                    "hops": len(visited) - 1, "visited": visited}
        if op == "insert":
            self.state.insert(ObjectRecord(env["cid"], KeywordSet(env["keywords"])), self.id)
            return {"status": "stored", "node": self.text}
        if op == "remove":
            found = self.state.remove(ObjectRecord(env["cid"], KeywordSet(env["keywords"])))
            return {"status": "removed" if found else "not_found", "node": self.text}
        if op == "pin":
            cids = sorted(self.state.pin_lookup(KeywordSet(env["keywords"]), self.id))
            return {"cids": cids, "hops": len(visited) - 1, "visited": visited}
        if op == "superset":
            # This envelope roots the tree walk. The responsible node is already
            # on the visited list, so the root visit must not append it again.
            env["collected"] = []
            visit = self._superset_visit(env)
            visited = visit["visited"]
            return {"cids": visit["cids"], "hops": len(visited) - 1, "visited": visited}
        raise KeycubeError(f"unknown op {op!r}")

    def _superset_visit(self, env: dict) -> dict:
        """Visit one tree node: collect locally, then descend while short.

        `target` is the walk root, whose bits are the query's. `collected` is
        every cid found so far, so duplicates across nodes are dropped. The
        reply holds only what this subtree added: its new cids and its
        visited segment, which starts at `env["visited"]`.
        """
        query_bits = _parse_id(env["target"])
        limit = env["limit"]
        collected: list[str] = env["collected"]  # the handler's own copy: extended in place
        found_before = len(collected)
        visited = env["visited"]

        # Local cap `limit` is enough even with cross-node duplicate cids:
        # if this node alone holds >= limit matches, the union reaches the
        # quota here; otherwise nothing local was truncated. The set only
        # answers membership; the order is the list's.
        local = self.state.superset_lookup(env["keywords"], query_bits, limit)
        if local:
            seen = set(collected)
            for cid in local:
                if len(collected) >= limit:
                    break
                if cid not in seen:
                    seen.add(cid)
                    collected.append(cid)

        # `superset_lookup` has refused a node outside the region. A leaf builds no leg.
        if len(collected) < limit and (children := _covered_children(self.id, query_bits)):
            # One leg for all children; its `collected` grows as replies come back.
            leg = {"op": "superset_visit", "target": env["target"],
                   "keywords": env["keywords"], "limit": limit,
                   "collected": collected, "visited": []}
            call = self.transport.call
            for child in children:
                try:
                    reply = call(child, leg)
                except RoutingFailure as exc:
                    exc.visited = visited + exc.visited  # the whole path walked
                    raise
                collected += reply["cids"]
                visited += reply["visited"]
                if len(collected) >= limit:
                    break
        return {"cids": collected[found_before:], "visited": visited}
