"""Distributed query execution over the hypercube.

Requests travel as JSON-able envelopes. A routed envelope is forwarded
greedily toward its target id one bit-fix at a time; every forward costs
one hop and every handling node appends itself to the envelope's visited
list. Superset searches switch at the responsible node into a sequential
depth-first walk of the spanning tree over the bit-superset region,
stopping as soon as the result quota is met. Tree edges are counted once,
forward only; the walk-back is free. A tree edge carries back only its
subtree's new cids and visited segment, which the parent appends, so a
walk's work is linear in its hops.

A query's keywords are hashed to its target id once, at the node where it
enters. Every walk leg carries the root's id as `target`, so no tree node
hashes them again. Handlers trust the envelopes they are given: the wire
decode in `network` checks that `target` has r bits and, when the envelope
has keywords, that it is their id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .errors import KeycubeError, RoutingFailure
from .node import NodeState, ObjectRecord
from .topology import (
    KeywordSet,
    NodeId,
    neighbors,
    next_hop,
    node_for_keywords,
    superset_children,
)

ROUTED_OPS = ("ping", "insert", "remove", "pin", "superset")

# JSON type of each field an envelope must carry besides "op" and "visited".
_ROUTED_FIELDS = {"target": str, "keywords": list, "hops": int}
ENVELOPE_FIELDS: dict[str, dict[str, type]] = {
    "ping": {"target": str, "hops": int},
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
        visited = tuple(NodeId.parse(t) for t in reply.get("visited", ()))
        return cls(tuple(reply["cids"]), int(reply["hops"]), visited)


class Transport(Protocol):
    """Delivers an envelope to a node and returns that node's reply.

    The callee must neither keep nor mutate the envelope it is given: a
    walk node passes one leg dict to all its children in turn. Both
    transports hand the callee its own copy (a structural copy in process,
    the decoded JSON body on the wire).
    """

    def call(self, target: NodeId, envelope: dict) -> dict: ...


class LogicalNode:
    """Envelope handler bound to one node's state and a transport."""

    def __init__(self, state: NodeState, transport: Transport):
        self.state = state
        self.transport = transport

    @property
    def id(self) -> NodeId:
        return self.state.id

    # -- client entry points (what /insert, /pin, ... invoke) --------------

    def client_insert(self, cid: str, keywords: KeywordSet) -> dict:
        return self._handle(self._routed_envelope("insert", keywords, cid=cid))

    def client_remove(self, cid: str, keywords: KeywordSet) -> dict:
        return self._handle(self._routed_envelope("remove", keywords, cid=cid))

    def client_pin(self, keywords: KeywordSet) -> dict:
        return self._handle(self._routed_envelope("pin", keywords))

    def client_superset(self, keywords: KeywordSet, limit: int) -> dict:
        if limit < 1:
            raise ValueError(f"superset limit must be >= 1, got {limit}")
        return self._handle(self._routed_envelope("superset", keywords, limit=limit))

    def client_ping(self, target: NodeId) -> dict:
        env = {
            "op": "ping",
            "target": target.text,
            "hops": 0,
            "visited": [self.id.text],
        }
        return self._handle(env)

    def info(self) -> dict:
        return {
            "id": self.id.text,
            "r": self.state.r,
            "neighbors": [n.text for n in sorted(neighbors(self.id))],
        }

    def _routed_envelope(self, op: str, keywords: KeywordSet, **extra) -> dict:
        target = node_for_keywords(keywords, self.state.r, self.state.hash_fn)
        env = {
            "op": op,
            "target": target.text,
            "keywords": list(keywords),
            "hops": 0,
            "visited": [self.id.text],
        }
        env.update(extra)
        return env

    # -- envelope handling ---------------------------------------------------

    def handle_forward(self, envelope: dict) -> dict:
        """Entry point for envelopes arriving from a neighbor."""
        envelope["visited"].append(self.id.text)
        return self._handle(envelope)

    def _handle(self, env: dict) -> dict:
        op = env["op"]
        if op in ROUTED_OPS:
            target = NodeId.parse(env["target"])
            if self.id != target:
                env["hops"] += 1
                return self.transport.call(next_hop(self.id, target), env)
            return self._at_target(env)
        if op == "superset_visit":
            return self._superset_visit(env)
        raise KeycubeError(f"unknown op {op!r}")

    def _at_target(self, env: dict) -> dict:
        op = env["op"]
        if op == "ping":
            return {"status": "ok", "node": self.id.text,
                    "hops": env["hops"], "visited": env["visited"]}
        if op == "insert":
            self.state.insert(ObjectRecord(env["cid"], KeywordSet(env["keywords"])))
            return {"status": "stored", "node": self.id.text}
        if op == "remove":
            found = self.state.remove(ObjectRecord(env["cid"], KeywordSet(env["keywords"])))
            return {"status": "removed" if found else "not_found", "node": self.id.text}
        if op == "pin":
            cids = sorted(self.state.pin_lookup(KeywordSet(env["keywords"])))
            return {"cids": cids, "hops": env["hops"], "visited": env["visited"]}
        # superset: the responsible node roots the tree walk. It is already
        # on the visited list, so the root visit must not append it again.
        visit = self._superset_visit(
            {
                "target": env["target"],
                "keywords": env["keywords"],
                "limit": env["limit"],
                "collected": [],
                "visited": env["visited"],
            }
        )
        return {
            "cids": visit["cids"],
            "hops": env["hops"] + visit["hops"],
            "visited": visit["visited"],
        }

    def _superset_visit(self, env: dict) -> dict:
        """Visit one tree node: collect locally, then descend while short.

        `target` is the walk root, whose bits are the query's. `collected` is
        every cid found so far, so duplicates across nodes are dropped. The
        reply holds only what this subtree added: its new cids and its
        visited segment, which starts at `env["visited"]`.
        """
        query_bits = NodeId.parse(env["target"])
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

        hops = 0
        if len(collected) < limit:
            # One leg for all children; its `collected` grows as replies come back.
            leg = {"op": "superset_visit", "target": env["target"],
                   "keywords": env["keywords"], "limit": limit,
                   "collected": collected, "visited": []}
            for child in superset_children(self.id, query_bits):
                try:
                    reply = self.transport.call(child, leg)
                except RoutingFailure as exc:
                    exc.visited = visited + exc.visited  # the whole path walked
                    raise
                collected += reply["cids"]
                visited += reply["visited"]
                hops += 1 + reply["hops"]
                if len(collected) >= limit:
                    break
        return {"cids": collected[found_before:], "hops": hops, "visited": visited}
