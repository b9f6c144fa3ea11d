"""Complete 2**r-node networks over two interchangeable transports.

The in-process transport dispatches envelopes by direct call, handing the
callee a strict structural copy of every envelope and the caller one of
every reply. The copy accepts exactly JSON's types and shares no mutable
object, so both transports move the same payloads; results are identical
by construction, not by luck. The wire transport runs one small HTTP
server per logical node (one OS port each) speaking the JSON protocol
below, with node-to-node legs on POST /internal/forward.

Every node-to-node leg and every client call goes through `_exchange`:
one socket per request, sent in one write and read until the server
closes it. There is no pool yet. A server starts one handler thread per
connection, so a fresh connection per leg keeps every forward on a
thread the traced benchmark can see; pooled connections would keep
handler threads that started before tracing did.

Per node, wire mode:
    POST /insert            {"cid": str, "keywords": [str]}
    POST /remove            {"cid": str, "keywords": [str]}
    GET  /pin?keywords=a,b
    GET  /superset?keywords=a,b&limit=l
    POST /internal/forward  envelope
    GET  /info
"""

from __future__ import annotations

import json
import logging
import random
import re
import socket
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator
from urllib.parse import parse_qs, urlencode, urlparse, urlsplit

from .errors import (
    BadRequest,
    BootstrapError,
    InternalError,
    KeycubeError,
    RoutingFailure,
    error_payload,
    raise_from_payload,
)
from .node import NodeState, ObjectRecord
from .query import ENVELOPE_FIELDS, ROUTED_OPS, LogicalNode, QueryResult, Transport
from .topology import (
    HashFn,
    KeywordSet,
    NodeId,
    check_dimension,
    keyword_bit,
    node_for_keywords,
)

TRANSPORT_IN_PROCESS = "in-process"
TRANSPORT_WIRE = "wire"
WIRE_TIMEOUT = 20.0
MAX_BODY_BYTES = 1 << 20  # a larger Content-Length is refused before any body is read
_REPLY_HEAD = re.compile(  # a reply's status code, then its Content-Length
    rb"HTTP/\d\.\d (\d{3})\b.*\r\ncontent-length:[ \t]*(\d+)[ \t]*(?:\r\n|\Z)", re.I | re.S)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NetworkConfig:
    r: int
    transport: str = TRANSPORT_IN_PROCESS
    host: str = "127.0.0.1"
    base_port: int = 9000
    hash_fn: HashFn = keyword_bit

    def __post_init__(self):
        check_dimension(self.r)
        if self.transport not in (TRANSPORT_IN_PROCESS, TRANSPORT_WIRE):
            raise ValueError(f"unknown transport {self.transport!r}")

    def port_of(self, node: NodeId) -> int:
        return self.base_port + node.value

    def address_of(self, node: NodeId) -> str:
        """Wire address of a node; a pure function of host, base port and id value."""
        return f"http://{self.host}:{self.port_of(node)}"


class InProcessTransport:
    """Direct dispatch with strict structural copies (`_copy`) for wire parity."""

    def __init__(self, nodes: dict[NodeId, LogicalNode]):
        self.nodes = nodes

    def call(self, target: NodeId, envelope: dict) -> dict:
        return _copy(self.nodes[target].handle_forward(_copy(envelope)))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _copy(x):
    """What `json.loads(json.dumps(x))` gives, without the text in between.

    Scalars pass through; lists and tuples become new lists and dicts new
    dicts. Stricter than `json.dumps`: a dict key must be a `str`, not
    coerced to one, and only these exact types are accepted. Anything else
    raises `TypeError`. A dict's scalar and flat-list values, all an
    envelope or reply holds, are copied in the dict's own pass.
    """
    kind = type(x)
    if kind is dict:
        out = {}
        for key, value in x.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            kind = type(value)
            if kind in _SCALARS:
                out[key] = value
            elif (kind is list or kind is tuple) and _SCALARS.issuperset(map(type, value)):
                out[key] = list(value)
            else:
                out[key] = _copy(value)
        return out
    if kind is list or kind is tuple:
        if _SCALARS.issuperset(map(type, x)):  # flat: one C-level copy
            return list(x)
        return [v if type(v) in _SCALARS else _copy(v) for v in x]
    if kind in _SCALARS:
        return x
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


class WireTransport:
    """Node-to-node legs as POST /internal/forward to the neighbor's port.

    Each leg opens its own socket and closes it after the reply (see
    `_exchange`); nothing is kept between legs.
    """

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg

    def call(self, target: NodeId, envelope: dict) -> dict:
        return _exchange(self.cfg.host, self.cfg.port_of(target), "POST",
                         "/internal/forward", envelope, envelope.get("visited"))


def _exchange(host: str, port: int, method: str, path: str, body: dict | None = None,
              visited: list[str] | None = None) -> dict:
    """Send one request on a fresh socket and return the reply's JSON object.

    The request goes out in one send with `Connection: close`, so the
    reply ends where the server closes (RFC 9112 section 9.6); a body is
    `json.dumps` with NaN refused, in UTF-8. A reply other than 200 is
    re-raised as the error it carries. A failed connection, or a reply
    that is not HTTP, not as long as its Content-Length or not a JSON
    object, raises `RoutingFailure` with `visited`, the path walked so far.
    """
    where = f"{method} {path} to {host}:{port}"
    request = f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
    data = b"" if body is None else json.dumps(body, allow_nan=False).encode("utf-8")
    if body is not None:
        request += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    try:
        with socket.create_connection((host, port), timeout=WIRE_TIMEOUT) as sock:
            sock.sendall((request + "Connection: close\r\n\r\n").encode("ascii") + data)
            reply = b"".join(iter(lambda: sock.recv(65536), b""))  # until the server closes
    except OSError as exc:
        raise RoutingFailure(f"{where} failed: {exc}", visited) from exc
    head, _, raw = reply.partition(b"\r\n\r\n")
    framing = _REPLY_HEAD.match(head)
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError):
        payload = None
    if framing is None or int(framing[2]) != len(raw) or type(payload) is not dict:
        raise RoutingFailure(f"{where}: not a whole HTTP reply holding a JSON object", visited)
    if framing[1] != b"200":
        raise_from_payload(payload)
    return payload


class _NodeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    logical_node: LogicalNode


class _NodeRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _raw_body(self) -> bytes:
        text = self.headers.get("Content-Length", "0")
        try:
            length = int(text)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True  # where the body ends is unknown
            raise BadRequest(f"Content-Length must be a non-negative integer, got {text!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body is left unread
            raise BadRequest(f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b"{}"

    def _run(self, fn) -> None:
        try:
            self._send(200, fn())
        except RoutingFailure as exc:
            self._send(502, error_payload(exc))
        except (KeycubeError, ValueError) as exc:
            self._send(400, error_payload(exc))
        except Exception as exc:  # a bug: answer it rather than drop the connection
            logger.exception("node %s failed on %s", self.server.logical_node.id, self.path)
            self._send(500, error_payload(InternalError(f"{type(exc).__name__}: {exc}")))

    def do_GET(self):
        node = self.server.logical_node
        url = urlparse(self.path)
        params = parse_qs(url.query)
        if url.path == "/info":
            self._run(node.info)
        elif url.path == "/pin":
            keywords = _split_keywords(params.get("keywords", [""])[0])
            self._run(lambda: node.client_pin(KeywordSet(keywords)))
        elif url.path == "/superset":
            keywords = _split_keywords(params.get("keywords", [""])[0])
            limit = params.get("limit", ["10"])[0]
            self._run(lambda: node.client_superset(KeywordSet(keywords), _limit(limit)))
        else:
            self._send(404, {"error": "NotFound", "detail": self.path})

    def do_POST(self):
        node = self.server.logical_node
        path = urlparse(self.path).path
        if path == "/insert":
            self._run(lambda: node.client_insert(*_record(self._raw_body())))
        elif path == "/remove":
            self._run(lambda: node.client_remove(*_record(self._raw_body())))
        elif path == "/internal/forward":
            self._run(lambda: node.handle_forward(_envelope(self._raw_body(), node.state)))
        else:
            self.close_connection = True  # its body is left unread
            self._send(404, {"error": "NotFound", "detail": self.path})


# -- request decoding: every malformed request becomes a BadRequest (400) ----

def _json_object(raw: bytes) -> dict:
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc
    except RecursionError:
        raise BadRequest("body is nested too deeply") from None
    if not isinstance(body, dict):
        raise BadRequest(f"body must be a JSON object, got {type(body).__name__}")
    return body


def _check_fields(body: dict, fields: dict[str, type]) -> dict:
    for key, kind in fields.items():
        value = body.get(key)
        # No field is a bool, and a JSON `true` must not pass as an int.
        if type(value) is bool or not isinstance(value, kind):
            raise BadRequest(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return body


def _record(raw: bytes) -> tuple[str, KeywordSet]:
    body = _check_fields(_json_object(raw), {"cid": str, "keywords": list})
    return body["cid"], KeywordSet(body["keywords"])


_STR = frozenset({str})


def _envelope(raw: bytes, state: NodeState) -> dict:
    """Decode an envelope, checking its op, fields, target and budgets so handlers can trust it.

    An unknown op or a field the op does not declare is refused. Where the op
    declares `keywords`, `target` must be their id: the only ownership check.

    `visited` and `collected` hold strings only. `visited` is the path and
    the only record of the hop count: greedy routing fixes one bit per hop
    and each node on the way appends itself, so a routed envelope arrives
    with at most r entries. A walk leg's `collected` never holds more than
    its `limit`.
    """
    env = _check_fields(_json_object(raw), {"op": str, "visited": list})
    op = env["op"]
    fields = ENVELOPE_FIELDS.get(op)
    if fields is None:
        raise BadRequest(f"unknown op {op!r}")
    _check_fields(env, fields)
    undeclared = env.keys() - fields.keys() - {"op", "visited"}
    if undeclared:
        raise BadRequest(f"op {op!r} takes no field {min(undeclared)!r}")
    for key in ("visited", "collected") if op == "superset_visit" else ("visited",):
        if not _STR.issuperset(map(type, env[key])):
            raise BadRequest(f"every entry of {key!r} must be a string")
    if op in ROUTED_OPS and len(env["visited"]) > state.r:
        raise BadRequest(f"{len(env['visited'])} visited entries exceed r={state.r}")
    if op == "superset_visit" and len(env["collected"]) > env["limit"]:
        raise BadRequest(f"{len(env['collected'])} collected cids exceed limit {env['limit']}")
    try:  # every op declares a target
        target = NodeId.parse(env["target"])
    except ValueError as exc:
        raise BadRequest(f"bad target: {exc}") from None
    if target.r != state.r:
        raise BadRequest(f"target {target.text} does not have r={state.r} bits")
    if "keywords" in fields and target != node_for_keywords(
            env["keywords"], state.r, state.hash_fn):
        raise BadRequest(f"target {target.text} is not the id of {env['keywords']!r}")
    return env


def _limit(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise BadRequest(f"limit must be an integer, got {raw!r}") from None


def _split_keywords(raw: str) -> list[str]:
    """The parts of a comma-joined list; an empty part is kept, so `KeywordSet` refuses it."""
    return raw.split(",") if raw else []


def start_node_server(cfg: NetworkConfig, node: LogicalNode) -> _NodeHTTPServer:
    """Bind and serve one logical node on its wire address."""
    port = cfg.port_of(node.id)
    try:
        server = _NodeHTTPServer((cfg.host, port), _NodeRequestHandler)
    except OSError as exc:
        raise BootstrapError(f"node {node.id.text} cannot bind {cfg.host}:{port}: {exc}") from exc
    server.logical_node = node
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name=f"keycube-node-{node.id.text}")
    thread.start()
    return server


def stop_servers(servers: list[_NodeHTTPServer]) -> None:
    """Shut all servers down in parallel (each waits out its poll interval), then close them."""
    stoppers = [threading.Thread(target=server.shutdown) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join()
    for server in servers:
        server.server_close()


def make_logical_node(cfg: NetworkConfig, node_id: NodeId,
                      transport: Transport) -> LogicalNode:
    """A logical node for `cfg` that forwards through `transport`; starts no server."""
    return LogicalNode(NodeState(node_id, cfg.hash_fn), transport)


class Network:
    """Handle over all 2**r logical nodes plus the client-side API.

    In wire mode the client API goes through the nodes' public HTTP
    endpoints, so a query observed here exercises the same code path an
    external client would.
    """

    def __init__(self, cfg: NetworkConfig, nodes: dict[NodeId, LogicalNode],
                 servers: list[_NodeHTTPServer] | None = None):
        self.cfg = cfg
        self.nodes = nodes
        self.servers = servers or []

    # -- client API ---------------------------------------------------------

    def insert(self, cid: str, keywords, start: NodeId | None = None) -> dict:
        keywords = _as_keywords(keywords)
        start = start or self._default_start()
        if self.cfg.transport == TRANSPORT_WIRE:
            return wire_insert(self.cfg.address_of(start), cid, keywords)
        return self.nodes[start].client_insert(cid, keywords)

    def remove(self, cid: str, keywords, start: NodeId | None = None) -> dict:
        keywords = _as_keywords(keywords)
        start = start or self._default_start()
        if self.cfg.transport == TRANSPORT_WIRE:
            return wire_remove(self.cfg.address_of(start), cid, keywords)
        return self.nodes[start].client_remove(cid, keywords)

    def pin_search(self, start: NodeId, keywords) -> QueryResult:
        keywords = _as_keywords(keywords)
        if self.cfg.transport == TRANSPORT_WIRE:
            reply = wire_pin(self.cfg.address_of(start), keywords)
        else:
            reply = self.nodes[start].client_pin(keywords)
        return QueryResult.from_reply(reply)

    def superset_search(self, start: NodeId, keywords, limit: int) -> QueryResult:
        keywords = _as_keywords(keywords)
        if self.cfg.transport == TRANSPORT_WIRE:
            reply = wire_superset(self.cfg.address_of(start), keywords, limit)
        else:
            reply = self.nodes[start].client_superset(keywords, limit)
        return QueryResult.from_reply(reply)

    def route(self, start: NodeId, target: NodeId) -> QueryResult:
        """Deliver a ping from start to target; measures pure routing cost."""
        reply = self.nodes[start].client_ping(target)
        return QueryResult((), reply["hops"],
                           tuple(NodeId.parse(t) for t in reply["visited"]))

    # -- introspection --------------------------------------------------------

    @property
    def node_ids(self) -> list[NodeId]:
        return sorted(self.nodes)

    def scan_records(self) -> Iterator[tuple[NodeId, ObjectRecord]]:
        """Every stored record with its owner; the brute-force oracle's view."""
        for node_id in self.node_ids:
            for record in self.nodes[node_id].state.records():
                yield node_id, record

    def _default_start(self) -> NodeId:
        return NodeId(self.cfg.r, 0)

    def close(self) -> None:
        stop_servers(self.servers)
        self.servers = []

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _as_keywords(keywords) -> KeywordSet:
    return keywords if isinstance(keywords, KeywordSet) else KeywordSet(keywords)


def build_network(cfg: NetworkConfig) -> Network:
    """Bring up all 2**r nodes: in-process over one shared transport, or each with its server."""
    wire = cfg.transport == TRANSPORT_WIRE
    nodes: dict[NodeId, LogicalNode] = {}
    in_process = InProcessTransport(nodes)
    for value in range(1 << cfg.r):
        node_id = NodeId(cfg.r, value)
        transport = WireTransport(cfg) if wire else in_process
        nodes[node_id] = make_logical_node(cfg, node_id, transport)
    if not wire:
        return Network(cfg, nodes)

    servers: list[_NodeHTTPServer] = []
    try:
        for node in nodes.values():
            servers.append(start_node_server(cfg, node))
    except BootstrapError:
        stop_servers(servers)
        raise
    return Network(cfg, nodes, servers)


# -- wire client helpers -----------------------------------------------------

def wire_info(address: str) -> dict:
    return _client_call(address, "GET", "/info")


def wire_insert(address: str, cid: str, keywords: KeywordSet) -> dict:
    return _client_call(address, "POST", "/insert", {"cid": cid, "keywords": list(keywords)})


def wire_remove(address: str, cid: str, keywords: KeywordSet) -> dict:
    return _client_call(address, "POST", "/remove", {"cid": cid, "keywords": list(keywords)})


def wire_pin(address: str, keywords: KeywordSet) -> dict:
    return _client_call(address, "GET", "/pin?" + urlencode({"keywords": ",".join(keywords)}))


def wire_superset(address: str, keywords: KeywordSet, limit: int) -> dict:
    query = urlencode({"keywords": ",".join(keywords), "limit": str(limit)})
    return _client_call(address, "GET", "/superset?" + query)


def _client_call(address: str, method: str, path: str, body: dict | None = None) -> dict:
    """`_exchange` with the node at `address`, a base URL such as `http://127.0.0.1:9000`."""
    try:
        url = urlsplit(address)
        host, port = url.hostname, url.port or 80
    except ValueError as exc:  # a port that is not a number or out of range
        raise RoutingFailure(f"bad node address {address!r}: {exc}") from None
    if url.scheme != "http" or not host or not host.isascii():
        raise RoutingFailure(f"bad node address {address!r}: expected http://host:port")
    return _exchange(host, port, method, path, body)


# -- population ----------------------------------------------------------------

def experiment_keywords(r: int, per_position: int = 4,
                        hash_fn: HashFn = keyword_bit) -> list[str]:
    """Synthetic keyword universe of per_position * r distinct strings.

    Candidates kw0000, kw0001, ... are screened by their hashed position
    until every position owns exactly `per_position` words, so random
    keyword sets can reach the whole id space.
    """
    check_dimension(r)
    buckets: dict[int, list[str]] = {i: [] for i in range(r)}
    filled = 0
    i = 0
    while filled < r:
        word = f"kw{i:04d}"
        i += 1
        bucket = buckets[hash_fn(word, r)]
        if len(bucket) < per_position:
            bucket.append(word)
            if len(bucket) == per_position:
                filled += 1
    return sorted(word for bucket in buckets.values() for word in bucket)


def random_keyset(rng: random.Random, universe: list[str], r: int) -> KeywordSet:
    """A set size drawn uniformly from [1, r], then that many distinct words of `universe`."""
    return KeywordSet(rng.sample(universe, rng.randint(1, r)))


def populate(net: Network, count: int, seed: int) -> list[ObjectRecord]:
    """Insert `count` objects with `random_keyset`s from the experiment universe.

    Each is routed from a random node. A pure function of the seed: same
    seed, same placement.
    """
    rng = random.Random(seed)
    r = net.cfg.r
    universe = experiment_keywords(r, hash_fn=net.cfg.hash_fn)
    inserted = []
    for i in range(count):
        keywords = random_keyset(rng, universe, r)
        start = NodeId(r, rng.randrange(1 << r))
        record = ObjectRecord(f"obj-{i:05d}", keywords)
        net.insert(record.cid, record.keywords, start=start)
        inserted.append(record)
    return inserted
