"""Complete 2**r-node networks over two interchangeable transports.

The in-process transport dispatches envelopes by direct call. The callee
gets a strict structural copy of each envelope, and `Network` copies each
reply once, at the client. The copy accepts exactly JSON's types and shares
no mutable object, so both transports move the same payloads; results are
identical by construction, not by luck. The wire transport gives every
logical node an HTTP listener on its own OS port, and one thread accepts for
all of a network's listeners; legs between nodes are POST /internal/forward.
The two halves of the format sit side by side: `_ROUTES` turns each request
into a `LogicalNode` call, and `NodeClient`, the client half, sends each
such call as that request. A wire `Network`, and the CLI, call a node
through its `NodeClient` with the method names they would call in process.

Every node-to-node leg and every client call goes through `_exchange`,
which keeps idle sockets in one pool per (host, port), sends each request
in one write and frames each reply by its Content-Length. The server side
mirrors it with a plain listener per node and a connection that owns its
read buffer: `_read_head` reads each request head without `http.client`'s
header parser, keeping only the fields the server reads, every request's
body is read once, one table (`_ROUTES`) picks the node call by method
and path, and each reply goes out in one write. A head it refuses gets a
JSON `BadRequest` reply. Each request that arrives is served on a thread
started for it; between requests a connection waits, holding no thread,
in the accept loop, which closes it once it has been idle for
`WIRE_TIMEOUT`.

Per node, wire mode:
    POST /insert            {"cid": str, "keywords": [str]}
    POST /remove            {"cid": str, "keywords": [str]}
    GET  /pin?keywords=a,b
    GET  /superset?keywords=a,b&limit=l
    POST /internal/forward  envelope
    GET  /info
"""

from __future__ import annotations

import atexit
import json
import logging
import random
import re
import select
import selectors
import socket
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable, Container, Iterable, Iterator
from urllib.parse import parse_qs, urlencode, urlsplit

from .errors import (
    BadRequest,
    BootstrapError,
    DimensionMismatch,
    InternalError,
    KeycubeError,
    RoutingFailure,
    error_payload,
    raise_from_payload,
)
from .node import NodeState, ObjectRecord
from .query import _STR, ENVELOPE_FIELDS, LogicalNode, QueryResult
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
KEYWORDS_PER_POSITION = 4  # words of the experiment universe at each bit position
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
        last = self.base_port + (1 << self.r) - 1
        if self.transport == TRANSPORT_WIRE and not (1 <= self.base_port and last <= 65535):
            raise ValueError(f"wire ports {self.base_port}..{last} are not all in 1..65535")

    def port_of(self, node: NodeId) -> int:
        return self.base_port + node.value

    def address_of(self, node: NodeId) -> str:
        """Wire address of a node; a pure function of host, base port and id value."""
        return f"http://{self.host}:{self.port_of(node)}"


class InProcessTransport:
    """Direct dispatch: a strict copy (`_copy`) of the envelope in, the callee's own reply out."""

    def __init__(self, nodes: dict[NodeId, LogicalNode]):
        self.nodes = nodes

    def call(self, target: NodeId, envelope: dict) -> dict:
        return self.nodes[target].handle_forward(_copy(envelope))


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

    Each leg takes an idle socket from `_exchange`'s pool, or opens one,
    and leaves it there after a whole reply.
    """

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg

    def call(self, target: NodeId, envelope: dict) -> dict:
        return _exchange(self.cfg.host, self.cfg.port_of(target), "POST",
                         "/internal/forward", envelope, envelope.get("visited"))


_POOL: dict[tuple[str, int], list[socket.socket]] = {}  # idle client sockets by (host, port)
_POOL_LOCK = threading.Lock()
_POOL_CAP = 4  # idle sockets kept per (host, port); one more is closed
_CLOSES = re.compile(rb"\r\nconnection:[ \t]*close[ \t]*(?:\r\n|\Z)", re.I)


def _idle_socket(key: tuple[str, int]) -> socket.socket | None:
    """A pooled socket to `key`, or None. One that is readable, because the
    node closed it or wrote past a reply, is closed and the next one tried."""
    while True:
        with _POOL_LOCK:
            idle = _POOL.get(key)
            if not idle:
                return None
            sock = idle.pop()
        readable = select.poll()
        readable.register(sock, select.POLLIN)
        if not readable.poll(0):
            return sock
        sock.close()


def _pool(key: tuple[str, int], sock: socket.socket) -> None:
    with _POOL_LOCK:
        idle = _POOL.setdefault(key, [])
        if len(idle) < _POOL_CAP:
            idle.append(sock)
            return
    sock.close()


def _close_pooled(ports: Container[int]) -> None:
    """Close every idle socket to one of `ports`, whatever its host."""
    with _POOL_LOCK:
        dropped = [_POOL.pop(key) for key in [key for key in _POOL if key[1] in ports]]
    for idle in dropped:
        for sock in idle:
            sock.close()


atexit.register(_close_pooled, range(1 << 16))  # those no accept loop's end reached


def _read_reply(sock: socket.socket, data: bytes) -> bytes:
    """Read on from `data` until one reply is whole by its Content-Length, or the node closes."""
    reply = bytearray(data)
    while True:
        end = reply.find(b"\r\n\r\n")
        if end >= 0:
            framing = _REPLY_HEAD.match(reply, 0, end)
            if framing is None or len(reply) >= end + 4 + int(framing[2]):
                return bytes(reply)
        chunk = sock.recv(65536)
        if not chunk:
            return bytes(reply)
        reply += chunk


def _exchange(host: str, port: int, method: str, path: str, body: dict | None = None,
              visited: list[str] | None = None) -> dict:
    """Send one request and return the reply's JSON object.

    The request goes out in one send on a pooled socket, or on a new one
    with `TCP_NODELAY`; a body is `json.dumps` with NaN refused, in UTF-8.
    A pooled socket that the node closed or reset before the reply's first
    byte is replaced by a new one, once; nothing else is retried, not even
    a timeout (the node may be working on the request). The reply ends
    where its Content-Length says, and the socket goes back to the pool
    (RFC 9112 section 9.3) only if no byte came past it and the reply did
    not say `Connection: close`. A reply other than 200 is re-raised as
    the error it carries. A failed connection, or a reply that is not
    HTTP, not as long as its Content-Length or not a JSON object, raises
    `RoutingFailure` with `visited`, the path walked so far.
    """
    where = f"{method} {path} to {host}:{port}"
    request = f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
    data = b"" if body is None else json.dumps(body, allow_nan=False).encode("utf-8")
    if body is not None:
        request += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    request = (request + "\r\n").encode("ascii") + data
    key = (host, port)
    sock, reply, reusable = _idle_socket(key), b"", False
    try:
        if sock is not None:
            try:
                sock.sendall(request)
                reply = sock.recv(65536)
            except ConnectionError:
                pass
            if not reply:  # closed under the pool: one try on a new socket
                sock.close()
                sock = None
        if sock is None:
            sock = socket.create_connection(key, timeout=WIRE_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(request)
        reply = _read_reply(sock, reply)
        head, _, raw = reply.partition(b"\r\n\r\n")
        framing = _REPLY_HEAD.match(head)
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError):
            payload = None
        if framing is None or int(framing[2]) != len(raw) or type(payload) is not dict:
            raise RoutingFailure(f"{where}: not a whole HTTP reply holding a JSON object",
                                 visited)
        reusable = _CLOSES.search(head) is None
    except OSError as exc:
        raise RoutingFailure(f"{where} failed: {exc}", visited) from exc
    finally:
        if reusable:
            _pool(key, sock)
        elif sock is not None:
            sock.close()
    if framing[1] != b"200":
        raise_from_payload(payload)
    return payload


class _NodeServer:
    """One node's listener, and `hand_back`, the way to its accept loop from any thread."""

    timeout = WIRE_TIMEOUT  # seconds a connection may stall in a request or sit parked
    closed = False  # set by the first `shutdown`: from then on no request is served

    def __init__(self, address: tuple[str, int], node: LogicalNode,
                 hand_back: Callable[[_Connection | _NodeServer], None]):
        self.socket = socket.create_server(address)
        self.logical_node = node
        self.hand_back = hand_back
        self._closing = threading.Lock()

    def shutdown(self) -> None:
        """Stop serving for this node at once: close the listener, and have the
        accept loop close this node's parked connections. Idempotent, from any thread."""
        with self._closing:
            if self.closed:
                return
            self.closed = True
        self.hand_back(self)  # before the close, so the loop never sees its fd reused
        self.socket.close()


class _BadHead(Exception):
    """A request head the server refuses; `status` is the HTTP status of the reply."""

    def __init__(self, status: HTTPStatus, detail: str):
        super().__init__(detail)
        self.status = status


# The client went silent for the server's `timeout`, or went away.
_CLIENT_GONE = (TimeoutError, ConnectionError)
_MAX_LINE = 65536  # bytes in the request line or in one header line, as in http.server
_MAX_HEADERS = 100  # header lines in one head, as in http.client
_HEAD_FIELDS = frozenset({"content-length", "connection", "expect", "transfer-encoding"})


def _read_head(conn: _Connection) -> tuple[str, str, str, dict[str, str]] | None:
    """Read one request head: method, path, version and the header fields the server reads.

    Field names are lower-cased and values stripped; only `_HEAD_FIELDS` are
    kept, the first of each. Returns None at the end of the stream. A head
    that is malformed, too large, or asks for what the server does not
    speak (a method but GET and POST, a version but HTTP/1.0 and 1.1, any
    transfer coding) raises `_BadHead`, as do two differing Content-Lengths
    (RFC 9112 section 6.3).
    """
    line = conn.readline(_MAX_LINE + 1)
    if not line:
        return None
    if len(line) > _MAX_LINE:
        raise _BadHead(HTTPStatus.REQUEST_URI_TOO_LONG, f"request line over {_MAX_LINE} bytes")
    words = line.decode("latin-1").split()
    if len(words) != 3:
        raise _BadHead(HTTPStatus.BAD_REQUEST, f"bad request line {line[:100]!r}")
    method, path, version = words
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        status = (HTTPStatus.HTTP_VERSION_NOT_SUPPORTED if version.startswith("HTTP/")
                  else HTTPStatus.BAD_REQUEST)
        raise _BadHead(status, f"unsupported version {version[:20]!r}")
    if method not in ("GET", "POST"):
        raise _BadHead(HTTPStatus.NOT_IMPLEMENTED, f"unsupported method {method[:20]!r}")
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = conn.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(line) > _MAX_LINE:
            raise _BadHead(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                           f"header line over {_MAX_LINE} bytes")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or name.split() != [name]:  # no name, or whitespace in or around it
            raise _BadHead(HTTPStatus.BAD_REQUEST, f"bad header line {line[:100]!r}")
        name = name.lower()
        if name in _HEAD_FIELDS:
            value = value.strip()
            first = fields.setdefault(name, value)
            if name == "content-length" and first != value:
                raise _BadHead(HTTPStatus.BAD_REQUEST, "two Content-Length fields that differ")
    else:
        raise _BadHead(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                       f"more than {_MAX_HEADERS} header lines")
    if "transfer-encoding" in fields:
        raise _BadHead(HTTPStatus.NOT_IMPLEMENTED,
                       "no transfer coding is supported; send a Content-Length")
    return method, path, version, fields


_STATUS_LINES = {status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                 for status in HTTPStatus}
_date = (0, "")  # (second, its HTTP-date), one tuple so that no thread sees half an update
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _http_date() -> str:
    """The current second as an HTTP-date, the bytes of `email.utils.formatdate(usegmt=True)`."""
    global _date
    second, text = _date
    now = int(time.time())
    if now != second:
        t = time.gmtime(now)
        text = "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
            _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year,
            t.tm_hour, t.tm_min, t.tm_sec)
        _date = (now, text)
    return text


class _Connection:
    """One accepted socket of a node server, with the bytes read from it but not yet used.

    `handle` answers its requests, each with JSON, on a thread started when
    the connection was accepted or, parked in the accept loop, turned
    readable. It serves one request, then any a client pipelined that are
    already in `buffer`, and then hands the connection back to be parked
    again, or closes it.

    Each request takes the same steps. `_read_head` reads its head, and a
    head it refuses gets a `BadRequest` reply with the status it names,
    then the connection closes; once the server has closed, a head gets no
    reply. The connection rules come next: HTTP/1.1 stays open unless the
    client sends `Connection: close`, HTTP/1.0 closes unless it sends
    `keep-alive`, and `Expect: 100-continue` gets `100 Continue`. Then the
    body is read, whatever the method or path, so the next request starts
    where this one ends. Last, `_ROUTES` picks the node call by method and
    path, and its result or error is the one reply, with `Connection:
    close` if the connection closes after it. A connection stalled for the
    server's `timeout` seconds, or reset by the client, is closed unanswered
    and nothing is logged.
    """

    def __init__(self, sock: socket.socket, server: _NodeServer):
        sock.settimeout(server.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.server = server
        self.buffer = bytearray()

    def close(self) -> None:
        """Send the end of the stream, then close (RFC 9112 section 9.6)."""
        with suppress(OSError):  # the client has gone already
            self.sock.shutdown(socket.SHUT_WR)
        self.sock.close()

    def readline(self, limit: int) -> bytes:
        """The bytes through the next LF, at most `limit`; fewer and no LF only at the end."""
        scanned = 0
        while (end := self.buffer.find(b"\n", scanned, limit)) < 0 and len(self.buffer) < limit:
            scanned = len(self.buffer)
            if not self._fill():
                break
        return self.read(limit if end < 0 else end + 1)

    def read(self, size: int) -> bytes:
        """The next `size` bytes; fewer only at the end of the stream."""
        while len(self.buffer) < size and self._fill():
            pass
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data

    def _fill(self) -> bool:
        """Read what has arrived into `buffer`; False at the end of the stream."""
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def handle(self) -> None:
        try:
            self._serve_one()
            while not self.close_connection and self.buffer:
                self._serve_one()
        except Exception as exc:  # lose this connection, not the node
            if not isinstance(exc, _CLIENT_GONE):  # a bug, not a client that went
                logger.exception("node %s failed on a connection", self.server.logical_node.id)
            self.close_connection = True
        if self.close_connection:
            self.close()
        else:
            self.server.hand_back(self)

    def _serve_one(self) -> None:
        self.close_connection = True
        try:
            head = _read_head(self)
        except _BadHead as exc:
            self._send(exc.status, error_payload(BadRequest(str(exc))))
            return
        if head is None or self.server.closed:
            return
        method, target, version, fields = head
        connection = fields.get("connection", "").lower()
        if version == "HTTP/1.1":
            self.close_connection = connection == "close"
            if fields.get("expect", "").lower() == "100-continue":
                self.sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        else:
            self.close_connection = connection != "keep-alive"
        # A leading "//" would make urlsplit read a host; fold it into one "/".
        target = "/" + target.lstrip("/") if target.startswith("//") else target
        node = self.server.logical_node
        try:
            raw = self._raw_body(fields)
            url = urlsplit(target)
            route = _ROUTES.get((method, url.path))
            if route is None:
                status, payload = 404, {"error": "NotFound", "detail": target}
            else:
                status, payload = 200, route(node, parse_qs(url.query), raw)
        except _CLIENT_GONE:
            raise  # from this connection's own socket: there is no one to answer
        except RoutingFailure as exc:
            status, payload = 502, error_payload(exc)
        except (KeycubeError, ValueError) as exc:
            status, payload = 400, error_payload(exc)
        except Exception as exc:  # a bug: answer it rather than drop the connection
            logger.exception("node %s failed on %s", node.id, target)
            status, payload = 500, error_payload(InternalError(f"{type(exc).__name__}: {exc}"))
        self._send(status, payload)

    def _send(self, status: int, payload: dict) -> None:
        """Write the whole reply, head and JSON body, in one send."""
        body = json.dumps(payload).encode("utf-8")
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (f"{_STATUS_LINES[status]}Date: {_http_date()}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{close}\r\n")
        self.sock.sendall(head.encode("latin-1") + body)

    def _raw_body(self, fields: dict[str, str]) -> bytes:
        text = fields.get("content-length", "0")
        if not (text.isascii() and text.isdigit()):  # 1*DIGIT (RFC 9110 section 8.6)
            self.close_connection = True  # where the body ends is unknown
            raise BadRequest(f"Content-Length must be a non-negative integer, got {text!r}")
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body is left unread
            raise BadRequest(f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
        return self.read(length) if length else b"{}"


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
    if op != "superset_visit" and len(env["visited"]) > state.r:
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


def _keywords(params: dict[str, list[str]]) -> KeywordSet:
    """The comma-joined `keywords` parameter; an empty part is kept, so `KeywordSet` refuses it."""
    raw = params.get("keywords", [""])[0]
    return KeywordSet(raw.split(",") if raw else [])


# The node call for each (method, path), given the query parameters and the raw body.
_ROUTES = {
    ("GET", "/info"): lambda node, params, raw: node.info(),
    ("GET", "/pin"): lambda node, params, raw: node.client_pin(_keywords(params)),
    ("GET", "/superset"): lambda node, params, raw: node.client_superset(
        _keywords(params), _limit(params.get("limit", ["10"])[0])),
    ("POST", "/insert"): lambda node, params, raw: node.client_insert(*_record(raw)),
    ("POST", "/remove"): lambda node, params, raw: node.client_remove(*_record(raw)),
    ("POST", "/internal/forward"):
        lambda node, params, raw: node.handle_forward(_envelope(raw, node.state)),
}


class NodeClient:
    """The client half of the wire format, for the node at `address`.

    `address` is a base URL such as `http://127.0.0.1:9000`. Each method
    sends the request that `_ROUTES` turns back into the `LogicalNode`
    method of the same name, and returns the reply's JSON object. A bad
    address raises `RoutingFailure` when a request is to be sent.
    """

    def __init__(self, address: str):
        self.address = address

    def info(self) -> dict:
        return self._send("GET", "/info")

    def client_insert(self, cid: str, keywords: KeywordSet) -> dict:
        return self._send("POST", "/insert", {"cid": cid, "keywords": list(keywords)})

    def client_remove(self, cid: str, keywords: KeywordSet) -> dict:
        return self._send("POST", "/remove", {"cid": cid, "keywords": list(keywords)})

    def client_pin(self, keywords: KeywordSet) -> dict:
        return self._send("GET", "/pin?" + urlencode({"keywords": ",".join(keywords)}))

    def client_superset(self, keywords: KeywordSet, limit: int) -> dict:
        if type(limit) is not int:  # its text would be read as some other limit, or refused
            raise ValueError(f"superset limit must be an integer, got {limit!r}")
        query = urlencode({"keywords": ",".join(keywords), "limit": str(limit)})
        return self._send("GET", "/superset?" + query)

    def _send(self, method: str, path: str, body: dict | None = None) -> dict:
        try:
            url = urlsplit(self.address)
            host, port = url.hostname, url.port
        except ValueError as exc:  # a port that is not a number or out of range
            raise RoutingFailure(f"bad node address {self.address!r}: {exc}") from None
        if url.scheme != "http" or not host or not host.isascii() or port == 0:
            raise RoutingFailure(f"bad node address {self.address!r}: expected http://host:port")
        return _exchange(host, 80 if port is None else port, method, path, body)


def start_node_server(cfg: NetworkConfig, nodes: Iterable[LogicalNode]
                      ) -> tuple[list[_NodeServer], Callable[[], None]]:
    """Bind every node's wire address, then accept for them all on one thread.

    A failed bind closes the listeners bound so far and raises
    `BootstrapError` before the thread starts. The thread, the only one
    that touches its selector, watches the listeners, the read end of a
    wake-up `socketpair` and the parked connections. A connection accepted
    on a listener (an accept racing a close fails with an `OSError` that is
    ignored) or parked and turned readable goes to `serve`, the one place a
    handler thread starts; if none can, the connection is closed and the
    loop goes on. A connection parked for its server's `timeout` is closed.
    Other threads queue to the loop through `hand_back`, with a wake-up
    byte: a connection to park, or a server whose `shutdown` has the loop
    drop its listener and close its parked connections. Returns the servers
    in `nodes` order and `stop_servers`, which closes the wake-up socket and
    joins the loop. As it ends, the loop closes the pooled client sockets
    to its ports, then what is still parked, then every listener. So no
    handler thread starts to read the end of a stream the pool closed.
    """
    handed: deque[_Connection | _NodeServer] = deque()
    lock = threading.Lock()  # orders each hand-back against the loop's end
    running = True

    def hand_back(item: _Connection | _NodeServer) -> None:
        with lock:
            if running:
                handed.append(item)
                wake.send(b"\0")
                return
        if isinstance(item, _Connection):
            item.close()

    servers: list[_NodeServer] = []
    for node in nodes:
        port = cfg.port_of(node.id)
        try:
            servers.append(_NodeServer((cfg.host, port), node, hand_back))
        except OSError as exc:
            for server in servers:
                server.socket.close()
            raise BootstrapError(
                f"node {node.id.text} cannot bind {cfg.host}:{port}: {exc}") from exc
    wake, woken = socket.socketpair()
    selector = selectors.DefaultSelector()
    selector.register(woken, selectors.EVENT_READ)
    for server in servers:
        selector.register(server.socket, selectors.EVENT_READ, server)
    parked: dict[_Connection, float] = {}  # by the time they expire, and so oldest first

    def unpark(conn: _Connection) -> None:
        del parked[conn]
        selector.unregister(conn.sock)

    def take(item: _Connection | _NodeServer) -> None:
        if isinstance(item, _NodeServer):
            selector.unregister(item.socket)
            for dropped in [conn for conn in parked if conn.server is item]:
                unpark(dropped)
                dropped.close()
        elif item.server.closed:
            item.close()
        else:
            parked[item] = time.monotonic() + item.server.timeout
            selector.register(item.sock, selectors.EVENT_READ, item)

    def serve(conn: _Connection) -> None:
        try:
            threading.Thread(target=conn.handle, daemon=True).start()
        except RuntimeError:  # no thread to be had
            logger.exception("node %s cannot serve a connection", conn.server.logical_node.id)
            conn.close()

    def accept() -> None:  # until `wake` is closed, which makes `woken` readable
        try:
            while True:
                timeout = next(iter(parked.values())) - time.monotonic() if parked else None
                for key, _ in selector.select(timeout):
                    item = key.data
                    if item is None:  # `woken`
                        if not woken.recv(4096):
                            return
                        while handed:
                            take(handed.popleft())
                    elif isinstance(item, _NodeServer):
                        try:
                            sock, _ = item.socket.accept()
                        except OSError:
                            continue
                        serve(_Connection(sock, item))
                    else:  # a parked connection: a request, or the client closed it
                        unpark(item)
                        serve(item)
                while parked:
                    conn, expires = next(iter(parked.items()))
                    if expires > time.monotonic():
                        break
                    unpark(conn)
                    conn.close()
        finally:  # the client side closes first, and so holds the TIME_WAIT
            _close_pooled({cfg.port_of(server.logical_node.id) for server in servers})
            for conn in [*parked, *(item for item in handed if isinstance(item, _Connection))]:
                conn.close()
            for server in servers:
                server.shutdown()
            selector.close()
            woken.close()

    def stop_servers() -> None:
        nonlocal running
        with lock:
            running = False
            wake.close()
        loop.join()

    loop = threading.Thread(target=accept, daemon=True, name="keycube-accept")
    loop.start()
    return list(servers), stop_servers  # a copy: a caller may drop a server from its list


class Network:
    """Handle over all 2**r logical nodes plus the client-side API.

    Each client call goes to the start node's entry in `_entries`: the
    `LogicalNode` itself in process, or its `NodeClient` on the wire, so a
    query observed here exercises the same code path an external client
    would. Either way `_call` copies the reply once.
    """

    def __init__(self, cfg: NetworkConfig, nodes: dict[NodeId, LogicalNode],
                 servers: list[_NodeServer] | None = None,
                 stop_servers: Callable[[], None] = lambda: None):
        self.cfg = cfg
        self.nodes = nodes
        self.servers = servers or []
        self._stop_servers = stop_servers
        self._entries: dict[NodeId, LogicalNode | NodeClient] = nodes
        if cfg.transport == TRANSPORT_WIRE:  # every id, as a wire network's nodes may be remote
            ids = (NodeId(cfg.r, value) for value in range(1 << cfg.r))
            self._entries = {node: NodeClient(cfg.address_of(node)) for node in ids}

    # -- client API ---------------------------------------------------------

    def insert(self, cid: str, keywords, start: NodeId | None = None) -> dict:
        keywords, start = KeywordSet(keywords), self._start(start)
        if type(cid) is not str:  # refused before any leg; the target checks the rest
            raise ValueError(f"cid must be a string, got {cid!r}")
        return self._call(start, "client_insert", cid, keywords)

    def remove(self, cid: str, keywords, start: NodeId | None = None) -> dict:
        keywords, start = KeywordSet(keywords), self._start(start)
        if type(cid) is not str:
            raise ValueError(f"cid must be a string, got {cid!r}")
        return self._call(start, "client_remove", cid, keywords)

    def pin_search(self, start: NodeId, keywords) -> QueryResult:
        keywords, start = KeywordSet(keywords), self._start(start)
        return QueryResult.from_reply(self._call(start, "client_pin", keywords))

    def superset_search(self, start: NodeId, keywords, limit: int) -> QueryResult:
        keywords, start = KeywordSet(keywords), self._start(start)
        return QueryResult.from_reply(self._call(start, "client_superset", keywords, limit))

    def route(self, start: NodeId, target: NodeId) -> QueryResult:
        """Deliver a ping from start to target; measures pure routing cost."""
        # Entered in process on either transport, as no route serves a ping; legs are the same.
        start = self._start(start)
        if start not in self.nodes:  # e.g. `Network(cfg, {})`, whose nodes are all remote
            raise RoutingFailure(f"node {start.text} is not in process, where a ping enters")
        reply = _copy(self.nodes[start].client_ping(target))
        return QueryResult((), reply["hops"], tuple(map(NodeId.parse, reply["visited"])))

    def _call(self, start: NodeId, entry: str, *args) -> dict:
        return _copy(getattr(self._entries[start], entry)(*args))  # the one copy of a reply

    def _start(self, start: NodeId | None) -> NodeId:
        """`start`, or node 0 when None; a start of another r is refused on either transport."""
        if start is None:
            return NodeId(self.cfg.r, 0)
        if start.r != self.cfg.r:
            raise DimensionMismatch(f"start {start.text} does not have r={self.cfg.r} bits")
        return start

    # -- introspection --------------------------------------------------------

    @property
    def node_ids(self) -> list[NodeId]:
        return sorted(self.nodes)

    def scan_records(self) -> Iterator[tuple[NodeId, ObjectRecord]]:
        """Every stored record with its owner; the brute-force oracle's view."""
        for node_id in self.node_ids:
            for record in self.nodes[node_id].state.records():
                yield node_id, record

    def close(self) -> None:
        """Stop this network's servers, whose loop first closes the pooled sockets to them."""
        self._stop_servers()
        self.servers = []

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_network(cfg: NetworkConfig) -> Network:
    """Bring up all 2**r nodes over one shared transport and, in wire mode, each with its server."""
    wire = cfg.transport == TRANSPORT_WIRE
    nodes: dict[NodeId, LogicalNode] = {}
    transport = WireTransport(cfg) if wire else InProcessTransport(nodes)
    for value in range(1 << cfg.r):
        node_id = NodeId(cfg.r, value)
        nodes[node_id] = LogicalNode(NodeState(node_id, cfg.hash_fn), transport)
    if not wire:
        return Network(cfg, nodes)
    return Network(cfg, nodes, *start_node_server(cfg, nodes.values()))


# -- population ----------------------------------------------------------------

def experiment_keywords(r: int, hash_fn: HashFn = keyword_bit) -> list[str]:
    """Synthetic keyword universe of KEYWORDS_PER_POSITION * r distinct strings.

    Candidates kw0000, kw0001, ... are screened by their hashed position
    until every position owns exactly `KEYWORDS_PER_POSITION` words, so
    random keyword sets can reach the whole id space.
    """
    check_dimension(r)
    buckets: dict[int, list[str]] = {i: [] for i in range(r)}
    filled = 0
    i = 0
    while filled < r:
        word = f"kw{i:04d}"
        i += 1
        bucket = buckets[hash_fn(word, r)]
        if len(bucket) < KEYWORDS_PER_POSITION:
            bucket.append(word)
            if len(bucket) == KEYWORDS_PER_POSITION:
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
