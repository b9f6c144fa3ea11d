"""Complete 2**r-node networks, in process or over HTTP.

A network's nodes, and `Network`'s client calls, reach a node through one
peer table, by id value (see `LogicalNode`). In process it lists the nodes
themselves: a sender hands its envelope over and never reads it again, so
the callee gets the very dict the wire would have sent as JSON, whose values
were checked where it was built. On the wire it is a `PeerClients`: each
node has an HTTP listener on its own OS port, one thread accepts for all of
a network's listeners, and a leg is POST /internal/forward. Each reply is
read as the entry returns it, and `QueryResult.from_reply` checks a query
reply the same way in both modes, so both move the same JSON payloads. The
two halves of the format sit side by side: `_ROUTES` turns each request into
a `LogicalNode` call, and `NodeClient` sends each such call, under the same
method name, as that request.

Every node-to-node leg and every client call goes through `_exchange`,
which keeps idle sockets in one pool per (host, port), sends each request
in one write and frames each reply by its Content-Length. The server side
mirrors it with a plain listener per node and a connection that owns its
read buffer: `_read_head` reads each request head without `http.client`'s
header parser, keeping only the fields the server reads, every request's
body is read once, one table (`_ROUTES`) picks the node call by method and
path, one place chooses each reply, and each reply goes out in one write. A
head it refuses gets a JSON `BadRequest` reply. Each request that arrives
is served on a thread started for it, which then re-arms its connection in
the accept loop's epoll (Linux only) without waking the loop. There it
waits, holding no thread, until it is idle for `WIRE_TIMEOUT` or its server
shuts down, which the loop's one lock orders against each park.

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
import socket
import threading
import time
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
from .query import ENVELOPE_FIELDS, LogicalNode, QueryResult
from .topology import (
    _STR,
    HashFn,
    KeywordSet,
    NodeId,
    _keyset_value,
    check_dimension,
    keyword_bit,
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
        if type(self.base_port) is not int:
            raise ValueError(f"base_port must be an int, got {self.base_port!r}")
        last = self.base_port + (1 << self.r) - 1
        if self.transport == TRANSPORT_WIRE and not (1 <= self.base_port and last <= 65535):
            raise ValueError(f"wire ports {self.base_port}..{last} are not all in 1..65535")

    def port_of(self, node: NodeId) -> int:
        return self.base_port + node.value

    def address_of(self, node: NodeId) -> str:
        """Wire address of a node; a pure function of host, base port and id value."""
        return f"http://{host_port(self.host, self.port_of(node))}"


def host_port(host: str, port: int) -> str:
    """`host:port`, with an IPv6 literal in brackets (RFC 3986 section 3.2.2)."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


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


def _read_reply(sock: socket.socket, data: bytes) -> tuple[bytearray, re.Match | None, bytearray]:
    """Read on from `data` until one reply is whole by its Content-Length, or the node closes:
    its head, the head's `_REPLY_HEAD` match (None if none, or if cut short) and its body."""
    reply = bytearray(data)
    while True:
        end = reply.find(b"\r\n\r\n")
        if end >= 0:
            framing = _REPLY_HEAD.match(reply, 0, end)
            if framing is None or len(reply) >= end + 4 + int(framing[2]):
                return reply[:end], framing, reply[end + 4:]
        chunk = sock.recv(65536)
        if not chunk:
            return reply, None, bytearray()
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
    authority = host_port(host, port)
    where = f"{method} {path} to {authority}"
    request = f"{method} {path} HTTP/1.1\r\nHost: {authority}\r\n"
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
        head, framing, raw = _read_reply(sock, reply)
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
    """One node's listener, with its accept loop's `park` and `shutdown`."""

    timeout = WIRE_TIMEOUT  # seconds a connection may stall in a request or sit parked
    closed = False  # set by the first `shutdown`, under the loop's lock: no request is served after

    def __init__(self, address: tuple[str, int], node: LogicalNode,
                 park: Callable[[_Connection], None], shutdown: Callable[[_NodeServer], None]):
        family = socket.AF_INET6 if ":" in address[0] else socket.AF_INET  # a name is IPv4
        self.socket = socket.create_server(address, family=family)
        self.logical_node = node
        self.park = park
        self._shutdown = shutdown

    def shutdown(self) -> None:
        """Under the loop's lock, set `closed` and close the listener and parked connections."""
        self._shutdown(self)


class _BadHead(Exception):
    """Framing the server refuses: answered with `status` and a `BadRequest`, then closed."""

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
    already in `buffer`, and then closes the connection or, with the
    server's `park`, re-arms it for its next request from its own thread.

    Each request takes the same steps, in one `try` whose handlers choose
    its one reply. `_read_head` reads its head; once the server has closed,
    a head gets no reply. The connection rules come next: HTTP/1.1 stays
    open unless the client sends `Connection: close`, HTTP/1.0 closes
    unless it sends `keep-alive`, and `Expect: 100-continue` gets `100
    Continue`. Then the body is read, whatever the method or path, so the
    next request starts where this one ends. Last, `_ROUTES` picks the node
    call by method and path, and its result or error is the reply, with
    `Connection: close` if the connection closes after it. A head, or a
    `Content-Length`, that is refused raises `_BadHead` and gets a
    `BadRequest` reply with the status it names; an error while reading a
    head gets a 500 `InternalError` reply. The connection closes after
    either. A connection stalled for the server's `timeout` seconds, or
    reset by the client, is closed unanswered and nothing is logged.
    """

    watched = False  # set by the first `park`, which adds the socket to the loop's epoll

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
            self.server.park(self)

    def _serve_one(self) -> None:
        self.close_connection = True
        node, target = self.server.logical_node, "a request head"
        try:
            head = _read_head(self)
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
            raw = self._raw_body(fields)
            url = urlsplit(target)
            route = _ROUTES.get((method, url.path))
            if route is None:
                status, payload = 404, {"error": "NotFound", "detail": target}
            else:
                status, payload = 200, route(node, parse_qs(url.query), raw)
        except _CLIENT_GONE:
            raise  # from this connection's own socket: there is no one to answer
        except _BadHead as exc:  # where the next request starts is unknown
            self.close_connection = True
            status, payload = exc.status, error_payload(BadRequest(str(exc)))
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
            raise _BadHead(HTTPStatus.BAD_REQUEST,
                           f"Content-Length must be a non-negative integer, got {text!r}")
        length = int(text)
        if length > MAX_BODY_BYTES:  # the body is left unread
            raise _BadHead(HTTPStatus.BAD_REQUEST,
                           f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
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


def _envelope(raw: bytes, node: LogicalNode) -> dict:
    """Decode an envelope, checking its op, fields, target and budgets so handlers can trust it.

    An unknown op or a field the op does not declare is refused. Where the op
    declares `keywords`, they must be a canonical set, sorted and distinct, as
    the target trusts them, and `target` must be their id: the only ownership check.

    `visited` and `collected` hold strings only. `visited` is the path and
    the only record of the hop count: greedy routing fixes one bit per hop
    and each node on the way appends itself, so a routed envelope arrives
    with at most r entries. A walk leg's `collected` never holds more than
    its `limit`, which is at least 1.
    """
    env = _check_fields(_json_object(raw), {"op": str, "visited": list})
    r, op = node.id.r, env["op"]
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
    if op != "superset_visit" and len(env["visited"]) > r:
        raise BadRequest(f"{len(env['visited'])} visited entries exceed r={r}")
    if "limit" in fields and env["limit"] < 1:
        raise BadRequest(f"superset limit must be >= 1, got {env['limit']}")
    if op == "superset_visit" and len(env["collected"]) > env["limit"]:
        raise BadRequest(f"{len(env['collected'])} collected cids exceed limit {env['limit']}")
    try:  # every op declares a target
        target = NodeId.parse(env["target"])
    except ValueError as exc:
        raise BadRequest(f"bad target: {exc}") from None
    if target.r != r:
        raise BadRequest(f"target {target.text} does not have r={r} bits")
    if "keywords" in fields:
        keywords = KeywordSet(env["keywords"])
        if keywords != tuple(env["keywords"]):  # the target takes the list as a set as is
            raise BadRequest(f"keywords {env['keywords']!r} are not sorted and distinct")
        if target.value != _keyset_value(keywords, r, node.hash_fn):
            raise BadRequest(f"target {target.text} is not the id of {env['keywords']!r}")
    return env


def _limit(raw: str) -> int:
    if not (raw.isascii() and raw.isdigit()):  # as a Content-Length: no sign, space or "_"
        raise BadRequest(f"limit must be a non-negative integer, got {raw!r}")
    return int(raw)


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
        lambda node, params, raw: node.handle_forward(_envelope(raw, node)),
}


class NodeClient:
    """The client half of the wire format, for the node at `address`.

    `address` is a base URL such as `http://127.0.0.1:9000`, parsed here.
    Each method sends the request that `_ROUTES` turns back into the
    `LogicalNode` method of the same name, and returns the reply's JSON
    object, so a peer table can hold it. A bad address raises
    `RoutingFailure` when a request is to be sent.
    """

    _bad = None  # why `address` names no http://host:port, raised at each request

    def __init__(self, address: str):
        self.address = address
        try:
            url = urlsplit(address)
            self._host, self._port = url.hostname, 80 if url.port is None else url.port
        except ValueError as exc:  # a port that is not a number or out of range
            self._bad = str(exc)
        else:
            if url.scheme != "http" or not self._host or not self._host.isascii() or not self._port:
                self._bad = "expected http://host:port"

    def info(self) -> dict:
        return self._send("GET", "/info")

    def client_insert(self, cid: str, keywords: KeywordSet) -> dict:
        return self._send("POST", "/insert", {"cid": cid, "keywords": list(keywords)})

    def client_remove(self, cid: str, keywords: KeywordSet) -> dict:
        return self._send("POST", "/remove", {"cid": cid, "keywords": list(keywords)})

    def client_pin(self, keywords: KeywordSet) -> dict:
        return self._send("GET", "/pin?" + urlencode({"keywords": ",".join(keywords)}))

    def client_superset(self, keywords: KeywordSet, limit: int) -> dict:
        if type(limit) is not int or limit < 0:  # its text would be misread, or a BadRequest
            raise ValueError(f"superset limit must be an integer >= 1, got {limit!r}")
        query = urlencode({"keywords": ",".join(keywords), "limit": str(limit)})
        return self._send("GET", "/superset?" + query)

    def handle_forward(self, envelope: dict) -> dict:
        """Send a leg; a failed one raises `RoutingFailure` with the path walked so far."""
        return self._send("POST", "/internal/forward", envelope, envelope.get("visited"))

    def _send(self, method: str, path: str, body: dict | None = None,
              visited: list[str] | None = None) -> dict:
        if self._bad is not None:
            raise RoutingFailure(f"bad node address {self.address!r}: {self._bad}", visited)
        return _exchange(self._host, self._port, method, path, body, visited)


class PeerClients(dict):
    """The wire peer table of a network, or of a node served alone: the
    `NodeClient` of each id value, built when a leg or call first needs it.
    Two threads that miss one value at once may each build one; either serves.
    """

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg

    def __missing__(self, value: int) -> NodeClient:
        # At `cfg.host` as written, as parsing an address would lowercase it.
        client = self[value] = NodeClient.__new__(NodeClient)
        client._host, client._port = self.cfg.host, self.cfg.base_port + value
        client.address = f"http://{host_port(client._host, client._port)}"
        return client


def start_node_server(cfg: NetworkConfig, nodes: Iterable[LogicalNode]
                      ) -> tuple[list[_NodeServer], Callable[[], None]]:
    """Bind every node's wire address, then accept for them all on one thread.

    Without Linux's `select.epoll`, or on a failed bind (which closes the
    listeners bound so far), this raises `BootstrapError` before the thread
    starts. Its epoll watches the listeners, the read end of a `socketpair`
    and the parked connections. A connection accepted on a listener (an
    accept racing a close fails with an `OSError` that is ignored) or
    parked and reported readable goes to `serve`, the one place a handler
    thread starts; if none can, the connection is closed. A parked
    connection is watched with `EPOLLIN | EPOLLONESHOT`, so the kernel
    disarms it as it reports it, and after a reply its handler thread
    re-arms it with `park`, which does not wake the loop. The loop closes a
    connection parked for its server's `timeout`, sleeping until the oldest
    expiry or, with none parked, one `timeout`. Under the one `lock`, `park`
    makes one epoll call and records the expiry in `parked` unless the server
    is `closed`, when it closes the connection, and a server's `shutdown` sets
    `closed` and closes its listener and parked connections. Returns the
    servers in `nodes` order and `stop_servers`, which closes the pair's other
    end and joins the loop. As it ends, the loop closes the pooled client
    sockets to its ports, then shuts every server down before closing its
    epoll: no park reaches a closed epoll, and no handler thread starts to
    read the end of a stream the pool closed.
    """
    if not hasattr(select, "epoll"):
        raise BootstrapError("the node server needs select.epoll, which only Linux has")
    armed = select.EPOLLIN | select.EPOLLONESHOT
    lock = threading.Lock()  # guards `parked` and every server's `closed`
    parked: dict[int, tuple[_Connection, float]] = {}  # by fd, in the order they expire

    def park(conn: _Connection) -> None:
        with lock:
            if not conn.server.closed:
                fd = conn.sock.fileno()
                parked[fd] = conn, time.monotonic() + conn.server.timeout
                (epoll.modify if conn.watched else epoll.register)(fd, armed)
                conn.watched = True
                return
        conn.close()

    def shutdown(server: _NodeServer) -> None:
        with lock:
            if server.closed:
                return
            server.closed = True
            server.socket.close()
            for fd in [fd for fd, (conn, _) in parked.items() if conn.server is server]:
                parked.pop(fd)[0].close()

    servers: list[_NodeServer] = []
    for node in nodes:
        port = cfg.port_of(node.id)
        try:
            servers.append(_NodeServer((cfg.host, port), node, park, shutdown))
        except OSError as exc:
            for server in servers:
                server.socket.close()
            raise BootstrapError(
                f"node {node.id.text} cannot bind {host_port(cfg.host, port)}: {exc}") from exc
    wake, woken = socket.socketpair()
    epoll = select.epoll()
    epoll.register(woken, select.EPOLLIN)
    listeners = {server.socket.fileno(): server for server in servers}
    for fd in listeners:  # a closed listener leaves the epoll by itself
        epoll.register(fd, select.EPOLLIN)
    idle = min((server.timeout for server in servers), default=WIRE_TIMEOUT)

    def serve(conn: _Connection) -> None:
        try:
            threading.Thread(target=conn.handle, daemon=True).start()
        except RuntimeError:  # no thread to be had
            logger.exception("node %s cannot serve a connection", conn.server.logical_node.id)
            conn.close()

    def accept() -> None:  # until `wake` is closed, which makes `woken` readable
        timeout = idle
        try:
            while True:
                for fd, _ in epoll.poll(timeout):
                    with lock:
                        entry = parked.pop(fd, None)
                    if entry is not None:  # disarmed: a request, or the client closed it
                        serve(entry[0])
                    elif fd in listeners:
                        try:
                            sock, _ = listeners[fd].socket.accept()
                        except OSError:
                            continue
                        serve(_Connection(sock, listeners[fd]))
                    elif fd == woken.fileno():
                        return
                    # Else a connection a `shutdown` closed after the poll.
                with lock:
                    timeout, now = idle, time.monotonic()
                    while parked:
                        fd, (conn, expires) = next(iter(parked.items()))
                        if expires > now:
                            timeout = expires - now
                            break
                        del parked[fd]
                        conn.close()
        finally:  # the client side closes first, and so holds the TIME_WAIT
            _close_pooled({cfg.port_of(server.logical_node.id) for server in servers})
            for server in servers:  # after this, every park closes its connection
                shutdown(server)
            epoll.close()
            woken.close()

    def stop_servers() -> None:
        wake.close()
        loop.join()

    loop = threading.Thread(target=accept, daemon=True, name="keycube-accept")
    loop.start()
    return list(servers), stop_servers  # a copy: a caller may drop a server from its list


class Network:
    """Handle over all 2**r logical nodes plus the client-side API.

    Each client call goes to the start node's entry in `peers`, the nodes'
    table (or, for a network of remote nodes, `Network(cfg, {})`, its own),
    so a query observed here exercises the same code path an external client
    would. Either way the entry's reply is returned, or read, as it is.
    """

    def __init__(self, cfg: NetworkConfig, nodes: dict[NodeId, LogicalNode],
                 servers: list[_NodeServer] | None = None,
                 stop_servers: Callable[[], None] = lambda: None):
        self.cfg = cfg
        self.nodes = nodes
        self.servers = servers or []
        self._stop_servers = stop_servers
        self.peers = next(iter(nodes.values())).peers if nodes else PeerClients(cfg)

    # -- client API ---------------------------------------------------------

    def insert(self, cid: str, keywords, start: NodeId | None = None) -> dict:
        keywords, start = KeywordSet(keywords), self._start(start)
        if type(cid) is not str:  # refused before any leg; the target checks the rest
            raise ValueError(f"cid must be a string, got {cid!r}")
        return self.peers[start.value].client_insert(cid, keywords)

    def remove(self, cid: str, keywords, start: NodeId | None = None) -> dict:
        keywords, start = KeywordSet(keywords), self._start(start)
        if type(cid) is not str:
            raise ValueError(f"cid must be a string, got {cid!r}")
        return self.peers[start.value].client_remove(cid, keywords)

    def pin_search(self, start: NodeId, keywords) -> QueryResult:
        keywords, start = KeywordSet(keywords), self._start(start)
        return QueryResult.from_reply(self.peers[start.value].client_pin(keywords))

    def superset_search(self, start: NodeId, keywords, limit: int) -> QueryResult:
        keywords, start = KeywordSet(keywords), self._start(start)
        return QueryResult.from_reply(self.peers[start.value].client_superset(keywords, limit))

    def route(self, start: NodeId, target: NodeId) -> QueryResult:
        """Deliver a ping from start to target; measures pure routing cost."""
        # Entered in process on either transport, as no route serves a ping; legs are the same.
        start = self._start(start)
        if start not in self.nodes:  # e.g. `Network(cfg, {})`, whose nodes are all remote
            raise RoutingFailure(f"node {start.text} is not in process, where a ping enters")
        reply = self.nodes[start].client_ping(target)
        return QueryResult((), reply["hops"], tuple(map(NodeId.parse, reply["visited"])))

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
    """Bring up all 2**r nodes over one peer table and, in wire mode, each with its server."""
    wire = cfg.transport == TRANSPORT_WIRE
    peers = PeerClients(cfg) if wire else []
    nodes: dict[NodeId, LogicalNode] = {}
    for value in range(1 << cfg.r):
        node_id = NodeId(cfg.r, value)
        nodes[node_id] = LogicalNode(NodeState(node_id), peers, cfg.hash_fn)
    if not wire:
        peers += nodes.values()  # in id-value order
        return Network(cfg, nodes)
    return Network(cfg, nodes, *start_node_server(cfg, nodes.values()))


# -- population ----------------------------------------------------------------

def experiment_keywords(r: int, hash_fn: HashFn = keyword_bit) -> list[str]:
    """Synthetic keyword universe of KEYWORDS_PER_POSITION * r distinct strings.

    Candidates kw0000 .. kw9999 are screened by their hashed position until
    every position owns exactly `KEYWORDS_PER_POSITION` words, so random
    keyword sets can reach the whole id space. A position outside 0..r-1,
    or one still short after kw9999, raises `ValueError`.
    """
    check_dimension(r)
    buckets: list[list[str]] = [[] for _ in range(r)]
    filled = 0
    for i in range(10_000):
        word = f"kw{i:04d}"
        position = hash_fn(word, r)
        if not 0 <= position < r:
            raise ValueError(f"hash_fn put {word!r} at bit position {position}, not in 0..{r - 1}")
        bucket = buckets[position]
        if len(bucket) < KEYWORDS_PER_POSITION:
            bucket.append(word)
            if len(bucket) == KEYWORDS_PER_POSITION:
                filled += 1
                if filled == r:
                    return sorted(word for bucket in buckets for word in bucket)
    short = [i for i, bucket in enumerate(buckets) if len(bucket) < KEYWORDS_PER_POSITION]
    raise ValueError(f"kw0000..kw9999 leave bit positions {short} with fewer than "
                     f"{KEYWORDS_PER_POSITION} words")


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
    for i in range(count):  # the words are drawn before the start node
        record = ObjectRecord(f"obj-{i:05d}", random_keyset(rng, universe, r))
        net.insert(record.cid, record.keywords,
                   start=tuple.__new__(NodeId, (r, rng.randrange(1 << r))))  # below 2**r
        inserted.append(record)
    return inserted
