import functools
import json
import random
import re
import select
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager
from http import HTTPStatus
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from keycube import network
from keycube.errors import (
    BootstrapError,
    DimensionMismatch,
    InternalError,
    InvalidKeyword,
    KeycubeError,
    NotInSupersetRegion,
    RoutingFailure,
)
from keycube.network import (
    MAX_BODY_BYTES,
    TRANSPORT_IN_PROCESS,
    TRANSPORT_WIRE,
    WIRE_TIMEOUT,
    Network,
    NetworkConfig,
    NodeClient,
    PeerClients,
    _close_pooled,
    _exchange,
    _NodeServer,
    _POOL,
    build_network,
    experiment_keywords,
    populate,
    start_node_server,
)
from keycube.node import NodeState
from keycube.query import ENVELOPE_FIELDS, LogicalNode
from keycube.topology import (
    KeywordSet,
    NodeId,
    hamming_distance,
    keyword_bit,
    node_for_keywords,
    superset_region,
)

from conftest import make_net, spy_on_legs


def free_port_block(size):
    """Find a base port with `size` consecutive free ports on loopback."""
    for base in range(20000, 40000, 256):
        try:
            socks = []
            for offset in range(size):
                s = socket.socket()
                socks.append(s)  # before bind, so a failed bind's socket is closed too
                # As a node server binds: a port in TIME_WAIT is not taken.
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                s.bind(("127.0.0.1", base + offset))
            for s in socks:
                s.close()
            return base
        except OSError:
            for s in socks:
                s.close()
    raise RuntimeError("no free port block found")


# --- build -------------------------------------------------------------------

@pytest.mark.parametrize("r,expected", [(3, 8), (7, 128)])
def test_build_creates_all_nodes(r, expected):
    net = make_net(r)
    assert len(net.nodes) == expected
    assert set(net.nodes) == {NodeId(r, value) for value in range(expected)}
    for node_id, node in net.nodes.items():
        flips = sorted(node_id.flip(i) for i in range(r))  # id order, as /info sends them
        assert node.info()["neighbors"] == [flip.text for flip in flips]


def test_wire_addresses_follow_port_rule():
    cfg = NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=9500)
    assert cfg.address_of(NodeId.parse("000")) == "http://127.0.0.1:9500"
    assert cfg.address_of(NodeId.parse("101")) == "http://127.0.0.1:9505"


def test_duplicate_port_raises_bootstrap_error():
    base = free_port_block(8)
    blocker = socket.socket()
    blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)  # as `free_port_block` probes
    blocker.bind(("127.0.0.1", base + 3))
    blocker.listen(1)
    threads = set(threading.enumerate())
    try:
        with pytest.raises(BootstrapError, match="110"):
            build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    finally:
        blocker.close()
    assert set(threading.enumerate()) <= threads  # the accept loop starts after every bind
    assert_ports_free(base, 3)  # the three listeners bound before the failure were closed


def assert_ports_free(base, size):
    """Bind every port of the block as a node server does (`SO_REUSEADDR`), then free it."""
    for port in range(base, base + size):
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))


@pytest.mark.parametrize("r,base_port", [(2, 65534), (1, 0), (1, 70000)])
def test_wire_port_block_past_the_port_range_is_refused_before_any_bind(r, base_port):
    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match="1..65535"):
        build_network(NetworkConfig(r=r, transport=TRANSPORT_WIRE, base_port=base_port))
    assert set(threading.enumerate()) <= threads  # no node server was started


@pytest.mark.parametrize("transport", [TRANSPORT_WIRE, TRANSPORT_IN_PROCESS])
@pytest.mark.parametrize("base_port", [True, 24000.0, "24000", None])
def test_base_port_that_is_not_an_int_is_refused_before_any_bind(base_port, transport):
    # True would bind ports 1..4; a float or a string would escape as TypeError.
    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match="base_port must be an int"):
        build_network(NetworkConfig(r=2, transport=transport, base_port=base_port))
    assert set(threading.enumerate()) <= threads  # no node server was started


def test_unknown_transport_is_refused():
    with pytest.raises(ValueError, match="unknown transport 'pigeon'"):
        NetworkConfig(r=3, transport="pigeon")


def test_a_wire_network_without_epoll_is_refused_before_any_bind(monkeypatch):
    monkeypatch.delattr(select, "epoll")
    base = free_port_block(2)
    threads = set(threading.enumerate())
    with pytest.raises(BootstrapError, match="epoll"):
        build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base))
    assert set(threading.enumerate()) <= threads
    assert_ports_free(base, 2)


def test_wire_port_block_may_end_at_65535():
    assert NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=65532).port_of(
        NodeId.parse("11")) == 65535
    assert NetworkConfig(r=2, base_port=65534).r == 2  # in-process binds no port


def test_close_stops_all_servers_at_once():
    net = build_network(NetworkConfig(r=4, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(16)))
    addresses = [net.cfg.address_of(node_id) for node_id in net.node_ids]
    start = time.perf_counter()
    net.close()
    assert time.perf_counter() - start < 0.25  # no poll interval to wait out
    for address in addresses:
        with pytest.raises(RoutingFailure):
            NodeClient(address).info()


def test_close_after_servers_were_shut_down():
    net = build_network(NetworkConfig(r=2, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(4)))
    for server in net.servers:
        server.shutdown()
    net.close()
    assert net.servers == []


def test_a_wire_network_runs_one_accept_thread():
    threads = set(threading.enumerate())
    with build_network(NetworkConfig(r=4, transport=TRANSPORT_WIRE,
                                     base_port=free_port_block(16))) as net:
        assert len(set(threading.enumerate()) - threads) == 1
        assert net.pin_search(NodeId.parse("0000"), ["a"]).cids == ()  # all 16 nodes serve


def test_parallel_shutdowns_return_at_once():
    """As a benchmark's teardown does: every server's `shutdown` from its own thread."""
    net = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(8)))
    addresses = [net.cfg.address_of(node_id) for node_id in net.node_ids]
    stoppers = [threading.Thread(target=server.shutdown) for server in net.servers]
    start = time.perf_counter()
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(timeout=5)
    assert time.perf_counter() - start < 0.25
    assert not any(stopper.is_alive() for stopper in stoppers)
    for address in addresses:  # no node accepts any more
        with pytest.raises(RoutingFailure):
            NodeClient(address).info()
    net.close()
    assert net.servers == []


def test_close_leaves_no_thread_and_no_bound_port():
    base = free_port_block(8)
    threads = set(threading.enumerate())
    net = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    accept = set(threading.enumerate()) - threads
    populate(net, 20, seed=3)  # every insert's legs run on handler threads
    handlers = set(threading.enumerate()) - threads - accept
    net.close()
    assert not any(thread.is_alive() for thread in accept)  # joined by close
    for thread in handlers:
        thread.join(timeout=5)  # it may still be leaving a connection it closed
        assert not thread.is_alive(), thread.name
    assert_ports_free(base, 8)


# --- populate ------------------------------------------------------------------

def test_populate_zero_leaves_tables_empty():
    net = make_net(3)
    populate(net, 0, seed=1)
    assert list(net.scan_records()) == []


def test_populate_responsibility_closure():
    net = make_net(3)
    populate(net, 1000, seed=42)
    count = 0
    for owner, record in net.scan_records():
        assert node_for_keywords(record.keywords, 3) == owner
        count += 1
    assert count == 1000


def test_populate_is_seed_deterministic():
    net_a = make_net(4)
    net_b = make_net(4)
    recs_a = populate(net_a, 200, seed=77)
    recs_b = populate(net_b, 200, seed=77)
    assert recs_a == recs_b
    assert list(net_a.scan_records()) == list(net_b.scan_records())


def test_populate_draws_sizes_in_range():
    net = make_net(5)
    records = populate(net, 300, seed=9)
    sizes = {len(rec.keywords) for rec in records}
    assert sizes <= set(range(1, 6))
    assert len(sizes) > 1


def test_experiment_keywords_cover_all_positions():
    for r in (2, 3, 7):
        universe = experiment_keywords(r)
        assert len(universe) == 4 * r
        assert len(set(universe)) == 4 * r
        positions = {keyword_bit(w, r) for w in universe}
        assert positions == set(range(r))


@pytest.mark.parametrize("position,match", [
    (0, r"positions \[1, 2\] with fewer than 4 words"),  # no word ever lands on 1 or 2
    (3, "position 3, not in 0..2"),
    (-1, "position -1, not in 0..2"),
])
def test_experiment_keywords_refuse_a_hash_that_cannot_fill_every_position(position, match):
    hash_fn = lambda word, r: position
    with pytest.raises(ValueError, match=match):
        experiment_keywords(3, hash_fn)
    with pytest.raises(ValueError, match=match):  # before the first insert
        populate(make_net(3, hash_fn=hash_fn), 5, seed=1)


# --- wire endpoints ----------------------------------------------------------------

@pytest.fixture(scope="module")
def wire_net():
    base = free_port_block(8)
    net = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    yield net
    net.close()


def addr(net, text):
    return net.cfg.address_of(NodeId.parse(text))


def test_info_endpoint(wire_net):
    info = NodeClient(addr(wire_net, "010")).info()
    assert info["id"] == "010"
    assert info["r"] == 3
    assert len(info["neighbors"]) == 3


def test_insert_routes_to_responsible_node(wire_net):
    universe = experiment_keywords(3)
    keywords = KeywordSet([universe[0]])
    owner = node_for_keywords(keywords, 3)
    reply = wire_net.insert("cid-wire-1", keywords, start=NodeId.parse("111"))
    assert reply == {"status": "stored", "node": owner.text}
    found = NodeClient(addr(wire_net, "000")).client_pin(keywords)
    assert found["cids"] == ["cid-wire-1"]
    NodeClient(addr(wire_net, "000")).client_remove("cid-wire-1", keywords)


def test_remove_reports_not_found(wire_net):
    ghost = KeywordSet(["kw0000"])
    reply = NodeClient(addr(wire_net, "000")).client_remove("cid-ghost", ghost)
    assert reply["status"] == "not_found"


def test_superset_endpoint_respects_limit(wire_net):
    universe = experiment_keywords(3)
    keywords = KeywordSet([universe[5]])
    for i in range(4):
        wire_net.insert(f"cid-sup-{i}", keywords)
    reply = NodeClient(addr(wire_net, "011")).client_superset(keywords, 2)
    assert len(reply["cids"]) == 2
    for i in range(4):
        wire_net.remove(f"cid-sup-{i}", keywords)


def test_unknown_path_is_404(wire_net):
    resp = requests.get(f"{addr(wire_net, '000')}/nope", timeout=5)
    assert resp.status_code == 404


def test_error_payloads_cross_the_wire(wire_net):
    resp = requests.get(f"{addr(wire_net, '000')}/pin",
                        params={"keywords": ""}, timeout=5)
    # Empty keyword set is legal and routes to the all-zeros node.
    assert resp.status_code == 200
    assert requests.get(f"{addr(wire_net, '000')}/pin", timeout=5).status_code == 200
    resp = requests.get(f"{addr(wire_net, '000')}/superset",
                        params={"keywords": "a", "limit": "0"}, timeout=5)
    assert resp.status_code == 400


@pytest.mark.parametrize("query", ["/pin?keywords=a,,b", "/pin?keywords=a,",
                                   "/superset?keywords=,a&limit=2"])
def test_empty_keyword_in_a_query_string_is_invalid(wire_net, query):
    resp = requests.get(f"{addr(wire_net, '000')}{query}", timeout=5)
    assert resp.status_code == 400
    assert resp.json()["error"] == "InvalidKeyword"


@pytest.mark.parametrize("path,body", [
    ("/insert", {"cid": "c", "keywords": [["a"]]}),
    ("/internal/forward", {"op": "pin", "target": "000", "keywords": [["a"]], "visited": []}),
], ids=["record", "envelope"])
def test_unhashable_keyword_in_a_body_is_invalid(wire_net, path, body):
    # Every entry is checked before the set is deduplicated through a set.
    resp = requests.post(f"{addr(wire_net, '000')}{path}", json=body, timeout=5)
    assert resp.status_code == 400
    assert resp.json()["error"] == "InvalidKeyword"


def test_superset_visited_follows_region_order_over_wire(wire_net):
    universe = experiment_keywords(3)
    keywords = KeywordSet([universe[0]])
    root = node_for_keywords(keywords, 3)
    region = list(superset_region(root))
    stored = [KeywordSet([universe[0], word]) for word in universe[1:8]]
    for i, record_keywords in enumerate(stored):
        wire_net.insert(f"cid-order-{i}", record_keywords)
    try:
        for start in (NodeId.parse("000"), NodeId.parse("111")):
            route_len = hamming_distance(start, root)
            full = wire_net.superset_search(start, keywords, 10**6)
            assert list(full.nodes_visited[route_len:]) == region
            for limit in (1, 2, 4):
                res = wire_net.superset_search(start, keywords, limit)
                tree_nodes = list(res.nodes_visited[route_len:])
                assert tree_nodes == region[:len(tree_nodes)]
    finally:
        for i, record_keywords in enumerate(stored):
            wire_net.remove(f"cid-order-{i}", record_keywords)


# --- malformed requests get a 400 reply --------------------------------------------

def assert_bad_request(resp):
    assert resp.status_code == 400
    assert resp.json()["error"] == "BadRequest"


@pytest.mark.parametrize("path", ["/insert", "/remove"])
def test_record_without_cid_is_bad_request(wire_net, path):
    resp = requests.post(f"{addr(wire_net, '000')}{path}",
                         json={"keywords": ["kw0000"]}, timeout=5)
    assert_bad_request(resp)


def test_record_with_string_keywords_is_bad_request(wire_net):
    resp = requests.post(f"{addr(wire_net, '000')}/insert",
                         json={"cid": "cid-abc", "keywords": "abc"}, timeout=5)
    assert_bad_request(resp)
    assert wire_net.pin_search(NodeId.parse("000"), ["a", "b", "c"]).cids == ()


def test_non_integer_superset_limit_is_bad_request(wire_net):
    resp = requests.get(f"{addr(wire_net, '000')}/superset",
                        params={"keywords": "a", "limit": "x"}, timeout=5)
    assert_bad_request(resp)


@pytest.mark.parametrize("limit", ["1_0", " 7 ", "+3", "\u0663"])  # the last is Arabic-Indic 3
def test_superset_limit_is_ascii_digits_only(wire_net, limit):
    resp = requests.get(f"{addr(wire_net, '000')}/superset",
                        params={"keywords": "a", "limit": limit}, timeout=5)
    assert_bad_request(resp)


def test_forward_body_that_is_a_list_is_bad_request(wire_net):
    resp = requests.post(f"{addr(wire_net, '000')}/internal/forward",
                         json=[{"op": "ping"}], timeout=5)
    assert_bad_request(resp)


@pytest.mark.parametrize("op,field", [
    (op, field) for op, fields in ENVELOPE_FIELDS.items()
    for field in ("op", "visited", *fields)])
def test_forward_missing_any_field_is_bad_request(wire_net, op, field):
    sample = {"target": "011", "keywords": ["kw0000"], "cid": "c", "limit": 3, "collected": []}
    env = {"op": op, "visited": [], **{key: sample[key] for key in ENVELOPE_FIELDS[op]}}
    del env[field]
    resp = requests.post(f"{addr(wire_net, '000')}/internal/forward", json=env, timeout=5)
    assert_bad_request(resp)


def test_forward_body_nested_too_deeply_is_bad_request(wire_net):
    resp = requests.post(f"{addr(wire_net, '000')}/internal/forward",
                         data=b"[" * 100_000, timeout=5)
    assert_bad_request(resp)


def raw_exchange(port, request):
    """Send raw request bytes and read until the server closes: (status line, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], json.loads(payload)


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_bad_request(length):
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)) as net:
        body = b'{"cid": "c", "keywords": []}'
        request = (f"POST /insert HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode() + body
        status, payload = raw_exchange(base, request)  # the server closes after its reply
        assert status == b"HTTP/1.1 400 Bad Request"
        assert payload["error"] == "BadRequest"
        assert net.pin_search(NodeId.parse("0"), []).cids == ()


def test_oversized_content_length_is_refused_unread():
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)):
        request = (b"POST /internal/forward HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   b"Content-Length: 2147483648\r\n\r\n")  # and no body at all
        status, payload = raw_exchange(base, request)
        assert status == b"HTTP/1.1 400 Bad Request"
        assert payload["error"] == "BadRequest"
        assert str(MAX_BODY_BYTES) in payload["detail"]


@pytest.mark.parametrize("length", ["+28", "2_8"])
def test_content_length_is_digits_only(length):
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)) as net:
        body = b'{"cid": "c", "keywords": []}'
        assert len(body) == 28  # what int() would read either length as
        request = (f"POST /insert HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode() + body
        status, payload = raw_exchange(base, request)  # the server closes after its reply
        assert status == b"HTTP/1.1 400 Bad Request"
        assert payload["error"] == "BadRequest"
        assert net.pin_search(NodeId.parse("0"), []).cids == ()


# --- the request head: read by the node itself, refused with a JSON reply ---------

def recv_more(sock, data):
    chunk = sock.recv(4096)
    assert chunk, "the connection closed mid-reply"
    return data + chunk


def read_reply(sock):
    """Read one reply, after any `100 Continue`, framed by its Content-Length, off an open
    socket: (head lines, body). Fails if the socket closes first or sends more."""
    data = b""
    while True:
        while b"\r\n\r\n" not in data:
            data = recv_more(sock, data)
        head, _, data = data.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 100 "):
            break
    lines = head.decode("latin-1").split("\r\n")
    length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                  if line.lower().startswith("content-length:"))
    while len(data) < length:
        data = recv_more(sock, data)
    assert len(data) == length, "bytes past the reply"
    return lines, data


def test_expect_100_continue_is_answered_before_the_body(wire_net):
    body = b'{"cid": "cid-expect", "keywords": ["kw0000"]}'
    with socket.create_connection(("127.0.0.1", wire_net.cfg.base_port), timeout=5) as sock:
        sock.sendall(b"POST /insert HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim = recv_more(sock, interim)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        lines, reply = read_reply(sock)
    assert lines[0] == "HTTP/1.1 200 OK"
    assert json.loads(reply)["status"] == "stored"
    wire_net.remove("cid-expect", ["kw0000"])


@pytest.mark.parametrize("version,connection", [("HTTP/1.1", b""),
                                                ("HTTP/1.0", b"Connection: keep-alive\r\n")])
def test_one_connection_serves_requests_in_turn(wire_net, version, connection):
    info = b"GET /info %s\r\nHost: x\r\n%s\r\n" % (version.encode(), connection)
    bad = (b"POST /insert %s\r\nHost: x\r\n%sContent-Length: 2\r\n\r\n[]"
           % (version.encode(), connection))
    with socket.create_connection(("127.0.0.1", wire_net.cfg.base_port), timeout=5) as sock:
        for request, status in ((info, "200 OK"), (bad, "400 Bad Request"), (info, "200 OK")):
            sock.sendall(request)
            lines, _ = read_reply(sock)
            assert lines[0] == f"HTTP/1.1 {status}"


def test_http_1_0_request_is_closed_after_its_reply(wire_net):
    status, payload = raw_exchange(wire_net.cfg.base_port, b"GET /info HTTP/1.0\r\n\r\n")
    assert status == b"HTTP/1.1 200 OK"
    assert payload["id"] == "000"


def test_header_names_match_without_regard_to_case(wire_net):
    body = b'{"cid": "cid-lower", "keywords": ["kw0000"]}'
    request = (b"POST /insert HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n"
               b"connection: Close\r\n\r\n" % len(body)) + body
    status, payload = raw_exchange(wire_net.cfg.base_port, request)
    assert status == b"HTTP/1.1 200 OK"
    assert payload["status"] == "stored"
    assert "cid-lower" in wire_net.pin_search(NodeId.parse("000"), ["kw0000"]).cids
    wire_net.remove("cid-lower", ["kw0000"])


def test_reply_head_is_status_date_type_length(wire_net):
    with socket.create_connection(("127.0.0.1", wire_net.cfg.base_port), timeout=5) as sock:
        sock.sendall(b"GET /info HTTP/1.1\r\nHost: x\r\n\r\n")
        lines, body = read_reply(sock)
    assert re.fullmatch(r"Date: \w{3}, \d\d \w{3} \d{4} \d\d:\d\d:\d\d GMT", lines[1])
    lines[1] = "Date: <masked>"
    assert lines == ["HTTP/1.1 200 OK", "Date: <masked>",
                     "Content-Type: application/json", f"Content-Length: {len(body)}"]
    assert json.loads(body)["id"] == "000"


def replies_until_closed(port, request):
    """Send raw request bytes, read until the server closes, and split the replies:
    [(status line, JSON body)]."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        data = b"".join(iter(lambda: sock.recv(4096), b""))
    replies = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"(?im)^content-length: *(\d+)", head)[1])
        replies.append((head.split(b"\r\n")[0], json.loads(rest[:length])))
        data = rest[length:]
    return replies


HIDDEN = b"GET /pin HTTP/1.1\r\n\r\n"  # a request line that arrives as a body
LAST_INFO = b"GET /info HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"


def test_a_get_body_is_read_not_served_as_a_request(wire_net):
    request = (b"GET /info HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
               % (len(HIDDEN), HIDDEN)) + LAST_INFO
    replies = replies_until_closed(wire_net.cfg.base_port, request)
    assert [status for status, _ in replies] == [b"HTTP/1.1 200 OK"] * 2
    assert [payload["id"] for _, payload in replies] == ["000", "000"]


def test_post_to_an_unknown_path_has_its_body_read_and_keeps_its_connection(wire_net):
    request = (b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
               % (len(HIDDEN), HIDDEN)) + LAST_INFO
    replies = replies_until_closed(wire_net.cfg.base_port, request)
    assert replies == [(b"HTTP/1.1 404 Not Found", {"error": "NotFound", "detail": "/nope"}),
                       (b"HTTP/1.1 200 OK", NodeClient(addr(wire_net, "000")).info())]


@pytest.mark.parametrize("body", [b"{", b"\xff"], ids=["not JSON", "not UTF-8"])
@pytest.mark.parametrize("path", ["/insert", "/internal/forward"])
def test_body_that_does_not_decode_is_bad_request_and_keeps_its_connection(wire_net, path,
                                                                            body):
    request = (b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
               % (path.encode(), len(body), body)) + LAST_INFO
    (status, payload), last = replies_until_closed(wire_net.cfg.base_port, request)
    assert status == b"HTTP/1.1 400 Bad Request"
    assert payload["error"] == "BadRequest"
    assert last == (b"HTTP/1.1 200 OK", NodeClient(addr(wire_net, "000")).info())


def test_unparsable_request_target_gets_a_400_reply(wire_net):
    request = b"GET http://[x/info HTTP/1.1\r\nConnection: close\r\n\r\n"
    status, payload = raw_exchange(wire_net.cfg.base_port, request)
    assert status == b"HTTP/1.1 400 Bad Request"
    assert payload == {"error": "ValueError", "detail": "Invalid IPv6 URL"}


POST_HEAD = b"POST /insert HTTP/1.1\r\nHost: x\r\n"
RECORD = b'{"cid": "c", "keywords": []}'
# Request heads the node refuses, each with the status of its JSON reply.
BAD_HEADS = {
    "request line that does not parse": (b"BLAH\r\n\r\n", 400),
    "request line of four words": (b"GET /info HTTP/1.1 more\r\n\r\n", 400),
    "version HTTP/2.0": (b"GET /info HTTP/2.0\r\nHost: x\r\n\r\n", 505),
    "version HTTP/0.9": (b"GET /info HTTP/0.9\r\n\r\n", 505),
    "version that is not HTTP": (b"GET /info ICY/1.1\r\n\r\n", 400),
    "method PUT": (b"PUT /insert HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                   % (len(RECORD), RECORD), 501),
    "method HEAD": (b"HEAD /info HTTP/1.1\r\n\r\n", 501),
    "101 header lines": (b"GET /info HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431),
    "request line over 65536 bytes": (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
    "header line over 65536 bytes": (b"GET /info HTTP/1.1\r\nX-Pad: " + b"a" * 65536
                                     + b"\r\n\r\n", 431),
    # Refused once the limit is passed, without waiting for the line's end.
    "request line over 65536 bytes, its end not sent": (b"GET /" + b"a" * 70000, 414),
    "header line over 65536 bytes, its end not sent": (b"GET /info HTTP/1.1\r\nX-Pad: "
                                                      + b"a" * 70000, 431),
    "header line with no colon": (b"GET /info HTTP/1.1\r\nHost x\r\n\r\n", 400),
    "header name with a space before its colon": (b"GET /info HTTP/1.1\r\nHost : x\r\n\r\n",
                                                  400),
    "chunked body": (POST_HEAD + b"Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
                     % (len(RECORD), RECORD), 501),
    "Transfer-Encoding beside a Content-Length": (
        POST_HEAD + b"Content-Length: %d\r\nTransfer-Encoding: identity\r\n\r\n%s"
        % (len(RECORD), RECORD), 501),
    "two Content-Lengths that differ": (POST_HEAD + b"Content-Length: %d\r\nContent-Length: 2"
                                        b"\r\n\r\n%s" % (len(RECORD), RECORD), 400),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADS))
def test_malformed_head_gets_a_json_reply_then_a_close(wire_net, case):
    request, status = BAD_HEADS[case]
    status_line, payload = raw_exchange(wire_net.cfg.base_port, request)  # reads until closed
    assert status_line == f"HTTP/1.1 {status} {HTTPStatus(status).phrase}".encode()
    assert payload["error"] == "BadRequest"
    assert isinstance(payload["detail"], str)
    assert wire_net.pin_search(NodeId.parse("000"), []).cids == ()  # nothing was stored


def test_repeated_equal_content_length_is_accepted(wire_net):
    request = (POST_HEAD + b"Content-Length: %d\r\nContent-Length: %d\r\nConnection: close"
               b"\r\n\r\n%s" % (len(RECORD), len(RECORD), RECORD))
    status, payload = raw_exchange(wire_net.cfg.base_port, request)
    assert status == b"HTTP/1.1 200 OK"
    wire_net.remove("c", [])


def test_silent_or_vanished_client_is_dropped_quietly(monkeypatch, caplog, capsys):
    assert _NodeServer.timeout == WIRE_TIMEOUT
    monkeypatch.setattr(_NodeServer, "timeout", 0.5)
    partial = [b"", b"GET /info HTTP/1.1\r\nHost: x\r\n",  # idle; stalled in its head
               POST_HEAD + b"Content-Length: %d\r\n\r\n{" % len(RECORD)]  # in its body
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)) as net:
        threads = threading.active_count()
        socks = [socket.create_connection(("127.0.0.1", base), timeout=5) for _ in partial * 2]
        silent, vanished = socks[:len(partial)], socks[len(partial):]
        try:
            for sock, request in zip(socks, partial * 2):
                sock.sendall(request)
            time.sleep(0.1)  # the node reads what was sent
            for sock in vanished:  # a reset, not a close
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
            for sock in silent:
                assert sock.recv(4096) == b""  # closed by the node, unanswered
        finally:
            for sock in socks:
                sock.close()
        deadline = time.monotonic() + 5
        while threading.active_count() > threads and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= threads
        assert net.pin_search(NodeId.parse("1"), []).cids == ()
    assert not caplog.records
    assert capsys.readouterr().err == ""  # no traceback on stderr either


def exploding_hash(word, r):
    """keyword_bit, except that the keyword "boom" hits a bug in it."""
    if word == "boom":
        raise RuntimeError("bug in the hash")
    return keyword_bit(word, r)


def test_unexpected_handler_error_gets_a_500_reply():
    base = free_port_block(4)
    cfg = NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=base, hash_fn=exploding_hash)
    with build_network(cfg) as net:
        resp = requests.get(f"{net.cfg.address_of(NodeId.parse('00'))}/pin",
                            params={"keywords": "boom"}, timeout=5)
        assert resp.status_code == 500
        assert resp.json() == {"error": "InternalError",
                               "detail": "RuntimeError: bug in the hash"}
        with pytest.raises(InternalError):
            net.pin_search(NodeId.parse("11"), ["boom"])
        assert net.pin_search(NodeId.parse("11"), ["kw0000"]).cids == ()


def test_unexpected_error_reading_a_head_gets_a_500_reply_then_a_close(monkeypatch, caplog):
    def broken_read_head(conn):
        raise RuntimeError("bug in the head reader")

    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)):
        monkeypatch.setattr(network, "_read_head", broken_read_head)
        request = b"GET /info HTTP/1.1\r\nHost: x\r\n\r\n"
        status, payload = raw_exchange(base, request)  # reads until the node closes
    assert status == b"HTTP/1.1 500 Internal Server Error"
    assert payload == {"error": "InternalError", "detail": "RuntimeError: bug in the head reader"}
    assert "failed on a request head" in caplog.text


# Envelopes whose target is not the id of their keywords, or not r=3 bits
# long, or whose path or results hold an entry that is not a string, or
# whose op is unknown or does not declare one of their fields.
KEYS_AT_100 = [next(word for word in experiment_keywords(3) if keyword_bit(word, 3) == 0)]
FORGED_ENVELOPES = {
    "superset_visit, wrong target": {"op": "superset_visit", "target": "110",
                                     "keywords": KEYS_AT_100, "limit": 5, "collected": []},
    "superset_visit, short target": {"op": "superset_visit", "target": "10",
                                     "keywords": KEYS_AT_100, "limit": 5, "collected": []},
    "pin, wrong target": {"op": "pin", "target": "010", "keywords": KEYS_AT_100},
    "pin, long target": {"op": "pin", "target": "1000", "keywords": KEYS_AT_100},
    "superset, wrong target": {"op": "superset", "target": "000", "keywords": KEYS_AT_100,
                               "limit": 5},
    "superset, non-binary target": {"op": "superset", "target": "1x0",
                                    "keywords": KEYS_AT_100, "limit": 5},
    "ping, long target": {"op": "ping", "target": "11111"},
    "superset_visit, object in collected": {"op": "superset_visit", "target": "100",
                                            "keywords": KEYS_AT_100, "limit": 5,
                                            "collected": [{"x": 1}]},
    "superset_visit, integer in collected": {"op": "superset_visit", "target": "100",
                                             "keywords": KEYS_AT_100, "limit": 5,
                                             "collected": [7]},
    "superset_visit, null in visited": {"op": "superset_visit", "target": "100",
                                        "keywords": KEYS_AT_100, "limit": 5,
                                        "collected": [], "visited": [None]},
    "pin, integer in visited": {"op": "pin", "target": "100", "keywords": KEYS_AT_100,
                                "visited": [7]},
    "ping, undeclared keywords": {"op": "ping", "target": "110", "keywords": 5},
    "unknown op": {"op": "bogus", "target": "110", "keywords": 5},
}


@pytest.mark.parametrize("case", sorted(FORGED_ENVELOPES))
def test_forged_envelope_is_bad_request(wire_net, case):
    env = {"visited": [], **FORGED_ENVELOPES[case]}
    resp = requests.post(f"{addr(wire_net, '110')}/internal/forward", json=env, timeout=5)
    assert_bad_request(resp)


# A `keywords` list that is a set but not in canonical form: the target takes
# the list as its set without sorting it, so the decode refuses it.
NON_CANONICAL_KEYWORDS = {"unsorted": lambda words: sorted(words, reverse=True),
                          "duplicated": lambda words: words + words[:1]}
CANONICAL_CHECK_ENVELOPES = {
    "insert": {"op": "insert", "target": "111", "cid": "cid-canon", "visited": []},
    "pin": {"op": "pin", "target": "111", "visited": []},
    "superset": {"op": "superset", "target": "111", "limit": 5, "visited": []},
    "superset_visit": {"op": "superset_visit", "target": "111", "limit": 5,
                       "collected": [], "visited": []},
}


@pytest.mark.parametrize("words", sorted(NON_CANONICAL_KEYWORDS))
@pytest.mark.parametrize("op", sorted(CANONICAL_CHECK_ENVELOPES))
def test_non_canonical_keywords_are_refused_and_the_connection_stays_open(wire_net, op, words):
    def forward(keywords):
        body = json.dumps({**CANONICAL_CHECK_ENVELOPES[op], "keywords": keywords}).encode()
        sock.sendall(b"POST /internal/forward HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        lines, reply = read_reply(sock)
        return lines[0], json.loads(reply)

    with socket.create_connection(("127.0.0.1", wire_net.cfg.port_of(NodeId.parse("111"))),
                                  timeout=5) as sock:
        status, reply = forward(NON_CANONICAL_KEYWORDS[words](KEYS_AT_111))
        assert status == "HTTP/1.1 400 Bad Request"
        assert reply["error"] == "BadRequest" and "not sorted and distinct" in reply["detail"]
        status, reply = forward(KEYS_AT_111)  # the same set, canonical, on the same connection
        assert status == "HTTP/1.1 200 OK", reply
    assert wire_net.pin_search(NodeId.parse("000"), KEYS_AT_111).cids == (
        ("cid-canon",) if op == "insert" else ())
    wire_net.remove("cid-canon", KEYS_AT_111)


# Envelopes over a budget that honest routing keeps: a path of at most r=3
# hops, so at most 3 visited entries on arrival, a limit of at least 1, and
# no more collected cids than the limit.
OVER_BUDGET_ENVELOPES = {
    "pin, hops above r": {"op": "pin", "target": "100", "keywords": KEYS_AT_100,
                          "visited": ["000", "001", "011", "111"]},
    "ping, visited longer than r": {"op": "ping", "target": "110",
                                    "visited": ["000", "100", "101", "111"]},
    "superset, visited longer than r": {"op": "superset", "target": "100",
                                        "keywords": KEYS_AT_100, "limit": 5,
                                        "visited": ["010", "000", "001", "101"]},
    "superset_visit, collected over limit": {"op": "superset_visit", "target": "100",
                                             "keywords": KEYS_AT_100, "limit": 2,
                                             "collected": ["a", "b", "c"], "visited": []},
    "superset, limit 0": {"op": "superset", "target": "100", "keywords": KEYS_AT_100,
                          "limit": 0, "visited": []},
    "superset, limit -3": {"op": "superset", "target": "100", "keywords": KEYS_AT_100,
                           "limit": -3, "visited": []},
    "superset_visit, limit 0": {"op": "superset_visit", "target": "100",
                                "keywords": KEYS_AT_100, "limit": 0,
                                "collected": [], "visited": []},
}


@pytest.mark.parametrize("case", sorted(OVER_BUDGET_ENVELOPES))
def test_envelope_over_budget_is_bad_request(wire_net, case):
    resp = requests.post(f"{addr(wire_net, '110')}/internal/forward",
                         json=OVER_BUDGET_ENVELOPES[case], timeout=5)
    assert_bad_request(resp)


# A JSON `true` where an integer belongs; bool subclasses int in Python.
BOOLEAN_INTEGER_ENVELOPES = {
    "superset, limit true": {"op": "superset", "target": "100", "keywords": KEYS_AT_100,
                             "limit": True, "visited": ["000"]},
    "superset_visit, limit true": {"op": "superset_visit", "target": "100",
                                   "keywords": KEYS_AT_100, "limit": True,
                                   "collected": [], "visited": []},
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_INTEGER_ENVELOPES))
def test_boolean_for_an_integer_field_is_bad_request(wire_net, case):
    resp = requests.post(f"{addr(wire_net, '110')}/internal/forward",
                         json=BOOLEAN_INTEGER_ENVELOPES[case], timeout=5)
    assert_bad_request(resp)


def test_envelope_at_full_budget_is_accepted(wire_net):
    env = {"op": "pin", "target": "100", "keywords": KEYS_AT_100,
           "visited": ["011", "111", "101"]}
    resp = requests.post(f"{addr(wire_net, '100')}/internal/forward", json=env, timeout=5)
    assert resp.status_code == 200
    assert resp.json()["hops"] == 3


def keys_at(node):
    """Words whose id is `node`: one of `KEYS_AT_111` per set bit."""
    return [word for bit, word in enumerate(KEYS_AT_111) if node.value >> bit & 1]


def test_routed_ops_and_walk_legs_keep_within_the_hop_budget(wire_net):
    """At r=3, sent to any node with nothing visited: a routed op takes at most r
    hops, and a walk leg from any node of a region visits at most its 2**(r - |q|)
    nodes. Nodes outside the region refuse the leg."""
    r = 3
    ids = [NodeId(r, value) for value in range(1 << r)]

    def send(node, env):
        return _exchange("127.0.0.1", wire_net.cfg.port_of(node), "POST",
                         "/internal/forward", env)

    for start in ids:
        for target in ids:
            distance = hamming_distance(start, target)
            routed = {"target": target.text, "keywords": keys_at(target), "visited": []}
            ping = send(start, {"op": "ping", "target": target.text, "visited": []})
            pin = send(start, {"op": "pin", **routed})
            assert ping["hops"] == pin["hops"] == distance <= r
            walk = send(start, {"op": "superset", "limit": 10**6, **routed})["visited"]
            assert walk.index(target.text) == distance <= r
            assert len(walk) - distance == 2 ** (r - bin(target.value).count("1"))
            for op in ("insert", "remove"):
                reply = send(start, {"op": op, "cid": "cid-budget", **routed})
                assert reply["node"] == target.text
    for q in ids:
        region = set(superset_region(q))
        leg = {"op": "superset_visit", "target": q.text, "keywords": keys_at(q),
               "limit": 10**6, "collected": [], "visited": []}
        for node in ids:
            if node in region:
                assert len(send(node, leg)["visited"]) <= 2 ** (r - bin(q.value).count("1"))
            else:
                with pytest.raises(NotInSupersetRegion):
                    send(node, leg)


def test_superset_leg_failure_reports_the_whole_path():
    base = free_port_block(8)
    net = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    try:
        order = list(superset_region(NodeId.parse("000")))
        dead = net.servers.pop(order[3].value)
        dead.shutdown()
        with pytest.raises(RoutingFailure) as info:
            net.superset_search(NodeId.parse("000"), [], 10**6)
        assert info.value.visited == [n.text for n in order[:3]]
    finally:
        net.close()


# --- the wire client -------------------------------------------------------------------

def http_reply(body, status="200 OK"):
    """A well-formed JSON reply with `status` and `body` (bytes)."""
    return (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class StandInNode:
    """A raw socket listener that records one request and answers it.

    The answer is `raw`, sent as it is and then the connection closed, or
    else a 200 reply with `body`. `request_line`, `headers` (names in lower
    case) and `body_sent` hold what the client sent, once the `with` block
    has ended.
    """

    def __init__(self, body=b"", raw=None):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(5)  # accept gives up if no client comes
        self.port = self.listener.getsockname()[1]
        self.address = f"http://127.0.0.1:{self.port}"
        self.reply = http_reply(body) if raw is None else raw
        self.request_line = self.headers = self.body_sent = None
        self.thread = threading.Thread(target=self._answer_one, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.thread.join(timeout=10)
        self.listener.close()

    def _answer_one(self):
        conn, _ = self.listener.accept()
        conn.settimeout(5)
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            head, _, body = data.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            headers = {k.lower(): v for k, v in (line.split(": ", 1) for line in lines[1:])}
            while len(body) < int(headers.get("content-length", 0)):
                body += conn.recv(4096)
            self.request_line, self.headers, self.body_sent = lines[0], headers, body
            conn.sendall(self.reply)


def test_forward_leg_sends_the_envelope_as_json():
    env = {"op": "superset_visit", "target": "0", "keywords": ["a b", "café"],
           "limit": 3, "collected": ["cid-ü"], "visited": []}
    reply = {"cids": ["cid-x"], "hops": 0, "visited": ["0"]}
    with StandInNode(json.dumps(reply).encode()) as node:
        cfg = NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=node.port)
        assert PeerClients(cfg)[0].handle_forward(env) == reply
    assert node.request_line == "POST /internal/forward HTTP/1.1"
    assert node.body_sent == json.dumps(env).encode()
    assert int(node.headers["content-length"]) == len(node.body_sent)
    assert node.headers["host"] == f"127.0.0.1:{node.port}"
    assert "connection" not in node.headers  # HTTP/1.1: the connection stays open


def test_node_client_insert_sends_the_record_as_json():
    keywords = KeywordSet(["lake", "é", "a b"])
    with StandInNode(b'{"status": "stored", "node": "0"}') as node:
        assert NodeClient(node.address).client_insert("cid-ü", keywords)["status"] == "stored"
    assert node.request_line == "POST /insert HTTP/1.1"
    assert node.body_sent == json.dumps({"cid": "cid-ü", "keywords": list(keywords)}).encode()


def test_pin_and_superset_send_urlencoded_queries():
    keywords = KeywordSet(["a b", "café", "x&y=1"])
    reply = b'{"cids": [], "hops": 0, "visited": []}'
    with StandInNode(reply) as pin, StandInNode(reply) as superset:
        NodeClient(pin.address).client_pin(keywords)
        NodeClient(superset.address).client_superset(keywords, 7)
    query = urlencode({"keywords": ",".join(keywords)})
    assert pin.request_line == f"GET /pin?{query} HTTP/1.1"
    query = urlencode({"keywords": ",".join(keywords), "limit": "7"})
    assert superset.request_line == f"GET /superset?{query} HTTP/1.1"


def test_reply_that_is_not_json_is_a_routing_failure():
    with StandInNode(b"<html>") as node:
        with pytest.raises(RoutingFailure, match="/pin"):
            NodeClient(node.address).client_pin(KeywordSet(["a"]))


# Replies the client cannot use: each is a RoutingFailure carrying the path.
BROKEN_REPLIES = {
    "error reply that is not an object": http_reply(b'"oops"', "400 Bad Request"),
    "200 reply that is not an object": http_reply(b"[1]"),
    "body shorter than its Content-Length": http_reply(b'{"cids": []}')[:-3],
    "body longer than its Content-Length": http_reply(b"{}") + b"{}",
    "status line that is not HTTP": http_reply(b"{}").replace(b"HTTP/1.1", b"ICY", 1),
    "closed without a reply": b"",
    "JSON nested too deeply": http_reply(b"[" * 100_000),
}


@pytest.mark.parametrize("case", sorted(BROKEN_REPLIES))
def test_unusable_reply_is_a_routing_failure_with_the_path(case):
    env = {"op": "ping", "target": "1", "visited": ["0"]}
    with StandInNode(raw=BROKEN_REPLIES[case]) as node:
        cfg = NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=node.port)
        with pytest.raises(RoutingFailure, match="/internal/forward") as info:
            PeerClients(cfg)[0].handle_forward(env)
    assert info.value.visited == ["0"]


def test_wire_peers_keep_the_configured_host_as_written(monkeypatch):
    # A leg, and a wire `Network`'s client call, goes to (cfg.host, cfg.port_of(id))
    # with the host as written, so its Host header is too: parsing an address
    # would lowercase it.
    sent = []
    monkeypatch.setattr(network, "_exchange", lambda *request: sent.append(request) or {})
    cfg = NetworkConfig(r=3, transport=TRANSPORT_WIRE, host="LocalHost", base_port=9100)
    env = {"op": "ping", "target": "111", "visited": ["000"]}
    assert PeerClients(cfg)[5].handle_forward(env) == {}
    Network(cfg, {}).insert("c", ["a"], start=NodeId(3, 6))
    assert sent == [
        ("LocalHost", cfg.port_of(NodeId(3, 5)), "POST", "/internal/forward", env, ["000"]),
        ("LocalHost", cfg.port_of(NodeId(3, 6)), "POST", "/insert", {"cid": "c", "keywords": ["a"]},
         None)]


def test_a_node_served_alone_builds_only_the_clients_its_legs_reach():
    # As `keycube serve --node-id` hosts a node: with a peer table of its own,
    # which builds a neighbour's client on the first leg to it.
    cfg = NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=free_port_block(8))
    nodes = [LogicalNode(NodeState(NodeId(3, value)), PeerClients(cfg), cfg.hash_fn)
             for value in range(8)]
    _, stop_servers = start_node_server(cfg, nodes)
    try:
        reply = NodeClient(cfg.address_of(NodeId(3, 0))).client_pin(KEYS_AT_111)
    finally:
        stop_servers()
    assert reply["visited"] == ["000", "100", "110", "111"]
    # 000 sent a leg to 100 (value 1), 100 to 110 (value 3) and 110 to 111 (value 7).
    assert [sorted(node.peers) for node in nodes] == [[1], [3], [], [7], [], [], [], []]
    assert all(type(client) is NodeClient for node in nodes for client in node.peers.values())


def test_routing_failure_reply_is_reraised_with_its_path():
    body = json.dumps({"error": "RoutingFailure", "detail": "leg to 11 failed",
                       "visited": ["00", "01"]}).encode()
    with StandInNode(raw=http_reply(body, "502 Bad Gateway")) as node:
        with pytest.raises(RoutingFailure, match="leg to 11 failed") as info:
            NodeClient(node.address).client_pin(KeywordSet(["a"]))
    assert info.value.visited == ["00", "01"]


@pytest.mark.parametrize("body", [b'{"error": []}', b'{"error": {"a": 1}, "detail": "x"}',
                                  b'{"error": 5}', b'{"error": "RoutingFailure", "visited": 5}'])
def test_error_reply_with_a_malformed_payload_is_a_typed_error(body):
    with StandInNode(raw=http_reply(body, "400 Bad Request")) as node:
        net = Network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=node.port), {})
        with pytest.raises(KeycubeError):
            net.pin_search(NodeId(1, 0), ["a"])


# 200 replies that are JSON objects but not query results.
MALFORMED_QUERY_REPLIES = {
    "no cids": {"hops": 0, "visited": ["0"]},
    "no hops": {"cids": []},
    "no visited": {"cids": [], "hops": 0},
    "cids a string": {"cids": "abc", "hops": 0, "visited": ["0"]},
    "cid not a string": {"cids": [5], "hops": 0, "visited": ["0"]},
    "hops a string": {"cids": [], "hops": "0", "visited": ["0"]},
    "hops a bool": {"cids": [], "hops": False, "visited": ["0"]},
    "visited an object": {"cids": [], "hops": 0, "visited": {"0": 1}},
    "visited entry a number": {"cids": [], "hops": 0, "visited": [5]},
    "visited entry not an id": {"cids": [], "hops": 0, "visited": ["2"]},
    "hops not the length of the path": {"cids": [], "hops": 7, "visited": ["0"]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_QUERY_REPLIES))
def test_malformed_query_reply_is_a_routing_failure(case):
    body = json.dumps(MALFORMED_QUERY_REPLIES[case]).encode()
    with StandInNode(body) as node:
        net = Network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=node.port), {})
        with pytest.raises(RoutingFailure, match="query reply"):
            net.pin_search(NodeId(1, 0), ["a"])


def test_pin_search_on_a_closed_wire_network_is_a_routing_failure():
    net = build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(2)))
    net.close()
    with pytest.raises(RoutingFailure):
        net.pin_search(NodeId.parse("0"), ["a"])


def test_route_on_a_network_of_remote_nodes_is_a_routing_failure():
    # `Network(cfg, {})` hosts no node, and a ping enters in process: no path is walked.
    net = Network(NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=free_port_block(4)), {})
    with pytest.raises(RoutingFailure) as info:
        net.route(NodeId(2, 0), NodeId(2, 3))
    assert info.value.visited == []


@pytest.mark.parametrize("address", ["127.0.0.1:9000", "ftp://127.0.0.1:9000",
                                     "http://127.0.0.1:port", "http://bücher:9000",
                                     "http://127.0.0.1:0"])
def test_bad_node_address_is_a_routing_failure(address):
    with pytest.raises(RoutingFailure, match="bad node address"):
        NodeClient(address).client_pin(KeywordSet(["a"]))


def test_node_client_info_bad_address_is_routing_failure():
    with pytest.raises(RoutingFailure, match="bad node address"):
        NodeClient("ftp://x").info()


def test_node_address_without_a_port_means_port_80(monkeypatch):
    sent = []
    monkeypatch.setattr(network, "_exchange", lambda *request: sent.append(request[:2]) or {})
    NodeClient("http://127.0.0.1").info()
    assert sent == [("127.0.0.1", 80)]


class RecordingNode:
    """Stands in for a `LogicalNode`: records each method a route calls, with its arguments."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args)) or {}


@pytest.mark.parametrize("route", sorted(set(network._ROUTES) - {("POST", "/internal/forward")}),
                         ids=" ".join)
def test_node_client_sends_the_route_of_each_node_method(route):
    """The two halves of the wire format agree: for each client route, `NodeClient` has
    the `LogicalNode` method the route calls, and that method sends the route's request,
    which the route decodes back into the same call."""
    node = RecordingNode()
    body = json.dumps({"cid": "cid-ü", "keywords": ["a b", "café"]}).encode()
    network._ROUTES[route](node, {"keywords": ["a b,café"], "limit": ["3"]}, body)
    [(name, args)] = node.calls
    assert callable(getattr(NodeClient, name, None)), name
    with StandInNode(b"{}") as stand_in:
        getattr(NodeClient(stand_in.address), name)(*args)
    method, target, _ = stand_in.request_line.split(" ")
    url = urlsplit(target)
    assert (method, url.path) == route
    decoded = RecordingNode()
    network._ROUTES[route](decoded, parse_qs(url.query), stand_in.body_sent or b"{}")
    assert decoded.calls == node.calls


# --- keep-alive: the client's pool and the parked connections ------------------------

def pooled(net):
    """The idle client sockets held for `net`'s ports."""
    ports = range(net.cfg.base_port, net.cfg.base_port + len(net.nodes))
    return sum(len(idle) for (_, port), idle in _POOL.items() if port in ports)


def threads_since(baseline):
    """The live threads not in `baseline`, once those that are ending have ended."""
    deadline = time.monotonic() + 5
    while len(set(threading.enumerate()) - baseline) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    return set(threading.enumerate()) - baseline


def test_idle_pooled_connections_hold_no_thread():
    baseline = set(threading.enumerate())
    with build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE,
                                     base_port=free_port_block(8))) as net:
        rng = random.Random(50)
        words = experiment_keywords(3)
        for _ in range(50):
            net.pin_search(NodeId(3, rng.randrange(8)), rng.sample(words, 2))
        assert [thread.name for thread in threads_since(baseline)] == ["keycube-accept"]
        assert pooled(net) > 0
    assert pooled(net) == 0  # closed by `Network.close`


def test_a_pooled_socket_the_node_expired_is_replaced(monkeypatch):
    monkeypatch.setattr(_NodeServer, "timeout", 0.2)
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)) as net:
        address = net.cfg.address_of(NodeId(1, 0))
        NodeClient(address).info()
        [expired] = _POOL[("127.0.0.1", base)]
        time.sleep(0.5)  # parked for longer than the timeout: the node closes it
        assert expired.recv(1, socket.MSG_PEEK) == b""
        assert NodeClient(address).info()["id"] == "0"
        assert expired.fileno() == -1  # closed, not used
        assert pooled(net) == 1


def read_request(conn):
    """Read one request head, all a stand-in's GET requests hold."""
    data = b""
    while not data.endswith(b"\r\n\r\n"):
        data = recv_more(conn, data)
    return data


@contextmanager
def scripted_node(serve):
    """A loopback listener whose connections `serve(listener)` answers on its own
    thread; yields the port, and closes the client's pooled sockets to it after."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)
        port = listener.getsockname()[1]
        thread = threading.Thread(target=serve, args=(listener,), daemon=True)
        thread.start()
        try:
            yield port
        finally:
            thread.join(timeout=10)
            _close_pooled(range(port, port + 1))


def test_a_reused_socket_closed_before_the_reply_is_retried_once_on_a_new_one():
    def serve(listener):
        conn, _ = listener.accept()
        with conn:
            read_request(conn)
            conn.sendall(http_reply(b'{"n": 1}'))
            read_request(conn)  # and closed unanswered
        conn, _ = listener.accept()
        with conn:
            read_request(conn)
            conn.sendall(http_reply(b'{"n": 2}'))

    with scripted_node(serve) as port:
        assert _exchange("127.0.0.1", port, "GET", "/info") == {"n": 1}
        assert _exchange("127.0.0.1", port, "GET", "/info") == {"n": 2}


def test_stray_bytes_after_a_reply_never_reach_a_later_call():
    replied = threading.Event()

    def serve(listener):
        conn, _ = listener.accept()
        with conn:
            read_request(conn)
            conn.sendall(http_reply(b'{"n": 1}'))
            replied.wait(timeout=5)
            conn.sendall(http_reply(b'{"stray": true}'))  # after the reply, unasked
            fresh, _ = listener.accept()
            with fresh:
                read_request(fresh)
                fresh.sendall(http_reply(b'{"n": 2}'))

    with scripted_node(serve) as port:
        assert _exchange("127.0.0.1", port, "GET", "/info") == {"n": 1}
        [idle] = _POOL[("127.0.0.1", port)]
        replied.set()
        assert select.select([idle], [], [], 5)[0]  # the stray reply has arrived
        assert _exchange("127.0.0.1", port, "GET", "/info") == {"n": 2}


def test_a_shut_down_node_answers_no_later_leg():
    base = free_port_block(4)
    with build_network(NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=base)) as net:
        words = [next(word for word in experiment_keywords(2) if keyword_bit(word, 2) == bit)
                 for bit in (0, 1)]  # owned by node 11, two hops from 00
        for _ in range(3):  # every leg of the path leaves a pooled socket
            path = net.pin_search(NodeId.parse("00"), words).nodes_visited
        assert len(path) == 3 and pooled(net) == 3
        net.servers[3].shutdown()
        with pytest.raises(RoutingFailure) as info:
            net.pin_search(NodeId.parse("00"), words)
        assert info.value.visited == [node.text for node in path[:-1]]
        with pytest.raises(RoutingFailure):
            NodeClient(net.cfg.address_of(NodeId.parse("11"))).info()


def test_concurrent_clients_leave_no_handler_thread():
    baseline = set(threading.enumerate())
    twin = make_net(3)
    populate(twin, 24, seed=8)
    words = experiment_keywords(3)
    queries = [[(NodeId(3, rng.randrange(8)), rng.sample(words, rng.randint(1, 2)))
                for _ in range(15)] for rng in map(random.Random, range(8))]
    with build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE,
                                     base_port=free_port_block(8))) as net:
        populate(net, 24, seed=8)
        results = [None] * len(queries)

        def client(k):
            results[k] = [net.pin_search(start, keywords) for start, keywords in queries[k]]

        clients = [threading.Thread(target=client, args=(k,)) for k in range(len(queries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave inside the pool and the accept loop
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert results == [[twin.pin_search(start, keywords) for start, keywords in batch]
                           for batch in queries]
        assert [thread.name for thread in threads_since(baseline)] == ["keycube-accept"]


def test_close_after_traffic_starts_no_thread(monkeypatch):
    """The servers stop first, so closing the pooled sockets wakes no parked connection."""
    net = build_network(NetworkConfig(r=4, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(16)))
    populate(net, 100, seed=1)
    assert pooled(net) > 0
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    net.close()
    assert started == []
    assert pooled(net) == 0


def test_a_handler_thread_that_cannot_start_costs_one_connection(monkeypatch, caplog):
    monkeypatch.setattr(network, "WIRE_TIMEOUT", 2.0)  # a client waits no longer than this
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)) as net:
        address = net.cfg.address_of(NodeId(1, 0))
        NodeClient(address).info()  # leaves a pooled socket, parked at the node
        failed = []
        start = threading.Thread.start

        def start_failing_once(thread):
            if not failed:
                failed.append(thread.name)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_failing_once)
        # The parked connection was closed: retried.
        assert NodeClient(address).info()["id"] == "0"
        assert len(failed) == 1
        assert "keycube-accept" in [thread.name for thread in threading.enumerate()]
        assert NodeClient(net.cfg.address_of(NodeId(1, 1))).info()["id"] == "1"
    assert "cannot serve a connection" in caplog.text


class HeldHash:
    """keyword_bit, except that hashing the keyword "held" waits for `release`."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, word, r):
        if word == "held":
            self.entered.set()
            assert self.release.wait(timeout=10)
        return keyword_bit(word, r)


HELD_PIN = b"GET /pin?keywords=held HTTP/1.1\r\nHost: x\r\n\r\n"  # 0 hops from node 1


@contextmanager
def held_request(net, held):
    """Send `HELD_PIN` to node 1 on a new socket and yield (socket, handler thread)
    once the handler is held in the hash."""
    assert keyword_bit("held", 1) == 0
    baseline = set(threading.enumerate())
    with socket.create_connection(("127.0.0.1", net.cfg.base_port + 1), timeout=5) as sock:
        sock.sendall(HELD_PIN)
        assert held.entered.wait(timeout=5)
        [handler] = set(threading.enumerate()) - baseline
        yield sock, handler


def test_one_pooled_socket_serves_200_requests_in_turn():
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)) as net:
        client = NodeClient(net.cfg.address_of(NodeId(1, 0)))
        client.info()
        [sock] = _POOL[("127.0.0.1", base)]
        for k in range(200):  # each parks the connection, and the next finds it armed
            assert client.info()["id"] == "0", k
        assert _POOL[("127.0.0.1", base)] == [sock]


def test_a_handler_that_ends_after_its_node_shut_down_closes_its_connection():
    held = HeldHash()
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base,
                                     hash_fn=held)) as net:
        with held_request(net, held) as (sock, handler):
            net.servers[1].shutdown()
            held.release.set()
            lines, body = read_reply(sock)  # the request came before the shutdown
            assert lines[0] == "HTTP/1.1 200 OK" and json.loads(body)["hops"] == 0
            assert sock.recv(1) == b""  # closed, not parked again
            handler.join(timeout=5)
            assert not handler.is_alive()
        assert NodeClient(net.cfg.address_of(NodeId(1, 0))).info()["id"] == "0"


def test_a_handler_that_ends_after_close_closes_its_connection_and_raises_nothing(
        monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    held = HeldHash()
    net = build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(2), hash_fn=held))
    with held_request(net, held) as (sock, handler):
        net.close()  # the loop, and its epoll, end while the handler is held
        held.release.set()
        lines, _ = read_reply(sock)
        assert lines[0] == "HTTP/1.1 200 OK"
        assert sock.recv(1) == b""
        handler.join(timeout=5)
        assert not handler.is_alive()
    assert raised == []


# --- fuzzing the server over a raw socket ---------------------------------------------

@pytest.fixture(scope="module")
def fuzz_port():
    base = free_port_block(2)
    with build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE, base_port=base)):
        yield base


FREE_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=255,
                                  exclude_characters="\r\n"), max_size=16)
# Header names that can never spell a field the server reads.
FREE_NAME = st.text("XYZxyz-_ \t!@", max_size=8)
HEADER_LINES = st.one_of(
    st.sampled_from([
        "Host: x", "Connection: close", "Connection: Close", "Connection: keep-alive",
        "Connection: keep-alive, close", "Connection:", "Expect: 100-continue",
        "Expect: something-else", "Transfer-Encoding: chunked", "Transfer-Encoding: identity",
        "Transfer-Encoding:", "Host : x", " Host: x", "\tHost: x", "NoColon", ": no name",
        "X Pad: y", "X-Pad:"]),
    st.builds("{}:{}".format, FREE_NAME, FREE_TEXT),
)
BODIES = st.one_of(
    st.binary(max_size=1024),
    st.sampled_from([
        b'{"cid": "fuzz", "keywords": ["kw0000"]}', b'{"cid": 5}', b"[]", b"{}", b"null",
        b'{"op": "ping", "target": "1", "visited": []}', b'{"op": "pin"}', b"[" * 600]),
)
# The framing of the body: its Content-Length written in one of these ways.
FRAMINGS = st.one_of(
    st.sampled_from(["Content-Length: {n}", "content-length:{n}", "CONTENT-LENGTH:  {n} ",
                     "Content-Length: 00{n}", "Content-Length: {n}\r\nContent-Length: {n}"]),
    st.none(),  # no Content-Length, and so no body
    st.sampled_from(["abc", "-1", "+1", "1e3", "\xb2", "", "1, 1", str(MAX_BODY_BYTES + 1),
                     "{n}\r\nContent-Length: 1{n}"]).map("Content-Length: {}".format),
)


@given(method=st.sampled_from(["GET", "POST", "PUT", "HEAD", "get", ""]) | FREE_TEXT,
       path=st.sampled_from(["/info", "/pin?keywords=kw0000", "/superset?keywords=kw0000&limit=2",
                             "/superset?limit=x", "/insert", "/remove", "/internal/forward",
                             "/nope", "//info", "*", "http://[x/info", "/a b"]) | FREE_TEXT,
       version=st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9", "ICY/1.1",
                                "HTTP/1.1 extra", "http/1.1"]),
       headers=st.lists(HEADER_LINES, max_size=8), framing=FRAMINGS, body=BODIES)
@settings(max_examples=300, deadline=None)
def test_every_request_gets_one_whole_json_reply(fuzz_port, method, path, version, headers,
                                                  framing, body):
    if framing is None:
        body = b""
    else:
        headers = [*headers, framing.format(n=len(body))]
    request = "\r\n".join([f"{method} {path} {version}", *headers, "", ""])
    with socket.create_connection(("127.0.0.1", fuzz_port), timeout=5) as sock:
        sock.sendall(request.encode("latin-1") + body)
        lines, reply = read_reply(sock)
        assert type(json.loads(reply)) is dict
        if not any(re.fullmatch(r"connection:\s*close\s*", line, re.I) for line in lines[1:]):
            # Still good for the next request, which asks the node to close, as the
            # reply says: the node's side, not the client's, holds the TIME_WAIT.
            sock.sendall(b"GET /info HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            lines, reply = read_reply(sock)
            assert lines[0] == "HTTP/1.1 200 OK" and lines[-1] == "Connection: close"
            assert json.loads(reply)["id"] == "0"
        try:
            assert sock.recv(1) == b""  # the node closes after a reply that says so
        except ConnectionResetError:  # and the client's unread bytes make it a reset
            pass


# --- in-process legs: a handover ----------------------------------------------------

def containers(value):
    """Every list, tuple and dict reachable from value, itself included."""
    if isinstance(value, dict):
        return [value] + [c for v in value.values() for c in containers(v)]
    if isinstance(value, (list, tuple)):
        return [value] + [c for v in value for c in containers(v)]
    return []


def test_in_process_legs_are_handed_over(monkeypatch):
    # A sender never reads an envelope after `call`, so in process the callee
    # gets the very dict that was sent, and appends itself to its path.
    net = make_net(3)
    start, target = net.nodes[NodeId.parse("011")], net.nodes[NodeId.parse("111")]
    legs = []
    handled = []
    handle = target.handle_forward

    def spy_call(node, envelope):
        reply = node.handle_forward(envelope)
        legs.append((envelope, reply))
        return reply

    def spy_handle(envelope):
        reply = handle(envelope)
        handled.append((envelope, reply))
        return reply

    spy_on_legs(monkeypatch, net, spy_call)
    monkeypatch.setattr(target, "handle_forward", spy_handle)
    net.pin_search(start.id, KEYS_AT_111)
    [(sent, received)] = legs  # one hop: 011 and 111 differ in one bit
    [(arrived, replied)] = handled
    assert arrived is sent and arrived["visited"] == ["011", "111"]
    assert received is replied


CLIENT_ENTRIES = {  # each in-process client entry, called by `Network` with a start node
    "client_insert": lambda net, start: net.insert("c", KEYS_AT_111, start=start),
    "client_remove": lambda net, start: net.remove("c", KEYS_AT_111, start=start),
    "client_pin": lambda net, start: net.pin_search(start, KEYS_AT_111),
    "client_superset": lambda net, start: net.superset_search(start, KEYS_AT_111, 5),
    "client_ping": lambda net, start: net.route(start, NodeId.parse("111")),
}


@pytest.mark.parametrize("start", ["111", "000"], ids=["0 hops", "3 hops"])
@pytest.mark.parametrize("entry", CLIENT_ENTRIES)
def test_in_process_client_replies_are_returned_as_built(entry, start, monkeypatch):
    net = make_net(3)
    node = net.nodes[NodeId.parse(start)]
    returned, sent, arrived = [], [], []
    call = getattr(node, entry)

    def spy_entry(*args):
        returned.append(call(*args))
        return returned[-1]

    def spy_send(target, envelope):
        sent.append(envelope)
        return target.handle_forward(envelope)

    def spy_handle(handle, envelope):
        arrived.append(envelope)
        return handle(envelope)

    monkeypatch.setattr(node, entry, spy_entry)
    spy_on_legs(monkeypatch, net, spy_send)
    for other in net.nodes.values():
        monkeypatch.setattr(other, "handle_forward",
                            functools.partial(spy_handle, other.handle_forward))
    result = CLIENT_ENTRIES[entry](net, node.id)
    [reply] = returned
    if type(result) is dict:  # insert and remove return the reply itself
        assert result is reply
    else:
        assert result.hops == reply["hops"]
        assert [n.text for n in result.nodes_visited] == reply["visited"]
    # One leg per hop (node 111 is 0 or 3 legs away), each the dict that was sent:
    # a routed envelope is the entry's own, all the way to its target.
    assert len(arrived) == len(sent) == hamming_distance(node.id, NodeId.parse("111"))
    assert all(leg is envelope for envelope, leg in zip(sent, arrived))
    assert all(leg is arrived[0] for leg in arrived)


def test_no_in_process_client_reply_shares_a_container_with_an_earlier_one(monkeypatch):
    net = make_net(3)
    replies = []  # kept alive, so no id is reused
    for node in net.nodes.values():
        for entry in CLIENT_ENTRIES:
            def spy(*args, call=getattr(node, entry)):
                replies.append(call(*args))
                return replies[-1]

            monkeypatch.setattr(node, entry, spy)
    for start in net.node_ids:
        for entry in ("client_insert", "client_pin", "client_superset", "client_ping",
                      "client_pin", "client_remove", "client_superset"):
            CLIENT_ENTRIES[entry](net, start)
    assert len(replies) == 7 * 8
    seen = set()
    for reply in replies:
        ids = {id(c) for c in containers(reply)}
        assert not ids & seen
        seen |= ids


def test_sibling_walk_legs_are_distinct_dicts_with_their_own_lists(monkeypatch):
    # The walk of region 1** on [key] from 000 sends a leg to 110, a sibling leg
    # to 101, and from there one to 111. Each child owns its leg: `collected` is
    # a copy of what was found when it was sent, and `visited` starts empty.
    net = make_net(3)
    key = next(word for word in experiment_keywords(3) if keyword_bit(word, 3) == 0)
    for cid, value in (("at-100", 1), ("at-110", 3), ("at-111", 7)):
        net.insert(cid, [word for word in KEYS_AT_111 if value >> keyword_bit(word, 3) & 1])
    legs = []

    def spy_call(target, envelope):
        if envelope["op"] == "superset_visit":
            legs.append((target.text, envelope, json.loads(json.dumps(envelope))))
        return target.handle_forward(envelope)

    spy_on_legs(monkeypatch, net, spy_call)
    result = net.superset_search(NodeId.parse("000"), [key], 10)
    assert result.cids == ("at-100", "at-110", "at-111")
    assert [(text, sent["collected"], sent["visited"]) for text, _, sent in legs] == [
        ("110", ["at-100"], []), ("101", ["at-100", "at-110"], []),
        ("111", ["at-100", "at-110"], [])]
    for key_name in (None, "collected", "visited"):
        objects = [leg if key_name is None else leg[key_name] for _, leg, _ in legs]
        assert len({id(obj) for obj in objects}) == len(legs)


@pytest.mark.parametrize("start", ["111", "000"], ids=["0 hops", "3 hops"])
@pytest.mark.parametrize("entry", ["client_insert", "client_remove"])
def test_a_bytes_cid_given_to_a_node_is_refused_at_its_target(entry, start):
    # `Network` refuses a non-`str` cid before any leg; a direct call to the node
    # skips that check, and the target's inline cid check refuses it instead.
    net = make_net(3)
    with pytest.raises(ValueError, match="cid must be a non-empty string"):
        getattr(net.nodes[NodeId.parse(start)], entry)(b"c", KeywordSet(KEYS_AT_111))


@pytest.mark.parametrize("start", ["111", "000"], ids=["0 hops", "3 hops"])
@pytest.mark.parametrize("transport", ["in-process", "wire"])
def test_a_malformed_query_reply_raises_routing_failure(twin_nets, transport, start, monkeypatch):
    # `QueryResult.from_reply` is the one check of a query reply: ids that are
    # not `str`s in `visited` reach it as they are in process, and as JSON lists
    # over the wire, and it refuses both alike.
    net = twin_nets[transport]
    target = net.nodes[NodeId.parse("111")]
    handle = target._handle

    def bad_handle(env):
        reply = handle(env)
        reply["visited"] = [NodeId.parse(text) for text in reply["visited"]]  # not `str`s
        return reply

    monkeypatch.setattr(target, "_handle", bad_handle)
    with pytest.raises(RoutingFailure, match="not a query reply"):
        net.pin_search(NodeId.parse(start), KEYS_AT_111)


# --- transport equivalence ------------------------------------------------------------

@pytest.fixture(scope="module")
def twin_nets(wire_net):
    """An in-process r=3 network beside the module's wire network."""
    return {"in-process": make_net(3), "wire": wire_net}


# One keyword per bit position: owned by node 111, three hops from 000.
KEYS_AT_111 = [next(word for word in experiment_keywords(3) if keyword_bit(word, 3) == bit)
               for bit in range(3)]


class _Str(str):
    """A str subclass: refused as a keyword or cid on both transports."""


# Each case fails at its own distance from the start node 000: on the
# client (bare string, comma), at the start node (limit 0) or at the target.
ERROR_CASES = {
    "bare-string keywords": (InvalidKeyword, lambda net: net.insert("c", "abc")),
    "keyword with a comma": (InvalidKeyword, lambda net: net.pin_search(
        NodeId.parse("000"), ["x,y"])),
    "superset limit 0": (ValueError, lambda net: net.superset_search(
        NodeId.parse("000"), ["kw0000"], 0)),
    "empty cid, 3 hops away": (ValueError, lambda net: net.insert(
        "", KEYS_AT_111, start=NodeId.parse("000"))),
    # Refused on the client, before either transport is used.
    "pin from a start of r=2": (DimensionMismatch, lambda net: net.pin_search(
        NodeId(2, 1), KEYS_AT_111)),
    "pin from a start of r=4": (DimensionMismatch, lambda net: net.pin_search(
        NodeId(4, 12), KEYS_AT_111)),
    "insert from a start of r=2": (DimensionMismatch, lambda net: net.insert(
        "c", KEYS_AT_111, start=NodeId(2, 1))),
    "route from a start of r=2": (DimensionMismatch, lambda net: net.route(
        NodeId(2, 1), NodeId.parse("111"))),
    "superset limit True": (ValueError, lambda net: net.superset_search(
        NodeId.parse("000"), ["kw0000"], True)),
    "superset limit 2.5": (ValueError, lambda net: net.superset_search(
        NodeId.parse("000"), ["kw0000"], 2.5)),
    "superset limit '3'": (ValueError, lambda net: net.superset_search(
        NodeId.parse("000"), ["kw0000"], "3")),
    "superset limit -1": (ValueError, lambda net: net.superset_search(
        NodeId.parse("000"), ["kw0000"], -1)),
    "insert an int cid": (ValueError, lambda net: net.insert(
        5, KEYS_AT_111, start=NodeId.parse("000"))),
    "remove an int cid": (ValueError, lambda net: net.remove(
        5, KEYS_AT_111, start=NodeId.parse("000"))),
    "str-subclass keyword": (InvalidKeyword, lambda net: net.pin_search(
        NodeId.parse("000"), [_Str(KEYS_AT_111[0])])),
    "str-subclass cid": (ValueError, lambda net: net.insert(
        _Str("c"), KEYS_AT_111, start=NodeId.parse("000"))),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_types_agree_across_transports(twin_nets, case):
    expected, act = ERROR_CASES[case]
    raised = {}
    for transport, net in twin_nets.items():
        with pytest.raises(expected) as info:
            act(net)
        raised[transport] = type(info.value)
    assert raised["in-process"] is raised["wire"]


def test_keys_at_111_are_three_hops_from_000():
    assert node_for_keywords(KEYS_AT_111, 3) == NodeId.parse("111")


def test_superset_counts_a_cid_stored_under_two_keysets_once():
    # The cid "dup" sits at the walk root 100 and, under two more keysets,
    # at 110, the next node walked; "other" sits at 101, the one after.
    # Were the duplicates counted, limit 2 would stop the walk at 110.
    universe = experiment_keywords(3)
    at = {bit: [word for word in universe if keyword_bit(word, 3) == bit] for bit in range(3)}
    key = at[0][0]
    stored = [("dup", [key]), ("dup", [key, at[1][0]]), ("dup", [key, at[1][1]]),
              ("other", [key, at[2][0]])]
    base = free_port_block(8)
    wire = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    try:
        for net in (make_net(3), wire):
            for cid, keywords in stored:
                net.insert(cid, keywords)
            result = net.superset_search(NodeId.parse("000"), [key], 2)
            assert result.cids == ("dup", "other")
            assert result.hops == 3
            assert [n.text for n in result.nodes_visited] == ["000", "100", "110", "101"]
    finally:
        wire.close()


def test_transports_agree_on_100_queries():
    base = free_port_block(8)
    mem_net = make_net(3)
    wire = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    try:
        populate(mem_net, 60, seed=13)
        populate(wire, 60, seed=13)
        universe = experiment_keywords(3)
        rng = random.Random(99)
        for i in range(100):
            start = NodeId(3, rng.randrange(8))
            keywords = KeywordSet(rng.sample(universe, rng.randint(1, 3)))
            if i % 2 == 0:
                a = mem_net.pin_search(start, keywords)
                b = wire.pin_search(start, keywords)
            else:
                a = mem_net.superset_search(start, keywords, 5)
                b = wire.superset_search(start, keywords, 5)
            assert a.cids == b.cids
            assert a.hops == b.hops
            assert a.nodes_visited == b.nodes_visited
    finally:
        wire.close()


def test_leg_envelopes_are_json_exact_and_match_across_transports(twin_nets, monkeypatch):
    # In process, a leg is the envelope itself, handed over, so every value must
    # already be JSON-exact where the envelope is built: each envelope that
    # reaches `handle_forward` is made of exact JSON types and survives the JSON
    # round trip, and the wire delivers the same JSON text in the same order.
    # The walk of region 1** on [key] from 000 meets "leg-dup" at its root 100,
    # drops it again at 110, and meets its limit 2 at 101.
    def json_exact(x):
        """Dicts with `str` keys, lists, and exact `str`, `int`, `float`, `bool` or None:
        stricter than the round trip, which takes a `str` subclass or an `IntEnum`."""
        kind = type(x)
        if kind is dict:
            return all(type(k) is str and json_exact(v) for k, v in x.items())
        if kind is list:
            return all(map(json_exact, x))
        return kind in (str, int, float, bool, type(None))

    assert not any(map(json_exact, [[_Str("a")], {"k": KeywordSet(["a"])}, {1: "a"}]))
    universe = experiment_keywords(3)
    at = {bit: [word for word in universe if keyword_bit(word, 3) == bit] for bit in range(3)}
    key, start = at[0][0], NodeId.parse("000")
    stored = [("leg-dup", [key]), ("leg-dup", [key, at[1][0]]), ("leg-dup", [key, at[1][1]]),
              ("leg-other", [key, at[2][0]])]
    ops = {
        "insert": lambda net: [net.insert(cid, words, start=start) for cid, words in stored],
        "pin": lambda net: net.pin_search(start, stored[1][1]).cids,
        "ping": lambda net: net.route(start, NodeId.parse("111")).hops,
        "superset": lambda net: net.superset_search(start, [key], 2).cids,
        "remove": lambda net: [net.remove(cid, words, start=start) for cid, words in stored],
    }
    assert [*twin_nets["in-process"].scan_records()] == [*twin_nets["wire"].scan_records()]
    legs, unknown_legs = {}, {}
    for transport, net in twin_nets.items():
        seen = []
        for node in net.nodes.values():
            def spy(envelope, text=node.text, handle=node.handle_forward):
                sent = json.dumps(envelope)  # before the node appends itself
                exact = json_exact(envelope) and envelope == json.loads(sent)
                seen.append((text, sent, exact))
                return handle(envelope)

            monkeypatch.setattr(node, "handle_forward", spy)
        results = {op: act(net) for op, act in ops.items()}
        assert results["superset"] == ("leg-dup", "leg-other")
        assert all(reply["status"] == "removed" for reply in results["remove"])
        legs[transport] = [*seen]
        seen.clear()
        with pytest.raises(KeycubeError, match="unknown op 'bogus'"):
            net.nodes[start].peers[start.value].handle_forward({"op": "bogus", "target": "110",
                                                                "visited": []})
        unknown_legs[transport] = seen
    assert all(exact for _, _, exact in legs["in-process"] + unknown_legs["in-process"])
    assert legs["in-process"] == legs["wire"]
    ops_sent = [(text, json.loads(sent)["op"]) for text, sent, _ in legs["wire"]]
    assert {op for _, op in ops_sent} == {*ops, "superset_visit"}
    assert [text for text, op in ops_sent if op == "superset_visit"] == ["110", "101"]
    # The wire decode refuses an unknown op; in process it is routed to its target.
    assert [text for text, _, _ in unknown_legs["in-process"]] == ["000", "100", "110"]
    assert unknown_legs["wire"] == []


# --- the path is the hop count ----------------------------------------------------------

# The exact keys of every node-to-node message: no leg and no walk reply
# carries a hop counter; only a client reply does, derived from `visited`.
LEG_KEYS = {
    "ping": {"op", "target", "visited"},
    "pin": {"op", "target", "keywords", "visited"},
    "insert": {"op", "target", "keywords", "visited", "cid"},
    "remove": {"op", "target", "keywords", "visited", "cid"},
    "superset": {"op", "target", "keywords", "visited", "limit"},
    "superset_visit": {"op", "target", "keywords", "limit", "collected", "visited"},
}
REPLY_KEYS = {
    "ping": ["status", "node", "hops", "visited"],
    "pin": ["cids", "hops", "visited"],
    "insert": ["status", "node"],
    "remove": ["status", "node"],
    "superset": ["cids", "hops", "visited"],
    "superset_visit": ["cids", "visited"],
}


def seeded_queries(net, rng, count):
    """`count` seeded pins, supersets and routes on `net`, each with its result."""
    r = net.cfg.r
    universe = experiment_keywords(r)
    for i in range(count):
        start = NodeId(r, rng.randrange(1 << r))
        keywords = KeywordSet(rng.sample(universe, rng.randint(1, r)))
        yield net.pin_search(start, keywords)
        yield net.superset_search(start, keywords, (1, 5, 10**6)[i % 3])
        yield net.route(start, NodeId(r, rng.randrange(1 << r)))


def test_hops_are_the_path_length_and_no_leg_carries_them(monkeypatch):
    net = make_net(8)
    legs = []

    def recording_call(target, envelope):
        sent = json.loads(json.dumps(envelope))  # the callee appends to the leg it is handed
        reply = target.handle_forward(envelope)
        legs.append((sent, reply))
        return reply

    spy_on_legs(monkeypatch, net, recording_call)
    gone = populate(net, 200, seed=4)[0]
    far = NodeId(8, 255 - node_for_keywords(gone.keywords, 8).value)
    assert net.remove(gone.cid, gone.keywords, start=far)["status"] == "removed"
    results = list(seeded_queries(net, random.Random(8), 30))
    assert {sent["op"] for sent, _ in legs} == set(LEG_KEYS)
    for sent, reply in legs:
        assert set(sent) == LEG_KEYS[sent["op"]]
        assert list(reply) == REPLY_KEYS[sent["op"]]
    for result in results:
        assert result.hops == len(result.nodes_visited) - 1

    base = free_port_block(8)
    with build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base)) as wire:
        populate(wire, 30, seed=4)
        for result in seeded_queries(wire, random.Random(8), 10):
            assert result.hops == len(result.nodes_visited) - 1
