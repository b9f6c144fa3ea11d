import enum
import json
import random
import socket
import threading
import time
from types import SimpleNamespace
from urllib.parse import urlencode

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keycube.errors import (
    BootstrapError,
    InternalError,
    InvalidKeyword,
    NotResponsible,
    RoutingFailure,
)
from keycube.network import (
    MAX_BODY_BYTES,
    TRANSPORT_WIRE,
    NetworkConfig,
    WireTransport,
    _copy,
    build_network,
    experiment_keywords,
    populate,
    wire_info,
    wire_insert,
    wire_pin,
    wire_remove,
    wire_superset,
)
from keycube.query import ENVELOPE_FIELDS
from keycube.topology import (
    KeywordSet,
    NodeId,
    hamming_distance,
    keyword_bit,
    node_for_keywords,
    superset_region,
)

from conftest import make_net


def free_port_block(size):
    """Find a base port with `size` consecutive free ports on loopback."""
    for base in range(20000, 40000, 256):
        try:
            socks = []
            for offset in range(size):
                s = socket.socket()
                socks.append(s)  # before bind, so a failed bind's socket is closed too
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
    blocker.bind(("127.0.0.1", base + 3))
    blocker.listen(1)
    try:
        with pytest.raises(BootstrapError, match="110"):
            build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    finally:
        blocker.close()


def test_close_stops_all_servers_at_once():
    net = build_network(NetworkConfig(r=4, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(16)))
    addresses = [net.cfg.address_of(node_id) for node_id in net.node_ids]
    start = time.perf_counter()
    net.close()
    assert time.perf_counter() - start < 3.0
    for address in addresses:
        with pytest.raises(RoutingFailure):
            wire_info(address)


def test_close_after_servers_were_shut_down():
    net = build_network(NetworkConfig(r=2, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(4)))
    for server in net.servers:
        server.shutdown()
    net.close()
    assert net.servers == []


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
    info = wire_info(addr(wire_net, "010"))
    assert info["id"] == "010"
    assert info["r"] == 3
    assert len(info["neighbors"]) == 3


def test_insert_routes_to_responsible_node(wire_net):
    universe = experiment_keywords(3)
    keywords = KeywordSet([universe[0]])
    owner = node_for_keywords(keywords, 3)
    reply = wire_net.insert("cid-wire-1", keywords, start=NodeId.parse("111"))
    assert reply == {"status": "stored", "node": owner.text}
    found = wire_pin(addr(wire_net, "000"), keywords)
    assert found["cids"] == ["cid-wire-1"]
    wire_remove(addr(wire_net, "000"), "cid-wire-1", keywords)


def test_remove_reports_not_found(wire_net):
    reply = wire_remove(addr(wire_net, "000"), "cid-ghost", KeywordSet(["kw0000"]))
    assert reply["status"] == "not_found"


def test_superset_endpoint_respects_limit(wire_net):
    universe = experiment_keywords(3)
    keywords = KeywordSet([universe[5]])
    for i in range(4):
        wire_net.insert(f"cid-sup-{i}", keywords)
    reply = wire_superset(addr(wire_net, "011"), keywords, 2)
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


# Envelopes over a budget that honest routing keeps: a path of at most r=3
# hops, so at most 3 visited entries on arrival, and no more collected cids
# than the limit.
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


def test_superset_leg_failure_reports_the_whole_path():
    base = free_port_block(8)
    net = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=base))
    try:
        order = list(superset_region(NodeId.parse("000")))
        dead = net.servers.pop(order[3].value)
        dead.shutdown()
        dead.server_close()
        with pytest.raises(RoutingFailure) as info:
            net.superset_search(NodeId.parse("000"), [], 10**6)
        assert info.value.visited == [n.text for n in order[:3]]
    finally:
        net.close()


# --- the wire client: one socket per request ----------------------------------------

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
        assert WireTransport(cfg).call(NodeId(1, 0), env) == reply
    assert node.request_line == "POST /internal/forward HTTP/1.1"
    assert node.body_sent == json.dumps(env).encode()
    assert int(node.headers["content-length"]) == len(node.body_sent)
    assert node.headers["host"] == f"127.0.0.1:{node.port}"
    assert node.headers["connection"] == "close"


def test_wire_insert_sends_the_record_as_json():
    keywords = KeywordSet(["lake", "é", "a b"])
    with StandInNode(b'{"status": "stored", "node": "0"}') as node:
        assert wire_insert(node.address, "cid-ü", keywords)["status"] == "stored"
    assert node.request_line == "POST /insert HTTP/1.1"
    assert node.body_sent == json.dumps({"cid": "cid-ü", "keywords": list(keywords)}).encode()


def test_pin_and_superset_send_urlencoded_queries():
    keywords = KeywordSet(["a b", "café", "x&y=1"])
    reply = b'{"cids": [], "hops": 0, "visited": []}'
    with StandInNode(reply) as pin, StandInNode(reply) as superset:
        wire_pin(pin.address, keywords)
        wire_superset(superset.address, keywords, 7)
    query = urlencode({"keywords": ",".join(keywords)})
    assert pin.request_line == f"GET /pin?{query} HTTP/1.1"
    query = urlencode({"keywords": ",".join(keywords), "limit": "7"})
    assert superset.request_line == f"GET /superset?{query} HTTP/1.1"


def test_reply_that_is_not_json_is_a_routing_failure():
    with StandInNode(b"<html>") as node:
        with pytest.raises(RoutingFailure, match="/pin"):
            wire_pin(node.address, KeywordSet(["a"]))


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
            WireTransport(cfg).call(NodeId(1, 0), env)
    assert info.value.visited == ["0"]


def test_routing_failure_reply_is_reraised_with_its_path():
    body = json.dumps({"error": "RoutingFailure", "detail": "leg to 11 failed",
                       "visited": ["00", "01"]}).encode()
    with StandInNode(raw=http_reply(body, "502 Bad Gateway")) as node:
        with pytest.raises(RoutingFailure, match="leg to 11 failed") as info:
            wire_pin(node.address, KeywordSet(["a"]))
    assert info.value.visited == ["00", "01"]


def test_pin_search_on_a_closed_wire_network_is_a_routing_failure():
    net = build_network(NetworkConfig(r=1, transport=TRANSPORT_WIRE,
                                      base_port=free_port_block(2)))
    net.close()
    with pytest.raises(RoutingFailure):
        net.pin_search(NodeId.parse("0"), ["a"])


@pytest.mark.parametrize("address", ["127.0.0.1:9000", "ftp://127.0.0.1:9000",
                                     "http://127.0.0.1:port", "http://bücher:9000"])
def test_bad_node_address_is_a_routing_failure(address):
    with pytest.raises(RoutingFailure, match="bad node address"):
        wire_pin(address, KeywordSet(["a"]))


def test_wire_info_bad_address_is_routing_failure():
    with pytest.raises(RoutingFailure, match="bad node address"):
        wire_info("ftp://x")


# --- in-process legs: a strict structural copy ----------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


def containers(value):
    """Every list, tuple and dict reachable from value, itself included."""
    if isinstance(value, dict):
        return [value] + [c for v in value.values() for c in containers(v)]
    if isinstance(value, (list, tuple)):
        return [value] + [c for v in value for c in containers(v)]
    return []


@given(json_values)
@example(["a", 1, 2.5, True, None])  # flat: copied in one step
@example(("a", 1))
@settings(max_examples=300, deadline=None)
def test_copy_is_the_json_round_trip_without_shared_objects(value):
    copied = _copy(value)
    assert copied == json.loads(json.dumps(value))
    originals = {id(c) for c in containers(value)}
    assert not any(id(c) in originals for c in containers(copied))


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


@pytest.mark.parametrize("value", [
    {"a", "b"}, b"bytes", object(), {1: "a"}, {"visited": [{"nested": {2: 3}}]},
    ["ok", {"bad": {"x"}}], ["a", Level.LOW], ("a", Text("b"))],
    ids=["set", "bytes", "object", "int key", "nested int key", "nested set",
         "IntEnum in flat list", "str subclass in flat tuple"])
def test_copy_rejects_what_json_does_not_carry(value):
    with pytest.raises(TypeError):
        _copy(value)


def test_in_process_legs_share_no_objects(monkeypatch):
    net = make_net(3)
    start, target = net.nodes[NodeId.parse("011")], net.nodes[NodeId.parse("111")]
    legs = []
    handled = []
    call, handle = start.transport.call, target.handle_forward

    def spy_call(node_id, envelope):
        reply = call(node_id, envelope)
        legs.append((envelope, reply))
        return reply

    def spy_handle(envelope):
        reply = handle(envelope)
        handled.append((envelope, reply))
        return reply

    monkeypatch.setattr(start.transport, "call", spy_call)
    monkeypatch.setattr(target, "handle_forward", spy_handle)
    net.pin_search(start.id, KEYS_AT_111)
    [(sent, received)] = legs  # one hop: 011 and 111 differ in one bit
    [(arrived, replied)] = handled
    assert arrived is not sent and arrived["visited"] is not sent["visited"]
    assert arrived["keywords"] is not sent["keywords"]
    assert sent["visited"] == ["011"] and arrived["visited"] == ["011", "111"]
    assert received is not replied and received["visited"] is not replied["visited"]
    assert received == replied


# --- transport equivalence ------------------------------------------------------------

@pytest.fixture(scope="module")
def twin_nets(wire_net):
    """An in-process r=3 network beside the module's wire network."""
    return {"in-process": make_net(3), "wire": wire_net}


# One keyword per bit position: owned by node 111, three hops from 000.
KEYS_AT_111 = [next(word for word in experiment_keywords(3) if keyword_bit(word, 3) == bit)
               for bit in range(3)]

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


def test_hops_are_the_path_length_and_no_leg_carries_them():
    net = make_net(8)
    legs = []
    call = net.nodes[NodeId(8, 0)].transport.call  # the transport all nodes share

    def recording_call(target, envelope):
        sent = json.loads(json.dumps(envelope))  # the walk's leg dict changes later
        reply = call(target, envelope)
        legs.append((sent, reply))
        return reply

    recorder = SimpleNamespace(call=recording_call)
    for node in net.nodes.values():
        node.transport = recorder
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
