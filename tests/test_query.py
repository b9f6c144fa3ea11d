import functools
import itertools
import json
import random
import sys

import pytest

from keycube.errors import DimensionMismatch, KeycubeError, NotInSupersetRegion
from keycube.network import (
    TRANSPORT_IN_PROCESS,
    TRANSPORT_WIRE,
    NetworkConfig,
    build_network,
    experiment_keywords,
    populate,
    random_keyset,
)
from keycube.query import LogicalNode
from keycube.topology import (
    KeywordSet,
    NodeId,
    TableHash,
    hamming_distance,
    keyword_bit,
    node_for_keywords,
    superset_region,
)

from conftest import make_net
from test_network import free_port_block


def brute_force_pin(net, keywords):
    """Independent oracle: scan every table for exact keyword matches."""
    keywords = KeywordSet(keywords)
    return {rec.cid for _, rec in net.scan_records() if rec.keywords == keywords}


def brute_force_superset(net, keywords):
    keywords = set(KeywordSet(keywords))
    return {rec.cid for _, rec in net.scan_records() if keywords <= set(rec.keywords)}


def all_pattern_keysets(r, universe, hash_fn):
    """One keyword set per bit pattern, built from single-position words."""
    by_bit = {}
    for word in universe:
        by_bit.setdefault(hash_fn(word, r), word)
    keysets = []
    for value in range(1 << r):
        words = [by_bit[i] for i in range(r) if value >> i & 1]
        keysets.append(KeywordSet(words))
    return keysets


# --- route -------------------------------------------------------------------

def test_route_to_self_is_zero_hops():
    net = make_net(3)
    nid = NodeId.parse("010")
    res = net.route(nid, nid)
    assert res.hops == 0
    assert res.nodes_visited == (nid,)


def test_route_worked_example(wiki_net):
    res = wiki_net.route(NodeId.parse("000000"), NodeId.parse("001001"))
    assert res.hops == 2
    assert [n.text for n in res.nodes_visited] == ["000000", "001000", "001001"]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_route_hops_equal_hamming_exhaustively(r):
    net = make_net(r)
    for a, b in itertools.product(net.node_ids, repeat=2):
        res = net.route(a, b)
        assert res.hops == hamming_distance(a, b)
        assert res.nodes_visited[0] == a
        assert res.nodes_visited[-1] == b
        for u, v in zip(res.nodes_visited, res.nodes_visited[1:]):
            assert hamming_distance(u, v) == 1


def test_route_mean_hops_r7():
    net = make_net(7)
    rng = random.Random(11)
    hops = []
    for _ in range(300):
        a = NodeId(7, rng.randrange(128))
        b = NodeId(7, rng.randrange(128))
        hops.append(net.route(a, b).hops)
    mean = sum(hops) / len(hops)
    assert 3.0 <= mean <= 4.0


# --- pin search ----------------------------------------------------------------

def test_pin_finds_single_record_from_any_start(wiki_net):
    wiki_net.insert("cid-rome-wiki", ["Wikipedia", "Rome"])
    for value in (0, 9, 21, 63):
        res = wiki_net.pin_search(NodeId(6, value), ["Wikipedia", "Rome"])
        assert res.cids == ("cid-rome-wiki",)
        assert res.hops == hamming_distance(NodeId(6, value), NodeId.parse("001001"))


def test_pin_of_unused_keyset_counts_hops(wiki_net):
    start = NodeId.parse("111111")
    res = wiki_net.pin_search(start, ["Bologna"])
    target = node_for_keywords(["Bologna"], 6, wiki_net.cfg.hash_fn)
    assert res.cids == ()
    assert res.hops == hamming_distance(start, target)


def test_pin_mean_hops_r7_with_objects():
    net = make_net(7)
    populate(net, 50, seed=5)
    universe = experiment_keywords(7)
    rng = random.Random(23)
    hops = []
    for _ in range(50):
        start = NodeId(7, rng.randrange(128))
        keywords = rng.sample(universe, rng.randint(1, 7))
        hops.append(net.pin_search(start, keywords).hops)
    assert 3.0 <= sum(hops) / len(hops) <= 4.0


# --- superset search -------------------------------------------------------------

def test_superset_on_full_keyset_acts_as_pin(wiki_hash):
    net = make_net(6, hash_fn=wiki_hash)
    all_six = ["Temperature", "PoI", "Wikipedia", "Bologna", "Urbino", "Rome"]
    net.insert("cid-all", all_six)
    start = NodeId.parse("000000")
    sup = net.superset_search(start, all_six, limit=10)
    pin = net.pin_search(start, all_six)
    assert sup.cids == pin.cids == ("cid-all",)
    assert sup.hops == pin.hops == 6


def test_superset_collects_chain_of_supersets(wiki_net):
    wiki_net.insert("cid-1", ["Wikipedia", "Rome"])
    wiki_net.insert("cid-2", ["Wikipedia", "Rome", "PoI"])
    wiki_net.insert("cid-3", ["Wikipedia", "Rome", "PoI", "Temperature"])
    res = wiki_net.superset_search(NodeId.parse("000000"), ["Wikipedia", "Rome"], 10)
    assert set(res.cids) == {"cid-1", "cid-2", "cid-3"}


def test_superset_limit_one_stops_at_root(wiki_net):
    wiki_net.insert("cid-1", ["Wikipedia", "Rome"])
    wiki_net.insert("cid-2", ["Wikipedia", "Rome", "PoI"])
    start = NodeId.parse("110110")
    res = wiki_net.superset_search(start, ["Wikipedia", "Rome"], 1)
    assert res.cids == ("cid-1",)
    assert res.hops == hamming_distance(start, NodeId.parse("001001"))


def test_superset_rejects_zero_limit(wiki_net):
    with pytest.raises(ValueError):
        wiki_net.superset_search(NodeId.parse("000000"), ["Rome"], 0)


def test_superset_visits_only_region_and_never_twice():
    net = make_net(4)
    populate(net, 30, seed=3)
    universe = experiment_keywords(4)
    rng = random.Random(9)
    for _ in range(25):
        start = NodeId(4, rng.randrange(16))
        keywords = KeywordSet(rng.sample(universe, rng.randint(1, 4)))
        root = node_for_keywords(keywords, 4)
        res = net.superset_search(start, keywords, limit=10**6)
        route_len = hamming_distance(start, root)
        tree_nodes = res.nodes_visited[route_len:]
        assert tree_nodes[0] == root
        assert len(tree_nodes) == len(set(tree_nodes))
        assert all(n.value & root.value == root.value for n in tree_nodes)


def test_superset_visited_follows_region_order_exactly():
    net = make_net(6)
    populate(net, 200, seed=6)
    universe = experiment_keywords(6)
    rng = random.Random(12)
    for _ in range(20):
        start = NodeId(6, rng.randrange(64))
        keywords = KeywordSet(rng.sample(universe, rng.randint(0, 3)))
        root = node_for_keywords(keywords, 6)
        region = list(superset_region(root))
        route_len = hamming_distance(start, root)
        for limit in (10**6, 1, 3, 10, 40):
            res = net.superset_search(start, keywords, limit)
            tree_nodes = list(res.nodes_visited[route_len:])
            if limit == 10**6:
                assert tree_nodes == region
            else:
                assert tree_nodes == region[:len(tree_nodes)]


class RecordingTransport:
    """Wraps a transport and keeps a copy of every envelope sent and its reply."""

    def __init__(self, inner):
        self.inner = inner
        self.legs = []

    def call(self, target, envelope):
        sent = json.loads(json.dumps(envelope))
        reply = self.inner.call(target, envelope)
        self.legs.append((sent, reply))
        return reply


def test_superset_walk_envelopes_stay_small():
    r = 8
    net = make_net(r)
    populate(net, 300, seed=21)
    recorder = RecordingTransport(net.nodes[NodeId(r, 0)].transport)
    for node in net.nodes.values():
        node.transport = recorder
    universe = experiment_keywords(r)
    hops = 0
    for word in universe[::4]:
        for limit in (5, 10**6):
            hops += net.superset_search(NodeId(r, 0), [word], limit).hops
    visits = [(env, reply) for env, reply in recorder.legs
              if env["op"] == "superset_visit"]
    assert visits
    for env, _ in visits:
        assert env["visited"] == []
        assert len(env["collected"]) <= env["limit"]
        assert env["target"] == node_for_keywords(env["keywords"], r).text  # the walk root
    assert sum(len(reply["visited"]) for _, reply in recorder.legs) <= hops * (r + 1)


class CountingHash:
    """keyword_bit that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, word, r):
        self.calls += 1
        return keyword_bit(word, r)


def test_superset_walk_hashes_once_per_query_not_per_hop():
    r = 8
    counter = CountingHash()
    net = make_net(r, hash_fn=counter)
    populate(net, 200, seed=5)
    keywords = [experiment_keywords(r)[0]]
    root = node_for_keywords(keywords, r)
    counter.calls = 0
    res = net.superset_search(root, keywords, limit=10**6)
    assert list(res.nodes_visited) == list(superset_region(root))  # all 128 nodes
    assert counter.calls <= 2 * len(keywords)


def test_forwards_equal_hops_and_each_query_hashes_once(monkeypatch):
    # The counts the traced benchmark relies on, for one seeded r=5 workload.
    r = 5
    counter = CountingHash()
    net = make_net(r, hash_fn=counter)
    universe = experiment_keywords(r, hash_fn=counter)
    forwards = 0
    handle_forward = LogicalNode.handle_forward

    def counted(self, envelope):
        nonlocal forwards
        forwards += 1
        return handle_forward(self, envelope)

    monkeypatch.setattr(LogicalNode, "handle_forward", counted)
    rng = random.Random(17)
    counter.calls = 0
    expected_hashes = 0
    for i in range(150):
        keywords = random_keyset(rng, universe, r)
        net.insert(f"obj-{i:03d}", keywords, start=NodeId(r, rng.randrange(1 << r)))
        expected_hashes += len(keywords)
    forwards = 0
    hops = 0
    for _ in range(60):
        start = NodeId(r, rng.randrange(1 << r))
        keywords = random_keyset(rng, universe, r)
        hops += net.pin_search(start, keywords).hops
        hops += net.superset_search(start, keywords.words[:2], rng.choice((1, 5, 10**6))).hops
        expected_hashes += len(keywords) + len(keywords.words[:2])
    assert hops > 0 and forwards == hops
    assert counter.calls == expected_hashes


def test_superset_result_size_contract():
    net = make_net(3)
    populate(net, 40, seed=1)
    universe = experiment_keywords(3)
    rng = random.Random(2)
    for _ in range(30):
        start = NodeId(3, rng.randrange(8))
        keywords = rng.sample(universe, rng.randint(1, 3))
        limit = rng.randint(1, 6)
        res = net.superset_search(start, keywords, limit)
        available = len(brute_force_superset(net, keywords))
        assert len(res.cids) == min(limit, available)


def test_superset_hops_monotone_in_limit():
    net = make_net(4)
    populate(net, 60, seed=8)
    universe = experiment_keywords(4)
    rng = random.Random(4)
    for _ in range(20):
        start = NodeId(4, rng.randrange(16))
        keywords = rng.sample(universe, rng.randint(1, 4))
        hops = [net.superset_search(start, keywords, l).hops for l in (1, 3, 10, 100)]
        assert hops == sorted(hops)


# --- oracle equivalence -----------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3, 4])
def test_oracle_equivalence_exhaustive(r):
    net = make_net(r)
    records = populate(net, 200, seed=100 + r)
    universe = experiment_keywords(r)
    queries = {rec.keywords for rec in records}
    queries.update(all_pattern_keysets(r, universe, net.cfg.hash_fn))
    rng = random.Random(r)
    for keywords in sorted(queries):
        start = NodeId(r, rng.randrange(1 << r))
        pin = net.pin_search(start, keywords)
        assert set(pin.cids) == brute_force_pin(net, keywords)
        sup = net.superset_search(start, keywords, limit=10**6)
        assert set(sup.cids) == brute_force_superset(net, keywords)


def test_duplicate_cid_across_keysets_counted_once():
    net = make_net(3)
    universe = experiment_keywords(3)
    a, b = universe[0], universe[1]
    net.insert("cid-shared", [a])
    net.insert("cid-shared", [a, b])
    net.insert("cid-own", [a, b])
    res = net.superset_search(NodeId(3, 0), [a], limit=10**6)
    assert sorted(res.cids) == ["cid-own", "cid-shared"]
    assert set(res.cids) == brute_force_superset(net, [a])


@pytest.mark.parametrize("transport", [TRANSPORT_IN_PROCESS, TRANSPORT_WIRE])
def test_duplicate_at_a_child_does_not_stop_its_subtree(transport):
    # Child 101 holds only a duplicate of `a`; the walk must still enter 111 for `b`.
    ports = {"base_port": free_port_block(8)} if transport == TRANSPORT_WIRE else {}
    cfg = NetworkConfig(r=3, transport=transport, hash_fn=TableHash({"w": 0, "x": 1, "y": 2}),
                        **ports)
    with build_network(cfg) as net:
        net.insert("a", ["w"])
        net.insert("a", ["w", "y"])
        net.insert("b", ["w", "x", "y"])
        res = net.superset_search(NodeId.parse("000"), ["w"], 2)
    assert res.cids == ("a", "b")
    assert res.hops == 4
    assert [n.text for n in res.nodes_visited] == ["000", "100", "110", "101", "111"]


@pytest.mark.parametrize("transport", [TRANSPORT_IN_PROCESS, TRANSPORT_WIRE])
def test_a_node_holding_a_cid_twice_still_fills_the_quota_locally(transport):
    # Node 10 holds X under [a] and under [a, b], and Y under [a, bb]. Its
    # table's `limit` matches are distinct, so the quota of 2 is met there
    # and the walk stops without entering 11.
    ports = {"base_port": free_port_block(4)} if transport == TRANSPORT_WIRE else {}
    cfg = NetworkConfig(r=2, transport=transport, hash_fn=TableHash({"a": 0, "b": 0, "bb": 0}),
                        **ports)
    with build_network(cfg) as net:
        net.insert("X", ["a"])
        net.insert("X", ["a", "b"])
        net.insert("Y", ["a", "bb"])
        res = net.superset_search(NodeId.parse("00"), ["a"], 2)
    assert res.cids == ("X", "Y")
    assert res.hops == 1
    assert [n.text for n in res.nodes_visited] == ["00", "10"]


def test_walk_leg_to_a_node_outside_the_region_is_refused():
    # The visit checks its region itself, whether or not it asks its table.
    net = make_net(3, hash_fn=TableHash({"kw": 0, "other": 1}))
    transport = net.nodes[NodeId.parse("100")].transport
    for stored in (False, True):
        if stored:
            net.insert("cid-other", ["other"])  # stored at 010
        leg = {"op": "superset_visit", "target": "100", "keywords": ["kw"], "limit": 5,
               "collected": [], "visited": []}  # a new leg per call: the callee owns it
        with pytest.raises(NotInSupersetRegion):
            transport.call(NodeId.parse("010"), leg)


ROUTED_OTHER_R = {  # hand-built legs whose target has r=4 bits on an r=3 network
    "ping": {"op": "ping", "target": "1010"},
    "pin": {"op": "pin", "target": "1010", "keywords": ["kw"]},
    "superset_visit": {"op": "superset_visit", "target": "1000", "keywords": ["kw"],
                       "limit": 5, "collected": []},
}


@pytest.mark.parametrize("op", sorted(ROUTED_OTHER_R))
def test_leg_whose_target_has_another_r_is_refused_at_its_first_hop(op, monkeypatch):
    # A routed hop takes the greedy step itself: a target of another r must stop
    # it at once, not send it round the cube.
    net = make_net(3)
    transport = net.nodes[NodeId.parse("000")].transport
    called = []
    call = transport.call
    monkeypatch.setattr(transport, "call",
                        lambda target, env: called.append(target.text) or call(target, env))
    with pytest.raises(DimensionMismatch, match="r=3 vs r=4"):
        transport.call(NodeId.parse("011"), {**ROUTED_OTHER_R[op], "visited": []})
    assert called == ["011"]


CLIENT_ENTRIES_ON_PLAIN_LISTS = {
    "insert": lambda node, words: node.client_insert("cid-plain", words),
    "pin": lambda node, words: node.client_pin(words),
    "remove": lambda node, words: node.client_remove("cid-plain", words),
}


def test_client_entries_make_a_plain_list_canonical_before_the_target_trusts_it():
    # A node's client entries may be given a plain list, unsorted or with a word
    # twice; the record is stored, found and removed under its canonical set.
    net = make_net(3)
    universe = experiment_keywords(3)
    words = KeywordSet(universe[:3])
    node = net.nodes[NodeId.parse("000")]
    plain = [words[2], words[0], words[1], words[0]]
    assert CLIENT_ENTRIES_ON_PLAIN_LISTS["insert"](node, plain)["status"] == "stored"
    [(owner, record)] = net.scan_records()
    assert owner == node_for_keywords(words, 3)
    assert type(record.keywords) is KeywordSet and record.keywords == words
    assert CLIENT_ENTRIES_ON_PLAIN_LISTS["pin"](node, plain[::-1])["cids"] == ["cid-plain"]
    assert net.pin_search(NodeId.parse("111"), list(words)).cids == ("cid-plain",)
    assert CLIENT_ENTRIES_ON_PLAIN_LISTS["remove"](node, plain)["status"] == "removed"
    assert [*net.scan_records()] == []


def _calls(ops) -> tuple[int, list]:
    """Python-level calls made by `ops`, each run once before to warm the caches,
    and what they returned."""
    for op in ops:
        op()
    calls = 0
    results = []

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for op in ops:
            results.append(op())
    finally:
        sys.setprofile(previous)
    return calls, results


def _calls_per_hop(searches) -> float:
    calls, results = _calls(searches)
    return calls / sum(result.hops for result in results)


def test_in_process_hops_stay_within_a_call_budget():
    # Every in-process hop is one leg, so a walk's or a pin's cost is set by the
    # fixed calls per leg. r=12 as in the cube12 benchmark. On 3.11 to 3.13 they
    # measure 4.19 and 4.83. A hop is the transport's call, which hands the
    # envelope over as it is, and `handle_forward`, which takes a routed step
    # itself with `next_hop`. A walk visit adds `_superset_visit`, which checks
    # its region, asks its table only if the node holds entries, and steps its
    # children's bits from `_child_bits` in line; its table picks the matching
    # entries with no Python call per entry. A query's words are hashed, and
    # its reply read by `QueryResult.from_reply`, without a call per entry.
    # Writes are routed the same way; their fixed cost is pinned below.
    r = 12
    net = make_net(r)
    populate(net, 1000, seed=2021)
    universe = experiment_keywords(r)
    rng = random.Random(7)
    walks = [functools.partial(net.superset_search, NodeId(r, rng.randrange(1 << r)), [word], 50)
             for word in universe[:6]]
    pins = [functools.partial(net.pin_search, NodeId(r, rng.randrange(1 << r)),
                              random_keyset(rng, universe, r)) for _ in range(40)]
    assert _calls_per_hop(walks) <= 4.29
    assert _calls_per_hop(pins) <= 5.77
    # A write's fixed cost, measured at 0 hops: 8 calls on 3.11 to 3.13. The
    # client call, its words and start, the entry node's envelope with the words
    # hashed once, the target's answer with its inline cid check, and the table;
    # no `ObjectRecord`, no second hash, and the reply returned as it is.
    keysets = [random_keyset(rng, universe, r) for _ in range(20)]
    writes = [functools.partial(write, f"cid-budget-{i}", keywords,
                                start=node_for_keywords(keywords, r))
              for i, keywords in enumerate(keysets) for write in (net.insert, net.remove)]
    calls, replies = _calls(writes)
    assert [reply["status"] for reply in replies] == ["stored", "removed"] * len(keysets)
    assert calls / len(writes) <= 8.5


@pytest.mark.parametrize("start", ["110", "000"], ids=["at-target", "two-hops-away"])
def test_unknown_op_is_refused_at_its_target(start, monkeypatch):
    # Only a hand-built envelope carries an unknown op in process (the wire
    # decode refuses one with a 400): it is routed like any other op.
    net = make_net(3)
    transport = net.nodes[NodeId.parse(start)].transport
    called = []
    call = transport.call
    monkeypatch.setattr(transport, "call",
                        lambda target, env: called.append(target.text) or call(target, env))
    env = {"op": "bogus", "target": "110", "visited": []}
    with pytest.raises(KeycubeError, match="unknown op 'bogus'") as err:
        transport.call(NodeId.parse(start), env)
    assert type(err.value) is KeycubeError
    assert called == ([start] if start == "110" else ["000", "100", "110"])
