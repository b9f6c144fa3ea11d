import pytest

from keycube.network import NetworkConfig, build_network
from keycube.node import NodeState, ObjectRecord
from keycube.topology import KeywordSet, NodeId, node_for_keywords


@pytest.fixture
def rome_node():
    return NodeState(NodeId.parse("001001"))


def test_insert_stores_under_exact_keyset(rome_node):
    rome_node.insert(KeywordSet(["Wikipedia", "Rome"]), "cid-rome-wiki")
    assert rome_node.entry_count() == 1
    assert rome_node.cid_count() == 1
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"])) == {"cid-rome-wiki"}


def test_insert_is_idempotent(rome_node):
    record = ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"])
    rome_node.insert(record.keywords, record.cid)
    rome_node.insert(record.keywords, record.cid)
    assert rome_node.cid_count() == 1


def test_remove_inverts_insert(rome_node):
    record = ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"])
    rome_node.insert(record.keywords, record.cid)
    assert rome_node.remove(record.keywords, record.cid) is True
    assert rome_node.entry_count() == 0


def test_remove_missing_is_noop(rome_node):
    record = ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"])
    assert rome_node.remove(record.keywords, record.cid) is False
    assert rome_node.entry_count() == 0


def test_remove_one_of_two_cids(rome_node):
    rome_node.insert(KeywordSet(["Wikipedia", "Rome"]), "cid-a")
    rome_node.insert(KeywordSet(["Wikipedia", "Rome"]), "cid-b")
    rome_node.remove(KeywordSet(["Wikipedia", "Rome"]), "cid-a")
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"])) == {"cid-b"}


def test_pin_lookup_unused_keyset_is_empty(rome_node):
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"])) == set()


@pytest.mark.parametrize("position", [6, 7, 64, -1])
def test_hash_position_out_of_range_is_value_error(position):
    bad_hash = lambda kw, r: position if kw == "bad" else 0
    with pytest.raises(ValueError):
        node_for_keywords(["ok", "bad"], 6, bad_hash)
    net = build_network(NetworkConfig(r=6, hash_fn=bad_hash))
    with pytest.raises(ValueError):  # where the insert enters, before any node stores it
        net.insert("cid-x", ["bad"])


def test_colliding_keysets_stay_separate():
    # Two distinct keyword sets forced onto one node id.
    collide = {"x": 1, "y": 1, "z": 2}.get
    hash_fn = lambda kw, r: collide(kw, 0)
    owner = node_for_keywords(["x", "z"], 3, hash_fn)
    node = NodeState(owner)
    assert owner == node_for_keywords(["y", "z"], 3, hash_fn)
    node.insert(KeywordSet(["x", "z"]), "cid-xz")
    node.insert(KeywordSet(["y", "z"]), "cid-yz")
    assert node.pin_lookup(KeywordSet(["x", "z"])) == {"cid-xz"}
    assert node.pin_lookup(KeywordSet(["y", "z"])) == {"cid-yz"}


def test_superset_lookup_includes_keyword_supersets(wiki_hash):
    owner = node_for_keywords(["Wikipedia", "Rome", "PoI"], 6, wiki_hash)
    node = NodeState(owner)
    node.insert(KeywordSet(["Wikipedia", "Rome", "PoI"]), "cid-rome-poi")
    assert node.superset_lookup(KeywordSet(["Wikipedia", "Rome"]), 10) == ["cid-rome-poi"]


def test_superset_lookup_limit_zero(rome_node):
    rome_node.insert(KeywordSet(["Wikipedia", "Rome"]), "cid-rome-wiki")
    assert rome_node.superset_lookup(KeywordSet(["Wikipedia", "Rome"]), 0) == []


def test_superset_lookup_truncates_deterministically():
    node = NodeState(NodeId.parse("001001"))
    for cid in ("cid-e", "cid-c", "cid-a", "cid-d", "cid-b"):
        node.insert(KeywordSet(["Wikipedia", "Rome"]), cid)
    # One entry, five cids: byte order then cut at three.
    assert node.superset_lookup(KeywordSet(["Wikipedia", "Rome"]), 3) == [
        "cid-a", "cid-b", "cid-c"]


def test_superset_lookup_orders_entries_by_keyset():
    node = NodeState(NodeId.parse("100"))
    node.insert(KeywordSet(["b"]), "cid-late")
    node.insert(KeywordSet(["a"]), "cid-early")
    assert node.superset_lookup(KeywordSet([]), 10) == ["cid-early", "cid-late"]


class _Cid(str):
    pass


@pytest.mark.parametrize("cid", ["", 5, _Cid("cid-1")], ids=["empty", "int", "str subclass"])
def test_record_rejects_a_cid_that_is_not_a_non_empty_string(cid):
    with pytest.raises(ValueError):
        ObjectRecord(cid, ["a"])


def test_pin_subset_of_superset(wiki_net):
    start = NodeId.parse("000000")
    wiki_net.insert("cid-1", ["Wikipedia", "Rome"])
    wiki_net.insert("cid-2", ["Wikipedia", "Rome", "PoI"])
    for query in (["Wikipedia", "Rome"], ["Wikipedia", "Rome", "PoI"], ["Urbino"]):
        pin = set(wiki_net.pin_search(start, query).cids)
        sup = set(wiki_net.superset_search(start, query, limit=10**6).cids)
        assert pin <= sup


def test_records_snapshot(rome_node):
    rome_node.insert(KeywordSet(["Wikipedia", "Rome"]), "cid-b")
    rome_node.insert(KeywordSet(["Wikipedia", "Rome"]), "cid-a")
    assert [r.cid for r in rome_node.records()] == ["cid-a", "cid-b"]
