import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _first_matches(table, query):
    """Brute force: the cids of every entry of `table` (keysets to cids) that
    includes `query`, entries and cids sorted, each kept where it first occurs."""
    firsts = []
    for keywords in sorted(table):
        if set(query) <= set(keywords):
            firsts += [cid for cid in sorted(table[keywords]) if cid not in firsts]
    return firsts


# A node's table holds every keyset hashed onto it, so any keysets of a small
# universe may share one; few cids, so one recurs across entries.
_SMALL_KEYSETS = st.frozensets(st.sampled_from("abc"), max_size=3).map(KeywordSet)
_SMALL_TABLES = st.lists(st.tuples(_SMALL_KEYSETS, st.sampled_from(["c0", "c1", "c2", "c3"])),
                         max_size=12)


@given(_SMALL_TABLES, _SMALL_KEYSETS, st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 10**6]))
def test_superset_lookup_matches_a_brute_force_reference(inserts, query, limit):
    node = NodeState(NodeId.parse("000"))
    table = {}
    for keywords, cid in inserts:
        node.insert(keywords, cid)
        table.setdefault(keywords, set()).add(cid)
    got = node.superset_lookup(query, limit)
    firsts = _first_matches(table, query)
    assert len(set(got)) == len(got)
    assert set(got) <= set(firsts)
    assert got == firsts[:len(got)]
    assert len(got) == min(max(limit, 0), len(firsts))


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
