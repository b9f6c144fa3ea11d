import pytest

from keycube.errors import DimensionMismatch, NotInSupersetRegion, NotResponsible
from keycube.node import NodeState, ObjectRecord
from keycube.topology import KeywordSet, NodeId, node_for_keywords

from conftest import WIKI_POSITIONS


def superset_lookup(node, words, limit):
    """`node.superset_lookup` with the query bits hashed as a walk root would."""
    return node.superset_lookup(
        KeywordSet(words), node_for_keywords(words, node.r, node.hash_fn), limit)


@pytest.fixture
def rome_node(wiki_hash):
    return NodeState(NodeId.parse("001001"), hash_fn=wiki_hash)


def test_insert_stores_under_exact_keyset(rome_node):
    rome_node.insert(ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"]))
    assert rome_node.entry_count() == 1
    assert rome_node.cid_count() == 1
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"])) == {"cid-rome-wiki"}


def test_insert_is_idempotent(rome_node):
    record = ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"])
    rome_node.insert(record)
    rome_node.insert(record)
    assert rome_node.cid_count() == 1


def test_insert_rejected_off_owner(wiki_hash):
    zero = NodeState(NodeId.parse("000000"), hash_fn=wiki_hash)
    with pytest.raises(NotResponsible):
        zero.insert(ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"]))


def test_remove_inverts_insert(rome_node):
    record = ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"])
    rome_node.insert(record)
    assert rome_node.remove(record) is True
    assert rome_node.entry_count() == 0


def test_remove_missing_is_noop(rome_node):
    record = ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"])
    assert rome_node.remove(record) is False
    assert rome_node.entry_count() == 0


def test_remove_one_of_two_cids(rome_node):
    rome_node.insert(ObjectRecord("cid-a", ["Wikipedia", "Rome"]))
    rome_node.insert(ObjectRecord("cid-b", ["Wikipedia", "Rome"]))
    rome_node.remove(ObjectRecord("cid-a", ["Wikipedia", "Rome"]))
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"])) == {"cid-b"}


def test_pin_lookup_unused_keyset_is_empty(rome_node):
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"])) == set()


def test_pin_lookup_requires_ownership(rome_node):
    with pytest.raises(NotResponsible):
        rome_node.pin_lookup(KeywordSet(["Wikipedia"]))


# Without `bits` the direct API hashes the keywords itself (tested by
# test_insert_rejected_off_owner and test_pin_lookup_requires_ownership);
# with `bits` it checks only that they are the node's id.
@pytest.mark.parametrize("words,bits", [
    (["Wikipedia", "Rome"], NodeId.parse("001000")),  # own keywords, foreign bits
    (["Wikipedia"], NodeId.parse("001000")),          # foreign keywords and their bits
])
def test_insert_and_pin_lookup_refuse_a_foreign_id(rome_node, words, bits):
    with pytest.raises(NotResponsible):
        rome_node.insert(ObjectRecord("cid-x", words), bits)
    with pytest.raises(NotResponsible):
        rome_node.pin_lookup(KeywordSet(words), bits)
    assert rome_node.entry_count() == 0


def test_insert_and_pin_lookup_accept_the_node_id_as_bits(rome_node):
    rome_node.insert(ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"]), rome_node.id)
    assert rome_node.pin_lookup(KeywordSet(["Wikipedia", "Rome"]), rome_node.id) == {
        "cid-rome-wiki"}


@pytest.mark.parametrize("position", [6, 7, 64, -1])
def test_hash_position_out_of_range_is_value_error(rome_node, position):
    bad_hash = lambda kw, r: position if kw == "bad" else 0
    with pytest.raises(ValueError):
        node_for_keywords(["ok", "bad"], 6, bad_hash)
    rome_node.hash_fn = bad_hash
    with pytest.raises(ValueError):
        rome_node.insert(ObjectRecord("cid-x", ["bad"]))


def test_colliding_keysets_stay_separate():
    # Two distinct keyword sets forced onto one node id.
    collide = {"x": 1, "y": 1, "z": 2}.get
    hash_fn = lambda kw, r: collide(kw, 0)
    owner = node_for_keywords(["x", "z"], 3, hash_fn)
    node = NodeState(owner, hash_fn=hash_fn)
    assert owner == node_for_keywords(["y", "z"], 3, hash_fn)
    node.insert(ObjectRecord("cid-xz", ["x", "z"]))
    node.insert(ObjectRecord("cid-yz", ["y", "z"]))
    assert node.pin_lookup(KeywordSet(["x", "z"])) == {"cid-xz"}
    assert node.pin_lookup(KeywordSet(["y", "z"])) == {"cid-yz"}


def test_superset_lookup_includes_keyword_supersets(wiki_hash):
    owner = node_for_keywords(["Wikipedia", "Rome", "PoI"], 6, wiki_hash)
    node = NodeState(owner, hash_fn=wiki_hash)
    node.insert(ObjectRecord("cid-rome-poi", ["Wikipedia", "Rome", "PoI"]))
    assert superset_lookup(node, ["Wikipedia", "Rome"], 10) == ["cid-rome-poi"]


def test_superset_lookup_limit_zero(rome_node):
    rome_node.insert(ObjectRecord("cid-rome-wiki", ["Wikipedia", "Rome"]))
    assert superset_lookup(rome_node, ["Wikipedia", "Rome"], 0) == []


def test_superset_lookup_truncates_deterministically(wiki_hash):
    node = NodeState(NodeId.parse("001001"), hash_fn=wiki_hash)
    for cid in ("cid-e", "cid-c", "cid-a", "cid-d", "cid-b"):
        node.insert(ObjectRecord(cid, ["Wikipedia", "Rome"]))
    # One entry, five cids: byte order then cut at three.
    assert superset_lookup(node, ["Wikipedia", "Rome"], 3) == [
        "cid-a", "cid-b", "cid-c"]


def test_superset_lookup_orders_entries_by_keyset():
    hash_fn = lambda kw, r: 0
    node = NodeState(NodeId.parse("100"), hash_fn=hash_fn)
    node.insert(ObjectRecord("cid-late", ["b"]))
    node.insert(ObjectRecord("cid-early", ["a"]))
    assert superset_lookup(node, [], 10) == ["cid-early", "cid-late"]


def test_superset_lookup_outside_region_rejected(rome_node):
    with pytest.raises(NotInSupersetRegion):
        superset_lookup(rome_node, ["Bologna"], 10)


def test_superset_lookup_of_another_dimension_rejected(rome_node):
    with pytest.raises(DimensionMismatch):
        rome_node.superset_lookup(KeywordSet([]), NodeId.parse("001"), 10)


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
    rome_node.insert(ObjectRecord("cid-b", ["Wikipedia", "Rome"]))
    rome_node.insert(ObjectRecord("cid-a", ["Wikipedia", "Rome"]))
    assert [r.cid for r in rome_node.records()] == ["cid-a", "cid-b"]
