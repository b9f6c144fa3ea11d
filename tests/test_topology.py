import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keycube.errors import (
    AlreadyAtTarget,
    DimensionMismatch,
    InvalidKeyword,
)
from keycube import topology
from keycube.topology import (
    KeywordSet,
    NodeId,
    TableHash,
    hamming_distance,
    keyword_bit,
    neighbors,
    next_hop,
    _child_bits,
    node_for_keywords,
    superset_region,
)

# Any non-empty UTF-8 text without ",", the wire's keyword separator.
keywords_st = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"], exclude_characters=","),
    min_size=1, max_size=12)


# --- NodeId and KeywordSet ---------------------------------------------------

def test_node_id_text_round_trip():
    for text in ("0", "1", "001001", "111111", "010", "1" + "0" * 31, "01" * 16):
        assert NodeId.parse(text).text == text
    assert NodeId.parse("1" + "0" * 31) == NodeId(32, 1)


def test_node_id_rejects_bad_text():
    for text in ("01a1", "", " 01", "0_1", "0" * 33, b"01", 1, None):
        with pytest.raises(ValueError):
            NodeId.parse(text)
    with pytest.raises(ValueError):
        NodeId(3, 8)


def test_node_id_rejects_bad_dimension_and_flip():
    with pytest.raises(ValueError):
        NodeId(33, 0)
    for position in (-1, 3):
        with pytest.raises(ValueError):
            NodeId(3, 0).flip(position)


@pytest.mark.parametrize("value", [1.5, True, False, "1", None, 2 ** 0.5])
def test_node_id_rejects_a_value_that_is_not_an_int(value):
    with pytest.raises(ValueError, match="must be an int"):
        NodeId(3, value)


def test_node_id_is_the_pair_of_its_dimension_and_value():
    nid = NodeId(3, 5)
    assert nid == (3, 5) and (nid.r, nid.value) == (3, 5)
    assert hash(nid) == hash((3, 5))
    assert json.dumps(nid) == "[3, 5]"
    assert repr(nid) == "NodeId(r=3, value=5)"
    assert str(nid) == nid.text == "101"
    ids = [NodeId(r, v) for r in (2, 1, 3) for v in range(1 << r)]
    rng = random.Random(3)
    rng.shuffle(ids)
    assert sorted(ids) == sorted((nid.r, nid.value) for nid in ids)


def test_node_id_is_immutable_and_has_no_dict():
    nid = NodeId(3, 5)
    assert not hasattr(nid, "__dict__")
    for name in ("r", "value", "text", "extra"):
        with pytest.raises(AttributeError):
            setattr(nid, name, 1)


def test_node_id_and_node_state_pickle_to_equal_values():
    # Ids pickle through `__getnewargs__`; a NodeState holds a lock and is never pickled.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(NodeId(4, 9), protocol))
        assert type(back) is NodeId and back == NodeId(4, 9) and back.text == "1001"


def test_keyword_set_canonical_and_deduplicated():
    ks = KeywordSet(["b", "a", "b", "a"])
    assert ks.words == ("a", "b")
    assert KeywordSet(["a", "b"]) == ks
    assert hash(KeywordSet(["a", "b"])) == hash(ks)


def test_keyword_set_rejects_empty_keyword():
    with pytest.raises(InvalidKeyword):
        KeywordSet([""])


def test_keyword_set_rejects_a_bare_string():
    with pytest.raises(InvalidKeyword):
        KeywordSet("abc")
    assert KeywordSet(["abc"]).words == ("abc",)


def test_keyword_set_of_a_keyword_set_is_itself():
    ks = KeywordSet(["b", "a"])
    assert KeywordSet(ks) is ks


class _Word(str):
    """Not a keyword: the in-process copy refuses it, and the wire would send a plain str."""


@pytest.mark.parametrize("words", [[["a"]], ["a", 1], [_Word("a")]],
                         ids=["unhashable", "not a string", "str subclass"])
def test_keyword_set_rejects_an_entry_that_is_not_a_string(words):
    with pytest.raises(InvalidKeyword):
        KeywordSet(words)


@pytest.mark.parametrize("words,offender", [
    (["a", 1, ""], "1"),
    (["a", _Word("x"), 1], "'x'"),
    (["a", "", "b,c"], "''"),
    (["a", "b,c", 1], "'b,c'"),
], ids=["not a string", "str subclass", "empty", "comma"])
def test_keyword_set_refusal_names_the_first_offender(words, offender):
    # The words are checked in C first; only a refused set is walked word by word.
    with pytest.raises(InvalidKeyword) as err:
        KeywordSet(words)
    assert str(err.value) == f"keyword must be a non-empty string without ',', got {offender}"


def test_keyword_set_is_immutable():
    ks = KeywordSet(["a"])
    with pytest.raises(AttributeError):
        ks.words = ()
    with pytest.raises(AttributeError):
        ks.extra = 1


def test_keyword_set_pickles_to_an_equal_keyword_set():
    ks = KeywordSet(["b", "a"])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(ks, protocol))
        assert type(back) is KeywordSet
        assert back == ks


def test_keyword_set_is_the_tuple_of_its_words():
    ks = KeywordSet(iter(["b", "a", "b"]))  # a one-shot iterable is read once
    assert ks == ("a", "b")
    assert type(ks.words) is tuple
    assert ks[0] == "a"
    assert repr(ks) == "KeywordSet(['a', 'b'])"


# --- keyword_bit ------------------------------------------------------------

def test_keyword_bit_r1_always_zero():
    for kw in ("anything", "at", "all"):
        assert keyword_bit(kw, 1) == 0


def test_keyword_bit_fixture_positions(wiki_hash):
    assert wiki_hash("Wikipedia", 6) == 2
    assert wiki_hash("Rome", 6) == 5


def test_keyword_bit_rejects_empty():
    with pytest.raises(InvalidKeyword):
        keyword_bit("", 4)


def test_keyword_bit_deterministic_and_in_range():
    for kw in ("alpha", "beta", "été", "kw0042"):
        first = keyword_bit(kw, 7)
        assert 0 <= first < 7
        assert keyword_bit(kw, 7) == first


def test_keyword_bit_is_the_sha256_prefix_modulo_r():
    for kw in ("alpha", "été", "kw0042", "Bologna"):
        prefix = int.from_bytes(hashlib.sha256(kw.encode("utf-8")).digest()[:8], "big")
        for r in (1, 5, 12, 32):
            assert keyword_bit(kw, r) == prefix % r


def test_caches_are_bounded():
    for cached in (topology._digest_prefix, topology._parse_id):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16


BAD_CACHED_INPUTS = [
    (InvalidKeyword, lambda: keyword_bit("", 4)),
    (InvalidKeyword, lambda: keyword_bit(b"x", 4)),
    (ValueError, lambda: keyword_bit("x", 0)),
    (ValueError, lambda: NodeId.parse(["0"])),
    (ValueError, lambda: NodeId.parse("012")),
]


@pytest.mark.parametrize("expected,call", BAD_CACHED_INPUTS,
                         ids=["empty keyword", "bytes keyword", "r=0", "list id", "id '012'"])
def test_bad_input_raises_the_same_error_cold_and_warm(expected, call):
    topology._digest_prefix.cache_clear()
    topology._parse_id.cache_clear()
    with pytest.raises(expected) as cold:
        call()
    keyword_bit("x", 4), NodeId.parse("01"), NodeId.parse("0")  # warm both caches
    with pytest.raises(expected) as warm:
        call()
    assert type(cold.value) is type(warm.value) is expected
    assert str(cold.value) == str(warm.value)


def test_cached_text_leaves_equality_hash_and_order_alone():
    fresh, formatted = NodeId(5, 6), NodeId(5, 6)
    assert formatted.text == "01100"
    assert fresh == formatted and hash(fresh) == hash(formatted)
    assert not fresh < formatted and not formatted < fresh
    assert NodeId.parse("01100") == fresh
    assert NodeId.parse("01100") is NodeId.parse("01100")


def test_keyword_bit_roughly_uniform():
    # 2000 keywords over 8 positions: each bucket within 3x of the mean.
    counts = [0] * 8
    for i in range(2000):
        counts[keyword_bit(f"word-{i}", 8)] += 1
    assert min(counts) > 80
    assert max(counts) < 750


# --- node_for_keywords --------------------------------------------------------

def test_empty_set_maps_to_all_zeros():
    assert node_for_keywords([], 4).text == "0000"


def test_worked_example_maps_to_001001(wiki_hash):
    nid = node_for_keywords(["Wikipedia", "Rome"], 6, wiki_hash)
    assert nid.text == "001001"


def test_colliding_keywords_share_one_bit():
    # Brute-force a collision pair under the default hash at r=6.
    by_bit = {}
    pair = None
    for i in itertools.count():
        word = f"probe-{i}"
        bit = keyword_bit(word, 6)
        if bit in by_bit:
            pair = (by_bit[bit], word)
            break
        by_bit[bit] = word
    nid = node_for_keywords(pair, 6)
    assert bin(nid.value).count("1") == 1


@given(st.frozensets(keywords_st, max_size=10), st.integers(1, 16))
def test_popcount_bounded_by_set_size_and_r(words, r):
    nid = node_for_keywords(words, r)
    assert bin(nid.value).count("1") <= min(len(words), r)


@given(st.frozensets(keywords_st, max_size=10), st.integers(1, 32))
def test_default_hash_equals_the_generic_path(words, r):
    # An empty table falls through to `keyword_bit` word by word.
    assert node_for_keywords(words, r) == node_for_keywords(words, r, TableHash({}))


def test_table_hash_rejects_an_empty_keyword():
    with pytest.raises(InvalidKeyword):
        TableHash({})("", 3)


@given(st.frozensets(keywords_st, min_size=1, max_size=6), st.integers(1, 32),
       st.sampled_from(["r", "-1"]))
def test_a_custom_hash_out_of_range_is_value_error(words, r, bad):
    bad_word = min(words)
    position = r if bad == "r" else -1
    hash_fn = lambda word, r: position if word == bad_word else keyword_bit(word, r)
    with pytest.raises(ValueError):
        node_for_keywords(words, r, hash_fn)


@given(st.frozensets(keywords_st, max_size=8),
       st.frozensets(keywords_st, max_size=8),
       st.integers(1, 16))
def test_keyword_monotonicity(words, extra, r):
    smaller = node_for_keywords(words, r)
    larger = node_for_keywords(words | extra, r)
    assert larger.value & smaller.value == smaller.value


# --- neighbors ----------------------------------------------------------------

def test_neighbors_of_00():
    assert [n.text for n in neighbors(NodeId.parse("00"))] == ["10", "01"]


def test_neighbors_all_at_distance_one():
    nid = NodeId.parse("1011")
    ns = neighbors(nid)
    assert len(ns) == 4
    assert all(hamming_distance(nid, n) == 1 for n in ns)
    assert NodeId.parse("1010") in ns


def test_neighbor_incidence_r3():
    counts = {NodeId(3, v): 0 for v in range(8)}
    for v in range(8):
        for n in neighbors(NodeId(3, v)):
            counts[n] += 1
    assert all(c == 3 for c in counts.values())


# --- hamming_distance -----------------------------------------------------------

def test_hamming_identity_and_symmetry():
    a, b = NodeId.parse("0000"), NodeId.parse("0110")
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == hamming_distance(b, a) == 2


def test_hamming_worked_example():
    assert hamming_distance(NodeId.parse("000000"), NodeId.parse("001001")) == 2


def test_hamming_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hamming_distance(NodeId.parse("00"), NodeId.parse("000"))


def test_hamming_mean_is_half_r():
    rng = random.Random(7)
    total = 0
    samples = 10000
    for _ in range(samples):
        a = NodeId(7, rng.randrange(128))
        b = NodeId(7, rng.randrange(128))
        total += hamming_distance(a, b)
    assert abs(total / samples - 3.5) < 0.1


# --- next_hop -------------------------------------------------------------------

def test_next_hop_flips_lowest_differing_bit():
    hop = next_hop(NodeId.parse("000000"), NodeId.parse("001001"))
    assert hop.text == "001000"


def test_next_hop_single_bit():
    assert next_hop(NodeId.parse("01"), NodeId.parse("11")).text == "11"


def test_next_hop_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        next_hop(NodeId.parse("00"), NodeId.parse("011"))


def test_next_hop_at_target_rejected():
    nid = NodeId.parse("0101")
    with pytest.raises(AlreadyAtTarget):
        next_hop(nid, nid)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_greedy_walk_length_is_hamming_everywhere(r):
    for a_val, b_val in itertools.product(range(1 << r), repeat=2):
        a, b = NodeId(r, a_val), NodeId(r, b_val)
        steps = 0
        current = a
        while current != b:
            nxt = next_hop(current, b)
            assert hamming_distance(nxt, b) == hamming_distance(current, b) - 1
            current = nxt
            steps += 1
        assert steps == hamming_distance(a, b)


# --- _child_bits -------------------------------------------------------------------

def children(node: NodeId, query: NodeId) -> list[str]:
    """The texts of `node`'s tree children, lowest bit first, as the walk steps them."""
    bits, out = _child_bits(node.r, node.value, query.value), []
    while bits:
        bit = bits & -bits
        out.append(NodeId(node.r, node.value | bit).text)
        bits ^= bit
    return out


def test_full_node_has_no_children():
    full = NodeId.parse("111111")
    assert _child_bits(6, full.value, full.value) == 0


def test_children_of_empty_query_root():
    root = NodeId.parse("0000")
    assert children(root, root) == ["1000", "0100", "0010", "0001"]


def test_children_of_worked_example_root():
    q = NodeId.parse("001001")
    assert children(q, q) == ["101001", "011001", "001101", "001011"]  # free 0, 1, 3, 4
    # Below the root, only free positions under the lowest free bit set: 011001 sets 1.
    assert children(NodeId.parse("011001"), q) == ["111001"]
    assert children(NodeId.parse("101001"), q) == []


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tree_spans_region_exactly_once(r):
    for q_val in range(1 << r):
        q = NodeId(r, q_val)
        visited = list(superset_region(q))
        expected = {NodeId(r, v) for v in range(1 << r) if v & q_val == q_val}
        assert len(visited) == len(set(visited))
        assert set(visited) == expected
