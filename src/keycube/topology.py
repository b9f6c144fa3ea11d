"""Pure functions over the r-dimensional hypercube id space.

A logical node is labelled by an r-bit id. Keywords hash to bit positions,
a keyword set maps to the id whose set bits are exactly the hashed
positions of its members, and queries travel greedily along edges that fix
one differing bit at a time.

Bit/text convention: the canonical text form of an id is a string of r
characters '0'/'1', and the character at index i (0-based, leftmost) is
bit position i. Internally position i is stored as the 2**i bit of an
integer, so the text form is the integer's binary digits reversed.

An id is the tuple `(r, value)`, a `NodeId`, and keeps no cached text.
Ids are validated where they enter: `NodeId(r, value)` and `NodeId.parse`.
Ids derived from a valid id or r (`flip`, `next_hop`, the walk's children
and `node_for_keywords`) are built by `tuple.__new__(NodeId, (r, value))`,
which skips the type and range checks; hot paths unpack an id's tuple.

A keyword set is a `KeywordSet`: a tuple of its sorted, distinct words,
each an exact `str`. Node tables are keyed and sorted by it, so its
hashing and ordering are the tuple's own. `KeywordSet(ks)` returns `ks`
itself, which makes the constructor the one conversion every entry point
calls. With its words and `r` checked, `node_for_keywords` hashes each
word in line under the default hash and range-checks only a custom one.

Each keyword's SHA-256 prefix and each parsed id are computed once and
kept in bounded LRU caches, since keywords and id texts also arrive from
the wire. Validation stays outside the caches: bad input raises the same
error on every call, and only valid values are stored.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    AlreadyAtTarget,
    DimensionMismatch,
    InvalidKeyword,
)

MAX_DIMENSION = 32

HashFn = Callable[[str, int], int]


def check_dimension(r: int) -> int:
    """Validate a hypercube dimension (1 <= r <= 32) and return it."""
    if not isinstance(r, int) or isinstance(r, bool) or not 1 <= r <= MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIMENSION}], got {r!r}")
    return r


class NodeId(tuple):
    """Identifier of one logical node: an r-bit vector, the pair `(r, value)`.

    `value` holds bit position i (leftmost text character i) as the 2**i
    integer bit. As a tuple it hashes, compares and sorts in C and equals `(r, value)`.
    """

    __slots__ = ()

    def __new__(cls, r: int, value: int):
        check_dimension(r)
        if type(value) is not int:
            raise ValueError(f"id value must be an int, got {value!r}")
        if not 0 <= value < (1 << r):
            raise ValueError(f"id value {value} out of range for r={r}")
        return tuple.__new__(cls, (r, value))

    r = property(operator.itemgetter(0), doc="The dimension: how many bits the id has.")
    value = property(operator.itemgetter(1), doc="The bits, position i as the 2**i bit.")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"NodeId(r={self.r}, value={self.value})"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Build an id from its canonical '0'/'1' text form."""
        if type(text) is not str:  # e.g. an unhashable list must not reach the cache
            raise ValueError(f"not a bit string of 1 to {MAX_DIMENSION} bits: {text!r}")
        return _parse_id(text)

    @property
    def text(self) -> str:
        """Canonical text form; leftmost character is bit position 0."""
        return format(self.value, f"0{self.r}b")[::-1]

    def __str__(self) -> str:
        return self.text

    def flip(self, position: int) -> "NodeId":
        if not 0 <= position < self.r:
            raise ValueError(f"bit position {position} out of range for r={self.r}")
        return tuple.__new__(NodeId, (self.r, self.value ^ (1 << position)))


@functools.lru_cache(maxsize=1 << 14)
def _parse_id(text: str) -> NodeId:
    if not 1 <= len(text) <= MAX_DIMENSION or text.strip("01"):
        raise ValueError(f"not a bit string of 1 to {MAX_DIMENSION} bits: {text!r}")
    return tuple.__new__(NodeId, (len(text), int(text[::-1], 2)))


class KeywordSet(tuple):
    """A canonical set of keywords: the tuple of its words, deduplicated and
    sorted by UTF-8 byte order.

    Python compares str by code point, which for valid UTF-8 coincides with
    byte order, so plain string sorting yields the canonical order. A
    keyword may not contain ",": the wire's query strings join keywords
    with it, and both transports must accept the same sets. As a tuple it
    hashes, compares, sorts and pickles in C, and equals the plain tuple of
    its words. `KeywordSet(ks) is ks`, so callers convert without checking.
    """

    __slots__ = ()

    def __new__(cls, words: Iterable[str] = ()):
        if type(words) is cls:
            return words
        if isinstance(words, str):
            raise InvalidKeyword(f"keywords must be a collection, not the string {words!r}")
        words = tuple(words)  # a one-shot iterable is read once
        for w in words:  # every entry is checked before any is hashed
            if type(w) is not str or not w or "," in w:  # a str subclass is refused too
                raise InvalidKeyword(f"keyword must be a non-empty string without ',', got {w!r}")
        return super().__new__(cls, sorted(set(words)))

    @property
    def words(self) -> tuple[str, ...]:
        """The words as a plain tuple."""
        return tuple(self)

    def __repr__(self) -> str:
        return f"KeywordSet({list(self)!r})"

    def issuperset(self, words: Iterable[str]) -> bool:
        """Whether every word in `words` (a KeywordSet or any iterable) is in this set."""
        return set(self).issuperset(words)


def keyword_bit(keyword: str, r: int) -> int:
    """Bit position in {0..r-1} assigned to a keyword.

    Stable across runs and platforms: a SHA-256 digest of the keyword's
    UTF-8 bytes reduced modulo r. Approximately uniform over positions.
    """
    if not isinstance(keyword, str) or not keyword:
        raise InvalidKeyword(f"keyword must be a non-empty string, got {keyword!r}")
    check_dimension(r)
    return _digest_prefix(keyword) % r


@functools.lru_cache(maxsize=1 << 12)
def _digest_prefix(keyword: str) -> int:
    """The first 8 bytes of the keyword's SHA-256 digest, as a big-endian integer."""
    return int.from_bytes(hashlib.sha256(keyword.encode("utf-8")).digest()[:8], "big")


class TableHash:
    """Hash function backed by an explicit keyword -> position table.

    Unknown keywords fall through to `keyword_bit`. Used to pin down
    small keyword universes in tests and walkthroughs.
    """

    def __init__(self, table: Mapping[str, int]):
        self.table = dict(table)

    def __call__(self, keyword: str, r: int) -> int:
        if not isinstance(keyword, str) or not keyword:
            raise InvalidKeyword(f"keyword must be a non-empty string, got {keyword!r}")
        check_dimension(r)
        if keyword in self.table:
            return self.table[keyword] % r
        return keyword_bit(keyword, r)


def node_for_keywords(keywords: Iterable[str], r: int,
                      hash_fn: HashFn = keyword_bit) -> NodeId:
    """The node responsible for a keyword set.

    Its set bits are exactly the hashed positions of the keywords; the
    empty set maps to the all-zeros node. Colliding keywords simply set
    the same bit, so popcount(result) <= min(|keywords|, r).
    """
    check_dimension(r)
    keywords = KeywordSet(keywords)
    value = 0
    if hash_fn is keyword_bit:  # the words and r are checked: hash each word in line
        for word in keywords:
            value |= 1 << _digest_prefix(word) % r
        return tuple.__new__(NodeId, (r, value))
    for word in keywords:
        value |= 1 << hash_fn(word, r)  # a negative position raises ValueError here
    if value >> r:
        raise ValueError(f"hash_fn returned a bit position >= r={r} for {list(keywords)}")
    return tuple.__new__(NodeId, (r, value))


def neighbors(node: NodeId) -> list[NodeId]:
    """The r ids at Hamming distance 1, ordered by flipped position."""
    return [node.flip(i) for i in range(node.r)]


def hamming_distance(a: NodeId, b: NodeId) -> int:
    """Number of differing bit positions."""
    if a.r != b.r:
        raise DimensionMismatch(f"r={a.r} vs r={b.r}")
    return bin(a.value ^ b.value).count("1")


def next_hop(current: NodeId, target: NodeId) -> NodeId:
    """Greedy routing step: flip the lowest-index differing bit.

    Moves exactly one step closer to the target, so iterating reaches it
    in exactly hamming_distance(current, target) steps.
    """
    r, value = current
    target_r, target_value = target
    if r != target_r:
        raise DimensionMismatch(f"r={r} vs r={target_r}")
    diff = value ^ target_value
    if diff == 0:
        raise AlreadyAtTarget(f"already at {current.text}")
    return tuple.__new__(NodeId, (r, value ^ (diff & -diff)))


def _covered_children(node: NodeId, query: NodeId) -> list[NodeId]:
    """Children of `node` in the spanning tree over bit-supersets of `query`.

    Positions not set in the query are free. A child sets one more free
    bit, restricted to free positions strictly below the lowest free bit
    already set in `node` (all free positions when it has none). Walking
    the tree from the query id itself visits every bit-superset exactly
    once: the free bits of any superset must be added in descending order,
    which is a unique path. The caller has checked that `node` covers `query`.
    """
    r, value = node
    free_set = value & ~query[1]
    ceiling = free_set & -free_set if free_set else 1 << r
    # `node` covers `query`, so a position clear in `node` is free.
    clear = ~value & (ceiling - 1)
    children = []
    while clear:  # lowest position first
        bit = clear & -clear
        children.append(tuple.__new__(NodeId, (r, value | bit)))
        clear ^= bit
    return children


def superset_region(query: NodeId) -> Iterator[NodeId]:
    """All bit-supersets of `query`, in spanning tree depth-first order.

    Every node the walk reaches covers `query` by construction.
    """
    stack = [query]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_covered_children(node, query)))
