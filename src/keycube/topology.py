"""Pure functions over the r-dimensional hypercube id space.

A logical node is labelled by an r-bit id. Keywords hash to bit positions,
a keyword set maps to the id whose set bits are exactly the hashed
positions of its members, and queries travel greedily along edges that fix
one differing bit at a time.

Bit/text convention: the canonical text form of an id is a string of r
characters '0'/'1', and the character at index i (0-based, leftmost) is
bit position i. Internally position i is stored as the 2**i bit of an
integer, so the text form is the integer's binary digits reversed.

Ids are validated where they enter: `NodeId(r, value)` and `NodeId.parse`.
Ids derived from a valid id (`flip` and everything built on it) are valid
by construction and skip that check.

Each keyword's SHA-256 prefix and each parsed id are computed once and
kept in bounded LRU caches, since keywords and id texts also arrive from
the wire. Validation stays outside the caches: bad input raises the same
error on every call, and only valid values are stored.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    AlreadyAtTarget,
    DimensionMismatch,
    InvalidKeyword,
    NotInSupersetRegion,
)

MAX_DIMENSION = 32

HashFn = Callable[[str, int], int]


def check_dimension(r: int) -> int:
    """Validate a hypercube dimension (1 <= r <= 32) and return it."""
    if not isinstance(r, int) or isinstance(r, bool) or not 1 <= r <= MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIMENSION}], got {r!r}")
    return r


@dataclass(frozen=True, order=True)
class NodeId:
    """Identifier of one logical node: an r-bit vector.

    `value` holds bit position i (leftmost text character i) as the 2**i
    integer bit. Instances are immutable and usable as dict keys.
    """

    r: int
    value: int

    def __post_init__(self):
        check_dimension(self.r)
        if not 0 <= self.value < (1 << self.r):
            raise ValueError(f"id value {self.value} out of range for r={self.r}")

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Build an id from its canonical '0'/'1' text form."""
        if type(text) is not str:  # e.g. an unhashable list must not reach the cache
            raise ValueError(f"not a bit string of 1 to {MAX_DIMENSION} bits: {text!r}")
        return _parse_id(text)

    @functools.cached_property
    def text(self) -> str:
        """Canonical text form; leftmost character is bit position 0."""
        return format(self.value, f"0{self.r}b")[::-1]

    def __str__(self) -> str:
        return self.text

    def bit(self, position: int) -> int:
        return self.value >> position & 1

    def flip(self, position: int) -> "NodeId":
        if not 0 <= position < self.r:
            raise ValueError(f"bit position {position} out of range for r={self.r}")
        return _valid_id(self.r, self.value ^ (1 << position))

    @property
    def popcount(self) -> int:
        return bin(self.value).count("1")

    def covers(self, other: "NodeId") -> bool:
        """True when this id's set bits are a superset of `other`'s."""
        if self.r != other.r:
            raise DimensionMismatch(f"r={self.r} vs r={other.r}")
        return self.value & other.value == other.value


@functools.lru_cache(maxsize=1 << 14)
def _parse_id(text: str) -> NodeId:
    if not 1 <= len(text) <= MAX_DIMENSION or text.strip("01"):
        raise ValueError(f"not a bit string of 1 to {MAX_DIMENSION} bits: {text!r}")
    return _valid_id(len(text), int(text[::-1], 2))


def _valid_id(r: int, value: int) -> NodeId:
    """A NodeId from an r and value the caller has already checked; skips __post_init__."""
    node = object.__new__(NodeId)
    object.__setattr__(node, "r", r)  # as the frozen dataclass's own __init__ does
    object.__setattr__(node, "value", value)
    return node


class KeywordSet:
    """A canonical set of keywords: deduplicated, sorted by UTF-8 byte order.

    Python compares str by code point, which for valid UTF-8 coincides with
    byte order, so plain string sorting yields the canonical order.
    """

    __slots__ = ("words",)

    def __init__(self, words: Iterable[str] = ()):
        if isinstance(words, str):
            raise InvalidKeyword(f"keywords must be a collection, not the string {words!r}")
        seen = set()
        cleaned = []
        for w in words:
            if not isinstance(w, str) or not w:
                raise InvalidKeyword(f"keyword must be a non-empty string, got {w!r}")
            if w not in seen:
                seen.add(w)
                cleaned.append(w)
        object.__setattr__(self, "words", tuple(sorted(cleaned)))

    def __setattr__(self, name, value):
        raise AttributeError("KeywordSet is immutable")

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in set(self.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, KeywordSet) and self.words == other.words

    def __lt__(self, other: "KeywordSet") -> bool:
        return self.words < other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        return f"KeywordSet({list(self.words)!r})"

    def __reduce__(self):
        return (KeywordSet, (self.words,))

    def issuperset(self, words: Iterable[str]) -> bool:
        """Whether every word in `words` (a KeywordSet or any iterable) is in this set."""
        return set(self.words).issuperset(words)


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

    Unknown keywords fall through to the fallback hash. Used to pin down
    small keyword universes in tests and walkthroughs. A plain class, not
    a closure, so node state carrying it stays picklable.
    """

    def __init__(self, table: Mapping[str, int], fallback: HashFn = keyword_bit):
        self.table = dict(table)
        self.fallback = fallback

    def __call__(self, keyword: str, r: int) -> int:
        if not isinstance(keyword, str) or not keyword:
            raise InvalidKeyword(f"keyword must be a non-empty string, got {keyword!r}")
        check_dimension(r)
        if keyword in self.table:
            return self.table[keyword] % r
        return self.fallback(keyword, r)


def table_hash(table: Mapping[str, int], fallback: HashFn = keyword_bit) -> HashFn:
    """Shorthand for TableHash(table, fallback)."""
    return TableHash(table, fallback)


def node_for_keywords(keywords: KeywordSet | Iterable[str], r: int,
                      hash_fn: HashFn = keyword_bit) -> NodeId:
    """The node responsible for a keyword set.

    Its set bits are exactly the hashed positions of the keywords; the
    empty set maps to the all-zeros node. Colliding keywords simply set
    the same bit, so popcount(result) <= min(|keywords|, r).
    """
    check_dimension(r)
    if not isinstance(keywords, KeywordSet):
        keywords = KeywordSet(keywords)
    value = 0
    for word in keywords:
        value |= 1 << hash_fn(word, r)
    return NodeId(r, value)


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
    if current.r != target.r:
        raise DimensionMismatch(f"r={current.r} vs r={target.r}")
    diff = current.value ^ target.value
    if diff == 0:
        raise AlreadyAtTarget(f"already at {current.text}")
    lowest = (diff & -diff).bit_length() - 1
    return current.flip(lowest)


def superset_children(node: NodeId, query: NodeId) -> list[NodeId]:
    """Children of `node` in the spanning tree over bit-supersets of `query`.

    Positions not set in the query are free. A child sets one more free
    bit, restricted to free positions strictly below the lowest free bit
    already set in `node` (all free positions when it has none). Walking
    the tree from the query id itself visits every bit-superset exactly
    once: the free bits of any superset must be added in descending order,
    which is a unique path.
    """
    if not node.covers(query):
        raise NotInSupersetRegion(f"{node.text} is not a bit-superset of {query.text}")
    free_set = node.value & ~query.value
    if free_set:
        ceiling = (free_set & -free_set).bit_length() - 1
    else:
        ceiling = node.r
    return [
        node.flip(i)
        for i in range(ceiling)
        if not query.value >> i & 1 and not node.value >> i & 1
    ]


def superset_region(query: NodeId) -> Iterator[NodeId]:
    """All bit-supersets of `query`, in spanning tree depth-first order."""
    stack = [query]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(superset_children(node, query)))
