"""Calibration against a fixed reference workload.

The host this benchmark was defined on shares its cores: the same Python
code runs up to twice as slow while a neighbour keeps the sibling
hardware thread busy, in phases lasting from a second to over a minute.
The benchmark therefore measures a fixed reference workload between
cycles and scales every time by `NOMINAL_SECONDS / reference`. A scaled
time is the time the call would have taken while the reference ran at
its nominal speed. The reference does the kind of work the program does:
tuple-keyed dicts, sets, a JSON round trip, SHA-256 hashing, and scans
and lookups over a pool of objects as large as the program's tables.
Its speed thus tracks the program's through the host's phases within a
few percent, where plain arithmetic would not.

The reference is part of the benchmark's definition: changing it, or
`NOMINAL_SECONDS`, changes every calibrated number.
"""

from __future__ import annotations

import hashlib
import json
import time

# The reference's duration on an idle 2-vCPU host under CPython 3.11.
NOMINAL_SECONDS = 0.0010

_WORDS = [f"w{i:04d}" for i in range(300)]
_ENVELOPE = {"op": "superset", "target": "010101010101", "keywords": _WORDS[:8],
             "hops": 3, "visited": ["010101010101"] * 40}


class _Item:
    __slots__ = ("key", "text", "owner", "amount", "flag")

    def __init__(self, key: int):
        self.key = key
        self.text = str(key)
        self.owner = f"acct{key % 200:03d}"
        self.amount = key % 97
        self.flag = key % 3 == 0


# A pool about the size of the program's tables (4096 nodes, thousands of
# locks), so that the reference feels the cache pressure they do.
_POOL = {i: _Item(i) for i in range(12000)}
_PROBES = [(i * 7919) % 12000 for i in range(2000)]


def _work() -> int:
    table: dict[tuple[str, int], int] = {}
    for i in range(1000):
        key = (_WORDS[i % 300], i % 7)
        table[key] = table.get(key, 0) + i
    total = sum(table[key] for key in set(table) if key[1] & 1)
    for _ in range(15):
        json.loads(json.dumps(_ENVELOPE))
    for word in _WORDS[:150]:
        hashlib.sha256(word.encode()).digest()
    total += sum(item.amount for item in _POOL.values()
                 if item.owner == "acct007" and not item.flag)
    total += sum(_POOL[key].amount for key in _PROBES)
    return total


def reference_seconds(repeats: int = 3) -> float:
    """The fastest of `repeats` runs of the reference workload."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(fn) -> tuple[float, float]:
    """Run `fn` once; returns (raw seconds, calibrated seconds).

    The reference is measured right before and right after the call.
    """
    before = reference_seconds()
    start = time.perf_counter()
    fn()
    raw = time.perf_counter() - start
    after = reference_seconds()
    return raw, raw * NOMINAL_SECONDS * 2 / (before + after)
