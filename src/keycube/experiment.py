"""Hop-count experiments over simulated networks.

For every (node count, object count) cell a fresh in-process network is
built and populated, then a batch of random pin searches and a batch of
random superset searches are run, each from a uniformly random start node
with a uniformly random query keyword set. Query keysets come from the
same generator as object keysets, `network.random_keyset`, so many pin
queries legitimately return nothing; the hop count is what is measured.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .network import NetworkConfig, build_network, experiment_keywords, populate, random_keyset
from .topology import NodeId

DEFAULT_NODE_COUNTS = (8, 16, 32, 64, 128)
DEFAULT_OBJECT_COUNTS = (10, 100, 1000)
DEFAULT_QUERIES = 50
DEFAULT_LIMIT = 10
DEFAULT_SEED = 2021

SUMMARY_HEADER = ("r", "nodes", "objects", "op", "mean_hops", "queries")
RAW_HEADER = ("r", "nodes", "objects", "op", "query_index", "start",
              "keywords", "hops", "results")


@dataclass(frozen=True)
class ExperimentPlan:
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    object_counts: tuple[int, ...] = DEFAULT_OBJECT_COUNTS
    queries_per_cell: int = DEFAULT_QUERIES
    superset_limit: int = DEFAULT_LIMIT
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for n in self.node_counts:
            if type(n) is not int or n < 2 or n & (n - 1):
                raise ValueError(f"node count {n!r} is not a power of two >= 2")
        if any(type(count) is not int or count < 0 for count in self.object_counts):
            raise ValueError(f"object counts must be ints >= 0, got {self.object_counts!r}")
        for name, count in (("queries_per_cell", self.queries_per_cell),
                            ("superset_limit", self.superset_limit)):
            if type(count) is not int or count < 1:
                raise ValueError(f"{name} must be an int >= 1, got {count!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(n.bit_length() - 1 for n in self.node_counts)


@dataclass(frozen=True)
class QueryRecord:
    r: int
    nodes: int
    objects: int
    op: str
    query_index: int
    start: str
    keywords: tuple[str, ...]
    hops: int
    results: int


@dataclass(frozen=True)
class CellSummary:
    r: int
    nodes: int
    objects: int
    op: str
    mean_hops: float
    queries: int


@dataclass
class ExperimentReport:
    plan: ExperimentPlan
    summaries: list[CellSummary] = field(default_factory=list)
    records: list[QueryRecord] = field(default_factory=list)

    def mean_hops(self, nodes: int, objects: int, op: str) -> float:
        for cell in self.summaries:
            if (cell.nodes, cell.objects, cell.op) == (nodes, objects, op):
                return cell.mean_hops
        raise KeyError(f"no cell ({nodes} nodes, {objects} objects, {op})")

    def write_summary_csv(self, path) -> None:
        _write_csv(path, SUMMARY_HEADER, (
            (cell.r, cell.nodes, cell.objects, cell.op, f"{cell.mean_hops:.6f}", cell.queries)
            for cell in self.summaries))

    def write_raw_csv(self, path) -> None:
        _write_csv(path, RAW_HEADER, (
            (rec.r, rec.nodes, rec.objects, rec.op, rec.query_index, rec.start,
             "|".join(rec.keywords), rec.hops, rec.results)
            for rec in self.records))


def _write_csv(path, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit sub-seed for one role within a plan."""
    label = "/".join(str(p) for p in (seed,) + parts)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Run every cell of the plan; the report is a pure function of the plan."""
    report = ExperimentReport(plan)
    for r, nodes in zip(plan.dimensions, plan.node_counts):
        universe = experiment_keywords(r)
        for objects in plan.object_counts:
            with build_network(NetworkConfig(r=r)) as net:
                populate(net, objects, derive_seed(plan.seed, r, objects, "populate"))
                for op in ("pin", "superset"):
                    rng = random.Random(derive_seed(plan.seed, r, objects, op))
                    hops = []
                    for index in range(plan.queries_per_cell):
                        start = NodeId(r, rng.randrange(nodes))
                        keywords = random_keyset(rng, universe, r)
                        if op == "pin":
                            result = net.pin_search(start, keywords)
                        else:
                            result = net.superset_search(start, keywords, plan.superset_limit)
                        hops.append(result.hops)
                        report.records.append(QueryRecord(
                            r, nodes, objects, op, index, start.text,
                            keywords.words, result.hops, len(result.cids)))
                    report.summaries.append(CellSummary(
                        r, nodes, objects, op, math.fsum(hops) / len(hops), plan.queries_per_cell))
    return report


def format_summary_table(summaries: Iterable[CellSummary]) -> str:
    """Fixed-width text table, one row per cell."""
    lines = [f"{'r':>3} {'nodes':>6} {'objects':>8} {'op':<9} {'mean_hops':>10} {'queries':>8}"]
    for cell in summaries:
        lines.append(f"{cell.r:>3} {cell.nodes:>6} {cell.objects:>8} "
                     f"{cell.op:<9} {cell.mean_hops:>10.3f} {cell.queries:>8}")
    return "\n".join(lines)
