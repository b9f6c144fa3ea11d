"""Acceptance suite: every release criterion, one test each.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
passing runs). Tolerances are fixed here and nowhere else.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from keycube.dao import GovState
from keycube.errors import (
    ClosedProposal,
    DebateOngoing,
    GovernanceError,
    LockNotExpired,
)
from keycube.experiment import ExperimentPlan, run_experiment
from keycube.network import (
    TRANSPORT_WIRE,
    NetworkConfig,
    build_network,
    experiment_keywords,
    populate,
)
from keycube.topology import (
    KeywordSet,
    NodeId,
    hamming_distance,
    superset_region,
)

from conftest import make_net
from govwalk import run_walk
from test_network import free_port_block
from test_query import all_pattern_keysets, brute_force_pin, brute_force_superset


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {name}")
        raise
    print(f"ACCEPTANCE {number} PASS - {name}")


@pytest.fixture(scope="module")
def full_run():
    """Default seed-fixed experiment grid plus its wall-clock runtime."""
    start = time.perf_counter()
    report = run_experiment(ExperimentPlan())
    return report, time.perf_counter() - start


def test_criterion_1_pin_hop_law(full_run):
    report, runtime = full_run
    with criterion(1, "pin search hop law, mean within 0.6 of r/2, r=7 in [3,4], <30s"):
        for cell in report.summaries:
            if cell.op != "pin":
                continue
            assert abs(cell.mean_hops - cell.r / 2) <= 0.6, (
                f"r={cell.r} objects={cell.objects}: {cell.mean_hops}")
            if cell.r == 7:
                assert 3.0 <= cell.mean_hops <= 4.0
        assert runtime < 30.0, f"experiment grid took {runtime:.1f}s"


def test_criterion_2_pin_object_independence(full_run):
    report, _ = full_run
    with criterion(2, "pin hops independent of object count at r=7 (<0.8 apart)"):
        means = [report.mean_hops(128, objects, "pin") for objects in (10, 100, 1000)]
        for a, b in itertools.combinations(means, 2):
            assert abs(a - b) < 0.8, f"means {means}"


def test_criterion_3_superset_trends(full_run):
    report, _ = full_run
    with criterion(3, "superset hop trends and value windows"):
        by_objects = [report.mean_hops(128, objects, "superset")
                      for objects in (10, 100, 1000)]
        assert by_objects[0] > by_objects[1] > by_objects[2], by_objects
        by_nodes = [report.mean_hops(nodes, 10, "superset")
                    for nodes in (8, 16, 32, 64, 128)]
        assert all(a < b for a, b in zip(by_nodes, by_nodes[1:])), by_nodes
        assert 12.0 <= by_objects[0] <= 28.0, by_objects[0]
        low = report.mean_hops(8, 1000, "superset")
        assert 1.0 <= low <= 2.5, low


def test_criterion_4_oracle_equivalence():
    with criterion(4, "pin/superset match brute force exactly, r in {2,3,4}, <10s"):
        start = time.perf_counter()
        mismatches = 0
        for r in (2, 3, 4):
            net = make_net(r)
            records = populate(net, 200, seed=400 + r)
            universe = experiment_keywords(r)
            queries = {record.keywords for record in records}
            queries.update(all_pattern_keysets(r, universe, net.cfg.hash_fn))
            rng = random.Random(r)
            for keywords in sorted(queries):
                start_node = NodeId(r, rng.randrange(1 << r))
                pin = net.pin_search(start_node, keywords)
                if set(pin.cids) != brute_force_pin(net, keywords):
                    mismatches += 1
                sup = net.superset_search(start_node, keywords, limit=10**6)
                if set(sup.cids) != brute_force_superset(net, keywords):
                    mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_5_routing_exactness():
    with criterion(5, "greedy routing exact, superset tree spans region once, r<=4"):
        for r in (1, 2, 3, 4):
            net = make_net(r)
            for a, b in itertools.product(net.node_ids, repeat=2):
                assert net.route(a, b).hops == hamming_distance(a, b)
            for value in range(1 << r):
                query = NodeId(r, value)
                visited = list(superset_region(query))
                expected = {NodeId(r, v) for v in range(1 << r)
                            if v & value == value}
                assert len(visited) == len(expected)
                assert set(visited) == expected


def test_criterion_6_transport_equivalence():
    with criterion(6, "in-process and wire transports agree on 100 queries"):
        base = free_port_block(8)
        mem = make_net(3)
        wire = build_network(NetworkConfig(r=3, transport=TRANSPORT_WIRE,
                                           base_port=base))
        try:
            populate(mem, 80, seed=606)
            populate(wire, 80, seed=606)
            universe = experiment_keywords(3)
            rng = random.Random(606)
            differences = 0
            for i in range(100):
                start = NodeId(3, rng.randrange(8))
                keywords = KeywordSet(rng.sample(universe, rng.randint(1, 3)))
                if i % 2 == 0:
                    a = mem.pin_search(start, keywords)
                    b = wire.pin_search(start, keywords)
                else:
                    a = mem.superset_search(start, keywords, 10)
                    b = wire.superset_search(start, keywords, 10)
                if (a.cids, a.hops) != (b.cids, b.hops):
                    differences += 1
            assert differences == 0
        finally:
            wire.close()


def test_criterion_7_governance_suite():
    with criterion(7, "governance: conservation over 10k ops, temporal safety, lifecycle"):
        ops, divergences = run_walk(total_ops=10_000, seed=20210)
        assert ops == 10_000
        assert divergences == 0

        # Temporal safety over randomized sequences: early release, late
        # vote, early execute are rejected without touching state.
        rng = random.Random(707)
        state = GovState()
        state.mint("alice", 5000)
        lock_id = state.lock_tokens("alice", 100, release_time=60)
        pid = state.submit_proposal("alice", "safety", debate_end=45)
        sid = state.submit_suggestion(pid, "alice", "option")
        voted = False
        for _ in range(400):
            before = state.snapshot()
            move = rng.randrange(3)
            if move == 0 and state.clock < 60:
                with pytest.raises(LockNotExpired):
                    state.release(lock_id)
            elif move == 1 and state.clock < 45:
                with pytest.raises(DebateOngoing):
                    state.execute_proposal(pid)
            elif move == 2 and state.clock >= 45:
                with pytest.raises((ClosedProposal, GovernanceError)):
                    state.vote(pid, sid, "alice")
            else:
                assert state.snapshot() == before
                continue
            assert state.snapshot() == before
            if rng.random() < 0.15:
                state.tick(rng.randint(1, 12))
                if not voted and state.clock < 45 and rng.random() < 0.3:
                    state.vote(pid, sid, "alice")
                    voted = True

        # Worked lifecycle: stakes 100 and 50 locked past the debate end,
        # two suggestions, the 100-weight one wins.
        gov = GovState()
        gov.mint("alice", 100)
        gov.mint("bob", 50)
        gov.lock_tokens("alice", 100, release_time=500)
        gov.lock_tokens("bob", 50, release_time=500)
        pid = gov.submit_proposal("alice", "direction", debate_end=100)
        first = gov.submit_suggestion(pid, "alice", "direction A")
        second = gov.submit_suggestion(pid, "bob", "direction B")
        gov.vote(pid, first, "alice")
        gov.vote(pid, second, "bob")
        gov.tick(100)
        assert gov.execute_proposal(pid) == first
        assert gov.conserved()


def test_criterion_8_experiment_determinism(tmp_path, full_run):
    report, _ = full_run
    with criterion(8, "same seed gives byte-identical experiment CSVs"):
        again = run_experiment(ExperimentPlan())
        first_csv = tmp_path / "first.csv"
        second_csv = tmp_path / "second.csv"
        report.write_summary_csv(first_csv)
        again.write_summary_csv(second_csv)
        assert first_csv.read_bytes() == second_csv.read_bytes()
        first_raw = tmp_path / "first.raw.csv"
        second_raw = tmp_path / "second.raw.csv"
        report.write_raw_csv(first_raw)
        again.write_raw_csv(second_raw)
        assert first_raw.read_bytes() == second_raw.read_bytes()
