"""The benchmark's four workloads.

Each workload is driven by one client in a closed loop: the next call is
issued only after the previous reply has been checked. Ops come in
cycles, and a pass is a fixed number of cycles that the loop replays
until its time is up. A cycle is a pure function of the seed and its
index, and leaves the system in the state it found it in, so passes can
be repeated and the traced run can replay the exact ops of the untraced
run. Every reply is checked against an oracle
that does not share the program's routing, storage or ledger code.

    grid    run_experiment on the paper's default plan, back to back
    cube12  in-process r=12: pins, shallow and deep supersets, writes
    wire4   r=4 over HTTP, every reply compared with an in-process twin
    gov     a generated governance scenario applied in chunks
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import requests

from keycube import (
    ExperimentPlan,
    GovState,
    KeywordSet,
    NetworkConfig,
    NodeId,
    build_network,
    experiment_keywords,
    populate,
    run_experiment,
    run_scenario,
)
from keycube.experiment import DEFAULT_SEED
from keycube.errors import BootstrapError, KeycubeError, ScenarioError
from keycube.network import TRANSPORT_WIRE

import govgen
from calib import calibrated
from model import IndexModel, popcount

SETUP_REPEATS = 4


@dataclass(frozen=True)
class Op:
    """One client call. `units` is what it counts for in `attempted`."""

    kind: str
    args: tuple
    units: int = 1


def _timed_repeats(wl, fn, repeats: int = SETUP_REPEATS, release=None) -> None:
    """Time `repeats` calls of `fn` as set-up samples of `wl`.

    `release` runs untimed before each call, to drop what the previous
    call built, so that freeing it is not charged to the next one.
    """
    for _ in range(repeats):
        if release is not None:
            release()
        gc.collect()
        wl.add_setup_sample(fn)


class Workload:
    name = ""
    # Cycles in one pass; the loop replays the pass until its time is up.
    pass_cycles = 1
    # Exceptions a call may raise that count as a failed op, not a crash.
    op_errors: tuple = (KeycubeError,)

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.setup_samples: list[float] = []  # calibrated seconds
        self.setup_raw: list[float] = []
        self.build_samples: list[float] = []
        self._cycles: dict[int, list[Op]] = {}
        self._orders: dict[str, list] = {}

    def setup(self) -> None:
        """Bring the system up, recording each repetition in `setup_samples`."""
        raise NotImplementedError

    def add_setup_sample(self, fn) -> None:
        builds = len(self.build_samples)
        raw, scaled = calibrated(fn)
        self.build_samples[builds:] = [b * scaled / raw for b in self.build_samples[builds:]]
        self.setup_raw.append(raw)
        self.setup_samples.append(scaled)

    def cycle(self, k: int) -> list[Op]:
        if k not in self._cycles:
            self._cycles[k] = self._make_cycle(k)
        return self._cycles[k]

    def _make_cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def begin(self, k: int) -> None:
        """Untimed per-cycle preparation."""

    def call(self, op: Op):
        """The timed call into the program's public API."""
        raise NotImplementedError

    def check(self, op: Op, reply) -> str | None:
        """Oracle check of one reply; None when it is right."""
        raise NotImplementedError

    def fingerprint(self, op: Op, reply):
        """Plain data identifying a reply, computed without calling the program."""
        return reply

    def hops(self, op: Op, reply) -> int:
        """Hops the op took: reported by the program, or the oracle's for writes."""
        return 0

    def self_test(self) -> list[str]:
        """Plant wrong replies; each one the oracle misses is returned."""
        return []

    def finish(self) -> list[str]:
        """End-of-run checks and teardown; returns the problems found."""
        return []


# -- grid ---------------------------------------------------------------------

class GridWorkload(Workload):
    """The paper's default experiment grid, run back to back."""

    name = "grid"

    def setup(self):
        # The grid builds its networks itself, so its only set-up is
        # importing the package in a fresh interpreter.
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        cmd = [sys.executable, "-c", "import keycube"]
        _timed_repeats(self, lambda: subprocess.run(cmd, env=env, cwd=self.root,
                                                    check=True), 5)
        self.plan = ExperimentPlan(seed=self.seed)
        self.digest = None

    def _make_cycle(self, k):
        return [Op("grid", ())]

    def call(self, op):
        return run_experiment(self.plan)

    def fingerprint(self, op, report):
        return hashlib.sha256(repr((report.records, report.summaries)).encode()).hexdigest()

    def csv_digest(self, report) -> str:
        out = self.root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        digest = hashlib.sha256()
        for kind, write in (("summary", report.write_summary_csv),
                            ("raw", report.write_raw_csv)):
            path = out / f"grid-{self.seed}-{kind}.csv"
            write(path)
            digest.update(path.read_bytes())
            path.unlink()
        return digest.hexdigest()

    def check(self, op, report):
        plan = self.plan
        cells = len(plan.node_counts) * len(plan.object_counts) * 2
        if len(report.records) != cells * plan.queries_per_cell:
            return f"grid: {len(report.records)} query records"
        models = {r: IndexModel(r) for r in plan.dimensions}
        for rec in report.records:
            start = int(rec.start[::-1], 2)
            target = models[rec.r].owner(tuple(rec.keywords))
            distance = popcount(start ^ target)
            if rec.op == "pin" and rec.hops != distance:
                return f"grid: pin {rec} took {rec.hops} hops, distance {distance}"
            if rec.op == "superset" and (rec.hops < distance
                                         or rec.results > plan.superset_limit):
                return f"grid: superset {rec} breaks the walk bounds"
        digest = self.csv_digest(report)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "grid: CSV bytes differ between runs of the same plan"
        return None

    def hops(self, op, report):
        return sum(rec.hops for rec in report.records)

    def self_test(self):
        report = run_experiment(ExperimentPlan(node_counts=(8,), object_counts=(10,),
                                               queries_per_cell=5, seed=self.seed))
        missed = []
        saved_plan, saved_digest = self.plan, self.digest
        self.plan, self.digest = report.plan, None
        try:
            if self.check(Op("grid", ()), report) is not None:
                missed.append("grid: a correct small grid was flagged")
            pin = next(i for i, rec in enumerate(report.records) if rec.op == "pin")
            original = report.records[pin]
            report.records[pin] = type(original)(**{**original.__dict__,
                                                     "hops": original.hops + 1})
            if self.check(Op("grid", ()), report) is None:
                missed.append("grid: a pin hop off by one was not flagged")
        finally:
            self.plan, self.digest = saved_plan, saved_digest
        return missed


# -- hypercube workloads ------------------------------------------------------

class _CubeWorkload(Workload):
    """Shared client calls and checks of the hypercube workloads.

    The stored objects are the same in every run (the experiment's
    default seed); --seed draws the op stream. What an op costs is mostly
    its hop count, and hop counts take few distinct values, so a quantile
    over randomly drawn ops jumps from one value to the next between
    seeds. Each pass therefore deals its start offsets (start XOR target,
    whose popcount is the routing distance), the sizes of its random
    keysets (which set the size of a superset walk's region) and its
    one-keyword superset queries from seeded permutations of all the
    possibilities, so that every pass has nearly the same mix.
    """

    r = 0
    objects = 0

    def _bring_up(self, cfg: NetworkConfig):
        start = time.perf_counter()
        net = build_network(cfg)
        self.build_samples.append(time.perf_counter() - start)
        populate(net, self.objects, DEFAULT_SEED)
        return net

    def _dealt(self, stream: str, k: int, per_cycle: int, population: list) -> list:
        """Items `k * per_cycle` onward of a seeded permutation of `population`."""
        order = self._orders.get(stream)
        if order is None:
            rng = random.Random(f"{self.name}/{self.seed}/{stream}")
            order = self._orders[stream] = rng.sample(population, len(population))
        return [order[(k * per_cycle + j) % len(order)] for j in range(per_cycle)]

    def _op(self, kind: str, k: int, slot: int, per_cycle: int, words, *extra) -> Op:
        mask = self._dealt(kind, k, per_cycle, range(1 << self.r))[slot]
        start = NodeId(self.r, self.model.owner(words) ^ mask)
        return Op(kind, (start, words, KeywordSet(words)) + extra)

    def _random_keysets(self, stream: str, rng: random.Random, k: int,
                        count: int) -> list[tuple[str, ...]]:
        """Keysets of sizes dealt evenly from 1..r, with random words."""
        sizes = self._dealt(stream, k, count, list(range(1, self.r + 1)))
        return [tuple(sorted(rng.sample(self.universe, size))) for size in sizes]

    def _pin_ops(self, rng: random.Random, k: int, count: int) -> list[Op]:
        """Pins alternate between stored keysets (hits) and random keysets."""
        stored = sorted(self.model.snapshot().values())
        drawn = iter(self._random_keysets("pin-size", rng, k, (count + 1) // 2))
        return [self._op("pin", k, i, count, rng.choice(stored) if i % 2 else next(drawn))
                for i in range(count)]

    def _keyword_ops(self, kind: str, k: int, count: int, limit: int) -> list[Op]:
        """One-keyword supersets, each keyword equally often over a pass."""
        words = self._dealt(f"{kind}-keyword", k, count, self.universe)
        return [self._op(kind, k, i, count, (w,), limit) for i, w in enumerate(words)]

    def _write_ops(self, rng: random.Random, k: int, pairs: int):
        chosen = rng.sample(sorted(self.model.snapshot().items()), pairs)
        removes = [self._op("remove", k, i, pairs, words, cid)
                   for i, (cid, words) in enumerate(chosen)]
        inserts = [self._op("insert", k, i, pairs, words, cid)
                   for i, (cid, words) in enumerate(chosen)]
        return removes, inserts

    def call(self, op):
        start, words, keywords = op.args[:3]
        if op.kind == "pin":
            return self.net.pin_search(start, keywords)
        if op.kind in ("superset", "deep"):
            return self.net.superset_search(start, keywords, op.args[3])
        if op.kind == "insert":
            return self.net.insert(op.args[3], keywords, start=start)
        return self.net.remove(op.args[3], keywords, start=start)

    def check(self, op, reply):
        start, words = op.args[0].value, op.args[1]
        if op.kind == "pin":
            return self.model.check_pin(start, words, reply.cids, reply.hops,
                                        len(reply.nodes_visited))
        if op.kind in ("superset", "deep"):
            return self.model.check_superset(start, words, op.args[3], reply.cids,
                                             reply.hops, len(reply.nodes_visited))
        return self.model.check_write(op.kind, op.args[3], words, reply)

    def fingerprint(self, op, reply):
        if op.kind in ("insert", "remove"):
            return dict(reply)
        return reply.cids, reply.hops, tuple(n.value for n in reply.nodes_visited)

    def hops(self, op, reply):
        if op.kind in ("insert", "remove"):
            return popcount(op.args[0].value ^ self.model.owner(op.args[1]))
        return reply.hops

    def self_test(self):
        missed = []
        cid, words = min(self.model.snapshot().items())
        start = NodeId(self.r, random.Random(self.seed).randrange(1 << self.r))
        keywords = KeywordSet(words)
        pin = Op("pin", (start, words, keywords))
        sup = Op("superset", (start, (words[0],), KeywordSet(words[:1]), 10))
        for op in (pin, sup):
            reply = self.call(op)
            if self.check(op, reply) is not None:
                missed.append(f"{self.name}: a correct {op.kind} reply was flagged")
            planted = (
                ("a hop off by one", reply.cids, reply.hops + 1),
                ("a missing cid", reply.cids[1:], reply.hops),
            )
            for what, cids, hops in planted:
                wrong = type(reply)(cids, hops, reply.nodes_visited)
                if self.check(op, wrong) is None:
                    missed.append(f"{self.name}: {op.kind} with {what} was not flagged")
        return missed

    def _model_matches_scan(self) -> str | None:
        if IndexModel.from_scan(self.net).snapshot() != self.model.snapshot():
            return f"{self.name}: stored records differ from the oracle's model"
        return None


class Cube12Workload(_CubeWorkload):
    """A large sparse cube: per-hop and per-walk-edge cost dominate."""

    name = "cube12"
    r = 12
    objects = 1000
    # Per cycle: 10 pins, 2 shallow supersets (limit 10) on keysets drawn
    # like the pins' random ones, 4 deep supersets (one keyword, limit
    # 50) and 2 records removed and re-inserted. Pins and writes are 70%
    # of the ops and deep walks the slowest 20%, so the p50 of the mix
    # falls among the pins and writes and its p90 at the deep walks'
    # median. A pass of 12 cycles asks for each of the 48 keywords' deep
    # walk once.
    pass_cycles = 12
    PINS, SHALLOW, DEEP, SHALLOW_LIMIT, DEEP_LIMIT, WRITE_PAIRS = 10, 2, 4, 10, 50, 2

    def setup(self):
        self.universe = experiment_keywords(self.r)
        self.net = None

        def bring_up():
            self.net = self._bring_up(NetworkConfig(r=self.r))

        def release():
            self.net = None

        _timed_repeats(self, bring_up, release=release)
        self.model = IndexModel.from_scan(self.net)

    def _make_cycle(self, k):
        rng = random.Random(f"cube12/{self.seed}/{k}")
        pins = self._pin_ops(rng, k, self.PINS)
        shallow = [self._op("superset", k, i, self.SHALLOW, words, self.SHALLOW_LIMIT)
                   for i, words in enumerate(
                       self._random_keysets("superset-size", rng, k, self.SHALLOW))]
        deep = self._keyword_ops("deep", k, self.DEEP, self.DEEP_LIMIT)
        removes, inserts = self._write_ops(rng, k, self.WRITE_PAIRS)
        return [pins[0], pins[1], deep[0], removes[0], pins[2], shallow[0],
                pins[3], inserts[0], pins[4], deep[1], pins[5], deep[2],
                removes[1], pins[6], pins[7], shallow[1], inserts[1], pins[8],
                deep[3], pins[9]]

    def finish(self):
        problem = self._model_matches_scan()
        return [problem] if problem else []


def close_network(net) -> None:
    """Stop every server at once, then close the network.

    `Network.close` stops the servers one after another, each taking up
    to its half-second poll interval to notice.
    """
    stoppers = [threading.Thread(target=server.shutdown) for server in net.servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join()
    net.close()


def free_port_block(size: int, first: int = 20000, last: int = 32000) -> int:
    """A base port with `size` consecutive ports free on loopback.

    Searched below the kernel's default ephemeral range (32768 and up), so
    the servers never collide with the client side of a connection.
    """
    for base in range(first, last - size, size):
        socks = []
        try:
            for port in range(base, base + size):
                sock = socket.socket()
                socks.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in socks:
                sock.close()
    raise BootstrapError("no free port block on loopback")


class Wire4Workload(_CubeWorkload):
    """r=4 over HTTP: the only workload whose legs cross a socket."""

    name = "wire4"
    r = 4
    objects = 48
    op_errors = (KeycubeError, requests.RequestException, OSError, ValueError)
    # Per cycle: 5 pins, 3 one-keyword supersets (limit 10), 1 remove and
    # its re-insert. Pins and writes are 70% of the ops, supersets the
    # slowest 30%.
    pass_cycles = 40
    PINS, SUPERSETS, LIMIT = 5, 3, 10

    def setup(self):
        self.threads_at_start = threading.active_count()
        self.universe = experiment_keywords(self.r)
        self.net = None

        def release():
            if self.net is not None:
                close_network(self.net)
                self.net = None

        def bring_up():
            for attempt in range(5):
                cfg = NetworkConfig(r=self.r, transport=TRANSPORT_WIRE,
                                    base_port=free_port_block(1 << self.r))
                try:
                    self.net = self._bring_up(cfg)
                    return
                except BootstrapError:
                    if attempt == 4:
                        raise

        _timed_repeats(self, bring_up, release=release)
        self.twin = build_network(NetworkConfig(r=self.r))
        populate(self.twin, self.objects, DEFAULT_SEED)
        self.model = IndexModel.from_scan(self.twin)
        problem = self._model_matches_scan()
        self.problems = [problem] if problem else []

    def _make_cycle(self, k):
        rng = random.Random(f"wire4/{self.seed}/{k}")
        pins = self._pin_ops(rng, k, self.PINS)
        sups = self._keyword_ops("superset", k, self.SUPERSETS, self.LIMIT)
        removes, inserts = self._write_ops(rng, k, 1)
        return [pins[0], sups[0], pins[1], removes[0], pins[2], sups[1],
                inserts[0], pins[3], sups[2], pins[4]]

    def check(self, op, reply):
        net, self.net = self.net, self.twin
        try:
            twin = self.call(op)
        finally:
            self.net = net
        problem = super().check(op, reply)
        if problem is None and self.fingerprint(op, twin) != self.fingerprint(op, reply):
            problem = f"wire4: {op.kind} reply differs from the in-process twin"
        return problem

    def finish(self):
        problems = list(self.problems)
        problem = self._model_matches_scan()
        if problem:
            problems.append(problem)
        close_network(self.net)
        deadline = time.monotonic() + 10
        while threading.active_count() > self.threads_at_start:
            if time.monotonic() > deadline:
                problems.append(f"wire4: {threading.active_count()} threads left, "
                                f"{self.threads_at_start} at start")
                break
            gc.collect()
            time.sleep(0.05)
        return problems


# -- governance -----------------------------------------------------------------

class GovWorkload(Workload):
    """Governance only: cost per op grows with the locks the ledger holds."""

    name = "gov"
    CHUNK = 50  # scenario lines per run_scenario call
    BLOCK = 20  # chunks per cycle
    op_errors = (ScenarioError,)

    def setup(self):
        self.scenario = govgen.generate(self.seed)
        self.state = None
        self.digest = None
        _timed_repeats(self, self._genesis, 5)
        self.pass_cycles = -(-len(self.scenario.body) // (self.CHUNK * self.BLOCK))

    def _genesis(self):
        self.state, log = run_scenario(self.scenario.genesis, GovState())
        self.genesis_ok = [entry.split(": ", 1)[1] for entry in log] \
            == self.scenario.genesis_messages

    def _make_cycle(self, k):
        body, messages = self.scenario.body, self.scenario.body_messages
        first = k * self.CHUNK * self.BLOCK
        last = min(first + self.CHUNK * self.BLOCK, len(body))
        return [Op("chunk", (i, body[i:i + self.CHUNK], messages[i:i + self.CHUNK]),
                   len(body[i:i + self.CHUNK]))
                for i in range(first, last, self.CHUNK)]

    def begin(self, k):
        # Each pass starts from a fresh ledger; its genesis is set-up.
        if k == 0:
            self.add_setup_sample(self._genesis)

    def call(self, op):
        _, log = run_scenario(op.args[1], self.state)
        return log, self.state.conserved()

    def fingerprint(self, op, reply):
        log, conserved = reply
        return [entry.split(": ", 1)[1] for entry in log], conserved

    def check(self, op, reply):
        messages, conserved = self.fingerprint(op, reply)
        if not self.genesis_ok:
            return "gov: genesis log differs from the generator's"
        if not conserved:
            return f"gov: supply not conserved after the chunk at line {op.args[0]}"
        if messages != list(op.args[2]):
            return f"gov: log of the chunk at line {op.args[0]} differs"
        if op.args[0] + self.CHUNK >= len(self.scenario.body):
            return self._check_final()
        return None

    def _check_final(self) -> str | None:
        state, want = self.state, self.scenario
        if (state.balances != want.balances or state.total_supply != want.total_supply
                or len(state.locks) != want.locks):
            return "gov: final ledger differs from the generator's"
        digest = hashlib.sha256(state.to_json().encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "gov: final snapshot digest differs between passes"
        return None

    def self_test(self):
        missed = []
        self._genesis()
        op = self.cycle(0)[0]
        log, conserved = self.call(op)
        if self.check(op, (log, conserved)) is not None:
            missed.append("gov: a correct chunk was flagged")
        wrong = list(log)
        wrong[0] = wrong[0] + "0"
        if self.check(op, (wrong, conserved)) is None:
            missed.append("gov: a wrong log message was not flagged")
        if self.check(op, (log, False)) is None:
            missed.append("gov: a broken conservation audit was not flagged")
        self.digest = None
        return missed


WORKLOADS = {cls.name: cls for cls in
             (GridWorkload, Cube12Workload, Wire4Workload, GovWorkload)}
