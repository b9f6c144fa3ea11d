"""Seeded governance scenarios that are valid by construction.

The generator keeps its own ledger (balances, locks, proposals, votes) and
emits only operations that ledger says must succeed, together with the log
message `run_scenario` must answer each line with. The genesis block mints
every account and escrows many locks, so the body runs against thousands
of live locks; the body's locks outnumber its releases, so the lock count,
and with it the cost of a membership check, grows through the pass.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

ACCOUNTS = 200
GENESIS_LOCKS_PER_ACCOUNT = 10
BODY_LINES = 9000
TREASURY = "treasury"

# Relative frequency of each body operation.
BODY_MIX = (
    ("mint", 4), ("transfer", 14), ("lock", 16), ("release", 8), ("tick", 8),
    ("propose", 6), ("suggest", 12), ("vote", 26), ("execute", 6),
)


@dataclass
class _Proposal:
    debate_end: int
    transfer: tuple[str, int] | None
    weights: list[int] = field(default_factory=list)
    voters: set[str] = field(default_factory=set)


@dataclass
class Scenario:
    genesis: list[str]
    genesis_messages: list[str]
    body: list[str]
    body_messages: list[str]
    balances: dict[str, int]
    total_supply: int
    locks: int


class _Ledger:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.accounts = [f"acct{i:03d}" for i in range(ACCOUNTS)]
        self.clock = 0
        self.supply = 0
        self.balances: dict[str, int] = {}
        self.locks: dict[int, tuple[str, int, int]] = {}  # unreleased only
        self.owned: dict[str, list[int]] = {a: [] for a in self.accounts}
        self.expiry: list[tuple[int, int]] = []
        self.proposals: dict[int, _Proposal] = {}
        self.open: list[int] = []
        self.lock_count = 0
        self.next_lock = 1
        self.next_proposal = 1

    # -- generated operations: each returns (line, expected message) or None

    def mint(self, account=None, amount=None):
        account = account or self.rng.choice(self.accounts)
        amount = amount or self.rng.randint(1, 1000)
        self.balances[account] = self.balances.get(account, 0) + amount
        self.supply += amount
        return f"mint {account} {amount}", f"mint -> {account} +{amount}"

    def transfer(self):
        frm = self._funded()
        if frm is None:
            return None
        to = self.rng.choice(self.accounts)
        amount = self.rng.randint(1, min(self.balances[frm], 5000))
        self.balances[frm] -= amount
        self.balances[to] = self.balances.get(to, 0) + amount
        return f"transfer {frm} {to} {amount}", f"transfer -> {frm} -> {to}: {amount}"

    def lock(self, owner=None, horizon=(200, 4000)):
        owner = owner or self._funded()
        if owner is None:
            return None
        amount = self.rng.randint(1, min(self.balances[owner], 500))
        release = self.clock + self.rng.randint(*horizon)
        self.balances[owner] -= amount
        lock_id = self.next_lock
        self.next_lock += 1
        self.lock_count += 1
        self.locks[lock_id] = (owner, amount, release)
        self.owned[owner].append(lock_id)
        heapq.heappush(self.expiry, (release, lock_id))
        return f"lock {owner} {amount} {release}", f"lock -> id {lock_id}"

    def release(self):
        if not self.expiry or self.expiry[0][0] > self.clock:
            return None
        _, lock_id = heapq.heappop(self.expiry)
        owner, amount, _ = self.locks.pop(lock_id)
        self.owned[owner].remove(lock_id)
        self.balances[owner] += amount
        return f"release {lock_id}", f"release -> lock {lock_id}"

    def tick(self):
        seconds = self.rng.randint(1, 6)
        self.clock += seconds
        return f"tick {seconds}", f"tick -> clock {self.clock}"

    def propose(self):
        proposer = self._member()
        if proposer is None:
            return None
        pid = self.next_proposal
        self.next_proposal += 1
        debate_end = self.clock + self.rng.randint(10, 80)
        if self.rng.random() < 0.4:
            to, amount = self.rng.choice(self.accounts), self.rng.randint(1, 500)
            self.proposals[pid] = _Proposal(debate_end, (to, amount))
            line = f"propose-transfer {proposer} {debate_end} {to} {amount} grant {pid}"
            message = f"propose-transfer -> id {pid}"
        else:
            self.proposals[pid] = _Proposal(debate_end, None)
            line = f"propose {proposer} {debate_end} topic {pid}"
            message = f"propose -> id {pid}"
        self.open.append(pid)
        return line, message

    def suggest(self):
        live = self._live()
        author = self._member()
        if not live or author is None:
            return None
        pid = self.rng.choice(live)
        sid = len(self.proposals[pid].weights)
        self.proposals[pid].weights.append(0)
        return (f"suggest {pid} {author} option {sid}",
                f"suggest -> proposal {pid} suggestion {sid}")

    def vote(self):
        live = [pid for pid in self._live() if self.proposals[pid].weights]
        if not live:
            return None
        pid = self.rng.choice(live)
        proposal = self.proposals[pid]
        for _ in range(4):
            voter = self._member()
            if voter is None or voter in proposal.voters:
                continue
            weight = sum(amount for owner, amount, release
                         in (self.locks[i] for i in self.owned[voter])
                         if release > proposal.debate_end)
            if weight <= 0:
                continue
            sid = self.rng.randrange(len(proposal.weights))
            proposal.weights[sid] += weight
            proposal.voters.add(voter)
            return (f"vote {pid} {sid} {voter}",
                    f"vote -> proposal {pid} suggestion {sid} weight {weight}")
        return None

    def execute(self):
        ripe = [pid for pid in self.open if self.clock >= self.proposals[pid].debate_end]
        if not ripe:
            return None
        pid = self.rng.choice(ripe)
        proposal = self.proposals[pid]
        winner, best = None, 0
        for sid, weight in enumerate(proposal.weights):
            if weight > best:
                winner, best = sid, weight
        if winner is not None and proposal.transfer is not None:
            to, amount = proposal.transfer
            if self.balances.get(TREASURY, 0) < amount:
                return None
            self.balances[TREASURY] -= amount
            self.balances[to] = self.balances.get(to, 0) + amount
        self.open.remove(pid)
        return f"execute {pid}", f"execute -> proposal {pid} winner {winner}"

    # -- helpers ------------------------------------------------------------

    def _funded(self):
        for _ in range(4):
            account = self.rng.choice(self.accounts)
            if self.balances.get(account, 0) >= 1:
                return account
        return None

    def _member(self):
        for _ in range(4):
            account = self.rng.choice(self.accounts)
            if any(self.locks[i][2] > self.clock for i in self.owned[account]):
                return account
        return None

    def _live(self):
        return [pid for pid in self.open if self.clock < self.proposals[pid].debate_end]


def generate(seed: int) -> Scenario:
    """A pure function of the seed."""
    ledger = _Ledger(random.Random(f"gov/{seed}"))
    genesis = [ledger.mint(TREASURY, 10 ** 9)]
    genesis += [ledger.mint(account, 100_000) for account in ledger.accounts]
    for account in ledger.accounts:
        for _ in range(GENESIS_LOCKS_PER_ACCOUNT):
            genesis.append(ledger.lock(account, horizon=(100, 20_000)))

    ops = [name for name, _ in BODY_MIX]
    weights = [weight for _, weight in BODY_MIX]
    body = []
    while len(body) < BODY_LINES:
        step = getattr(ledger, ledger.rng.choices(ops, weights)[0])() or ledger.tick()
        body.append(step)
    return Scenario(
        genesis=[line for line, _ in genesis],
        genesis_messages=[message for _, message in genesis],
        body=[line for line, _ in body],
        body_messages=[message for _, message in body],
        balances=dict(sorted(ledger.balances.items())),
        total_supply=ledger.supply,
        locks=ledger.lock_count,
    )
