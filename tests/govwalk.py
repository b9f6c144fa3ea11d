"""Seeded random walk of valid governance operations vs a naive reference.

The reference ledger tracks only per-account totals and outstanding locks,
recomputing memberships and weights by full scans. The walk generates
operations that are valid by construction (checked against the reference
before applying), applies each to both implementations, and fails on the
first observable divergence.
"""

import random

from keycube.dao import GovState

ACCOUNTS = ["alice", "bob", "carol", "dan", "treasury"]


class ReferenceLedger:
    def __init__(self):
        self.minted = 0
        self.balance = {account: 0 for account in ACCOUNTS}
        self.locks = {}  # id -> [owner, amount, release_time, released]

    def mint(self, account, amount):
        self.minted += amount
        self.balance[account] += amount

    def transfer(self, frm, to, amount):
        self.balance[frm] -= amount
        self.balance[to] += amount

    def lock(self, lock_id, owner, amount, release_time):
        self.balance[owner] -= amount
        self.locks[lock_id] = [owner, amount, release_time, False]

    def release(self, lock_id):
        owner, amount, _, _ = self.locks[lock_id]
        self.locks[lock_id][3] = True
        self.balance[owner] += amount

    def escrow(self):
        return sum(amount for _, amount, _, released in self.locks.values()
                   if not released)

    def releasable(self, clock):
        return [lid for lid, (_, _, release_time, released) in self.locks.items()
                if not released and clock >= release_time]

    def members(self, clock):
        return {owner for owner, _, release_time, released in self.locks.values()
                if not released and release_time > clock}

    def weight(self, account, debate_end):
        return sum(amount for owner, amount, release_time, released
                   in self.locks.values()
                   if owner == account and not released and release_time > debate_end)


def run_walk(total_ops, seed, check_every=10):
    """Returns (ops applied, divergences found); raises on assertion failure."""
    rng = random.Random(seed)
    state = GovState()
    ref = ReferenceLedger()
    open_proposals = []
    divergences = 0

    def full_check():
        nonlocal divergences
        if state.total_supply != ref.minted:
            divergences += 1
        if state.escrowed_total() != ref.escrow():
            divergences += 1
        members = ref.members(state.clock)
        for account in ACCOUNTS:
            if state.balances.get(account, 0) != ref.balance[account]:
                divergences += 1
            if state.is_member(account) != (account in members):
                divergences += 1

    ops = 0
    while ops < total_ops:
        roll = rng.random()
        if roll < 0.20:
            account = rng.choice(ACCOUNTS)
            amount = rng.randint(1, 500)
            state.mint(account, amount)
            ref.mint(account, amount)
        elif roll < 0.36:
            frm = rng.choice(ACCOUNTS)
            if ref.balance[frm] < 1:
                continue
            to = rng.choice(ACCOUNTS)
            amount = rng.randint(1, ref.balance[frm])
            state.transfer(frm, to, amount)
            ref.transfer(frm, to, amount)
        elif roll < 0.54:
            owner = rng.choice(ACCOUNTS)
            if ref.balance[owner] < 1:
                continue
            amount = rng.randint(1, min(300, ref.balance[owner]))
            release_time = state.clock + rng.randint(1, 150)
            lock_id = state.lock_tokens(owner, amount, release_time)
            ref.lock(lock_id, owner, amount, release_time)
        elif roll < 0.66:
            ready = ref.releasable(state.clock)
            if not ready:
                continue
            lock_id = rng.choice(ready)
            state.release(lock_id)
            ref.release(lock_id)
        elif roll < 0.76:
            state.tick(rng.randint(1, 40))
            open_proposals = [pid for pid in open_proposals
                              if not state.proposals[pid].executed]
        elif roll < 0.84:
            candidates = sorted(ref.members(state.clock))
            if not candidates:
                continue
            proposer = rng.choice(candidates)
            debate_end = state.clock + rng.randint(1, 80)
            if rng.random() < 0.4:
                pid = state.submit_proposal(proposer, "walk step", debate_end,
                                            transfer_to=rng.choice(ACCOUNTS),
                                            transfer_amount=rng.randint(1, 200))
            else:
                pid = state.submit_proposal(proposer, "walk step", debate_end)
            open_proposals.append(pid)
        elif roll < 0.90:
            live = [pid for pid in open_proposals
                    if state.clock < state.proposals[pid].debate_end]
            members = sorted(ref.members(state.clock))
            if not live or not members:
                continue
            state.submit_suggestion(rng.choice(live), rng.choice(members), "option")
        elif roll < 0.96:
            live = [pid for pid in open_proposals
                    if state.clock < state.proposals[pid].debate_end
                    and state.proposals[pid].suggestions]
            if not live:
                continue
            pid = rng.choice(live)
            proposal = state.proposals[pid]
            voted = {account for s in proposal.suggestions for account in s.votes}
            voters = [account for account in ref.members(state.clock)
                      if account not in voted
                      and ref.weight(account, proposal.debate_end) > 0]
            if not voters:
                continue
            voter = rng.choice(sorted(voters))
            sid = rng.choice(proposal.suggestions).id
            weight = state.vote(pid, sid, voter)
            if weight != ref.weight(voter, proposal.debate_end):
                divergences += 1
        else:
            ripe = [pid for pid in open_proposals
                    if state.clock >= state.proposals[pid].debate_end]
            if not ripe:
                continue
            pid = rng.choice(ripe)
            proposal = state.proposals[pid]
            if proposal.transfer_to is not None:
                # Make the treasury transfer enactable so the op stays valid.
                tallied = any(s.total_weight for s in proposal.suggestions)
                shortfall = proposal.transfer_amount - ref.balance["treasury"]
                if tallied and shortfall > 0:
                    state.mint("treasury", shortfall)
                    ref.mint("treasury", shortfall)
            winner = state.execute_proposal(pid)
            open_proposals.remove(pid)
            tallies = {s.id: s.total_weight for s in proposal.suggestions}
            if winner is None:
                if any(tallies.values()):
                    divergences += 1
            else:
                best = max(tallies.values())
                expected = min(sid for sid, t in tallies.items() if t == best)
                if winner != expected:
                    divergences += 1
                if proposal.transfer_to is not None:
                    ref.transfer("treasury", proposal.transfer_to,
                                 proposal.transfer_amount)

        ops += 1
        if not state.conserved():
            divergences += 1
        if ops % check_every == 0:
            full_check()

    full_check()
    return ops, divergences
