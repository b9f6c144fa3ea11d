"""Deterministic governance state machine for the node-operator organization.

Models a token ledger, time-locked stakes that grant membership, proposals
with competing suggestions, stake-weighted voting, and an optional value
transfer enacted from a treasury account when a proposal executes. Time is
a logical clock advanced explicitly with tick(); nothing reads the wall
clock, so every run of an operation sequence is reproducible.

Conservation invariant: sum of all balances plus all escrowed (unreleased)
lock amounts equals total supply after every operation. The treasury is an
ordinary account inside `balances`.

`locks` is the full record of every lock, released or not; snapshots read
it. Next to it the ledger keeps a per-owner index of the unreleased locks,
holding the same `Lock` objects, and a running escrow total; both change
only in `lock_tokens` and `release`. Membership and voting weight read one
account's own locks, and `conserved()` sums only the balances, however
many locks other accounts hold. The running total is audited against an
independent reference ledger by the governance random walk (acceptance
criterion 7).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice

from .errors import (
    AlreadyExecuted,
    AlreadyReleased,
    AlreadyVoted,
    ClosedProposal,
    DebateOngoing,
    InsufficientFunds,
    InvalidAmount,
    InvalidDebateEnd,
    InvalidReleaseTime,
    LockNotExpired,
    NoVotingPower,
    NotAMember,
    ScenarioError,
    UnknownLock,
    UnknownProposal,
    UnknownSuggestion,
)

TREASURY = "treasury"


@dataclass
class Lock:
    id: int
    owner: str
    amount: int
    release_time: int
    released: bool = False


@dataclass
class Suggestion:
    id: int
    author: str
    content: str
    votes: dict[str, int] = field(default_factory=dict)

    @property
    def total_weight(self) -> int:
        return sum(self.votes.values())


@dataclass
class Proposal:
    id: int
    proposer: str
    description: str
    debate_end: int
    suggestions: list[Suggestion] = field(default_factory=list)
    executed: bool = False
    winner: int | None = None
    transfer_to: str | None = None
    transfer_amount: int | None = None

    def voters(self) -> set[str]:
        out: set[str] = set()
        for s in self.suggestions:
            out.update(s.votes)
        return out


class GovState:
    """Token balances, locks, proposals and the logical clock."""

    def __init__(self):
        self.clock = 0
        self.total_supply = 0
        self.balances: dict[str, int] = {}
        self.locks: dict[int, Lock] = {}
        # owner -> lock id -> lock, for unreleased locks only
        self._unreleased: defaultdict[str, dict[int, Lock]] = defaultdict(dict)
        self._escrowed = 0
        self.proposals: dict[int, Proposal] = {}
        self._next_lock_id = 1
        self._next_proposal_id = 1

    # -- time and supply ------------------------------------------------------

    def tick(self, seconds: int) -> None:
        """Advance the logical clock by a positive integer."""
        if type(seconds) is not int or seconds <= 0:  # a bool or a float is refused too
            raise InvalidAmount(f"tick must advance time by a positive integer, got {seconds!r}")
        self.clock += seconds

    def mint(self, account: str, amount: int) -> None:
        """Create new tokens on an account, growing total supply."""
        self._check_amount(amount)
        self.balances[account] = self.balances.get(account, 0) + amount
        self.total_supply += amount

    # -- token ledger -----------------------------------------------------------

    def transfer(self, from_account: str, to_account: str, amount: int) -> None:
        self._check_amount(amount)
        self._debit(from_account, amount)
        self.balances[to_account] = self.balances.get(to_account, 0) + amount

    def lock_tokens(self, owner: str, amount: int, release_time: int) -> int:
        """Escrow tokens until release_time; makes the owner a member."""
        self._check_amount(amount)
        if type(release_time) is not int or release_time <= self.clock:
            raise InvalidReleaseTime(
                f"release time {release_time!r} must be an integer after clock {self.clock}")
        self._debit(owner, amount)
        lock = Lock(self._next_lock_id, owner, amount, release_time)
        self._next_lock_id += 1
        self.locks[lock.id] = lock
        self._unreleased[owner][lock.id] = lock
        self._escrowed += amount
        return lock.id

    def release(self, lock_id: int) -> None:
        """Pay an expired lock back to its owner. Boundary is inclusive."""
        lock = self.locks.get(lock_id)
        if lock is None:
            raise UnknownLock(f"no lock {lock_id}")
        if lock.released:
            raise AlreadyReleased(f"lock {lock_id} already released")
        if self.clock < lock.release_time:
            raise LockNotExpired(
                f"lock {lock_id} releases at {lock.release_time}, clock is {self.clock}")
        lock.released = True
        del self._unreleased[lock.owner][lock_id]
        self._escrowed -= lock.amount
        self.balances[lock.owner] = self.balances.get(lock.owner, 0) + lock.amount

    def is_member(self, account: str) -> bool:
        """Membership: at least one unreleased, unexpired lock."""
        return any(lock.release_time > self.clock for lock in self._own_locks(account))

    # -- proposals ------------------------------------------------------------

    def submit_proposal(self, proposer: str, description: str, debate_end: int,
                        transfer_to: str | None = None,
                        transfer_amount: int | None = None) -> int:
        if not self.is_member(proposer):
            raise NotAMember(f"{proposer} holds no active lock")
        if type(debate_end) is not int or debate_end <= self.clock:
            raise InvalidDebateEnd(
                f"debate end {debate_end!r} must be an integer after clock {self.clock}")
        if (transfer_to is None) != (transfer_amount is None):
            raise ValueError("transfer payload needs both recipient and amount")
        if transfer_amount is not None:
            self._check_amount(transfer_amount)
        proposal = Proposal(self._next_proposal_id, proposer, description, debate_end,
                            transfer_to=transfer_to, transfer_amount=transfer_amount)
        self._next_proposal_id += 1
        self.proposals[proposal.id] = proposal
        return proposal.id

    def submit_suggestion(self, proposal_id: int, author: str, content: str) -> int:
        proposal = self._proposal(proposal_id)
        if self.clock >= proposal.debate_end:
            raise ClosedProposal(f"proposal {proposal_id} debate is over")
        if not self.is_member(author):
            raise NotAMember(f"{author} holds no active lock")
        suggestion = Suggestion(len(proposal.suggestions), author, content)
        proposal.suggestions.append(suggestion)
        return suggestion.id

    def vote(self, proposal_id: int, suggestion_id: int, voter: str) -> int:
        """Record a vote; the weight is the stake locked past the debate end."""
        proposal = self._proposal(proposal_id)
        if self.clock >= proposal.debate_end:
            raise ClosedProposal(f"proposal {proposal_id} debate is over")
        if not self.is_member(voter):
            raise NotAMember(f"{voter} holds no active lock")
        if voter in proposal.voters():
            raise AlreadyVoted(f"{voter} already voted on proposal {proposal_id}")
        suggestion = self._suggestion(proposal, suggestion_id)
        weight = self.voting_weight(voter, proposal.debate_end)
        if weight <= 0:
            raise NoVotingPower(
                f"{voter} has no lock held past debate end {proposal.debate_end}")
        suggestion.votes[voter] = weight
        return weight

    def voting_weight(self, account: str, debate_end: int) -> int:
        return sum(lock.amount for lock in self._own_locks(account)
                   if lock.release_time > debate_end)

    def execute_proposal(self, proposal_id: int) -> int | None:
        """Close a proposal: pick the winning suggestion, enact any transfer.

        Winner is the suggestion with the highest total weight, ties going
        to the lowest suggestion id; with no votes there is no winner and
        nothing is transferred. A treasury shortfall aborts before any
        state changes, leaving the proposal executable later.
        """
        proposal = self._proposal(proposal_id)
        if self.clock < proposal.debate_end:
            raise DebateOngoing(
                f"debate runs until {proposal.debate_end}, clock is {self.clock}")
        if proposal.executed:
            raise AlreadyExecuted(f"proposal {proposal_id} already executed")
        winner: int | None = None
        best = 0
        for suggestion in proposal.suggestions:
            if suggestion.total_weight > best:
                best = suggestion.total_weight
                winner = suggestion.id
        if winner is not None and proposal.transfer_to is not None:
            self.transfer(TREASURY, proposal.transfer_to, proposal.transfer_amount)
        proposal.executed = True
        proposal.winner = winner
        return winner

    # -- introspection -----------------------------------------------------------

    def escrowed_total(self) -> int:
        return self._escrowed

    def conserved(self) -> bool:
        return sum(self.balances.values()) + self.escrowed_total() == self.total_supply

    def snapshot(self) -> dict:
        """JSON-able deep copy of the whole state."""
        return {
            "clock": self.clock,
            "total_supply": self.total_supply,
            "balances": dict(sorted(self.balances.items())),
            "locks": [
                {"id": lock.id, "owner": lock.owner, "amount": lock.amount,
                 "release_time": lock.release_time, "released": lock.released}
                for lock in sorted(self.locks.values(), key=lambda l: l.id)
            ],
            "proposals": [
                {
                    "id": p.id,
                    "proposer": p.proposer,
                    "description": p.description,
                    "debate_end": p.debate_end,
                    "executed": p.executed,
                    "winner": p.winner,
                    "transfer": (
                        None if p.transfer_to is None
                        else {"to": p.transfer_to, "amount": p.transfer_amount}
                    ),
                    "suggestions": [
                        {"id": s.id, "author": s.author, "content": s.content,
                         "votes": dict(sorted(s.votes.items())),
                         "total_weight": s.total_weight}
                        for s in p.suggestions
                    ],
                }
                for p in sorted(self.proposals.values(), key=lambda p: p.id)
            ],
        }

    def to_json(self) -> str:
        """`json.dumps(snapshot, indent=2, sort_keys=True)`, built in blocks.

        With an indent, json encodes in pure Python and `dumps` holds every
        small piece until the final join, several times the output's size;
        joining blocks of pieces as they come keeps the peak near the output.
        """
        pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(self.snapshot())
        blocks = []
        while block := "".join(islice(pieces, 4096)):
            blocks.append(block)
        return "".join(blocks)

    # -- internals -----------------------------------------------------------

    def _check_amount(self, amount: int) -> None:
        if not isinstance(amount, int) or isinstance(amount, bool) or amount <= 0:
            raise InvalidAmount(f"amount must be a positive integer, got {amount!r}")

    def _debit(self, account: str, amount: int) -> None:
        balance = self.balances.get(account, 0)
        if balance < amount:
            raise InsufficientFunds(
                f"{account} holds {balance}, cannot cover {amount}")
        self.balances[account] = balance - amount

    def _own_locks(self, account: str):
        """The account's unreleased locks, expired or not."""
        return self._unreleased.get(account, {}).values()

    def _proposal(self, proposal_id: int) -> Proposal:
        proposal = self.proposals.get(proposal_id)
        if proposal is None:
            raise UnknownProposal(f"no proposal {proposal_id}")
        return proposal

    def _suggestion(self, proposal: Proposal, suggestion_id: int) -> Suggestion:
        for suggestion in proposal.suggestions:
            if suggestion.id == suggestion_id:
                return suggestion
        raise UnknownSuggestion(
            f"proposal {proposal.id} has no suggestion {suggestion_id}")


# -- scenario files ----------------------------------------------------------
#
# Line-oriented format, one operation per line, '#' starts a comment:
#
#   mint <account> <amount>
#   transfer <from> <to> <amount>
#   lock <owner> <amount> <release_time>
#   release <lock_id>
#   tick <seconds>
#   propose <proposer> <debate_end> <description...>
#   propose-transfer <proposer> <debate_end> <recipient> <amount> <description...>
#   suggest <proposal_id> <author> <content...>
#   vote <proposal_id> <suggestion_id> <voter>
#   execute <proposal_id>
#
# The last argument of propose, propose-transfer and suggest is free text;
# every other operation unpacks exactly the arguments shown, so a line with
# more or fewer raises ValueError.


def run_scenario(lines, state: GovState | None = None) -> tuple[GovState, list[str]]:
    """Apply a scenario line by line; the first bad line aborts with its number."""
    state = state or GovState()
    log: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            message = _apply_line(state, line)
        except Exception as exc:
            raise ScenarioError(line_no, f"{line!r}: {exc}") from exc
        log.append(f"line {line_no}: {message}")
    return state, log


def _apply_line(state: GovState, line: str) -> str:
    parts = line.split()
    op, args = parts[0], parts[1:]
    if op == "mint":
        account, amount = args
        amount = int(amount)
        state.mint(account, amount)
        return f"mint -> {account} +{amount}"
    if op == "transfer":
        frm, to, amount = args
        amount = int(amount)
        state.transfer(frm, to, amount)
        return f"transfer -> {frm} -> {to}: {amount}"
    if op == "lock":
        owner, amount, release_time = args
        lock_id = state.lock_tokens(owner, int(amount), int(release_time))
        return f"lock -> id {lock_id}"
    if op == "release":
        (lock_id,) = args
        state.release(int(lock_id))
        return f"release -> lock {lock_id}"
    if op == "tick":
        (seconds,) = args
        state.tick(int(seconds))
        return f"tick -> clock {state.clock}"
    if op == "propose":
        proposer, debate_end = args[0], int(args[1])
        description = " ".join(args[2:])
        pid = state.submit_proposal(proposer, description, debate_end)
        return f"propose -> id {pid}"
    if op == "propose-transfer":
        proposer, debate_end = args[0], int(args[1])
        recipient, amount = args[2], int(args[3])
        description = " ".join(args[4:])
        pid = state.submit_proposal(proposer, description, debate_end,
                                    transfer_to=recipient, transfer_amount=amount)
        return f"propose-transfer -> id {pid}"
    if op == "suggest":
        pid, author = int(args[0]), args[1]
        content = " ".join(args[2:])
        sid = state.submit_suggestion(pid, author, content)
        return f"suggest -> proposal {pid} suggestion {sid}"
    if op == "vote":
        pid, sid, voter = args
        pid, sid = int(pid), int(sid)
        weight = state.vote(pid, sid, voter)
        return f"vote -> proposal {pid} suggestion {sid} weight {weight}"
    if op == "execute":
        (pid,) = args
        pid = int(pid)
        winner = state.execute_proposal(pid)
        return f"execute -> proposal {pid} winner {winner}"
    raise ValueError(f"unknown operation {op!r}")
