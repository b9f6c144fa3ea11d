import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from govwalk import ACCOUNTS
from keycube.dao import GovState, run_scenario
from keycube.errors import (
    AlreadyExecuted,
    AlreadyReleased,
    AlreadyVoted,
    ClosedProposal,
    DebateOngoing,
    GovernanceError,
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


@pytest.fixture
def funded():
    state = GovState()
    for account, amount in (("alice", 1000), ("bob", 500), ("carol", 200),
                            ("treasury", 1000)):
        state.mint(account, amount)
    return state


# --- transfer -------------------------------------------------------------

def test_transfer_moves_tokens(funded):
    funded.transfer("alice", "bob", 40)
    assert funded.balances["alice"] == 960
    assert funded.balances["bob"] == 540
    assert funded.conserved()


def test_transfer_insufficient(funded):
    with pytest.raises(InsufficientFunds):
        funded.transfer("carol", "bob", 201)
    assert funded.balances["carol"] == 200


def test_transfer_to_self_is_identity(funded):
    funded.transfer("alice", "alice", 123)
    assert funded.balances["alice"] == 1000


def test_transfer_rejects_nonpositive(funded):
    with pytest.raises(InvalidAmount):
        funded.transfer("alice", "bob", 0)


# --- locks and membership --------------------------------------------------

def test_lock_debits_into_escrow(funded):
    lock_id = funded.lock_tokens("alice", 100, release_time=50)
    assert funded.balances["alice"] == 900
    assert funded.escrowed_total() == 100
    assert funded.locks[lock_id].amount == 100
    assert funded.conserved()


def test_lock_release_time_must_be_future(funded):
    funded.tick(10)
    with pytest.raises(InvalidReleaseTime):
        funded.lock_tokens("alice", 100, release_time=10)


def test_lock_insufficient_balance(funded):
    with pytest.raises(InsufficientFunds):
        funded.lock_tokens("carol", 500, release_time=50)


def test_two_locks_same_owner(funded):
    id_a = funded.lock_tokens("alice", 100, 50)
    id_b = funded.lock_tokens("alice", 200, 70)
    assert id_a != id_b
    assert funded.escrowed_total() == 300
    assert funded.is_member("alice")


def test_release_at_boundary_is_inclusive(funded):
    lock_id = funded.lock_tokens("alice", 100, release_time=50)
    funded.tick(50)
    funded.release(lock_id)
    assert funded.balances["alice"] == 1000
    assert funded.conserved()


def test_release_before_time_rejected(funded):
    lock_id = funded.lock_tokens("alice", 100, release_time=50)
    funded.tick(49)
    with pytest.raises(LockNotExpired):
        funded.release(lock_id)
    assert funded.balances["alice"] == 900


def test_double_release_rejected(funded):
    lock_id = funded.lock_tokens("alice", 100, release_time=50)
    funded.tick(50)
    funded.release(lock_id)
    with pytest.raises(AlreadyReleased):
        funded.release(lock_id)
    assert funded.balances["alice"] == 1000


def test_release_unknown_lock(funded):
    with pytest.raises(UnknownLock):
        funded.release(404)


def test_membership_lifecycle(funded):
    assert not funded.is_member("alice")
    lock_id = funded.lock_tokens("alice", 100, release_time=50)
    assert funded.is_member("alice")
    funded.tick(50)
    # Lock expired but not yet released: no longer qualifies.
    assert not funded.is_member("alice")
    funded.release(lock_id)
    assert not funded.is_member("alice")


# --- proposals, suggestions, votes -------------------------------------------

def make_member(state, account, amount=100, until=1000):
    state.lock_tokens(account, amount, until)


def test_member_submits_proposal(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "expand the index", debate_end=100)
    assert funded.proposals[pid].suggestions == []
    assert not funded.proposals[pid].executed


def test_non_member_cannot_propose(funded):
    with pytest.raises(NotAMember):
        funded.submit_proposal("bob", "nope", debate_end=100)


def test_debate_end_must_be_future(funded):
    make_member(funded, "alice")
    funded.tick(100)
    with pytest.raises(InvalidDebateEnd):
        funded.submit_proposal("alice", "late", debate_end=100)


TIME_ARGUMENTS = {
    "tick": (InvalidAmount, lambda state, t: state.tick(t)),
    "lock release time": (InvalidReleaseTime, lambda state, t: state.lock_tokens("bob", 5, t)),
    "debate end": (InvalidDebateEnd, lambda state, t: state.submit_proposal("alice", "d", t)),
}


@pytest.mark.parametrize("when", [True, 0.5, 1.5, 2.5, 7.0])
@pytest.mark.parametrize("op", sorted(TIME_ARGUMENTS))
def test_times_must_be_exact_ints(funded, op, when):
    make_member(funded, "alice")
    before = funded.snapshot()
    error, call = TIME_ARGUMENTS[op]
    with pytest.raises(error):
        call(funded, when)
    assert funded.snapshot() == before


def test_transfer_payload_stored_not_enacted(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "bounty", 100,
                                 transfer_to="bob", transfer_amount=50)
    assert funded.proposals[pid].transfer_to == "bob"
    assert funded.balances["bob"] == 500


# Calls refused with their error once alice has proposal 1, with suggestion 0, open.
REFUSED_CALLS = {
    "transfer with a recipient and no amount": (ValueError, lambda state: state.submit_proposal(
        "alice", "bounty", 100, transfer_to="bob")),
    "transfer with an amount and no recipient": (ValueError, lambda state: state.submit_proposal(
        "alice", "bounty", 100, transfer_amount=50)),
    "vote by a non-member": (NotAMember, lambda state: state.vote(1, 0, "carol")),
    "suggestion on an unknown proposal": (UnknownProposal,
                                          lambda state: state.submit_suggestion(2, "alice", "x")),
    "vote on an unknown proposal": (UnknownProposal, lambda state: state.vote(2, 0, "alice")),
    "execution of an unknown proposal": (UnknownProposal,
                                         lambda state: state.execute_proposal(2)),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CALLS))
def test_refused_call_leaves_the_ledger_unchanged(funded, case):
    make_member(funded, "alice")
    assert funded.submit_proposal("alice", "topic", 100) == 1
    assert funded.submit_suggestion(1, "alice", "option") == 0
    before = funded.snapshot()
    error, call = REFUSED_CALLS[case]
    with pytest.raises(error):
        call(funded)
    assert funded.snapshot() == before


@pytest.fixture
def ballot(funded):
    """Proposal 1, open until 100, with suggestions 0 and 1 and alice's vote
    on 1; proposal 2, closed at 10, with suggestion 0 and alice's vote on it.
    bob is a member whose only lock expires at 50, before proposal 1's debate
    ends; carol and dan hold no lock, and dan no tokens either."""
    funded.lock_tokens("alice", 100, release_time=200)
    funded.lock_tokens("bob", 50, release_time=50)
    assert funded.submit_proposal("alice", "topic", 100) == 1
    funded.submit_suggestion(1, "alice", "option")
    funded.vote(1, funded.submit_suggestion(1, "alice", "other option"), "alice")
    assert funded.submit_proposal("alice", "topic", 10) == 2
    funded.vote(2, funded.submit_suggestion(2, "alice", "option"), "alice")
    funded.tick(10)
    return funded


# A vote that several refusals apply to gets the first of ClosedProposal,
# NotAMember, AlreadyVoted, UnknownSuggestion and NoVotingPower.
VOTE_REFUSALS = {
    "closed, no member, no suggestion, no power": ((2, 5, "carol"), ClosedProposal),
    "closed, voted, no suggestion": ((2, 5, "alice"), ClosedProposal),
    "closed, voted": ((2, 0, "alice"), ClosedProposal),
    "no member, no suggestion, no power": ((1, 5, "dan"), NotAMember),
    "no member, no power": ((1, 0, "carol"), NotAMember),
    "voted on a later suggestion": ((1, 0, "alice"), AlreadyVoted),
    "voted, no suggestion": ((1, -1, "alice"), AlreadyVoted),
    "no suggestion, no power": ((1, 5, "bob"), UnknownSuggestion),
    "no power": ((1, 0, "bob"), NoVotingPower),
}


@pytest.mark.parametrize("case", list(VOTE_REFUSALS))
def test_vote_refusals_come_in_a_fixed_order(ballot, case):
    args, error = VOTE_REFUSALS[case]
    before = ballot.snapshot()
    with pytest.raises(error):
        ballot.vote(*args)
    assert ballot.snapshot() == before


def test_suggestions_append_during_debate(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "topic", 100)
    sid_a = funded.submit_suggestion(pid, "alice", "option one")
    sid_b = funded.submit_suggestion(pid, "alice", "option two")
    assert (sid_a, sid_b) == (0, 1)


def test_suggestion_after_debate_rejected(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "topic", 100)
    funded.tick(100)
    with pytest.raises(ClosedProposal):
        funded.submit_suggestion(pid, "alice", "too late")


def test_vote_weight_is_qualifying_stake(funded):
    funded.lock_tokens("alice", 100, 200)
    funded.lock_tokens("bob", 50, 200)
    pid = funded.submit_proposal("alice", "topic", 100)
    sid = funded.submit_suggestion(pid, "alice", "option")
    assert funded.vote(pid, sid, "alice") == 100
    assert funded.vote(pid, sid, "bob") == 50


def test_lock_expiring_before_debate_end_has_no_power(funded):
    funded.lock_tokens("alice", 100, 200)
    pid = funded.submit_proposal("alice", "topic", debate_end=100)
    sid = funded.submit_suggestion(pid, "alice", "option")
    funded.lock_tokens("bob", 50, 80)  # member, but expires before debate end
    with pytest.raises(NoVotingPower):
        funded.vote(pid, sid, "bob")


def test_double_vote_rejected(funded):
    funded.lock_tokens("alice", 100, 200)
    pid = funded.submit_proposal("alice", "topic", 100)
    sid_a = funded.submit_suggestion(pid, "alice", "one")
    sid_b = funded.submit_suggestion(pid, "alice", "two")
    funded.vote(pid, sid_a, "alice")
    with pytest.raises(AlreadyVoted):
        funded.vote(pid, sid_b, "alice")


def test_vote_after_debate_rejected(funded):
    funded.lock_tokens("alice", 100, 200)
    pid = funded.submit_proposal("alice", "topic", 100)
    sid = funded.submit_suggestion(pid, "alice", "option")
    funded.tick(100)
    with pytest.raises(ClosedProposal):
        funded.vote(pid, sid, "alice")


def test_vote_weight_sums_qualifying_locks(funded):
    funded.lock_tokens("alice", 100, 200)
    funded.lock_tokens("alice", 30, 150)
    funded.lock_tokens("alice", 7, 90)  # expires before debate end, excluded
    pid = funded.submit_proposal("alice", "topic", 100)
    sid = funded.submit_suggestion(pid, "alice", "option")
    assert funded.vote(pid, sid, "alice") == 130


# --- execution -------------------------------------------------------------

def test_execute_elects_heaviest_suggestion(funded):
    funded.lock_tokens("alice", 100, 200)
    funded.lock_tokens("bob", 50, 200)
    pid = funded.submit_proposal("alice", "topic", 100)
    sid_a = funded.submit_suggestion(pid, "alice", "heavy")
    sid_b = funded.submit_suggestion(pid, "bob", "light")
    funded.vote(pid, sid_a, "alice")
    funded.vote(pid, sid_b, "bob")
    funded.tick(100)
    assert funded.execute_proposal(pid) == sid_a


def test_execute_before_debate_end_rejected(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "topic", 100)
    with pytest.raises(DebateOngoing):
        funded.execute_proposal(pid)


def test_execute_twice_rejected(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "topic", 100)
    funded.tick(100)
    funded.execute_proposal(pid)
    with pytest.raises(AlreadyExecuted):
        funded.execute_proposal(pid)


def test_execute_no_votes_no_winner_no_transfer(funded):
    make_member(funded, "alice")
    pid = funded.submit_proposal("alice", "bounty", 100,
                                 transfer_to="bob", transfer_amount=50)
    funded.tick(100)
    assert funded.execute_proposal(pid) is None
    assert funded.balances["bob"] == 500


def test_execute_enacts_treasury_transfer(funded):
    funded.lock_tokens("alice", 100, 200)
    pid = funded.submit_proposal("alice", "bounty", 100,
                                 transfer_to="bob", transfer_amount=50)
    sid = funded.submit_suggestion(pid, "alice", "pay it")
    funded.vote(pid, sid, "alice")
    funded.tick(100)
    assert funded.execute_proposal(pid) == sid
    assert funded.balances["treasury"] == 950
    assert funded.balances["bob"] == 550
    assert funded.conserved()


def test_execute_with_treasury_shortfall_stays_unexecuted(funded):
    funded.lock_tokens("alice", 100, 200)
    pid = funded.submit_proposal("alice", "bounty", 100,
                                 transfer_to="bob", transfer_amount=5000)
    sid = funded.submit_suggestion(pid, "alice", "pay it")
    funded.vote(pid, sid, "alice")
    funded.tick(100)
    before = funded.snapshot()
    with pytest.raises(InsufficientFunds):
        funded.execute_proposal(pid)
    assert funded.snapshot() == before
    assert not funded.proposals[pid].executed


def test_tie_breaks_to_lowest_suggestion_id(funded):
    funded.lock_tokens("alice", 100, 200)
    funded.lock_tokens("bob", 100, 200)
    pid = funded.submit_proposal("alice", "topic", 100)
    sid_a = funded.submit_suggestion(pid, "alice", "one")
    sid_b = funded.submit_suggestion(pid, "bob", "two")
    funded.vote(pid, sid_b, "bob")
    funded.vote(pid, sid_a, "alice")
    funded.tick(100)
    assert funded.execute_proposal(pid) == min(sid_a, sid_b)


def test_worked_lifecycle_elects_100_weight_suggestion():
    state = GovState()
    state.mint("alice", 100)
    state.mint("bob", 50)
    state.lock_tokens("alice", 100, release_time=500)
    state.lock_tokens("bob", 50, release_time=500)
    pid = state.submit_proposal("alice", "choose a direction", debate_end=100)
    sid_first = state.submit_suggestion(pid, "alice", "direction A")
    sid_second = state.submit_suggestion(pid, "bob", "direction B")
    state.vote(pid, sid_first, "alice")   # weight 100
    state.vote(pid, sid_second, "bob")    # weight 50
    state.tick(100)
    winner = state.execute_proposal(pid)
    assert winner == sid_first
    assert state.conserved()


# --- scenarios --------------------------------------------------------------

def test_scenario_lock_release_round_trip():
    # The log names the lock released by its id, however the line spelled it.
    for token in ("1", "01", "+1"):
        lines = [
            "mint alice 300",
            "lock alice 120 50",
            "tick 50",
            f"release {token}",
        ]
        state, log = run_scenario(lines)
        assert state.balances == {"alice": 300}
        assert log == ["line 1: mint -> alice +300", "line 2: lock -> id 1",
                       "line 3: tick -> clock 50", "line 4: release -> lock 1"]


def test_scenario_full_lifecycle():
    lines = [
        "# a full proposal lifecycle",
        "mint alice 100",
        "mint bob 50",
        "lock alice 100 500",
        "lock bob 50 500",
        "propose alice 100 choose a direction",
        "suggest 1 alice direction A",
        "suggest 1 bob direction B",
        "vote 1 0 alice",
        "vote 1 1 bob",
        "tick 100",
        "execute 1",
    ]
    state, log = run_scenario(lines)
    assert state.proposals[1].winner == 0
    assert any("winner 0" in entry for entry in log)


def test_scenario_propose_transfer_pays_the_winner_out_of_the_treasury():
    lines = [
        "mint alice 100",
        "mint treasury 500",
        "lock alice 100 500",
        "propose-transfer alice 100 bob 50 pay a bounty",
        "suggest 1 alice pay it",
        "vote 1 0 alice",
        "tick 100",
        "execute 1",
    ]
    state, log = run_scenario(lines)
    assert log[3:] == [
        "line 4: propose-transfer -> id 1",
        "line 5: suggest -> proposal 1 suggestion 0",
        "line 6: vote -> proposal 1 suggestion 0 weight 100",
        "line 7: tick -> clock 100",
        "line 8: execute -> proposal 1 winner 0",
    ]
    proposal = state.proposals[1]
    assert (proposal.description, proposal.transfer_to, proposal.transfer_amount) == (
        "pay a bounty", "bob", 50)
    assert proposal.executed and proposal.winner == 0
    assert state.balances == {"alice": 0, "treasury": 450, "bob": 50}
    assert state.conserved()


def test_scenario_aborts_with_line_number():
    lines = [
        "mint alice 100",
        "lock alice 100 500",
        "propose alice 100 topic",
        "suggest 1 alice option",
        "tick 100",
        "vote 1 0 alice",
    ]
    with pytest.raises(ScenarioError) as err:
        run_scenario(lines)
    assert err.value.line_no == 6


# Each last line applies without its last argument; with it, the line is refused.
SCENARIO_PREAMBLE = [
    "mint alice 100", "mint bob 100", "lock alice 50 500", "lock bob 10 5",
    "propose alice 20 topic", "suggest 1 alice option", "tick 5",
]


@pytest.mark.parametrize("tail", [
    ["mint alice 100 200"], ["transfer alice bob 10 20"], ["lock alice 10 50 junk"],
    ["release 2 2"], ["tick 5 6"], ["vote 1 0 alice bob"], ["tick 20", "execute 1 1"],
], ids=lambda tail: tail[-1].split()[0])
def test_scenario_refuses_extra_arguments(tail):
    *head, last = SCENARIO_PREAMBLE + tail
    run_scenario(head + [last.rsplit(" ", 1)[0]])
    with pytest.raises(ScenarioError) as err:
        run_scenario(head + [last])
    assert err.value.line_no == len(head) + 1


def test_scenario_unknown_op():
    with pytest.raises(ScenarioError):
        run_scenario(["frobnicate alice"])


def budget_scenario(seed):
    """A seeded scenario, every line of which applies: a genesis that gives 20
    accounts 10 long locks each, and a body of rounds that each propose,
    suggest, vote, transfer, lock, tick, execute and release."""
    rng = random.Random(seed)
    accounts = [f"acct{i:02d}" for i in range(20)]
    genesis = ["mint treasury 1000000"] + [f"mint {account} 100000" for account in accounts]
    genesis += [f"lock {account} {rng.randint(1, 500)} {rng.randint(1000, 5000)}"
                for account in accounts for _ in range(10)]
    body, clock, lock_id = [], 0, len(genesis) - len(accounts) - 1
    for pid in range(1, 21):
        proposer, debate_end = rng.choice(accounts), clock + 5
        body.append(f"propose {proposer} {debate_end} topic {pid}" if pid % 2 else
                    f"propose-transfer {proposer} {debate_end} {rng.choice(accounts)} 50 grant")
        body += [f"suggest {pid} {rng.choice(accounts)} option {sid}" for sid in range(3)]
        body += [f"vote {pid} {rng.randrange(3)} {voter}" for voter in rng.sample(accounts, 8)]
        frm, to, owner = rng.sample(accounts, 3)
        lock_id += 1
        body += [f"mint {frm} {rng.randint(1, 100)}", f"transfer {frm} {to} {rng.randint(1, 100)}",
                 f"lock {owner} {rng.randint(1, 100)} {debate_end}", "tick 5",
                 f"execute {pid}", f"release {lock_id}"]
        clock = debate_end
    return genesis, body


def test_scenario_lines_stay_within_a_call_budget():
    # Python-level calls per scenario line, run_scenario's own frame not
    # counted. A vote is `_apply_line`, `vote`, `_proposal`, `is_member` and
    # `voting_weight`: 5 calls on 3.10 to 3.13, however many locks its voter
    # holds, as membership and weight scan the voter's locks in plain loops
    # and a repeat voter is found in each suggestion's votes, with no set built.
    # Every other line is 2 to 9 calls (an execution reads each suggestion's
    # total, and pays out through `transfer` and its checks); the mix measures
    # 4.6 per line.
    genesis, body = budget_scenario(seed=30)
    state, _ = run_scenario(genesis)
    calls, count = {}, 0

    def counter(frame, event, arg):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    for line in body:
        count = 0
        sys.setprofile(counter)
        try:
            run_scenario([line], state)
        finally:
            sys.setprofile(previous)
        calls.setdefault(line.split()[0], []).append(count - 1)
    assert state.conserved() and len(state.locks) == 220
    assert all(proposal.executed for proposal in state.proposals.values())
    votes = calls["vote"]
    assert len(votes) == 160 and sum(votes) / len(votes) <= 5.5
    assert sum(map(sum, calls.values())) / len(body) <= 5


# --- model-based random walk ---------------------------------------------------

def test_random_walk_against_reference_ledger():
    from govwalk import run_walk

    ops, divergences = run_walk(total_ops=2000, seed=20210)
    assert ops == 2000
    assert divergences == 0


def test_rejected_ops_leave_state_unchanged():
    rng = random.Random(5150)
    state = GovState()
    state.mint("alice", 400)
    state.lock_tokens("alice", 50, release_time=60)
    pid = state.submit_proposal("alice", "topic", debate_end=30)
    attempts = [
        lambda: state.transfer("alice", "bob", 10**9),
        lambda: state.lock_tokens("bob", 10, 100),
        lambda: state.lock_tokens("alice", 10, state.clock),
        lambda: state.release(1),
        lambda: state.release(99),
        lambda: state.execute_proposal(pid),
        lambda: state.vote(pid, 0, "alice"),
        lambda: state.submit_suggestion(pid, "bob", "x"),
        lambda: state.submit_proposal("bob", "x", 50),
    ]
    for _ in range(200):
        before = state.snapshot()
        try:
            rng.choice(attempts)()
        except GovernanceError:
            assert state.snapshot() == before
        else:
            pass  # some attempts become legal as the clock moves; fine
        if rng.random() < 0.1:
            state.tick(1)


def test_rejections_preserve_state_temporal_safety():
    rng = random.Random(99)
    state = GovState()
    state.mint("alice", 10_000)
    lock_id = state.lock_tokens("alice", 100, release_time=50)
    pid = state.submit_proposal("alice", "topic", debate_end=40)
    sid = state.submit_suggestion(pid, "alice", "option")
    for _ in range(500):
        before = state.snapshot()
        attempt = rng.choice(["early_release", "early_execute", "late_vote",
                              "past_lock", "past_debate"])
        try:
            if attempt == "early_release":
                if state.clock < 50:
                    with pytest.raises(LockNotExpired):
                        state.release(lock_id)
            elif attempt == "early_execute":
                if state.clock < 40:
                    with pytest.raises(DebateOngoing):
                        state.execute_proposal(pid)
            elif attempt == "late_vote":
                if state.clock >= 40:
                    with pytest.raises(ClosedProposal):
                        state.vote(pid, sid, "alice")
            elif attempt == "past_lock":
                with pytest.raises(InvalidReleaseTime):
                    state.lock_tokens("alice", 10, state.clock)
            elif attempt == "past_debate":
                if state.is_member("alice"):
                    with pytest.raises(InvalidDebateEnd):
                        state.submit_proposal("alice", "x", state.clock)
        except NotAMember:
            pass
        assert state.snapshot() == before
        if rng.random() < 0.2:
            state.tick(rng.randint(1, 10))


class UnscannableLocks(dict):
    """A lock table that fails any attempt to walk it."""

    def __iter__(self):
        raise AssertionError("the lock table was scanned")

    def values(self):
        raise AssertionError("the lock table was scanned")

    items = keys = values


def test_membership_weight_and_escrow_do_not_scan_the_lock_table(funded):
    funded.lock_tokens("alice", 100, release_time=50)
    funded.lock_tokens("bob", 30, release_time=80)
    funded.locks = UnscannableLocks(funded.locks)
    assert funded.is_member("alice")
    assert not funded.is_member("carol")
    assert funded.voting_weight("alice", 40) == 100
    assert funded.voting_weight("bob", 80) == 0
    assert funded.escrowed_total() == 130
    assert funded.conserved()


def test_to_json_matches_dumps_without_holding_every_piece():
    state = GovState()
    for account in ACCOUNTS:
        state.mint(account, 10**6)
    for i in range(2000):
        state.lock_tokens(ACCOUNTS[i % len(ACCOUNTS)], 1 + i % 7, release_time=10 + i)
    state.tick(100)
    for lock_id in range(1, 60):
        state.release(lock_id)
    pid = state.submit_proposal(ACCOUNTS[0], "topic", debate_end=state.clock + 5)
    state.vote(pid, state.submit_suggestion(pid, ACCOUNTS[1], "option"), ACCOUNTS[1])
    want = json.dumps(state.snapshot(), indent=2, sort_keys=True)
    tracemalloc.start()
    try:
        out = state.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == want
    assert peak < 4 * len(want)


# --- hypothesis state machine -----------------------------------------------------

class GovMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = GovState()
        self.lock_ids = []
        self.proposal_ids = []

    accounts = st.sampled_from(ACCOUNTS)

    @rule(account=accounts, amount=st.integers(1, 1000))
    def mint(self, account, amount):
        self.state.mint(account, amount)

    @rule(frm=accounts, to=accounts, amount=st.integers(1, 1000))
    def transfer(self, frm, to, amount):
        try:
            self.state.transfer(frm, to, amount)
        except GovernanceError:
            pass

    @rule(owner=accounts, amount=st.integers(1, 500), horizon=st.integers(1, 100))
    def lock(self, owner, amount, horizon):
        try:
            lock_id = self.state.lock_tokens(owner, amount,
                                             self.state.clock + horizon)
            self.lock_ids.append(lock_id)
        except GovernanceError:
            pass

    @rule(pick=st.integers(0, 10_000))
    def release(self, pick):
        if not self.lock_ids:
            return
        lock_id = self.lock_ids[pick % len(self.lock_ids)]
        lock = self.state.locks[lock_id]
        try:
            self.state.release(lock_id)
            assert not lock.released or self.state.clock >= lock.release_time
        except GovernanceError:
            pass

    @rule(owner=accounts, amount=st.integers(1, 500), horizon=st.integers(1, 100))
    def mint_and_lock(self, owner, amount, horizon):
        self.state.mint(owner, amount)
        self.lock_ids.append(
            self.state.lock_tokens(owner, amount, self.state.clock + horizon))

    @rule()
    def release_expired(self):
        for lock in self.state.locks.values():
            if not lock.released and lock.release_time <= self.state.clock:
                self.state.release(lock.id)
                return

    @rule(seconds=st.integers(1, 50))
    def tick(self, seconds):
        self.state.tick(seconds)

    @rule(proposer=accounts, horizon=st.integers(1, 60))
    def propose(self, proposer, horizon):
        try:
            pid = self.state.submit_proposal(proposer, "hyp", self.state.clock + horizon)
            self.proposal_ids.append(pid)
        except GovernanceError:
            pass

    @rule(pick=st.integers(0, 10_000), voter=accounts)
    def suggest_and_vote(self, pick, voter):
        if not self.proposal_ids:
            return
        pid = self.proposal_ids[pick % len(self.proposal_ids)]
        try:
            sid = self.state.submit_suggestion(pid, voter, "hyp option")
            self.state.vote(pid, sid, voter)
        except GovernanceError:
            pass

    @rule(pick=st.integers(0, 10_000))
    def execute(self, pick):
        if not self.proposal_ids:
            return
        pid = self.proposal_ids[pick % len(self.proposal_ids)]
        proposal = self.state.proposals[pid]
        try:
            self.state.execute_proposal(pid)
            assert self.state.clock >= proposal.debate_end
        except GovernanceError:
            pass

    @invariant()
    def conserved(self):
        assert self.state.conserved()

    @invariant()
    def index_agrees_with_a_scan_of_every_lock(self):
        state = self.state
        unreleased = [lock for lock in state.locks.values() if not lock.released]
        assert state.escrowed_total() == sum(lock.amount for lock in unreleased)
        for account in ACCOUNTS:
            own = [lock for lock in unreleased if lock.owner == account]
            for when in (state.clock, state.clock + 50):
                assert state.voting_weight(account, when) == sum(
                    lock.amount for lock in own if lock.release_time > when)
            assert state.is_member(account) == any(
                lock.release_time > state.clock for lock in own)

    @invariant()
    def locks_released_only_after_expiry(self):
        for lock in self.state.locks.values():
            if lock.released:
                assert self.state.clock >= lock.release_time


GovMachine.TestCase.settings = settings(max_examples=30, stateful_step_count=40,
                                        deadline=None)
TestGovMachine = GovMachine.TestCase
