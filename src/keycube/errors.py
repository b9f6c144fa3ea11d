"""Exception types raised across the package.

Errors that can cross the wire carry a stable string code so that a node
can serialize them into a JSON error payload and the client side can
re-raise the matching type.
"""

from __future__ import annotations


class KeycubeError(Exception):
    """Base class for all package errors."""


# --- hypercube topology ---------------------------------------------------

class InvalidKeyword(KeycubeError):
    """A keyword was empty, not a string, or contained a ","."""


class DimensionMismatch(KeycubeError):
    """Two node ids from hypercubes of different dimension were combined."""


class AlreadyAtTarget(KeycubeError):
    """next_hop was asked to step from a node to itself."""


class NotInSupersetRegion(KeycubeError):
    """A node outside the bit-superset region of a query was asked to act in it."""


# --- network / routing ----------------------------------------------------

class RoutingFailure(KeycubeError):
    """A forwarding leg failed; carries the path walked before the failure."""

    def __init__(self, message: str, visited: list[str] | None = None):
        super().__init__(message)
        self.visited = list(visited or [])


class BootstrapError(KeycubeError):
    """A node could not be brought up (typically a wire-mode bind failure)."""


class BadRequest(KeycubeError):
    """A wire request or envelope is malformed: bad JSON, a missing or mistyped field."""


class InternalError(KeycubeError):
    """A node failed on a request with an unexpected error; the wire form of a bug."""


# --- content gateway --------------------------------------------------------

class ContentNotFound(KeycubeError):
    """The resolver has no content for the requested cid."""


class GatewayUnavailable(KeycubeError):
    """The content daemon could not be reached at all."""


# --- governance -------------------------------------------------------------

class GovernanceError(KeycubeError):
    """Base class for governance state machine rejections."""


class InvalidAmount(GovernanceError):
    """Token amount was zero or negative."""


class InsufficientFunds(GovernanceError):
    """An account balance cannot cover the requested amount."""


class InvalidReleaseTime(GovernanceError):
    """A lock release time does not lie in the future."""


class UnknownLock(GovernanceError):
    """No lock with the given id exists."""


class AlreadyReleased(GovernanceError):
    """The lock was already paid back to its owner."""


class LockNotExpired(GovernanceError):
    """The lock release time has not been reached yet."""


class NotAMember(GovernanceError):
    """The account holds no active lock and may not act as a member."""


class InvalidDebateEnd(GovernanceError):
    """A proposal debate end does not lie in the future."""


class UnknownProposal(GovernanceError):
    """No proposal with the given id exists."""


class UnknownSuggestion(GovernanceError):
    """No suggestion with the given id exists on the proposal."""


class ClosedProposal(GovernanceError):
    """The proposal debate period is over; no suggestions or votes accepted."""


class AlreadyVoted(GovernanceError):
    """The account already voted on this proposal."""


class NoVotingPower(GovernanceError):
    """No lock qualifies (active and locked past the debate end); weight would be 0."""


class DebateOngoing(GovernanceError):
    """Execution attempted before the debate period ended."""


class AlreadyExecuted(GovernanceError):
    """The proposal was already executed."""


class ScenarioError(KeycubeError):
    """A governance scenario file failed to parse or apply."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# --- wire error payloads ----------------------------------------------------

_WIRE_CODES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        InvalidKeyword,
        DimensionMismatch,
        AlreadyAtTarget,
        NotInSupersetRegion,
        RoutingFailure,
        BootstrapError,
        BadRequest,
        InternalError,
        ValueError,
    )
}


def error_payload(exc: KeycubeError | ValueError) -> dict:
    """JSON-able description of an error; every ValueError travels as "ValueError"."""
    code = type(exc).__name__ if isinstance(exc, KeycubeError) else "ValueError"
    payload = {"error": code, "detail": str(exc)}
    if isinstance(exc, RoutingFailure):
        payload["visited"] = exc.visited
    return payload


def raise_from_payload(payload: dict) -> None:
    """Re-raise the error described by a wire error payload.

    An unknown or non-string code raises `KeycubeError`; a `RoutingFailure`
    whose `visited` is not a list keeps no path.
    """
    code = payload.get("error", "")
    detail = payload.get("detail", code)
    cls = _WIRE_CODES.get(code) if type(code) is str else None
    if cls is RoutingFailure:
        visited = payload.get("visited")
        raise RoutingFailure(detail, visited if type(visited) is list else None)
    if cls is not None:
        raise cls(detail)
    raise KeycubeError(detail)
