"""Resolving cids to file bytes through a content-addressed storage daemon.

Queries against the DHT return cids. When a resolver is attached the cids
can be mapped to the underlying bytes as a post-processing step; the query
itself is unchanged. Two implementations: an in-memory mock for tests and
walkthroughs, and a client for a daemon exposing the conventional
POST /api/v0/cat?arg=<cid> endpoint, on stdlib `http.client` (imported on first use).
"""

from __future__ import annotations

from typing import Iterable, Protocol
from urllib.parse import urlencode, urlsplit

from .errors import ContentNotFound, GatewayUnavailable
from .network import Network
from .topology import NodeId


class ContentResolver(Protocol):
    def resolve(self, cid: str) -> bytes: ...


class MockResolver:
    """In-memory cid -> bytes map; safe for concurrent reads."""

    def __init__(self, contents: dict[str, bytes] | None = None):
        self._contents = dict(contents or {})

    def resolve(self, cid: str) -> bytes:
        _check_cid(cid)
        try:
            return self._contents[cid]
        except KeyError:
            raise ContentNotFound(cid) from None


class DaemonResolver:
    """Client for a daemon at `http(s)://host[:port][/prefix]`; only a 200 reply is content."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def resolve(self, cid: str) -> bytes:
        import http.client  # it loads `ssl` and `email`: only on the first daemon resolve
        _check_cid(cid)
        try:
            url = urlsplit(self.base_url)
            connection = {"http": http.client.HTTPConnection,
                          "https": http.client.HTTPSConnection}.get(url.scheme)
            if connection is None or not url.hostname or url.query or url.fragment:
                raise ValueError("expected http(s)://host[:port]")
            conn = connection(url.hostname, url.port, timeout=self.timeout)
        except ValueError as exc:  # also a port that is not a number or out of range
            raise GatewayUnavailable(f"bad daemon URL {self.base_url!r}: {exc}") from None
        try:
            conn.request("POST", f"{url.path}/api/v0/cat?" + urlencode({"arg": cid}))
            resp = conn.getresponse()
            status, content = resp.status, resp.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:  # ValueError: a bad URL
            raise GatewayUnavailable(f"daemon at {self.base_url} unreachable: {exc}") from exc
        finally:
            conn.close()
        if status == 200:
            return content
        raise ContentNotFound(f"{cid}: daemon answered {status}")


def _check_cid(cid: str) -> None:
    if not isinstance(cid, str) or not cid:
        raise ValueError(f"cid must be a non-empty string, got {cid!r}")


def resolve_all(cids: Iterable[str], resolver: ContentResolver) -> list[tuple[str, bytes | None]]:
    """Each cid with its bytes, or with None where the resolver cannot produce them."""
    out: list[tuple[str, bytes | None]] = []
    for cid in cids:
        try:
            out.append((cid, resolver.resolve(cid)))
        except (ContentNotFound, GatewayUnavailable):
            out.append((cid, None))
    return out


def pin_search_with_content(net: Network, start: NodeId, keywords,
                            resolver: ContentResolver) -> list[tuple[str, bytes | None]]:
    """Pin search whose cids are mapped through the resolver.

    Resolution happens after the query completes and never fails it; a cid
    the resolver cannot produce is paired with None.
    """
    return resolve_all(net.pin_search(start, keywords).cids, resolver)
