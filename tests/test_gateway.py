import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from keycube.errors import ContentNotFound, GatewayUnavailable
from keycube.gateway import DaemonResolver, MockResolver, pin_search_with_content
from keycube.topology import NodeId

from conftest import make_net
from test_network import free_port_block


def test_mock_resolver_returns_seeded_bytes():
    resolver = MockResolver({"cid1": b"hello"})
    assert resolver.resolve("cid1") == b"hello"


def test_mock_resolver_unknown_cid():
    resolver = MockResolver({"cid1": b"hello"})
    with pytest.raises(ContentNotFound):
        resolver.resolve("cid2")


def test_mock_resolver_rejects_empty_cid():
    with pytest.raises(ValueError):
        MockResolver().resolve("")


def test_daemon_resolver_unreachable_is_gateway_error():
    port = free_port_block(1)
    resolver = DaemonResolver(f"http://127.0.0.1:{port}", timeout=0.5)
    with pytest.raises(GatewayUnavailable):
        resolver.resolve("cid1")


class _StubDaemonHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's `reply` and records its method and path."""

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.server.requests.append((self.command, self.path))
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stub_daemon():
    server = HTTPServer(("127.0.0.1", free_port_block(1)), _StubDaemonHandler)
    server.requests = []
    server.reply = (200, b"")
    # A short poll: `shutdown` waits for the loop to see its flag, 0.5 s by default.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.socket.close()  # all that `HTTPServer`'s own close does
    thread.join(timeout=5)
    assert not thread.is_alive()


def _stub_url(server, path=""):
    return f"http://127.0.0.1:{server.server_address[1]}{path}"


@pytest.mark.parametrize("body", [b"\xff\xfe\x00not utf-8\x80", b""],
                         ids=["binary", "empty"])
def test_daemon_resolver_returns_exact_bytes(stub_daemon, body):
    stub_daemon.reply = (200, body)
    assert DaemonResolver(_stub_url(stub_daemon)).resolve("cid1") == body


def test_daemon_resolver_404_is_content_not_found(stub_daemon):
    stub_daemon.reply = (404, b"no such cid")
    with pytest.raises(ContentNotFound, match="404"):
        DaemonResolver(_stub_url(stub_daemon)).resolve("cid1")


def test_daemon_resolver_keeps_prefix_and_encodes_cid(stub_daemon):
    DaemonResolver(_stub_url(stub_daemon, "/prefix/")).resolve("a b/c")
    assert stub_daemon.requests == [("POST", "/prefix/api/v0/cat?arg=a+b%2Fc")]


def test_daemon_resolver_https_does_not_fall_back_to_plain_http(stub_daemon):
    stub_daemon.reply = (200, b"plain")
    url = _stub_url(stub_daemon).replace("http://", "https://")
    with pytest.raises(GatewayUnavailable):
        DaemonResolver(url, timeout=2).resolve("cid1")


@pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:1", "http://127.0.0.1:notaport",
                                      "http:///no-host", "http://127.0.0.1:1/a b"])
def test_daemon_resolver_bad_url_is_gateway_error(base_url):
    with pytest.raises(GatewayUnavailable):
        DaemonResolver(base_url).resolve("cid1")


def test_daemon_resolver_silent_daemon_times_out():
    silent = socket.socket()  # accepts connections into its backlog, never answers
    try:
        silent.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)  # as `free_port_block` probes
        silent.bind(("127.0.0.1", free_port_block(1)))
        silent.listen(1)
        resolver = DaemonResolver(f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.2)
        with pytest.raises(GatewayUnavailable):
            resolver.resolve("cid1")
    finally:
        silent.close()


def test_pin_with_content_empty_result(wiki_net):
    out = pin_search_with_content(wiki_net, NodeId.parse("000000"),
                                  ["Urbino"], MockResolver())
    assert out == []


def test_pin_with_content_resolves_known_cid(wiki_net):
    wiki_net.insert("cid-rome-wiki", ["Wikipedia", "Rome"])
    resolver = MockResolver({"cid-rome-wiki": b"<html>Rome</html>"})
    out = pin_search_with_content(wiki_net, NodeId.parse("000000"),
                                  ["Wikipedia", "Rome"], resolver)
    assert out == [("cid-rome-wiki", b"<html>Rome</html>")]


def test_pin_with_content_partial_resolution(wiki_net):
    wiki_net.insert("cid-a", ["Bologna"])
    wiki_net.insert("cid-b", ["Bologna"])
    resolver = MockResolver({"cid-a": b"bytes"})
    out = pin_search_with_content(wiki_net, NodeId.parse("000000"),
                                  ["Bologna"], resolver)
    assert out == [("cid-a", b"bytes"), ("cid-b", None)]


def test_resolution_does_not_change_query_results():
    net = make_net(3)
    from keycube.network import experiment_keywords
    words = experiment_keywords(3)[:2]
    net.insert("cid-x", words)
    bare = net.pin_search(NodeId(3, 0), words)
    resolved = pin_search_with_content(net, NodeId(3, 0), words, MockResolver())
    assert [cid for cid, _ in resolved] == list(bare.cids)
    again = net.pin_search(NodeId(3, 0), words)
    assert again.cids == bare.cids
    assert again.hops == bare.hops
