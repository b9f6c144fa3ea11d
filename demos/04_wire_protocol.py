"""The HTTP wire mode: one small JSON server per logical node.

Every node listens on base_port + id value and answers /info, /insert,
/remove, /pin and /superset; node-to-node forwarding uses
POST /internal/forward. The same queries give the same answers as the
in-process transport. The calls below write each HTTP request by hand on
a bare socket, a client independent of keycube's own.

Run:  python demos/04_wire_protocol.py
"""

import json
import socket
from urllib.parse import urlencode

from keycube import NetworkConfig, build_network
from keycube.network import TRANSPORT_WIRE


def call(port, path, body=None):
    """One request on its own connection; a body makes it a JSON POST."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{'GET' if body is None else 'POST'} {path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\nConnection: close\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head.encode("ascii") + data)
        reply = b"".join(iter(lambda: sock.recv(65536), b""))  # the server closes after it
    status_line, _, rest = reply.partition(b"\r\n")
    assert status_line.split()[1] == b"200", status_line
    return json.loads(rest.partition(b"\r\n\r\n")[2])


BASE = 19300
cfg = NetworkConfig(r=3, transport=TRANSPORT_WIRE, base_port=BASE)
net = build_network(cfg)
try:
    print(f"8 nodes serving on 127.0.0.1:{BASE}..{BASE + 7}\n")

    info = call(BASE + 5, "/info")
    print("GET /info on port", BASE + 5, "->", json.dumps(info))

    body = {"cid": "cid-demo", "keywords": ["kw0000", "kw0002"]}
    stored = call(BASE, "/insert", body)
    print("POST /insert ->", json.dumps(stored))

    found = call(BASE + 7, "/pin?" + urlencode({"keywords": "kw0000,kw0002"}))
    print("GET /pin from the far corner ->", json.dumps(found))

    sup = call(BASE + 7, "/superset?" + urlencode({"keywords": "kw0000", "limit": "10"}))
    print("GET /superset ->", json.dumps(sup))
finally:
    net.close()
    print("\nservers stopped")
