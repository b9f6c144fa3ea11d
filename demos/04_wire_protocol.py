"""The HTTP wire mode: one small JSON server per logical node.

Every node listens on base_port + id value and answers /info, /insert,
/remove, /pin and /superset; node-to-node forwarding uses
POST /internal/forward. The same queries give the same answers as the
in-process transport. The calls below go through the stdlib's
`urllib.request`, a client independent of keycube's own.

Run:  python demos/04_wire_protocol.py
"""

import json
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from keycube import NetworkConfig, build_network
from keycube.network import TRANSPORT_WIRE


def call(port, path, body=None):
    """One request with the stdlib client; a body makes it a JSON POST."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = Request(f"http://127.0.0.1:{port}{path}", data=data,
                      headers={"Content-Type": "application/json"})
    with urlopen(request, timeout=5) as resp:
        return json.load(resp)


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
