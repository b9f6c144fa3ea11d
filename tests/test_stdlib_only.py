"""The program runs on the standard library alone.

A child interpreter makes `import requests` fail, then imports keycube,
runs a small experiment through the CLI and a wire network through
`NodeClient`. `requests` stays a test dependency only, as an independent
client. A bare `import keycube` loads no stdlib stack that only a daemon
resolve or nothing at all needs.
"""

import subprocess
import sys

from conftest import child_env
from test_network import free_port_block

CHILD = r"""
import sys

preloaded = {name.partition(".")[0] for name in sys.modules}  # site, .pth files
sys.modules["requests"] = None  # any `import requests` now raises ImportError

import keycube
from keycube import cli
from keycube.network import (TRANSPORT_WIRE, NetworkConfig, NodeClient, build_network,
                             experiment_keywords)
from keycube.topology import KeywordSet, NodeId

out, base = sys.argv[1], int(sys.argv[2])
assert cli.main(["experiment", "--nodes", "8", "--objects", "10",
                 "--queries", "5", "--out", out]) == 0

cfg = NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=base)
with build_network(cfg):
    address = cfg.address_of(NodeId(2, 3))
    assert NodeClient(address).info()["id"] == "11"
    words = KeywordSet(experiment_keywords(2)[:2])
    assert NodeClient(address).client_insert("cid-stdlib", words)["status"] == "stored"
    entry = NodeClient(cfg.address_of(NodeId(2, 0)))
    assert entry.client_pin(words)["cids"] == ["cid-stdlib"]
assert "http.server" not in sys.modules  # the node server is a plain listener
assert "socketserver" not in sys.modules

loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if module is not None} - preloaded
assert not loaded & {"requests", "urllib3", "charset_normalizer", "idna"}, loaded
assert loaded <= sys.stdlib_module_names | {"keycube"}, loaded - sys.stdlib_module_names
print("ok")
"""


def test_runs_with_requests_blocked(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "grid.csv"), str(free_port_block(4))],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")
    assert (tmp_path / "grid.csv").exists()


IMPORT_ONLY = r"""
import sys

before = set(sys.modules)
import keycube

heavy = {"email", "http.client", "ssl", "statistics", "decimal"}
print(sorted(heavy & (set(sys.modules) - before)))
"""


def test_import_loads_no_unused_stdlib_stack():
    proc = subprocess.run([sys.executable, "-c", IMPORT_ONLY],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
