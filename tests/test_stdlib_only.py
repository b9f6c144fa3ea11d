"""The program runs on the standard library alone.

A child interpreter makes `import requests` fail, then imports keycube,
runs a small experiment through the CLI and a wire network through the
client helpers. `requests` stays a test dependency only, as an independent
client.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_network import free_port_block

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import sys

preloaded = {name.partition(".")[0] for name in sys.modules}  # site, .pth files
sys.modules["requests"] = None  # any `import requests` now raises ImportError

import keycube
from keycube import cli
from keycube.network import (TRANSPORT_WIRE, NetworkConfig, build_network,
                             experiment_keywords, wire_info, wire_insert, wire_pin)
from keycube.topology import KeywordSet, NodeId

out, base = sys.argv[1], int(sys.argv[2])
assert cli.main(["experiment", "--nodes", "8", "--objects", "10",
                 "--queries", "5", "--out", out]) == 0

cfg = NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=base)
with build_network(cfg):
    address = cfg.address_of(NodeId(2, 3))
    assert wire_info(address)["id"] == "11"
    words = KeywordSet(experiment_keywords(2)[:2])
    assert wire_insert(address, "cid-stdlib", words)["status"] == "stored"
    assert wire_pin(cfg.address_of(NodeId(2, 0)), words)["cids"] == ["cid-stdlib"]

loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if module is not None} - preloaded
assert not loaded & {"requests", "urllib3", "charset_normalizer", "idna"}, loaded
assert loaded <= sys.stdlib_module_names | {"keycube"}, loaded - sys.stdlib_module_names
print("ok")
"""


def test_runs_with_requests_blocked(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "grid.csv"), str(free_port_block(4))],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")
    assert (tmp_path / "grid.csv").exists()
