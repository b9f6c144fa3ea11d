import os
from pathlib import Path

import pytest

from keycube.network import NetworkConfig, build_network
from keycube.topology import TableHash

# Six-word keyword universe with pinned positions, used anywhere a test
# needs human-readable keywords with known bits (r=6).
WIKI_POSITIONS = {
    "Temperature": 0,
    "PoI": 1,
    "Wikipedia": 2,
    "Bologna": 3,
    "Urbino": 4,
    "Rome": 5,
}


@pytest.fixture
def wiki_hash():
    return TableHash(WIKI_POSITIONS)


@pytest.fixture
def wiki_net(wiki_hash):
    """Fresh in-process r=6 network hashing the six pinned keywords."""
    return build_network(NetworkConfig(r=6, hash_fn=wiki_hash))


def make_net(r, **kwargs):
    return build_network(NetworkConfig(r=r, **kwargs))


def child_env():
    """The environment for a child interpreter that imports this checkout's `src`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
