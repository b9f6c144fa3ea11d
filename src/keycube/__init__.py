"""keycube: keyword-indexed hypercube DHT with governance.

A network of 2**r logical nodes, each responsible for the keyword sets
hashing to its r-bit id, answers exact (pin) and superset keyword queries
by greedy bit-fixing routing and a spanning tree walk over the superset
region. Ships with an in-process simulator, an HTTP wire mode, hop-count
experiments, and a deterministic token-governance state machine.
"""

from .dao import GovState, run_scenario
from .errors import KeycubeError
from .experiment import ExperimentPlan, ExperimentReport, run_experiment
from .gateway import DaemonResolver, MockResolver, pin_search_with_content
from .network import (
    Network,
    NetworkConfig,
    build_network,
    experiment_keywords,
    populate,
)
from .node import NodeState, ObjectRecord
from .query import LogicalNode, QueryResult
from .topology import (
    KeywordSet,
    NodeId,
    hamming_distance,
    keyword_bit,
    neighbors,
    next_hop,
    node_for_keywords,
    superset_region,
    table_hash,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentPlan",
    "ExperimentReport",
    "DaemonResolver",
    "GovState",
    "KeycubeError",
    "KeywordSet",
    "LogicalNode",
    "MockResolver",
    "Network",
    "NetworkConfig",
    "NodeId",
    "NodeState",
    "ObjectRecord",
    "QueryResult",
    "build_network",
    "experiment_keywords",
    "hamming_distance",
    "keyword_bit",
    "neighbors",
    "next_hop",
    "node_for_keywords",
    "pin_search_with_content",
    "populate",
    "run_experiment",
    "run_scenario",
    "superset_region",
    "table_hash",
    "__version__",
]
