"""Command line interface.

Subcommands: serve hosts wire-mode nodes, insert/pin/superset talk to a
running node over HTTP, experiment reproduces the hop-count grid on the
in-process simulator, and dao runs a governance scenario file.

Exit codes: 0 success, 1 failure (an error reply from a node, a failed
bind, an aborted scenario), 2 usage error, 3 transport error.
"""

from __future__ import annotations

import argparse
import base64
import json
import signal
import sys
import threading
from pathlib import Path

from .dao import run_scenario
from .errors import (
    BootstrapError,
    KeycubeError,
    RoutingFailure,
    ScenarioError,
)
from .experiment import (
    DEFAULT_LIMIT,
    DEFAULT_QUERIES,
    DEFAULT_SEED,
    ExperimentPlan,
    format_summary_table,
    run_experiment,
)
from .gateway import DaemonResolver, resolve_all
from .network import (
    TRANSPORT_WIRE,
    NetworkConfig,
    NodeClient,
    PeerClients,
    build_network,
    start_node_server,
)
from .node import NodeState
from .query import LogicalNode, QueryResult
from .topology import KeywordSet, NodeId

EXIT_USAGE = 2
EXIT_TRANSPORT = 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except RoutingFailure as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (KeycubeError, ValueError) as exc:  # what a node answered insert, pin or superset
        if args.command not in ("insert", "pin", "superset"):
            raise
        print(f"node error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keycube",
        description="Keyword-indexed hypercube DHT: node hosting, queries, "
                    "experiments, governance scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="host wire-mode logical nodes")
    p.add_argument("--r", type=int, required=True, help="hypercube dimension")
    hosted = p.add_mutually_exclusive_group(required=True)
    hosted.add_argument("--all", action="store_true", help="host all 2**r nodes")
    hosted.add_argument("--node-id", help="bit string of the single node to host")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--base-port", type=int, default=9000)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("insert", help="publish a cid under a keyword set")
    p.add_argument("--target", required=True, help="base URL of any node")
    p.add_argument("--keywords", required=True, help="comma-separated keywords")
    p.add_argument("--cid", required=True)
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("pin", help="exact keyword-set search")
    p.add_argument("--target", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--resolver-url", help="content daemon URL; attach file bytes")
    p.set_defaults(func=cmd_pin)

    p = sub.add_parser("superset", help="keyword-superset search")
    p.add_argument("--target", required=True)
    p.add_argument("--keywords", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=cmd_superset)

    p = sub.add_parser("experiment", help="run the hop-count experiment grid")
    p.add_argument("--nodes", default="8,16,32,64,128",
                   help="comma-separated node counts (powers of two)")
    p.add_argument("--objects", default="10,100,1000",
                   help="comma-separated object counts")
    p.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="experiment.csv", help="summary CSV path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("dao", help="run a governance scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_dao)

    return parser


def _parse_keywords(parser: argparse.ArgumentParser, raw: str) -> KeywordSet:
    parts = raw.split(",")
    if any(not part for part in parts):
        parser.error(f"malformed keyword list {raw!r}")
    return KeywordSet(parts)


def _parse_int_list(parser: argparse.ArgumentParser, raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        parser.error(f"{flag} expects comma-separated integers, got {raw!r}")


def cmd_serve(args, parser) -> int:
    try:
        cfg = NetworkConfig(r=args.r, transport=TRANSPORT_WIRE,
                            host=args.host, base_port=args.base_port)
        node_id = None if args.all else NodeId.parse(args.node_id)
        if node_id is not None and node_id.r != args.r:
            parser.error(f"--node-id {args.node_id!r} does not have {args.r} bits")
        # Both handlers go in before any bind: once serving, a signal ends in `close`.
        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        if node_id is None:
            close = build_network(cfg).close
            print(f"serving {1 << args.r} nodes on "
                  f"{args.host}:{args.base_port}..{args.base_port + (1 << args.r) - 1}")
        else:
            node = LogicalNode(NodeState(node_id), PeerClients(cfg), cfg.hash_fn)
            _, close = start_node_server(cfg, [node])
            print(f"serving node {node_id.text} on {cfg.address_of(node_id)}")
    except BootstrapError as exc:
        print(f"bootstrap failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))

    stop.wait()
    close()
    return 0


def cmd_insert(args, parser) -> int:
    keywords = _parse_keywords(parser, args.keywords)
    if not args.cid:
        parser.error("--cid must not be empty")
    reply = NodeClient(args.target).client_insert(args.cid, keywords)
    print(json.dumps(reply))
    return 0


def cmd_pin(args, parser) -> int:
    keywords = _parse_keywords(parser, args.keywords)
    reply = NodeClient(args.target).client_pin(keywords)
    cids = QueryResult.from_reply(reply).cids  # a reply of another shape is a transport error
    if args.resolver_url:
        pairs = resolve_all(cids, DaemonResolver(args.resolver_url))
        reply["contents"] = {cid: None if data is None else base64.b64encode(data).decode("ascii")
                             for cid, data in pairs}
    print(json.dumps(reply))
    return 0


def cmd_superset(args, parser) -> int:
    keywords = _parse_keywords(parser, args.keywords)
    if args.limit < 1:
        parser.error(f"--limit must be >= 1, got {args.limit}")
    reply = NodeClient(args.target).client_superset(keywords, args.limit)
    QueryResult.from_reply(reply)  # a reply of another shape is a transport error
    print(json.dumps(reply))
    return 0


def cmd_experiment(args, parser) -> int:
    node_counts = _parse_int_list(parser, args.nodes, "--nodes")
    object_counts = _parse_int_list(parser, args.objects, "--objects")
    try:
        plan = ExperimentPlan(node_counts=node_counts, object_counts=object_counts,
                              queries_per_cell=args.queries,
                              superset_limit=args.limit, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # checked before any cell runs
        parser.error(f"--out {args.out!r} is not a file path in an existing directory")
    report = run_experiment(plan)
    raw_out = out.with_suffix(".raw.csv")
    report.write_summary_csv(out)
    report.write_raw_csv(raw_out)
    print(format_summary_table(report.summaries))
    print(f"summary: {out}")
    print(f"raw: {raw_out}")
    return 0


def cmd_dao(args, parser) -> int:
    try:
        lines = Path(args.scenario).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read scenario file {args.scenario!r}: {exc}")
    try:
        state, log = run_scenario(lines)
    except ScenarioError as exc:
        print(f"scenario aborted: {exc}", file=sys.stderr)
        return 1
    for line in log:
        print(line)
    print(state.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
