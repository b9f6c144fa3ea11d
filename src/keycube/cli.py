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
    ContentNotFound,
    GatewayUnavailable,
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
from .gateway import DaemonResolver
from .network import (
    TRANSPORT_WIRE,
    NetworkConfig,
    WireTransport,
    build_network,
    make_logical_node,
    start_node_server,
    stop_servers,
    wire_insert,
    wire_pin,
    wire_superset,
)
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
    p.add_argument("--all", action="store_true", help="host all 2**r nodes")
    p.add_argument("--node-id", help="bit string of the single node to host")
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
    if args.r < 1 or args.r > 32:
        parser.error(f"--r must be in [1, 32], got {args.r}")
    if not args.all and args.node_id is None:
        parser.error("serve needs --all or --node-id")

    cfg = NetworkConfig(r=args.r, transport=TRANSPORT_WIRE,
                        host=args.host, base_port=args.base_port)
    servers = []
    try:
        if args.all:
            net = build_network(cfg)
            servers = net.servers
            print(f"serving {1 << args.r} nodes on "
                  f"{args.host}:{args.base_port}..{args.base_port + (1 << args.r) - 1}")
        else:
            node_id = NodeId.parse(args.node_id)
            if node_id.r != args.r:
                parser.error(f"--node-id {args.node_id!r} does not have {args.r} bits")
            node = make_logical_node(cfg, node_id, WireTransport(cfg))
            servers = [start_node_server(cfg, node)]
            print(f"serving node {node_id.text} on {cfg.address_of(node_id)}")
    except BootstrapError as exc:
        print(f"bootstrap failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))

    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    stop.wait()
    stop_servers(servers)
    return 0


def cmd_insert(args, parser) -> int:
    keywords = _parse_keywords(parser, args.keywords)
    if not args.cid:
        parser.error("--cid must not be empty")
    reply = wire_insert(args.target, args.cid, keywords)
    print(json.dumps(reply))
    return 0


def cmd_pin(args, parser) -> int:
    keywords = _parse_keywords(parser, args.keywords)
    reply = wire_pin(args.target, keywords)
    if args.resolver_url:
        resolver = DaemonResolver(args.resolver_url)
        contents = {}
        for cid in reply["cids"]:
            try:
                contents[cid] = base64.b64encode(resolver.resolve(cid)).decode("ascii")
            except (ContentNotFound, GatewayUnavailable):
                contents[cid] = None
        reply["contents"] = contents
    print(json.dumps(reply))
    return 0


def cmd_superset(args, parser) -> int:
    keywords = _parse_keywords(parser, args.keywords)
    if args.limit < 1:
        parser.error(f"--limit must be >= 1, got {args.limit}")
    reply = wire_superset(args.target, keywords, args.limit)
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
    report = run_experiment(plan)
    out = Path(args.out)
    raw_out = out.with_suffix(".raw.csv")
    report.write_summary_csv(out)
    report.write_raw_csv(raw_out)
    print(format_summary_table(report.summaries))
    print(f"summary: {out}")
    print(f"raw: {raw_out}")
    return 0


def cmd_dao(args, parser) -> int:
    path = Path(args.scenario)
    if not path.exists():
        parser.error(f"scenario file not found: {path}")
    try:
        state, log = run_scenario(path.read_text().splitlines())
    except ScenarioError as exc:
        print(f"scenario aborted: {exc}", file=sys.stderr)
        return 1
    for line in log:
        print(line)
    print(state.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
