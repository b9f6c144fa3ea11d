import base64
import itertools
import json
import signal
import subprocess
import sys
import time

import pytest

from keycube import cli
from keycube.cli import main
from keycube.errors import ContentNotFound, RoutingFailure
from keycube.network import TRANSPORT_WIRE, NetworkConfig, build_network, wire_info
from keycube.topology import NodeId, node_for_keywords

from test_network import StandInNode, free_port_block, http_reply


@pytest.fixture(scope="module")
def served():
    base = free_port_block(4)
    net = build_network(NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=base))
    yield base
    net.close()


def url(base, offset=0):
    return f"http://127.0.0.1:{base + offset}"


# --- usage errors -------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_serve_r_zero_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["serve", "--r", "0", "--all"])
    assert err.value.code == 2


def test_serve_needs_all_or_node_id():
    with pytest.raises(SystemExit) as err:
        main(["serve", "--r", "3"])
    assert err.value.code == 2


def test_malformed_keywords_usage_error(served):
    with pytest.raises(SystemExit) as err:
        main(["pin", "--target", url(served), "--keywords", "a,,b"])
    assert err.value.code == 2


def test_superset_limit_zero_usage_error(served):
    with pytest.raises(SystemExit) as err:
        main(["superset", "--target", url(served), "--keywords", "a", "--limit", "0"])
    assert err.value.code == 2


def test_empty_cid_is_usage_error_before_any_request():
    dead = free_port_block(1)  # a request would fail as a transport error, code 3
    with pytest.raises(SystemExit) as err:
        main(["insert", "--target", url(dead), "--keywords", "a", "--cid", ""])
    assert err.value.code == 2


def test_experiment_bad_nodes_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--nodes", "7"])
    assert err.value.code == 2


# --- transport errors ---------------------------------------------------------

def test_unreachable_target_exits_3(capsys):
    port = free_port_block(1)
    code = main(["pin", "--target", f"http://127.0.0.1:{port}", "--keywords", "a"])
    assert code == 3
    assert "transport error" in capsys.readouterr().err


def test_failed_leg_behind_the_entry_node_exits_3(capsys):
    base = free_port_block(4)
    net = build_network(NetworkConfig(r=2, transport=TRANSPORT_WIRE, base_port=base))
    down = NodeId.parse("10")
    word = next(w for w in (f"kw{i}" for i in itertools.count())
                if node_for_keywords([w], 2) == down)
    try:
        dead = net.servers.pop(down.value)
        dead.shutdown()
        dead.server_close()
        code = main(["pin", "--target", url(base), "--keywords", word])  # entry node 00
    finally:
        net.close()
    assert code == 3
    assert "transport error" in capsys.readouterr().err


# --- node errors ----------------------------------------------------------------

def test_error_reply_exits_1_with_a_node_error_line(capsys):
    body = json.dumps({"error": "BadRequest", "detail": "field 'cid' must be str"}).encode()
    with StandInNode(raw=http_reply(body, "400 Bad Request")) as node:
        assert main(["pin", "--target", node.address, "--keywords", "a"]) == 1
    assert capsys.readouterr().err == "node error: BadRequest: field 'cid' must be str\n"


# --- insert / pin / superset round trip -------------------------------------------

def test_insert_then_pin_round_trip(served, capsys):
    assert main(["insert", "--target", url(served), "--keywords", "lake,map",
                 "--cid", "cid-cli-1"]) == 0
    stored = json.loads(capsys.readouterr().out)
    assert stored["status"] == "stored"

    assert main(["pin", "--target", url(served, 2), "--keywords", "lake,map"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["cids"] == ["cid-cli-1"]
    assert isinstance(found["hops"], int)


def test_superset_respects_limit_flag(served, capsys):
    for i in range(3):
        main(["insert", "--target", url(served), "--keywords", "river",
              "--cid", f"cid-river-{i}"])
    capsys.readouterr()
    assert main(["superset", "--target", url(served), "--keywords", "river",
                 "--limit", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["cids"]) == 2


def test_pin_with_mock_unreachable_resolver(served, capsys):
    main(["insert", "--target", url(served), "--keywords", "glacier",
          "--cid", "cid-glacier"])
    capsys.readouterr()
    dead = free_port_block(1)
    assert main(["pin", "--target", url(served), "--keywords", "glacier",
                 "--resolver-url", f"http://127.0.0.1:{dead}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["contents"] == {"cid-glacier": None}


class OneMissingResolver:
    """Stands in for the daemon client: it has every cid but `cid-moraine-b`."""

    def __init__(self, base_url):
        pass

    def resolve(self, cid):
        if cid == "cid-moraine-b":
            raise ContentNotFound(cid)
        return cid.encode()


def test_pin_marks_only_the_unresolvable_cid(served, capsys, monkeypatch):
    for cid in ("cid-moraine-a", "cid-moraine-b"):
        main(["insert", "--target", url(served), "--keywords", "moraine", "--cid", cid])
    capsys.readouterr()
    monkeypatch.setattr(cli, "DaemonResolver", OneMissingResolver)
    assert main(["pin", "--target", url(served), "--keywords", "moraine",
                 "--resolver-url", url(free_port_block(1))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["contents"] == {"cid-moraine-a": base64.b64encode(b"cid-moraine-a").decode(),
                               "cid-moraine-b": None}


def test_pin_does_not_swallow_resolver_bugs(served, monkeypatch):
    class BrokenResolver(OneMissingResolver):
        def resolve(self, cid):
            raise TypeError("resolver bug")

    main(["insert", "--target", url(served), "--keywords", "esker", "--cid", "cid-esker"])
    monkeypatch.setattr(cli, "DaemonResolver", BrokenResolver)
    with pytest.raises(TypeError):
        main(["pin", "--target", url(served), "--keywords", "esker",
              "--resolver-url", url(free_port_block(1))])


# --- experiment ----------------------------------------------------------------

def test_experiment_csv_determinism(tmp_path, capsys):
    args = ["experiment", "--nodes", "4,8", "--objects", "10,50",
            "--queries", "10", "--seed", "5"]
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    raw = [p.with_suffix(".raw.csv") for p in outs]
    assert raw[0].read_bytes() == raw[1].read_bytes()


def test_experiment_default_plan_prints_30_rows(tmp_path, capsys):
    out = tmp_path / "full.csv"
    assert main(["experiment", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    table_rows = [line for line in stdout.splitlines()
                  if line and line.split()[0].isdigit()]
    assert len(table_rows) == 30
    assert len(out.read_text().strip().splitlines()) == 31


# --- dao -----------------------------------------------------------------------

def test_dao_scenario_lifecycle(tmp_path, capsys):
    scenario = tmp_path / "lifecycle.txt"
    scenario.write_text("\n".join([
        "mint alice 100",
        "mint bob 50",
        "lock alice 100 500",
        "lock bob 50 500",
        "propose alice 100 pick a direction",
        "suggest 1 alice direction A",
        "suggest 1 bob direction B",
        "vote 1 0 alice",
        "vote 1 1 bob",
        "tick 100",
        "execute 1",
    ]))
    assert main(["dao", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert "winner 0" in out
    state = json.loads(out[out.index("{"):])
    assert state["proposals"][0]["winner"] == 0


def test_dao_scenario_abort_cites_line(tmp_path, capsys):
    scenario = tmp_path / "abort.txt"
    scenario.write_text("\n".join([
        "mint alice 100",
        "lock alice 100 500",
        "propose alice 50 topic",
        "suggest 1 alice option",
        "tick 50",
        "vote 1 0 alice",
    ]))
    assert main(["dao", "--scenario", str(scenario)]) == 1
    assert "line 6" in capsys.readouterr().err


def test_dao_missing_scenario_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["dao", "--scenario", "/definitely/not/here.txt"])
    assert err.value.code == 2


# --- serve (subprocess) ------------------------------------------------------------

def test_serve_all_hosts_every_node():
    base = free_port_block(4)
    proc = subprocess.Popen(
        [sys.executable, "-m", "keycube.cli", "serve", "--r", "2", "--all",
         "--base-port", str(base)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.time() + 10
        infos = {}
        while time.time() < deadline and len(infos) < 4:
            for offset in range(4):
                if offset in infos:
                    continue
                try:
                    infos[offset] = wire_info(url(base, offset))
                except RoutingFailure:
                    time.sleep(0.1)
        assert len(infos) == 4
        assert infos[3]["id"] == "11"
        assert len(infos[0]["neighbors"]) == 2
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=10)  # also closes the pipes
        assert proc.returncode == 0


def test_serve_single_node():
    base = free_port_block(8)
    proc = subprocess.Popen(
        [sys.executable, "-m", "keycube.cli", "serve", "--r", "3",
         "--node-id", "010", "--base-port", str(base)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.time() + 10
        info = None
        while time.time() < deadline and info is None:
            try:
                info = wire_info(url(base, 2))
            except RoutingFailure:
                time.sleep(0.1)
        assert info == {"id": "010", "r": 3, "neighbors": ["000", "110", "011"]}
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=10)  # also closes the pipes
