import base64
import functools
import itertools
import json
import select
import signal
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

from keycube import cli
from keycube.cli import main
from keycube.errors import ContentNotFound
from keycube.network import TRANSPORT_WIRE, NetworkConfig, NodeClient, build_network
from keycube.topology import NodeId, node_for_keywords

from conftest import child_env
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


@pytest.mark.parametrize("argv", [["--r", "33", "--all"],
                                  ["--r", "1", "--all", "--base-port", "70000"],
                                  ["--r", "2", "--node-id", "01", "--base-port", "65534"]])
def test_serve_out_of_range_is_usage_error_before_any_bind(argv, capsys):
    threads = set(threading.enumerate())
    with pytest.raises(SystemExit) as err:
        main(["serve", *argv])
    assert err.value.code == 2
    assert set(threading.enumerate()) <= threads  # no node server was started
    assert "Traceback" not in capsys.readouterr().err


def test_serve_needs_all_or_node_id(monkeypatch):
    def no_server(*args):
        raise AssertionError("a usage error must start no server")

    monkeypatch.setattr(cli, "build_network", no_server)
    monkeypatch.setattr(cli, "start_node_server", no_server)
    threads = set(threading.enumerate())
    for argv in (["--r", "3"], ["--r", "3", "--all", "--node-id", "010"]):
        with pytest.raises(SystemExit) as err:
            main(["serve", *argv])
        assert err.value.code == 2
    assert set(threading.enumerate()) <= threads


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


def test_experiment_node_list_that_is_not_integers_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--nodes", "8,x"])
    assert err.value.code == 2
    assert "--nodes expects comma-separated integers, got '8,x'" in capsys.readouterr().err


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
        code = main(["pin", "--target", url(base), "--keywords", word])  # entry node 00
    finally:
        net.close()
    assert code == 3
    assert "transport error" in capsys.readouterr().err


NOT_QUERY_REPLIES = {
    "a store reply": {"status": "stored", "node": "00"},
    "cids a string": {"cids": "abc", "hops": 0, "visited": []},
    "hops missing": {"cids": [], "visited": ["00"]},
    "visited a bad id": {"cids": [], "hops": 0, "visited": ["0x"]},
    "hops not the length of the path": {"cids": [], "hops": 7, "visited": ["00"]},
}


@pytest.mark.parametrize("argv", [["pin"], ["pin", "--resolver-url", "http://127.0.0.1:1"],
                                  ["superset", "--limit", "3"]],
                         ids=["pin", "pin-resolved", "superset"])
@pytest.mark.parametrize("reply", NOT_QUERY_REPLIES.values(), ids=NOT_QUERY_REPLIES)
def test_a_200_reply_that_is_not_a_query_result_exits_3(argv, reply, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DaemonResolver", lambda url: pytest.fail("resolved a bad reply"))
    with StandInNode(json.dumps(reply).encode()) as node:
        code = main([argv[0], "--target", node.address, "--keywords", "a", *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("transport error: not a query reply") and "Traceback" not in err


@pytest.mark.parametrize("command", [["pin"], ["superset", "--limit", "3"]])
def test_a_query_reply_prints_as_the_node_sent_it(command, capsys):
    body = r'{"visited": ["00", "10"], "cids": ["c\u00e9", "b"], "hops": 1}'
    with StandInNode(body.encode()) as node:
        assert main([command[0], "--target", node.address, "--keywords", "a", *command[1:]]) == 0
    assert capsys.readouterr().out == body + "\n"


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


def assert_one_error_line(capsys):
    """argparse's usage line, then one error line, and no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


@pytest.mark.parametrize("content", [None, b"mint alice 100\n\xff\xfe\n"],
                         ids=["directory", "not-utf-8"])
def test_dao_unreadable_scenario_usage_error(tmp_path, capsys, content):
    scenario = tmp_path / "scenario.txt"
    if content is None:
        scenario.mkdir()
    else:
        scenario.write_bytes(content)
    with pytest.raises(SystemExit) as err:
        main(["dao", "--scenario", str(scenario)])
    assert err.value.code == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_experiment_unwritable_out_is_usage_error_before_any_cell(tmp_path, monkeypatch,
                                                                  capsys, out):
    monkeypatch.setattr(cli, "run_experiment", lambda plan: pytest.fail("the grid ran"))
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--nodes", "8", "--objects", "1", "--out", str(tmp_path / out)])
    assert err.value.code == 2
    assert_one_error_line(capsys)


def test_experiment_negative_objects_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--nodes", "8", "--objects", "-5"])
    assert err.value.code == 2
    assert_one_error_line(capsys)


# --- serve (subprocess) ------------------------------------------------------------

def start_serve(size, *argv):
    """Start `serve` with `argv` on a free block of `size` ports, and return it with
    its base port once it prints its `serving` line, as the CI step waits for it.

    Another bind can take a port between the probe and serve's own bind: serve
    then exits 1, and the next free block is tried. Any other exit fails the
    test with serve's exit code and stderr.
    """
    failures = []
    for _ in range(5):
        base = free_port_block(size)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "keycube.cli", "serve", *argv, "--base-port", str(base)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        if (select.select([proc.stdout], [], [], 10)[0]
                and proc.stdout.readline().startswith(b"serving")):
            return proc, base
        if proc.poll() is None:  # no line within 10 s
            proc.kill()
        _, err = proc.communicate(timeout=10)  # also closes the pipes
        failures.append(f"serve on {base} exited {proc.returncode}: {err.decode()!r}")
        if proc.returncode != 1:  # 1: a port of this block was taken
            break
    pytest.fail("; ".join(failures))


def test_serve_all_hosts_every_node():
    proc, base = start_serve(4, "--r", "2", "--all")
    try:
        infos = {offset: NodeClient(url(base, offset)).info() for offset in range(4)}
        assert len(infos) == 4
        assert infos[3]["id"] == "11"
        assert len(infos[0]["neighbors"]) == 2
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=10)  # also closes the pipes
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err.decode()!r}"


def test_serve_single_node():
    proc, base = start_serve(8, "--r", "3", "--node-id", "010")
    try:
        info = NodeClient(url(base, 2)).info()
        assert info == {"id": "010", "r": 3, "neighbors": ["000", "110", "011"]}
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=10)  # also closes the pipes
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err.decode()!r}"


@pytest.mark.parametrize("argv", [["--r", "2", "--all"], ["--r", "2", "--node-id", "01"]])
def test_serve_sets_both_signal_handlers_before_it_binds(argv, monkeypatch):
    # A SIGTERM that comes as soon as the serving line is out must stop serve
    # through `close`, not kill it with -15: both handlers are set before any bind.
    events = []

    def bind(cfg, nodes=None):
        events.append("bind")
        close = functools.partial(events.append, "close")
        return SimpleNamespace(close=close) if nodes is None else ([], close)

    class Stop:  # a `threading.Event` whose wait returns at once
        def set(self):
            pass

        def wait(self):
            events.append("wait")

    monkeypatch.setattr(cli, "build_network", bind)
    monkeypatch.setattr(cli, "start_node_server", bind)
    monkeypatch.setattr(cli, "threading", SimpleNamespace(Event=Stop))
    monkeypatch.setattr(cli.signal, "signal", lambda signum, handler: events.append(signum))
    monkeypatch.setattr(cli, "print", lambda line: events.append(line.split()[0]), raising=False)
    assert main(["serve", *argv, "--base-port", "9000"]) == 0
    assert events == [signal.SIGINT, signal.SIGTERM, "bind", "serving", "wait", "close"]
