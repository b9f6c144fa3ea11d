"""Per-layer numbers for the traced run.

`Tracer` runs `cProfile` on the client thread and, through
`threading.setprofile`, on every thread started while it is active (the
HTTP handler threads of the wire workload). With one closed-loop client,
everything those profiles record while an op is in flight belongs to
that op. A `sys.settrace` hook watches two functions for their return
values: `NodeState.superset_lookup` (hit or miss) and `json.dumps`
(encoded bytes). Nothing in the program is patched.

Self time is bucketed by the program's modules. Time in library code is
charged to whoever called it: `json` is the network layer's codec, the
HTTP stack (`http`, `socketserver`, `requests`, `urllib3`, ...) is its
transport, and builtins such as SHA-256 go to the keycube function that
called them. Blocking waits (socket reads, select, lock waits) and the
benchmark's own code are left out of the busy time the shares divide.
"""

from __future__ import annotations

import cProfile
import json
import os
import statistics
import sys
import threading
from collections import defaultdict
from pathlib import Path

from keycube.node import NodeState

MODULES = ("topology", "node", "query", "network", "experiment", "dao")

TRANSPORT_PATHS = ("/http/", "/socketserver.py", "/socket.py", "/selectors.py",
                   "/email/", "/urllib/", "/threading.py", "/requests/",
                   "/urllib3/", "/idna/", "/charset_normalizer/", "/certifi/",
                   "/ssl.py")
WAIT_BUILTINS = ("'recv_into' of '_socket.socket'", "'_accept' of '_socket.socket'",
                 "'poll' of 'select.poll'", "select.select", "time.sleep",
                 "'acquire' of '_thread.lock'")
EXCLUDED = ("wait", "bench")


class Tracer:
    """Profiles every thread and watches two functions while active."""

    def __init__(self):
        self.profiles: list[cProfile.Profile] = []
        self.lookups = 0
        self.lookup_hits = 0
        self.json_bytes = 0
        self._lock = threading.Lock()
        self._main = cProfile.Profile()
        self._watch = {
            NodeState.superset_lookup.__code__: self._on_lookup,
            json.dumps.__code__: self._on_dumps,
        }

    def __enter__(self) -> "Tracer":
        self.profiles.append(self._main)
        threading.setprofile(self._boot_thread)
        threading.settrace(self._on_call)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        threading.setprofile(None)
        threading.settrace(None)

    def pause(self) -> None:
        self._main.disable()
        sys.settrace(None)

    def resume(self) -> None:
        sys.settrace(self._on_call)
        self._main.enable()

    def _boot_thread(self, frame, event, arg) -> None:
        # First profile event of a new thread: hand it its own profiler.
        profile = cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        profile.enable()

    def _on_call(self, frame, event, arg):
        handler = self._watch.get(frame.f_code)
        if handler is not None:
            frame.f_trace_lines = False
        return handler

    def _on_lookup(self, frame, event, arg):
        if event == "return":
            with self._lock:
                self.lookups += 1
                self.lookup_hits += bool(arg)

    def _on_dumps(self, frame, event, arg):
        if event == "return" and arg is not None:
            with self._lock:
                self.json_bytes += len(arg)

    def stats(self) -> dict:
        """Merged pstats-style table over every thread's profile."""
        merged: dict = {}
        for profile in self.profiles:
            profile.snapshot_stats()
            for key, (cc, nc, tt, ct, callers) in profile.stats.items():
                if key in merged:
                    mcc, mnc, mtt, mct, mcallers = merged[key]
                    for caller, values in callers.items():
                        old = mcallers.get(caller, (0, 0, 0.0, 0.0))
                        mcallers[caller] = tuple(a + b for a, b in zip(old, values))
                    merged[key] = (mcc + cc, mnc + nc, mtt + tt, mct + ct, mcallers)
                else:
                    merged[key] = (cc, nc, tt, ct, dict(callers))
        return merged


class Profile:
    """Self time charged to owners: keycube functions or a named bucket."""

    def __init__(self, stats: dict, src: Path, bench: Path):
        self.stats = stats
        self.pkg = str(src / "keycube") + os.sep
        self.bench = str(bench) + os.sep
        self.codec = os.path.dirname(json.__file__) + os.sep
        self._dist: dict = {}
        self.owned: dict = defaultdict(float)
        for key, (_, _, tt, _, callers) in stats.items():
            owner = self.classify(key)
            if owner is not None:
                self.owned[owner] += tt
                continue
            charged = 0.0
            for caller, values in callers.items():
                for who, share in self._owners(caller, 0).items():
                    self.owned[who] += values[2] * share
                charged += values[2]
            self.owned["other"] += max(tt - charged, 0.0)

    def classify(self, key):
        filename, _, name = key
        if filename.startswith(self.pkg):
            return key
        if filename.startswith(self.bench):
            return "bench"
        if filename.startswith(self.codec):
            return "codec"
        if filename == "~":
            return "wait" if any(w in name for w in WAIT_BUILTINS) else None
        if any(part in filename for part in TRANSPORT_PATHS):
            return "transport"
        return None

    def _owners(self, key, depth: int) -> dict:
        """Where calls of `key` belong, split by its callers' cumulative time."""
        owner = self.classify(key)
        if owner is not None:
            return {owner: 1.0}
        if key in self._dist:
            return self._dist[key]
        callers = self.stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(values[3] for values in callers.values())
        if depth > 30 or total <= 0:
            return {"other": 1.0}
        self._dist[key] = {"other": 1.0}  # cycle guard
        dist: dict = defaultdict(float)
        for caller, values in callers.items():
            for who, share in self._owners(caller, depth + 1).items():
                dist[who] += share * values[3] / total
        self._dist[key] = dict(dist)
        return self._dist[key]

    def module_of(self, owner) -> str:
        if isinstance(owner, tuple):
            return Path(owner[0]).stem
        return owner

    @property
    def busy(self) -> float:
        return sum(t for owner, t in self.owned.items()
                   if self.module_of(owner) not in EXCLUDED)

    def module_self(self, module: str) -> float:
        return sum(t for owner, t in self.owned.items() if self.module_of(owner) == module)

    def function_self(self, module: str, name: str) -> float:
        return sum(t for owner, t in self.owned.items()
                   if isinstance(owner, tuple) and self.module_of(owner) == module
                   and owner[2] == name)

    def _matching(self, module: str, name: str | None):
        for key, values in self.stats.items():
            if key[0].startswith(self.pkg) and Path(key[0]).stem == module \
                    and (name is None or key[2] == name):
                yield values

    def calls(self, module: str, name: str | None = None) -> int:
        return sum(values[1] for values in self._matching(module, name))

    def cumulative(self, module: str, name: str) -> float:
        return sum(values[3] for values in self._matching(module, name))

    def builtin_calls(self, fragment: str) -> int:
        return sum(values[1] for key, values in self.stats.items()
                   if key[0] == "~" and fragment in key[2])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(wl, profile: Profile, tracer: Tracer, untraced: list,
                  traced: list) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit).

    `untraced` and `traced` are the samples of the same ops run without
    and with the tracer; rates per hop and per leg come from the untraced
    ones, counts and shares from the traced ones.
    """
    units = sum(s.op.units for s in traced)
    busy = profile.busy
    legs = profile.calls("query", "handle_forward")
    m: dict[str, tuple[float, str]] = {}

    for module in MODULES:
        m[f"{module}.calls_per_op"] = (_ratio(profile.calls(module), units), "count")
    network_self = (profile.module_self("network") + profile.module_self("codec")
                    + profile.module_self("transport"))
    for module in MODULES:
        own = network_self if module == "network" else profile.module_self(module)
        m[f"{module}.self_share"] = (_ratio(own, busy), "ratio")

    m["topology.hash_calls_per_op"] = (
        _ratio(profile.calls("topology", "keyword_bit"), units), "count")
    m["topology.nodeid_new_per_op"] = (
        _ratio(profile.calls("topology", "__post_init__"), units), "count")

    m["node.superset_hit_ratio"] = (_ratio(tracer.lookup_hits, tracer.lookups), "ratio")

    def us_per_hop(kind):
        chosen = [s for s in untraced if s.op.kind == kind]
        return _ratio(sum(s.seconds for s in chosen) * 1e6, sum(s.hops for s in chosen))

    m["query.legs_per_op"] = (_ratio(legs, units), "count")
    m["query.self_us_per_leg"] = (_ratio(profile.module_self("query") * 1e6, legs), "us/leg")
    m["query.us_per_hop_shallow"] = (us_per_hop("superset"), "us/hop")
    m["query.us_per_hop_deep"] = (us_per_hop("deep"), "us/hop")

    codec = profile.module_self("codec")
    m["network.codec_self_share"] = (_ratio(codec, busy), "ratio")
    m["network.codec_us_per_leg"] = (_ratio(codec * 1e6, legs), "us/leg")
    m["network.codec_bytes_per_leg"] = (_ratio(tracer.json_bytes, legs), "B/leg")
    m["network.transport_self_share"] = (
        _ratio(profile.module_self("transport"), busy), "ratio")
    http_legs = sum(s.hops + 1 for s in untraced) if wl.name == "wire4" else 0
    m["network.http_ms_per_leg"] = (
        _ratio(sum(s.seconds for s in untraced) * 1e3, http_legs), "ms/leg")
    m["network.tcp_connects_per_op"] = (
        _ratio(profile.builtin_calls("'connect' of '_socket.socket'"), units), "count")
    m["network.build_s"] = (
        statistics.median(wl.build_samples) if wl.build_samples else 0.0, "s/setup")

    grid = profile.cumulative("experiment", "run_experiment")
    m["experiment.build_share"] = (
        _ratio(profile.cumulative("network", "build_network"), grid), "ratio")
    m["experiment.populate_share"] = (
        _ratio(profile.cumulative("network", "populate"), grid), "ratio")
    m["experiment.query_share"] = (
        _ratio(profile.cumulative("network", "pin_search")
               + profile.cumulative("network", "superset_search"), grid), "ratio")

    m["dao.member_scan_share"] = (
        _ratio(profile.cumulative("dao", "is_member")
               + profile.cumulative("dao", "voting_weight"), busy), "ratio")
    m["dao.escrow_scan_share"] = (
        _ratio(profile.cumulative("dao", "escrowed_total"), busy), "ratio")
    m["dao.parse_share"] = (
        _ratio(profile.function_self("dao", "run_scenario")
               + profile.function_self("dao", "_apply_line"), busy), "ratio")
    first, last = _deciles(wl, untraced)
    m["dao.us_per_op_first_decile"] = (first, "us/op")
    m["dao.us_per_op_last_decile"] = (last, "us/op")

    m["trace_overhead_ratio"] = (
        _ratio(sum(s.seconds for s in traced), sum(s.seconds for s in untraced)), "ratio")
    return m


def _deciles(wl, samples) -> tuple[float, float]:
    """Microseconds per scenario line in the first and last tenth of a pass."""
    if wl.name != "gov":
        return 0.0, 0.0
    body = len(wl.scenario.body)
    head = [s for s in samples if s.op.args[0] < body / 10]
    tail = [s for s in samples if s.op.args[0] >= body * 9 / 10]

    def per_line(chosen):
        return _ratio(sum(s.seconds for s in chosen) * 1e6, sum(s.op.units for s in chosen))

    return per_line(head), per_line(tail)
