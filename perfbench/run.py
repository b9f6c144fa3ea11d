"""keycube benchmark: one seeded closed-loop workload per invocation.

    python3 perfbench/run.py --workload cube12 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The untimed human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones, measured with nothing attached and calibrated against a reference
workload (see calib.py). With `--trace 1` the same ops run twice, plain
and then under the profiler, and the metrics are the per-layer ones
(see layers.py). The exit code is 0 when every reply
matched its oracle and every end-of-run check passed, 1 when one did not,
and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seconds between runs of the reference workload inside the loop.
CALIBRATE_EVERY = 0.05

END_TO_END_UNITS = {"setup_s": "s", "rss_mb": "MB", "ops_per_s": "1/s",
                    "p50_ms": "ms", "p90_ms": "ms"}


@dataclass
class Sample:
    op: object
    raw: float
    hops: int
    cycle: int
    index: int
    started: float
    fingerprint: object = None
    seconds: float = 0.0  # `raw` scaled to the reference's nominal speed


@dataclass
class Loop:
    samples: list
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0


def _reference(tracer) -> float:
    if tracer:
        tracer.pause()
    seconds = calib.reference_seconds()
    if tracer:
        tracer.resume()
    return seconds


def run_passes(wl, seconds, expected=None, record=False, tracer=None,
               log=None) -> Loop:
    """The closed loop: the workload's pass of cycles, again and again.

    Passes repeat until `seconds` have gone by, stopping at a cycle
    boundary; the first pass always completes. Every execution is
    checked. The reference workload runs between ops whenever
    `CALIBRATE_EVERY` seconds have gone by since it last ran, and each
    op's time is scaled by the reference times on either side of it
    (calib.py). Each op is represented by its median execution over the
    passes. With `expected` (the samples of an earlier loop), one pass
    runs and each reply is compared with the earlier one instead of the
    oracle, so that no checking code runs inside a traced loop.
    """
    loop = Loop([])
    runs: dict[tuple[int, int], list[Sample]] = {}
    want = {(s.cycle, s.index): s for s in expected} if expected is not None else None
    pending: list[Sample] = []
    reference = _reference(tracer)
    calibrated_at = time.perf_counter()

    def calibrate():
        nonlocal reference, calibrated_at
        after = _reference(tracer)
        scale = calib.NOMINAL_SECONDS * 2 / (reference + after)
        for sample in pending:
            sample.seconds = sample.raw * scale
            runs.setdefault((sample.cycle, sample.index), []).append(sample)
        pending.clear()
        reference, calibrated_at = after, time.perf_counter()

    begun = time.perf_counter()
    while loop.passes == 0 or (want is None and time.perf_counter() - begun < seconds):
        for k in range(wl.pass_cycles):
            if loop.passes and time.perf_counter() - begun >= seconds:
                break
            if tracer:
                tracer.pause()
            wl.begin(k)
            if tracer:
                tracer.resume()
            for index, op in enumerate(wl.cycle(k)):
                loop.attempted += op.units
                start = time.perf_counter()
                try:
                    reply = wl.call(op)
                except wl.op_errors as exc:
                    loop.failed += op.units
                    log.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                    continue
                raw = time.perf_counter() - start
                if want is not None:
                    earlier = want.get((k, index))
                    fingerprint = wl.fingerprint(op, reply)
                    hops = earlier.hops if earlier else 0
                    problem = (None if earlier and fingerprint == earlier.fingerprint
                               else f"{op.kind}: traced reply differs from the untraced one")
                else:
                    fingerprint = wl.fingerprint(op, reply) if record else None
                    hops = wl.hops(op, reply)
                    problem = wl.check(op, reply)
                if problem:
                    loop.failed += op.units
                    loop.mismatches += 1
                    log.append(problem)
                pending.append(Sample(op, raw, hops, k, index, start - begun,
                                      fingerprint))
                if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY:
                    calibrate()
        loop.passes += 1
    calibrate()
    loop.samples = [sorted(runs[key], key=lambda s: s.seconds)[(len(runs[key]) - 1) // 2]
                    for key in sorted(runs)]
    return loop


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, loop: Loop) -> dict:
    per_op_ms = [s.seconds * 1e3 / s.op.units for s in loop.samples]
    busy = sum(s.seconds for s in loop.samples)
    return {
        "setup_s": statistics.median(wl.setup_samples),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": sum(s.op.units for s in loop.samples) / busy,
        "p50_ms": quantile(per_op_ms, 50),
        "p90_ms": quantile(per_op_ms, 90),
    }


def report_classes(wl, loop: Loop) -> None:
    """Per-class figures under the names the layer map uses, with sample counts."""
    kinds = sorted({s.op.kind for s in loop.samples})
    for kind in kinds:
        chosen = [s for s in loop.samples if s.op.kind == kind]
        ms = [s.seconds * 1e3 / s.op.units for s in chosen]
        raw = [s.raw * 1e3 / s.op.units for s in chosen]
        units = sum(s.op.units for s in chosen)
        print(f"  {kind:<9} n={len(chosen):<6} p50={quantile(ms, 50):10.4f} ms "
              f"(raw {quantile(raw, 50):.4f})  p90={quantile(ms, 90):10.4f} ms  "
              f"{units / sum(s.seconds for s in chosen):10.1f} ops/s  "
              f"hops/op={sum(s.hops for s in chosen) / len(chosen):.1f}")
    writes = [s for s in loop.samples if s.op.kind in ("insert", "remove")]
    if writes:
        print(f"  write_ops_per_s={len(writes) / sum(s.seconds for s in writes):.1f} "
              f"(n={len(writes)})")
    print(f"  setup: median {statistics.median(wl.setup_samples):.4f} s calibrated, "
          f"{statistics.median(wl.setup_raw):.4f} s raw, {len(wl.setup_samples)} samples")
    print(f"  failed_ratio={loop.failed / max(loop.attempted, 1):.6f} "
          f"({loop.failed} of {loop.attempted})")


def write_spans(wl, loop: Loop, seed: int) -> Path:
    """Op-level spans of the traced loop, one per op, in call order."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{wl.name}-{seed}.json"
    spans = [{"op": index, "kind": s.op.kind, "start": s.started,
              "end": s.started + s.raw, "hops": s.hops, "units": s.op.units}
             for index, s in enumerate(loop.samples)]
    path.write_text(json.dumps(spans))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "cube12", "wire4", "gov"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "keycube" / "__init__.py").is_file():
        print(f"error: no keycube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import keycube

    if not Path(keycube.__file__).resolve().is_relative_to(SRC):
        print(f"error: keycube imported from {keycube.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    # One CPU for every thread: the wire workload's client and handler
    # threads otherwise hand each reply across CPUs, which is slower and
    # several times noisier. With one closed-loop client and the GIL
    # there is no parallel work to lose.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    wl.setup()
    problems = wl.self_test()
    if problems:
        wl.finish()
        for problem in problems:
            print(f"oracle self-test: {problem}", file=sys.stderr)
        return 1

    log: list[str] = []
    if args.trace:
        import layers

        plain = run_passes(wl, args.seconds / 2, record=True, log=log)
        tracer = layers.Tracer()
        with tracer:
            traced = run_passes(wl, 0, expected=plain.samples, tracer=tracer, log=log)
        problems = wl.finish()
        profile = layers.Profile(tracer.stats(), SRC, Path(__file__).resolve().parent)
        metrics = layers.layer_metrics(wl, profile, tracer, plain.samples,
                                       traced.samples)
        forwards = profile.calls("query", "handle_forward")
        hops = sum(s.hops for s in traced.samples)
        print(f"{wl.name}: traced {len(traced.samples)} ops; handle_forward calls "
              f"{forwards}, reported hops {hops}; spans in "
              f"{write_spans(wl, traced, args.seed).relative_to(ROOT)}")
        if wl.name in ("cube12", "wire4") and forwards != hops:
            problems.append(f"{wl.name}: {forwards} forwards counted, {hops} hops reported")
        loops = (plain, traced)
    else:
        plain = run_passes(wl, args.seconds, log=log)
        problems = wl.finish()
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(wl, plain).items()}
        print(f"{wl.name}: seed {args.seed}, {plain.passes} passes of "
              f"{len(plain.samples)} ops; each op at its median")
        report_classes(wl, plain)
        loops = (plain,)

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in log[:20] + problems:
        print(f"problem: {problem}", file=sys.stderr)
    mismatches = sum(loop.mismatches for loop in loops)
    correct = mismatches == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
