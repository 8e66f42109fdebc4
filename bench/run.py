"""k3lattice benchmark: one workload per invocation, one closed-loop client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; k3lattice is imported from ./src. With
--trace 0 the workload runs untraced for --seconds and the end-to-end
metrics are reported. With --trace 1 a fixed number of operations runs
untraced and traced, in alternating chunks, and the per-layer metrics and
the tracing overhead are reported. Either way every result is checked off
the clock, human-readable lines come first and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are reported in reference-host seconds: each wall-clock duration is
scaled by how fast a fixed calibration loop ran around it, relative to
REF_CALIB_S. The raw wall-clock figures and the host speed are printed on
the "context" line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Per-call deadlines in reference-host seconds. scale-sweep's is its
# experimental knob: calls that outgrow it are the exponential walls. The
# others only stop a hung call; no call on those workloads comes near them.
DEADLINE_S = {"paper-verify": 10.0, "claim3-grid": 10.0, "k3-queries": 10.0, "scale-sweep": 0.02}
# Checks run off the clock; their deadline only stops a hung replay.
CHECK_DEADLINE_S = 60.0
# operations per traced run: fixed, so that call counts repeat for a seed
TRACE_OPS = {"paper-verify": 30, "claim3-grid": 1728, "k3-queries": 20000, "scale-sweep": 192}
TRACE_CHUNKS = 12
SETUP_SPAWNS = 11
TAIL_SHARE = 0.01
TAIL_MIN_INPUTS = 10

# One calibrate() run on the reference host, in seconds (about the median
# on a 2-core x86-64 container under Python 3.11).
REF_CALIB_S = 0.003
CALIB_EVERY_S = 0.1
CALIB_RECENT = 15
CALIB_HALF_WINDOW_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("decided_frac", "ratio"),
    ("rss_mb", "MB"),
)

TIMEOUT = "timeout"


# ------------------------------------------------------------ host speed

_CALIB_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3 + (20 if i == j else 0)) for j in range(6)] for i in range(6)]


def calibrate() -> float:
    """Wall seconds for a fixed stdlib-only loop that mixes the kinds of
    work k3lattice does: small-integer arithmetic, Fraction elimination,
    tuple and dict churn."""
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s = (s * 31 + i) % 1_000_003
    a = [row[:] for row in _CALIB_MATRIX]
    for k in range(6):
        for i in range(6):
            if i != k:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    d = {}
    for i in range(2000):
        d[(i * 7919) % 104729] = (i, i * i)
    sorted(d.items())
    return time.perf_counter() - t0


class HostClock:
    """Host-speed estimate from calibration runs taken between operations.
    `scale` (recent runs) sets deadlines while the loop runs; `scale_at`
    (runs within CALIB_HALF_WINDOW_S either side of a moment) converts a
    wall-clock duration into reference-host seconds afterwards."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        for _ in range(5):
            self.tick(force=True)

    def tick(self, force: bool = False) -> bool:
        """Run the calibration loop if it is due; True when it ran."""
        now = time.perf_counter()
        if force or now >= self.times[-1] + CALIB_EVERY_S:
            self.samples.append(calibrate())
            self.times.append(now)
            return True
        return False

    @property
    def scale(self) -> float:
        return REF_CALIB_S / statistics.median(self.samples[-CALIB_RECENT:])

    def scale_at(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - CALIB_HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + CALIB_HALF_WINDOW_S)
        return REF_CALIB_S / statistics.median(self.samples[lo:hi] or self.samples)

    def median_scale(self) -> float:
        return REF_CALIB_S / statistics.median(self.samples)


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def resident_mb() -> float:
    """Current resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


# ------------------------------------------------------------- the loop


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a call past its deadline. A BaseException,
    so that the library's `except Exception` blocks cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def timed_call(run, deadline_s: float):
    """(result, wall seconds, error): error is TIMEOUT past the deadline,
    the exception text on any other exception, else None."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        try:
            result = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return None, time.perf_counter() - t0, TIMEOUT
    except Exception as exc:  # any library failure is a failed operation
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0, None


class Records:
    """Per-operation results in flat arrays, so that the harness's own
    memory stays small next to the program's in rss_mb."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.tag, self.key, self.outcome = array("i"), array("i"), array("i")
        self.start, self.wall, self.scale, self.ref = array("d"), array("d"), array("d"), array("d")
        self.rss_mb = array("d")

    def __len__(self) -> int:
        return len(self.tag)

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def add(self, tag: str, key: int, start: float, wall: float, outcome: str, scale: float) -> None:
        self.tag.append(self._id(tag))
        self.key.append(key)
        self.outcome.append(self._id(outcome))
        self.start.append(start)
        self.wall.append(wall)
        self.scale.append(scale)
        self.ref.append(wall * scale)

    def outcomes(self):
        return [self.labels[i] for i in self.outcome]

    def to_reference_time(self, clock: "HostClock") -> None:
        """A timed-out call lasts its deadline in reference-host time, so it
        is converted with the scale that set the deadline; every other
        duration with the calibration runs around it."""
        timeout = self._ids.get(TIMEOUT)
        for i in range(len(self)):
            scale = self.scale[i] if self.outcome[i] == timeout else clock.scale_at(self.start[i])
            self.ref[i] = self.wall[i] * scale


def run_loop(workload, deadline_s: float, clock: HostClock, records: Records, seconds=None, count=None, tracer=None):
    """Closed loop, one client: the next operation starts when the previous
    one and its check are done. Adds to `records` for `seconds` of wall time
    or `count` operations."""
    start, first = time.perf_counter(), len(records)
    while True:
        if count is not None and len(records) - first >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if clock.tick():
            records.rss_mb.append(resident_mb())
        op = workload.next_op()
        scale = clock.scale
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        result, wall, error = timed_call(op.run, deadline_s / scale)
        if tracer is not None:
            tracer.end_op()
        if error is None:
            outcome, _, check_error = timed_call(lambda: op.check(result), CHECK_DEADLINE_S / scale)
            error = check_error and f"wrong: check failed ({check_error})"
        records.add(op.tag, op.key, t0, wall, error or outcome, scale)


def tail_latency(records: Records) -> tuple[float, int, int]:
    """(value, tail inputs, inputs): the mean latency of the slowest
    TAIL_SHARE of the inputs, at least TAIL_MIN_INPUTS of them. Each input's
    latency is the lower median over its repeats in the run, so that host
    noise on single calls does not pick the tail; an input whose median
    call timed out gave no answer and is left out. A mean over the tail
    moves less with the seed than a single order statistic does."""
    timeout = records._ids.get(TIMEOUT)
    repeats: dict[int, list] = {}
    for key, outcome, ref in zip(records.key, records.outcome, records.ref):
        repeats.setdefault(key, []).append((ref, outcome == timeout))
    per_input = []
    for calls in repeats.values():
        calls.sort()
        ref, timed_out = calls[(len(calls) - 1) // 2]
        if not timed_out:
            per_input.append(ref)
    per_input = sorted(per_input) or [max(records.ref)]
    n = len(per_input)
    m = min(max(TAIL_MIN_INPUTS, int(TAIL_SHARE * n)), n)
    return statistics.fmean(per_input[-m:]), m, n


def summarize(records: Records) -> dict:
    from workloads import OK, UNDECIDED

    n = len(records)
    outcomes = records.outcomes()
    failed = [o for o in outcomes if o not in (OK, UNDECIDED, TIMEOUT)]
    timeouts = outcomes.count(TIMEOUT)
    # A call stopped at its deadline gave no answer, so it has no latency:
    # it counts as undecided and its time counts in ops_per_s only.
    answered = [i for i, o in enumerate(outcomes) if o != TIMEOUT] or range(n)
    tail, tail_inputs, inputs = tail_latency(records)
    return {
        "attempted": n,
        "failed": len(failed),
        "undecided": outcomes.count(UNDECIDED) + timeouts,
        "timeouts": timeouts,
        "wrong_examples": sorted(set(failed))[:5],
        "busy_s": sum(records.ref),
        "wall_busy_s": sum(records.wall),
        "ops_per_s": n / sum(records.ref),
        "latency_p50_ms": statistics.median(records.ref[i] for i in answered) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_inputs": [tail_inputs, inputs],
        "wall_latency_p50_ms": statistics.median(records.wall[i] for i in answered) * 1e3,
    }


def per_tag(records: Records) -> dict:
    cells: dict[str, dict] = {}
    for tag, outcome, ref in zip(records.tag, records.outcome, records.ref):
        c = cells.setdefault(records.labels[tag], {"ops": 0, "timeouts": 0, "undecided": 0, "ms": 0.0})
        c["ops"] += 1
        c["timeouts"] += records.labels[outcome] == TIMEOUT
        c["undecided"] += records.labels[outcome] == "undecided"
        c["ms"] += ref * 1e3
    return dict(sorted(cells.items()))


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(start, wall seconds) from spawning a fresh interpreter, through
    `import k3lattice` and building the workload, to its first operation."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
    return t0, elapsed


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:<60} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def measure(args, workload_cls) -> None:
    clock = HostClock()
    workload, records, probes = workload_cls(args.seed), Records(), []
    # Set-up probes are spread through the run, so that they see the same
    # host drift as the operations.
    for _ in range(SETUP_SPAWNS):
        clock.tick(force=True)
        probes.append(setup_probe(args.workload, args.seed))
        run_loop(workload, DEADLINE_S[args.workload], clock, records, seconds=args.seconds / SETUP_SPAWNS)
    clock.tick(force=True)
    records.to_reference_time(clock)
    setup_ref = statistics.median(wall * clock.scale_at(t) for t, wall in probes)
    setup_wall = statistics.median(wall for _, wall in probes)
    s = summarize(records)
    metrics = {
        "setup_s": setup_ref,
        "ops_per_s": s["ops_per_s"],
        "latency_p50_ms": s["latency_p50_ms"],
        "latency_tail_ms": s["latency_tail_ms"],
        "decided_frac": 1 - s["undecided"] / s["attempted"],
        "rss_mb": statistics.median(records.rss_mb),
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "failed_frac": s["failed"] / s["attempted"],
        "undecided_frac": s["undecided"] / s["attempted"],
        "timeouts": s["timeouts"],
        "wrong": s["wrong_examples"],
        "tail_inputs": s["tail_inputs"],
        "deadline_ref_s": DEADLINE_S[args.workload],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_scale": clock.median_scale(),
        "host_scale_min_max": [REF_CALIB_S / max(clock.samples), REF_CALIB_S / min(clock.samples)],
        "wall": {
            "setup_s": setup_wall,
            "ops_per_s": s["attempted"] / s["wall_busy_s"],
            "latency_p50_ms": s["wall_latency_p50_ms"],
        },
        "cells": per_tag(records),
    }
    print("context " + json.dumps(context))
    _emit(s["failed"] == 0, s["attempted"], s["failed"], metrics, dict(END_TO_END))


def measure_traced(args, workload_cls) -> None:
    import tracing

    units = dict(tracing.per_layer_metrics())
    n, deadline = TRACE_OPS[args.workload], DEADLINE_S[args.workload]
    clock = HostClock()
    # The same operations run untraced and traced, alternating in chunks so
    # that both sides see the same host speed; the busy-time ratio is the
    # tracing overhead.
    plain_wl, traced_wl = workload_cls(args.seed), workload_cls(args.seed)
    tracer = tracing.Tracer(DeadlineExceeded)
    plain, traced = Records(), Records()
    for chunk in range(TRACE_CHUNKS):
        size = n * (chunk + 1) // TRACE_CHUNKS - n * chunk // TRACE_CHUNKS
        run_loop(plain_wl, deadline, clock, plain, count=size)
        tracer.install()
        try:
            run_loop(traced_wl, deadline, clock, traced, count=size, tracer=tracer)
        finally:
            tracer.uninstall()
    clock.tick(force=True)
    plain.to_reference_time(clock)
    traced.to_reference_time(clock)
    found = tracer.metrics()
    found.update(tracing.import_times(SRC))
    scale = clock.median_scale()
    for name, unit in units.items():
        if unit == "ms" and name in found:
            found[name] *= scale
    found["host.calib_per_s"] = 1 / statistics.median(clock.samples)
    plain_s, traced_s = summarize(plain), summarize(traced)
    found["trace.overhead_pct"] = 100.0 * (traced_s["busy_s"] / plain_s["busy_s"] - 1)
    spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write_spans(spans)
    print("context " + json.dumps({
        "workload": args.workload, "seed": args.seed, "ops_per_phase": n, "spans": len(tracer.fid),
        "spans_file": os.path.relpath(spans, ROOT), "host_scale": scale,
        "timeouts": [plain_s["timeouts"], traced_s["timeouts"]],
        "wrong": plain_s["wrong_examples"] + traced_s["wrong_examples"],
    }))
    metrics = {name: float(found.get(name, 0)) for name in units}
    failed = plain_s["failed"] + traced_s["failed"]
    _emit(failed == 0, plain_s["attempted"] + traced_s["attempted"], failed, metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "k3lattice", "__init__.py")):
        print(f"error: no k3lattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    os.environ.pop("K3LATTICE_CONFIG", None)  # the CLI reads its settings from here
    import k3lattice
    from workloads import WORKLOADS

    if not os.path.abspath(k3lattice.__file__).startswith(SRC + os.sep):
        print(f"error: k3lattice imported from {k3lattice.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(args.seed)
        print("ready", flush=True)
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        measure_traced(args, workload_cls)
    else:
        measure(args, workload_cls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
