"""Benchmark of the `nmfr` commands, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is one of the workloads in
workloads.py, or `all` to run every workload in turn, each in a child
interpreter of its own so that its peak RSS is its own.  Inputs are generated
from the seed into a scratch directory under `.perfbench_out/`, each
operation calls `nmfrigid.cli.main([...])` with stdout captured, and every
output is checked.  Human-readable figures go to stderr; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones: work completed per
second of operation time, normalized to a fixed machine speed (see
REF_NOMINAL_S), set-up time of a fresh interpreter, normalized likewise (see
SETUP_REF_CODE), and peak RSS.
With --trace 1 each operation of the workload's fixed batch runs twice,
untraced and then traced from outside (see tracing.py); the metrics are
the per-layer ones and the spans are written to
`.perfbench_out/trace-<workload>-seed<N>.json`.

One process, one thread: the only child processes are the short-lived
interpreters that time set-up (and, with `all`, one run per workload), each
waited for.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 15
HARD_CAP_S = 120.0  # no new round starts after this, whatever --seconds says

# Machine-speed reference.  The shared two-core machine this benchmark was
# built on changes speed by up to 40 % from minute to minute and by 20 %
# from one second to the next, and CPU time drifts exactly as wall time
# does.  While operations run, a SIGALRM every PROBE_INTERVAL_S times a fixed
# exact elimination (a 13 x 16 rational matrix, the shape of a generator
# matrix) in the benchmark's own code, which no change to nmfrigid can
# move; operation time is scaled by how much slower than nominal that
# reference ran.  REF_NOMINAL_S is the reference's time on a quiet run of
# that machine under Python 3.11.
REF_NOMINAL_S = 6.3e-3
PROBE_INTERVAL_S = 0.2

# Loader that a fresh interpreter uses to parse each kind of input file.
LOADERS = {
    "rigid": "load_factorization",
    "nonrigid": "load_factorization",
    "lift": "load_factorization",
    "cp": "load_symmetric_factor",
    "realize": "load_pattern",
}
SETUP_CODE = """\
import sys
from nmfrigid import cli, formats
for arg in sys.argv[1:]:
    loader, _, path = arg.partition(":")
    with open(path, encoding="utf-8") as fh:
        getattr(formats, loader)(fh.read())
"""
# Set-up's machine-speed reference: a fresh interpreter doing the same kind
# of work as SETUP_CODE (loading the stdlib modules nmfrigid uses, creating
# classes, exact arithmetic) in fixed code that no change to nmfrigid can
# move.  Each set-up sample is followed by one of these, and set-up time is
# reported as the ratio of their medians times SETUP_REF_NOMINAL_S, the
# reference's time on a quiet run of the machine the benchmark was built on.
# A reference timed inside this process misses what start-up costs (process
# creation, reading and unmarshalling modules): on the two-core machine the
# benchmark was built on it left ten-run set-up spreads of up to 0.33, this
# one 0.02 to 0.09.
SETUP_REF_CODE = """\
import argparse, dataclasses, enum, fractions, functools, itertools, json, random, re, typing
from fractions import Fraction
for i in range(40):
    dataclasses.make_dataclass(f"C{i}", [("a", int), ("b", Fraction)], frozen=bool(i % 2))
rng = random.Random(7)
m = [[Fraction(rng.randint(0, 999), rng.choice((1, 2, 3))) for _ in range(16)] for _ in range(13)]
for _ in range(4):
    rows, rank = [r[:] for r in m], 0
    for c in range(16):
        p = next((i for i in range(rank, 13) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, 13):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
"""
SETUP_REF_NOMINAL_S = 0.11


def bootstrap() -> bool:
    """Put the checkout's sources first on sys.path; False when they are missing."""
    if not (SRC / "nmfrigid" / "__init__.py").is_file():
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


@dataclass
class Record:
    kind: str
    label: str
    stratum: str
    code: int
    seconds: float
    work_seconds: float
    outcome: object  # workloads.Outcome
    stdout: str


class SpeedProbe:
    """Machine speed, sampled while operations run.

    Used as a context manager around a run: every PROBE_INTERVAL_S of wall
    time a SIGALRM handler runs the reference elimination once if an
    operation is in progress, so a 16 s lift is sampled throughout rather
    than at its ends.  `execute` subtracts the handler's time from the
    operation it interrupted.
    """

    def __init__(self) -> None:
        self.active = False
        self.calls = 0
        self.ref_s = 0.0  # reference time measured
        self.stolen_s = 0.0  # wall time spent in the handler

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            t0 = time.perf_counter()
            self.ref_s += reference_seconds(1)
            self.calls += 1
            self.stolen_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Reference time per call over its nominal value; > 1 is slower."""
        if not self.calls:  # a run shorter than one interval
            self.ref_s, self.calls = reference_seconds(5), 5
        return self.ref_s / self.calls / REF_NOMINAL_S


class _Clock:
    """Elapsed wall time, less what the speed probe's handler took meanwhile."""

    def __init__(self, probe: SpeedProbe | None) -> None:
        self.probe = probe
        self.seconds = 0.0

    def _stolen(self) -> float:
        return self.probe.stolen_s if self.probe else 0.0

    def __enter__(self) -> "_Clock":
        self._t0, self._s0 = time.perf_counter(), self._stolen()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0 - (self._stolen() - self._s0)


def execute(op, tracer=None, probe: SpeedProbe | None = None) -> Record:
    """Run one `nmfr` command in-process; only the command itself is timed.

    For an operation with `op.inner` set, the time spent in that function
    of `nmfrigid.cli` is also timed and is what its work is counted
    against (`Record.work_seconds`).
    """
    from nmfrigid import cli
    from workloads import Outcome

    op.prepare()
    out, err = io.StringIO(), io.StringIO()
    crash = None
    inner = _Clock(probe) if op.inner and tracer is None else None
    if inner is not None:
        original = getattr(cli, op.inner)

        def timed(*args, **kwargs):
            with inner:
                return original(*args, **kwargs)

        setattr(cli, op.inner, timed)
    call = (lambda: cli.main(op.argv)) if tracer is None else (
        lambda: tracer.operation(lambda: cli.main(op.argv))
    )
    clock = _Clock(probe)
    try:
        with redirect_stdout(out), redirect_stderr(err), clock:
            if probe:
                probe.active = True
            try:
                code = call()
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code, crash = -1, traceback.format_exc()
            finally:
                if probe:
                    probe.active = False
    finally:
        if inner is not None:
            setattr(cli, op.inner, original)
    if crash is not None:
        outcome = Outcome(False, 0.0, f"crashed: {crash.strip().splitlines()[-1]}")
    else:
        try:
            outcome = op.check(code, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            outcome = Outcome(False, 0.0, f"unreadable output: {exc!r}")
    work_seconds = clock.seconds if inner is None else inner.seconds
    return Record(op.kind, op.label, op.stratum, code, clock.seconds, work_seconds, outcome, out.getvalue())


@functools.cache
def _reference_matrix() -> list[list[Fraction]]:
    rng = random.Random(7)
    return [[Fraction(rng.randint(0, 999), rng.choice((1, 1, 2, 3))) for _ in range(16)] for _ in range(13)]


def reference_seconds(calls: int) -> float:
    """Wall time of `calls` runs of the fixed reference elimination."""
    from inputs import exact_rank

    matrix = _reference_matrix()
    t0 = time.perf_counter()
    for _ in range(calls):
        exact_rank(matrix)
    return time.perf_counter() - t0


def measure_setup(ops) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI and parsing
    the inputs: (normalized to nominal machine speed, raw).

    The interpreters run with -S: the site hook of the installed Python
    (which imports unrelated packages from .pth files) is not nmfrigid's
    set-up, and nmfrigid needs nothing from site-packages.
    """
    args = [f"{LOADERS[op.kind]}:{path}" for op in ops if op.kind in LOADERS for path in op.files]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def seconds(code: str, *argv: str) -> float:
        # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which would quantize the measurement.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        times.append(seconds(SETUP_CODE, *args))
        refs.append(seconds(SETUP_REF_CODE))
    raw = statistics.median(times)
    return raw / statistics.median(refs) * SETUP_REF_NOMINAL_S, raw


def balanced_rate(records: list[Record]) -> float:
    """Work per second with every input class weighted alike.

    The mean over strata of seconds per unit of work, inverted.  A plain
    total work / total time would follow the mix of a run: realize
    patterns cost 6 to 12 ms per sample and a search draws anywhere from 1
    to 200 samples, so which patterns a seed made slow would move it.
    """
    per: dict[str, list[float]] = {}
    for rec in records:
        acc = per.setdefault(rec.stratum, [0.0, 0.0])
        acc[0] += rec.work_seconds
        acc[1] += rec.outcome.work
    costs = [secs / work for secs, work in per.values() if work > 0]
    return len(costs) / sum(costs) if costs else 0.0


def digest(records: list[Record]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.code}\n{rec.stdout}\0".encode())
    return h.hexdigest()[:16]


def _percentile(values: list[float], q: float) -> float | None:
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    n = len(values)
    if n - math.ceil(q * n) < 10:
        return None
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[round(q * 10) - 1]


def report_named(workload: str, records: list[Record], log) -> None:
    """The figures a user of each command would quote, with their sample counts."""

    def timing(name: str, values: list[float], scale: float, unit: str) -> None:
        for q, suffix in ((0.5, "p50"), (0.9, "p90")):
            value = _percentile(values, q)
            label = f"{name}_{suffix}_{unit}"
            if value is None:
                log(f"  {label:<22} not reported (n={len(values)}, needs 10 beyond)")
            else:
                log(f"  {label:<22} {value * scale:.4f} {unit} (n={len(values)})")

    def rate(name: str, recs: list[Record], unit: str) -> None:
        busy = sum(r.seconds for r in recs)
        log(f"  {name:<22} {len(recs) / busy if busy else 0.0:.4f} {unit} (n={len(recs)})")

    by_kind: dict[str, list[Record]] = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec)
    if workload == "certify-rigid":
        timing("check_rigid", [r.seconds for r in records], 1e3, "ms")
        rate("check_per_s", records, "1/s")
    elif workload == "certify-nonrigid":
        timing("check_nonrigid", [r.seconds for r in records], 1e3, "ms")
        timing("check_nonrigid_pair", [r.seconds for r in by_kind.get("nonrigid", [])], 1e3, "ms")
        timing("check_cp", [r.seconds for r in by_kind.get("cp", [])], 1e3, "ms")
        rate("check_per_s", records, "1/s")
    elif workload == "realize":
        timing("realize", [r.seconds for r in records], 1.0, "s")
        rate("realize_per_s", records, "1/s")
        samples = sum(r.outcome.samples for r in records)
        log(f"  samples drawn          {samples} ({samples / max(len(records), 1):.1f} per search)")
    elif workload == "lift":
        lifted = [r.seconds for r in records if r.code == 0]
        timing("lift", lifted, 1.0, "s")
        if lifted:
            log(f"  lift_mean_s            {statistics.fmean(lifted):.4f} s (n={len(lifted)})")
    elif workload == "enumerate":
        sweeps = len(records) // 7
        busy = sum(r.seconds for r in records[: sweeps * 7])
        log(f"  enumerate_s            {busy / sweeps if sweeps else 0.0:.4f} s per seven-shape sweep (n={sweeps})")
    nonzero = sum(1 for r in records if r.code != 0 or not r.outcome.ok)
    log(f"  failed_frac            {nonzero / len(records):.4f} ({nonzero} of {len(records)} exited nonzero or failed a check)")


def run_workload(name: str, seed: int, seconds: float, trace: bool, log) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work_dir = OUT / f"work-{os.getpid()}-{name}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        rounds = workload.rounds(seed, work_dir)
        batch = [next(rounds) for _ in range(workload.batch)]
        batch_ops = [op for rnd in batch for op in rnd]
        for op in batch_ops:
            op.prepare()
        if trace:
            return _traced(workload, seed, batch_ops, log)
        setup_s = measure_setup(batch_ops)  # (normalized, raw)
        return _timed(workload, seed, seconds, batch, rounds, setup_s, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _failures(records: list[Record], log) -> int:
    failed = [r for r in records if not r.outcome.ok]
    for rec in failed[:5]:
        log(f"  FAILED {rec.kind} {rec.label}: {rec.outcome.detail}")
    return len(failed)


def _timed(workload, seed, seconds, batch, rounds, setup_s, log) -> dict:
    records: list[Record] = []
    round_s: list[float] = []
    start = time.perf_counter()

    with SpeedProbe() as probe:

        def run_round(ops) -> None:
            t0 = time.perf_counter()
            records.extend(execute(op, probe=probe) for op in ops)
            round_s.append(time.perf_counter() - t0)

        for ops in batch:
            run_round(ops)
        batch_records = list(records)
        for ops in rounds:
            elapsed = time.perf_counter() - start
            # Start a round only if it is expected to end nearer the window's
            # end than stopping now would.
            if elapsed + statistics.median(round_s) / 2 > seconds or elapsed > HARD_CAP_S:
                break
            run_round(ops)

    busy = sum(r.seconds for r in records)
    work = sum(r.outcome.work for r in records)
    slowdown = probe.slowdown()
    rate = balanced_rate(records) * slowdown
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = _failures(records, log)
    log(
        f"workload {workload.name} seed {seed}: {len(records)} operations, "
        f"{busy:.2f} s of operation time in {time.perf_counter() - start:.2f} s"
    )
    log(f"  norm_work_per_s        {rate:.4f} 1/s ({work:g} {workload.unit})")
    log(f"  work_per_s             {work / busy:.4f} 1/s (wall clock, unbalanced; machine {slowdown:.3f}x nominal time)")
    log(f"  setup_s                {setup_s[0]:.4f} s (median of {SETUP_REPEATS} against the reference interpreter; raw {setup_s[1]:.4f} s)")
    log(f"  peak_rss_mb            {rss_mb:.1f} MB")
    report_named(workload.name, records, log)
    log(f"  stdout_digest          {digest(batch_records)} (fixed batch of {len(batch_records)} operations)")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "norm_work_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s[0], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def _traced(workload, seed, ops, log) -> dict:
    from tracing import PER_LAYER, Tracer, hot_spots, layer_metrics

    # Each operation runs untraced and then traced, back to back, so that
    # the machine's drifting speed touches both sides of the overhead alike.
    untraced, traced = [], []
    tracer = Tracer()
    for op in ops:
        untraced.append(execute(op))
        tracer.install()
        try:
            traced.append(execute(op, tracer))
        finally:
            tracer.uninstall()
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    failed = _failures(untraced, log) + _failures(traced, log)
    same = digest(untraced) == digest(traced)
    if not same:
        log("  FAILED traced outputs differ from untraced outputs")
    metrics = layer_metrics(
        tracer,
        samples=sum(r.outcome.samples for r in traced),
        accepted=sum(r.outcome.accepted for r in traced),
        traced_s=traced_s,
        untraced_s=untraced_s,
    )
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    log(f"workload {workload.name} seed {seed}: traced batch of {len(ops)} operations")
    log(f"  untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, overhead {traced_s - untraced_s:+.3f} s")
    log(f"  stdout_digest          {digest(traced)}")
    log(f"  spans                  {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for name, secs in hot_spots(tracer):
        log(f"  self {100 * secs / traced_s:5.1f} %  {name}")
    return {
        "correct": failed == 0 and same,
        "attempted": 2 * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"error: no nmfrigid sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; use all or {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), log)
        print(json.dumps(result), flush=True)
        return 0
    status = 0
    for name in names:
        # stderr is inherited; the child's last stdout line is its result.
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"error: workload {name} exited {proc.returncode} without a result")
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
