"""The g3lr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload report-ladder --seed 1 \
        --seconds 20 --trace 0

Runs from the root of a source tree and imports g3lr from `src/`.  A
single process and thread runs a closed loop: the next operation starts
when the previous one has finished.  Every operation's output is checked
against `perfbench/reference.json`.  With `--trace 0` the run reports
the end-to-end metrics; with `--trace 1` it replays each operation
through the layers' public functions and reports the per-layer metrics,
writing its spans to `perfbench/out/`.  The last line of standard output
is one JSON object; the lines above it list every metric with its unit.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
# one reference-kernel sample (about 5 ms) every KERNEL_EVERY_S; an op
# is compared with at least KERNEL_NEAR samples around it
KERNEL_EVERY_S = 0.1
KERNEL_NEAR = 5

WORKLOAD_NAMES = ("report-ladder", "analyse-validated", "reject-seeded",
                  "rho-trace")


def reference_kernel():
    """Fixed stdlib-only work, no g3lr code: exact Fraction arithmetic,
    about 5 ms."""
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, i + 3)
    return acc


class HostClock:
    """Reference-kernel samples taken by an interval timer every
    KERNEL_EVERY_S while the run measures, in the middle of an op too:
    the signal handler runs between two bytecodes of whatever the op is
    doing.  Other tenants of the host slow the kernel and the op alike,
    so an op's time over the mean kernel time during it cancels the
    host's drift.  The mean, not the median: contention comes in bursts,
    and the op pays for every burst.  `spent` is the time the samples
    took; op times exclude it."""

    def __init__(self):
        self.starts, self.secs, self.spent = [], [], 0.0
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t
        self.starts.append(t)
        self.secs.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self):
        for _ in range(KERNEL_NEAR):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(KERNEL_NEAR):
            self.sample()

    def kernel_s(self, start, end):
        """Mean kernel time over the samples taken in [start, end],
        widened to the KERNEL_NEAR nearest when fewer fell inside."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        while j - i < KERNEL_NEAR:
            i, j = max(0, i - 1), min(len(self.starts), j + 1)
        return statistics.fmean(self.secs[i:j])


def tail(values):
    """Median, the highest of p90/p99/p99.9 that has at least ten
    samples beyond it (None if none has), and the sample count."""
    n = len(values)
    s = sorted(values)
    high = None
    for p in (90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            high = (p, s[min(n - 1, int(n * p / 100))])
    return statistics.median(s), high, n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """How the ops of one workload run and what they are checked
    against."""

    def __init__(self, name, reference):
        import oracle
        self.name = name
        if name == "analyse-validated":
            self.run, self.outcome = oracle.analyse, oracle.analyse_outcome
            self.reference = reference["analyse"]
        else:
            self.run, self.outcome = oracle.cli_report, oracle.cli_outcome
            self.reference = reference["cli"]

    def check(self, op_id, payload, clock=None):
        """Run one op; returns (start, end, seconds, ok).  The seconds
        exclude the samples `clock` took meanwhile.  An exception or an
        outcome that differs from the reference is a failure."""
        spent = clock.spent if clock else 0.0
        start = time.perf_counter()
        try:
            result = self.run(payload)
        except Exception:                       # noqa: BLE001
            traceback.print_exc()
            result = None
        end = time.perf_counter()
        dt = end - start - ((clock.spent - spent) if clock else 0.0)
        ok = (result is not None
              and self.outcome(result) == self.reference.get(op_id))
        return start, end, dt, ok


def closed_loop(ops, seconds, step):
    """Passes over `ops` in order until `seconds` have passed.  The
    first pass always completes; after it, the loop stops before an op
    whose median so far would end past the deadline.  `step(op_id,
    payload)` runs one op and returns its seconds.  Returns the samples
    by op id and the number of full passes."""
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for op_id, payload in ops:
            if passes and (time.perf_counter()
                           + statistics.median(samples[op_id]) > deadline):
                return samples, passes
            samples[op_id].append(step(op_id, payload))
        passes += 1


def measure(wl, ops, seconds):
    """The untraced run.  Returns the op samples, the number of full
    passes, the kernel samples, wall_s, wall_rel and the
    attempted/failed counts."""
    timeline = []                    # (op id, start, end, seconds)
    stats = {"attempted": 0, "failed": 0}

    def step(op_id, payload):
        start, end, dt, ok = wl.check(op_id, payload, clock)
        timeline.append((op_id, start, end, dt))
        stats["attempted"] += 1
        stats["failed"] += not ok
        return dt

    with HostClock() as clock:
        samples, passes = closed_loop(ops, seconds, step)
    rel = defaultdict(list)
    for op_id, start, end, dt in timeline:
        rel[op_id].append(dt / clock.kernel_s(start, end))
    wall = sum(statistics.median(samples[op_id]) for op_id, _ in ops)
    wall_rel = sum(statistics.median(rel[op_id]) for op_id, _ in ops)
    return samples, passes, clock.secs, wall, wall_rel, stats


def traced(wl, ops, seconds, tracer):
    """The traced run: each op once untraced (checked against the
    reference), then replayed with spans."""
    import tracing
    per_op = defaultdict(list)       # op id -> [{span name: self time}]
    untraced = defaultdict(list)
    counts = {}
    stats = {"attempted": 0, "failed": 0}

    def step(op_id, payload):
        _, _, dt, ok = wl.check(op_id, payload)
        stats["attempted"] += 1
        stats["failed"] += not ok
        untraced[op_id].append(dt)
        op_counts = defaultdict(int)
        first = len(tracer.spans)
        tracer.op = op_id
        t = time.perf_counter()
        if wl.name == "analyse-validated":
            tracing.replay_analyse(tracer, payload, op_counts)
        else:
            tracing.replay_report(tracer, payload, op_counts)
        replay_s = time.perf_counter() - t
        per_op[op_id].append(tracer.self_times(first))
        counts.setdefault(op_id, op_counts)
        return dt + replay_s

    closed_loop(ops, seconds, step)
    return per_op, untraced, counts, stats


def layer_metrics(ops, per_op, untraced, counts):
    """Per-layer metrics of one pass: for each op the median over its
    replays, summed over the pass."""
    import tracing

    def pass_sum(fn):
        return sum(statistics.median(fn(t) for t in per_op[op_id])
                   for op_id, _ in ops)

    def total(t, names):
        return sum(t.get(n, 0.0) for n in names)

    out = {}
    for name in tracing.TIMED:
        out[name + "_s"] = (pass_sum(lambda t: t.get(name, 0.0)), "s")
    out["decompose.unattributed_s"] = (pass_sum(
        lambda t: t.get("decompose.total", 0.0)
        - total(t, tracing.DECOMPOSE_STAGES)), "s")
    work = defaultdict(int)
    for op_id, _ in ops:
        for key, value in counts[op_id].items():
            work[key] += value
    for group, _, _ in tracing.AXIOM_GROUPS:
        key = "axioms.%s.tuples" % group
        out[key] = (work[key], "count")
        secs = out["axioms.%s_s" % group][0]
        out["axioms.%s.us_per_tuple" % group] = (
            secs / work[key] * 1e6 if work[key] else 0.0, "us/tuple")
    for key in ("axioms.violations", "connections.support_elems",
                "decompose.generators_closed"):
        out[key] = (work[key], "count")
    out["instio.bytes_read"] = (work["instio.bytes_read"], "bytes")
    mirrored = pass_sum(lambda t: sum(
        v for k, v in t.items()
        if k not in tracing.DECOMPOSE_STAGES and k != "decompose.stages"))
    base = sum(statistics.median(untraced[op_id]) for op_id, _ in ops)
    out["trace.overhead_frac"] = (mirrored / base - 1.0, "ratio")
    return out


def setup(workload, seed, rundir):
    """SETUP_REPEATS fresh set-ups; returns the last one's ops, its
    directory and the median set-up time."""
    import workloads
    times = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(workdir)
        workdir = os.path.join(rundir, "setup%d" % i)
        t = time.perf_counter()
        os.makedirs(workdir)
        ops = workloads.generate(workload, seed, workdir)
        times.append(time.perf_counter() - t)
    return ops, workdir, statistics.median(times)


def main(argv=None):
    p = argparse.ArgumentParser(description="g3lr benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "g3lr", "__init__.py")):
        print("error: no g3lr sources under %s; run from the root of a "
              "g3lr source tree" % SRC, file=sys.stderr)
        return 2

    # import_s: g3lr and the benchmark's modules, which import all of it
    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import oracle
    import tracing
    import workloads                             # noqa: F401
    import_s = time.perf_counter() - t

    wl = Workload(args.workload, oracle.load_reference())
    rundir = os.path.join(OUT, "run-%d" % os.getpid())
    os.makedirs(rundir)
    cwd = os.getcwd()
    try:
        ops, workdir, setup_s = setup(args.workload, args.seed, rundir)
        setup_s += import_s
        # the CLI ops name their input files relative to the inputs' dir
        os.chdir(workdir)
        lines = ["workload %s, seed %d, %d op(s) per pass"
                 % (args.workload, args.seed, len(ops)),
                 "set-up: import %.6g s + median set-up %.6g s"
                 % (import_s, setup_s - import_s)]
        if args.trace:
            tracer = tracing.Tracer()
            per_op, untraced, counts, stats = traced(
                wl, ops, args.seconds, tracer)
            metrics = layer_metrics(ops, per_op, untraced, counts)
            trace_path = os.path.join(
                OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
            tracer.write(trace_path)
            lines.append("spans: %d written to %s" % (
                len(tracer.spans), os.path.relpath(trace_path, cwd)))
        else:
            samples, passes, kernel, wall, wall_rel, stats = measure(
                wl, ops, args.seconds)
            metrics = {
                "wall_rel": (wall_rel, "ratio"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            kmed, _, kn = tail(kernel)
            lines.append("wall_s %r s; reference kernel median %.6g s, "
                         "n=%d" % (wall, kmed, kn))
            op_times = [x for v in samples.values() for x in v]
            med, high, n = tail(op_times)
            lines.append("op latency: median %.6g s, %s, n=%d"
                         % (med, "p%g %.6g s" % high if high
                            else "no percentile with 10 samples beyond it",
                            n))
            lines.append("full passes: %d" % passes)
    finally:
        os.chdir(cwd)
        shutil.rmtree(rundir, ignore_errors=True)

    fail_frac = stats["failed"] / stats["attempted"]
    lines.append("fail_frac %.6g ratio (%d of %d ops)"
                 % (fail_frac, stats["failed"], stats["attempted"]))
    for name, (value, unit) in metrics.items():
        lines.append("metric %s = %r %s" % (name, value, unit))
    print("\n".join(lines))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
