"""Benchmark of the photongas library: one closed-loop client, one thread.

    python3 perfbench/run.py --workload {hot,series,cold,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.

--trace 0 runs ops of the workload back to back for S seconds (whole blocks,
see workloads.py) and times each op in thread CPU time, rescaled to a nominal
host speed (see CAL_NOMINAL_NS).  It then checks the outputs outside the timed
region: a cheap check on every op, a byte-for-byte rerun of one op, and an
mpmath reference for a seeded sample of ops.  It then starts fresh
interpreters to time set-up.  The last line of stdout is the result: the
end-to-end metrics.

--trace 1 runs a fixed number of ops, set by the seed and S only, twice:
untraced, then with a span around every call into a layer (tracing.py).  The
last line holds the per-layer metrics and the tracing overhead.  The work
counts in it repeat exactly for the same seed and S.

The lines before the last one are a summary for people: the failure
breakdown by type, the tail percentile used and its sample count, the
largest relative error against the reference and, on `cold`, the failures
of the untimed domain probe of the bands it leaves out.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import reference
import tracing
import workloads
from workloads import error_type

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REF_LIMIT = 1e-7            # the limit `photongas validate` applies
GROUPS = 5                  # ops_per_s is the median over this many equal slices of blocks
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
SETUP_CHILDREN = 7
CHECK_BLOCKS = {"hot": 4, "series": 4, "cold": 4, "cli": 6}
CHECK_OPS = {"hot": 40, "series": 40, "cold": 40, "cli": 24}
TRACE_BLOCKS_PER_S = {"hot": 4.0, "series": 4.0, "cold": 40.0, "cli": 3.0}
# Timed mode times each op in thread CPU time: on a shared host the vCPU is
# taken away for milliseconds at a time, and that wait is not the library's
# cost.  The speed of the CPU it does get also swings by up to 2x within
# seconds, for every process alike.  So op times are rescaled to a host on
# which calibration_ns() takes CAL_NOMINAL_NS.  It is run after every
# CAL_EVERY_NS of op time, and each segment between two runs is scaled by the
# median of the six runs around it, which follows drift over tens of
# milliseconds without taking the noise of a single short run.
CAL_NOMINAL_NS = 450_000
CAL_EVERY_NS = 10_000_000


def load_library():
    """Import photongas from the checkout's src; None if it is not there."""
    if not (SRC / "photongas" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import photongas
    from photongas import cli, core, errors, oracle, specfun, units
    if Path(photongas.__file__).resolve().parent != (SRC / "photongas").resolve():
        return None
    library_errors = tuple(v for v in vars(errors).values()
                           if isinstance(v, type) and issubclass(v, Exception))
    return types.SimpleNamespace(cli=cli, core=core, oracle=oracle, specfun=specfun,
                                 units=units, errors=library_errors)


def first_blocks(workload, seed, count):
    stream = workload.stream(seed)
    return [next(stream) for _ in range(count)]


class Outcomes:
    """Per-op results of one pass, and every problem the checks found."""

    def __init__(self, workload, lib):
        self.workload, self.lib = workload, lib
        self.ops, self.ns, self.fail, self.kept = [], [], [], {}
        self.problems: list[str] = []
        self.max_rel_err = 0.0
        self.checked = 0

    def record(self, op, ns, output, exc, keep):
        index = len(self.ops)
        self.ops.append(op)
        self.ns.append(ns)
        reason = None
        if exc is not None:
            reason = error_type(exc)
            if not isinstance(exc, self.lib.errors) and reason not in ("exit2", "exit3"):
                self.problems.append(f"op {index} {op!r}: unexpected {exc!r}")
        else:
            bad = self.workload.check(op, output)
            if bad is not None:
                reason = "check"
                self.problems.append(f"op {index} {op!r}: {bad}")
        self.fail.append(reason)
        if keep:
            self.kept[index] = (output, exc)

    def check_reference(self, seed, limit_index):
        """Compare a seeded sample of the first ``limit_index`` ops with mpmath."""
        rng = random.Random(f"photongas-bench:check:{self.workload.name}:{seed}")
        candidates = [i for i in range(limit_index) if self.kept[i][0] is not None]
        if self.workload.kind == "cli":
            candidates = [i for i in candidates if self.ops[i][0] in ("point", "sweep")]
        count = min(len(candidates), CHECK_OPS[self.workload.name])
        for index in sorted(rng.sample(candidates, count)):
            output = self.kept[index][0]
            for x, temperature, values in self.workload.reference_pairs(self.ops[index], output, rng):
                ref = reference.si_values(x, temperature)
                self.checked += 1
                for field, value in values.items():
                    err = reference.rel_err(value, ref[field])
                    self.max_rel_err = max(self.max_rel_err, err)
                    if not err <= REF_LIMIT:
                        self.fail[index] = "reference"
                        self.problems.append(
                            f"op {index} {self.ops[index]!r}: {field} off by {err:.3e} at x={x!r}")

    def check_rerun(self, seed):
        """Run one kept op again, untimed; its output must repeat byte for byte."""
        rng = random.Random(f"photongas-bench:rerun:{self.workload.name}:{seed}")
        index = rng.randrange(self.workload.block_size)
        output, exc = self.kept[index]
        _, again, again_exc = self.workload.run(self.ops[index], self.lib, time.perf_counter_ns)
        if describe(output, exc, self.workload) != describe(again, again_exc, self.workload):
            self.problems.append(f"op {index} {self.ops[index]!r}: rerun output differs")

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(reason is not None for reason in self.fail)

    def by_type(self):
        return dict(sorted(Counter(r for r in self.fail if r is not None).items()))


def describe(output, exc, workload):
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    return workload.fingerprint(output)


def domain_probe(workload, lib, seed):
    """Failures by type of one untimed block from each band `cold` leaves out.

    Only `cold` runs it.  Its ops are not counted as attempted: they show
    where the library fails today (workloads.DOMAIN_PROBES), not what a
    timed op costs.  Returns ({band: failures by type}, failed, problems).
    """
    by_band, failed, problems = {}, 0, []
    if workload.name == "cold":
        for band in workloads.DOMAIN_PROBES:
            probe = Outcomes(band, lib)
            run_pass(band, lib, first_blocks(band, seed, 1)[0], probe, 0)
            by_band[f"{band.lo:g}-{band.hi:g}"] = probe.by_type()
            failed += probe.failed
            problems += probe.problems
    return by_band, failed, problems


def run_pass(workload, lib, ops, outcomes, keep_below, tracer=None):
    clock = time.perf_counter_ns
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = outcomes.attempted
        ns, output, exc = workload.run(op, lib, clock)
        outcomes.record(op, ns, output, exc, outcomes.attempted < keep_below)
    return time.perf_counter() - start


def quiet_gc():
    """Collect, then hide every live object from the cyclic collector.

    mpmath and the run's own records would otherwise make each full
    collection inside an op scan thousands of objects that a program using
    only photongas does not have.  Freezing them cut the spread of the `hot`
    p99 between seeds from about 9% to 3%.
    """
    gc.collect()
    gc.freeze()


def calibration_ns(clock=time.thread_time_ns):
    """Time of fixed float and list work that never calls the library."""
    t0 = clock()
    total = 0.0
    for i in range(2500):
        total += math.exp(-i * 1e-4) * 1.0001
    values = [math.sin(i * 0.01) for i in range(1500)]
    values.sort()
    return clock() - t0


def tail(ns_sorted):
    """Highest ladder percentile with at least 10 samples beyond it.

    Returns the percentile, the number of samples beyond it and its value.
    """
    n = len(ns_sorted)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND),
               TAIL_LADDER[-1])
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank
    return pct, n - rank, ns_sorted[rank - 1]


SETUP_CHILD = r"""
import resource, sys, time
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "evaluate":
    from photongas import core, units
    try:
        core.evaluate(units.GasParameters(float(sys.argv[3]), float(sys.argv[4])))
    except ValueError:
        pass  # the op's own outcome; set-up is over either way
else:
    from photongas import cli
    cli.main(sys.argv[3:])
done = time.monotonic()
try:  # VmHWM: ru_maxrss would carry over the parent's size at fork
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("SETUP", repr(done), peak_kb)
"""


def measure_setup(workload, seed):
    """Median wall time and peak RSS of fresh interpreters, child i running op i.

    The time runs from just before the child is spawned to the end of its op,
    read on the system-wide monotonic clock in both processes.
    """
    blocks = first_blocks(workload, seed, math.ceil(SETUP_CHILDREN / workload.block_size))
    ops = [op for block in blocks for op in block][:SETUP_CHILDREN]
    times, raw, rss_kb = [], [], []
    cal = calibration_ns(time.perf_counter_ns)
    for op in ops:
        extra = [repr(v) for v in op] if workload.kind == "evaluate" else list(op)
        cmd = [sys.executable, "-E", "-s", "-c", SETUP_CHILD, str(SRC), workload.kind] + extra
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0 or not last[0].startswith("SETUP "):
            raise RuntimeError(f"set-up child failed for {op!r}: {proc.stderr.strip()}")
        _, done, rss = last[0].split()
        cal_after = calibration_ns(time.perf_counter_ns)
        raw.append(float(done) - start)
        times.append(raw[-1] * 2 * CAL_NOMINAL_NS / (cal + cal_after))
        rss_kb.append(int(rss))
        cal = cal_after
    return statistics.median(times), statistics.median(raw), statistics.median(rss_kb) / 1024.0


def timed(workload, lib, seed, seconds):
    outcomes = Outcomes(workload, lib)
    stream = workload.stream(seed)
    keep_below = CHECK_BLOCKS[workload.name] * workload.block_size
    min_blocks = max(GROUPS, CHECK_BLOCKS[workload.name])
    clock = time.thread_time_ns
    cals = [calibration_ns()]  # cals[k] is taken just before segment k
    segment_ends, since = [], 0
    quiet_gc()
    deadline = time.perf_counter() + seconds
    blocks = 0
    while blocks < min_blocks or time.perf_counter() < deadline:
        for op in next(stream):
            ns, output, exc = workload.run(op, lib, clock)
            outcomes.record(op, ns, output, exc, outcomes.attempted < keep_below)
            since += ns
            if since >= CAL_EVERY_NS:
                segment_ends.append(outcomes.attempted)
                cals.append(calibration_ns())
                since = 0
        blocks += 1
    if since:
        segment_ends.append(outcomes.attempted)
        cals.append(calibration_ns())
    scaled = []  # op times rescaled to nominal host speed
    for k, end in enumerate(segment_ends):
        factor = CAL_NOMINAL_NS / statistics.median(cals[max(0, k - 2):k + 4])
        scaled.extend(ns * factor for ns in outcomes.ns[len(scaled):end])
    outcomes.check_rerun(seed)
    outcomes.check_reference(seed, keep_below)

    size = workload.block_size
    rates = []
    for g in range(GROUPS):
        lo, hi = g * blocks // GROUPS * size, (g + 1) * blocks // GROUPS * size
        ok = sum(reason is None for reason in outcomes.fail[lo:hi])
        rates.append(ok / (sum(scaled[lo:hi]) / 1e9))
    ns_sorted = sorted(scaled)
    pct, beyond, tail_ns = tail(ns_sorted)
    setup_s, setup_raw_s, setup_rss_mb = measure_setup(workload, seed)
    probe_failures, probe_failed, probe_problems = domain_probe(workload, lib, seed)
    outcomes.problems.extend(probe_problems)
    ok_ops = outcomes.attempted - outcomes.failed
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(ns_sorted) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "ok_ratio": (ok_ops / outcomes.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "setup_rss_mb": (setup_rss_mb, "MB"),
    }
    summary = {
        "mode": "timed", "blocks": blocks, "timed_s": sum(outcomes.ns) / 1e9,
        "uncalibrated": {"ops_per_s": ok_ops / (sum(outcomes.ns) / 1e9),
                         "op_p50_ms": statistics.median(outcomes.ns) / 1e6,
                         "setup_s": setup_raw_s},
        "fail_ratio": outcomes.failed / outcomes.attempted,
        "failed_by_type": outcomes.by_type(),
        "op_tail": {"percentile": pct, "samples": len(ns_sorted), "beyond": beyond},
        "max_rel_err": outcomes.max_rel_err, "reference_checked": outcomes.checked,
        "domain_probe_failed_by_type": probe_failures,
    }
    return outcomes, metrics, summary


def traced(workload, lib, seed, seconds, spans_path):
    blocks = max(CHECK_BLOCKS[workload.name], round(TRACE_BLOCKS_PER_S[workload.name] * seconds))
    ops = [op for block in first_blocks(workload, seed, blocks) for op in block]
    keep_below = CHECK_BLOCKS[workload.name] * workload.block_size
    plain = Outcomes(workload, lib)
    quiet_gc()
    untraced_s = run_pass(workload, lib, ops, plain, len(ops))
    outcomes = Outcomes(workload, lib)
    tracer = tracing.Tracer()
    modules = {"cli": lib.cli, "core": lib.core, "oracle": lib.oracle, "specfun": lib.specfun}
    quiet_gc()
    with tracing.installed(tracer, modules):
        traced_s = run_pass(workload, lib, ops, outcomes, len(ops), tracer)
    for index in range(len(ops)):
        if describe(*plain.kept[index], workload) != describe(*outcomes.kept[index], workload):
            outcomes.problems.append(f"op {index} {ops[index]!r}: output changed under tracing")
    outcomes.check_reference(seed, keep_below)
    tracing.write_spans(tracer.spans, spans_path)

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["fail_ratio"] = (outcomes.failed / outcomes.attempted, "ratio")
    metrics["max_rel_err"] = (outcomes.max_rel_err, "ratio")
    probe_failures, probe_failed, probe_problems = domain_probe(workload, lib, seed)
    outcomes.problems.extend(probe_problems)
    metrics["domain_probe.failed"] = (probe_failed, "count")
    summary = {
        "mode": "traced", "blocks": blocks, "untraced_s": untraced_s, "traced_s": traced_s,
        "failed_by_type": outcomes.by_type(), "spans_file": str(spans_path.relative_to(ROOT)),
        "max_rel_err": outcomes.max_rel_err, "reference_checked": outcomes.checked,
        "domain_probe_failed_by_type": probe_failures,
    }
    return outcomes, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("hot", "series", "cold", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    lib = load_library()
    if lib is None:
        print(f"error: no photongas sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    if workload.kind == "cli":
        workload.out_dir = str(scratch)
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            outcomes, metrics, summary = traced(workload, lib, args.seed, args.seconds, spans_path)
        else:
            outcomes, metrics, summary = timed(workload, lib, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary.update(workload=args.workload, seed=args.seed, attempted=outcomes.attempted,
                   failed=outcomes.failed, problems=outcomes.problems[:20])
    print(json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
