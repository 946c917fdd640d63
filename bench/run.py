"""codonlab benchmark: seeded closed-loop workloads with an independent oracle.

Usage (from the repository root):

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 12 --trace 0

Workloads (see BENCHMARK.json for why each exists): cli-mix,
count-enumerate, grover-simulate, analyze-null. Each is a closed loop with
one client: the next operation starts when the previous one has finished.
The loop runs whole segments of blocks (see workloads.py) until their
summed operation time reaches --seconds. Every output is checked by
oracle.py; a failing check counts as a failed operation. See README.md for
the metrics.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end figures. With --trace 1 it runs the workload's trace blocks
three times: untraced, with spans around codonlab's public functions
(tracer.py), and under tracemalloc; its metrics are the per-layer figures.
The traced counters of work must equal the harness's own count of it; a
mismatch counts as a failure. The line before the result is a JSON detail
object with provenance, the tail percentile and sample count, and any
failures.

Exit status: 0 with a result line; 2 without one when the checkout has no
codonlab sources; 1 when the harness itself fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import oracle
from runners import RUNNERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 15             # set-ups per timed run, spread over it; setup_s is their median
IMPORT_SAMPLES = 3      # traced worker start-ups per library-mode traced run
WALL_LIMIT_S = 100      # no new segment starts after this much wall time
# tracemalloc slows per-object allocation about tenfold: at 2e5 classes one
# JSON count takes ~50 s and ~1 GB, so the allocation pass skips larger ones.
ALLOC_MAX_CLASSES = 20_000
MIDDLE_TRIM = 0.45      # share cut from each end for op_p50_ms
MIB = 1024.0 * 1024.0
# The harness's count of each operation's work (Op.work) and the traced
# counter or span that must report the same total.
WORK_COUNTERS = {
    "classes": "combinatorics.classes",
    "iterations": "grover.iterations",
    "amplitude_updates": "grover.amplitude_updates_computed",
    "tables": "genetic_code.parse_table",
}


class Tally:
    """Operations attempted and the first problem of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            what = " ".join(op.request["argv"]) if "argv" in op.request else json.dumps(op.request)
            self.failures.append(f"{op.kind} [{what[:160]}]: {problems[0][:300]}")

    def compare(self, what, traced, expected):
        self.attempted += 1
        if traced != expected:
            self.failures.append(f"{what}: traced {traced}, harness expects {expected}")

    def check(self, op, outcome):
        self.record(op, oracle.check(op, outcome.exit_code, outcome.stdout, outcome.stderr,
                                     outcome.output_file))


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- timed run (--trace 0) ---------------------------------------------------


def middle(samples):
    """The mean of the middle tenth of the samples: a 45%-trimmed mean.

    It estimates the median, but averages the ranks around it, so one
    operation's jitter cannot move it alone where the latencies of a mixed
    workload climb steeply through the middle (grover-simulate).
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * MIDDLE_TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(samples):
    """The sample with ten larger ones: the highest percentile with ten beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def set_up(cls, seed, workdir, tally):
    """Set up from scratch in `workdir`: inputs, a runner, one warm-up.

    Returns the workload, its first block, the runner and the seconds taken.
    """
    fresh_dir(workdir)
    start = time.monotonic()
    workload = cls(seed, workdir)
    ops = workload.block(0)
    runner = RUNNERS[cls.mode](ROOT, workdir, "plain")
    try:
        warmup = workload.warmup()
        outcome = runner.run(warmup, -1)
        seconds = time.monotonic() - start
        tally.check(warmup, outcome)
    except BaseException:
        runner.abort()
        raise
    return workload, ops, runner, seconds


def measure(cls, seed, seconds, workdir, tally):
    """Run whole segments until their summed operation time reaches `seconds`.

    The set-ups are spread over the run, so setup_s sees the same load from
    other tenants as the operations. Each one replaces the runner (and the
    workload, built again from the same seed), so there is never more than
    one child process.
    """
    setups, peaks_kb, runner = [], [], None

    def restart():
        nonlocal runner
        if runner is not None:
            done, runner = runner, None
            peaks_kb.append(done.close().get("maxrss_kb", 0))
        workload, ops, runner, took = set_up(cls, seed, workdir, tally)
        setups.append(took)
        return workload, ops

    latencies, rss_kb, segments = [], [], []
    try:
        workload, ops = restart()
        busy, block, segment = 0.0, 0, []
        started = time.monotonic()
        while True:
            outcomes = runner.run_many(list(enumerate(ops, start=len(latencies))))
            for op, outcome in zip(ops, outcomes):
                latencies.append(outcome.seconds)
                segment.append(outcome.seconds)
                rss_kb.append(outcome.maxrss_kb)
                busy += outcome.seconds
                tally.check(op, outcome)
            block += 1
            if block % cls.segment_blocks == 0:
                segments.append(segment)
                segment = []
                if busy >= seconds or time.monotonic() - started > WALL_LIMIT_S:
                    break
            while len(setups) < SETUPS and busy >= len(setups) * seconds / SETUPS:
                workload, _ = restart()
            ops = workload.block(block)
        while len(setups) < SETUPS:
            restart()
    except BaseException:
        if runner is not None:
            runner.abort()
        raise
    peaks_kb.append(runner.close().get("maxrss_kb", 0))

    size = len(segments[0])
    metrics = {
        "ops_per_s": metric(statistics.median(len(s) / sum(s) for s in segments), "op/s"),
        "op_p50_ms": metric(middle(latencies) * 1000.0, "ms"),
        "op_tail_ms": metric(statistics.median(map(tail, segments)) * 1000.0, "ms"),
        "peak_rss_mb": metric(max(peaks_kb + rss_kb) / 1024.0, "MB"),
        "passed_ratio": metric((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    detail = {
        "blocks": block, "ops": len(latencies), "busy_s": busy, "segments": len(segments),
        "segment_ops": size, "median_ms": statistics.median(latencies) * 1000.0,
        "tail_percentile": 100.0 * max(0, size - 11) / size,
        "tail_samples_beyond": min(10, size - 1),
        "failed_ratio": len(tally.failures) / tally.attempted,
        "setup_samples_s": setups,
    }
    return metrics, detail


# --- traced run (--trace 1) --------------------------------------------------


def _digest(outcome):
    parts = (str(outcome.exit_code), outcome.stdout, outcome.stderr, str(outcome.output_file))
    return hashlib.blake2b("\0".join(parts).encode()).hexdigest()


def run_pass(cls, workdir, mode, ops, warmup, tally, keep, spawns=1):
    """Run `ops` ((index, op) pairs) through a fresh runner in `mode`.

    Returns keep(index, op, outcome) for every operation, so large outputs
    can be dropped as soon as they are checked, plus the runner's final
    report and the import times of each worker start.
    """
    imports = []
    for attempt in range(spawns):
        runner = RUNNERS[cls.mode](ROOT, workdir, mode)
        imports.append(getattr(runner, "imports", None))
        try:
            tally.check(warmup, runner.run(warmup, -1))
        except BaseException:
            runner.abort()
            raise
        if attempt < spawns - 1:
            runner.close()
    try:
        kept = [keep(i, op, outcome) for (i, op), outcome in zip(ops, runner.run_many(ops))]
    except BaseException:
        runner.abort()
        raise
    return kept, runner.close(), [i for i in imports if i]


def self_times(spans):
    """Per span name: summed self time (duration minus direct children) and calls."""
    covered = defaultdict(float)
    for op, span_id, parent, name, start, end in spans:
        if parent is not None:
            covered[(op, parent)] += end - start
    total, calls = defaultdict(float), Counter()
    for op, span_id, parent, name, start, end in spans:
        total[name] += end - start - covered[(op, span_id)]
        calls[name] += 1
    return total, calls


def trace(cls, seed, workdir, tally):
    fresh_dir(workdir)
    workload = cls(seed, workdir)
    ops = list(enumerate(op for b in range(cls.trace_blocks) for op in workload.block(b)))
    warmup = workload.warmup()

    expected = {}

    def first(i, op, outcome):
        tally.check(op, outcome)
        expected[i] = _digest(outcome)
        written = len(outcome.stdout.encode()) + len((outcome.output_file or "").encode())
        return outcome.seconds, written

    def again(i, op, outcome):
        tally.record(op, [] if _digest(outcome) == expected[i]
                     else ["output differs from the untraced run"])
        return outcome.seconds, outcome.trace

    plain, _, _ = run_pass(cls, workdir, "plain", ops, warmup, tally, first)
    spawns = IMPORT_SAMPLES if cls.mode == "library" else 1
    traced, traced_final, imports = run_pass(cls, workdir, "trace", ops, warmup, tally, again,
                                             spawns)
    alloc_ops = [(i, op) for i, op in ops if op.work.get("classes", 0) <= ALLOC_MAX_CLASSES]
    allocated, alloc_final, _ = run_pass(cls, workdir, "alloc", alloc_ops, warmup, tally, again)

    if cls.mode == "cli":
        spans = [(i,) + tuple(s[1:]) for i, (_, t) in enumerate(traced) for s in t["spans"]]
        counters = Counter()
        for _, t in traced:
            counters.update(t["counters"])
        alloc = defaultdict(int)
        for _, t in allocated:
            for name, peak in t["alloc"].items():
                alloc[name] = max(alloc[name], peak)
        imports = [t["imports"] for _, t in traced]
    else:
        spans = [tuple(s) for s in traced_final["trace"]["spans"]]
        counters = Counter(traced_final["trace"]["counters"])
        alloc = alloc_final["trace"]["alloc"]

    total, calls = self_times(spans)
    harness_work = Counter()
    for _, op in ops:
        harness_work.update(op.work)
    for key, name in WORK_COUNTERS.items():
        if key in harness_work:
            traced_work = counters[name] if name in counters else calls[name]
            tally.compare(name, traced_work, harness_work[key])

    def self_ms(name):
        return metric(total[name] / calls[name] * 1000.0 if calls[name] else 0.0, "ms")

    def count(name, unit="count"):
        return metric(counters.get(name, 0), unit)

    def alloc_mb(name):
        return metric(alloc.get(name, 0) / MIB, "MB")

    def import_ms(key):
        return metric(statistics.median(i[key] for i in imports), "ms")

    cli_bytes = sum(written for _, written in plain) if cls.mode == "cli" else 0
    analyses = calls["reports.build_analyze_report"]
    plain_p50 = statistics.median(seconds for seconds, _ in plain)
    traced_p50 = statistics.median(seconds for seconds, _ in traced)
    metrics = {
        "import.python_ms": import_ms("python_ms"),
        "import.codonlab_ms": import_ms("codonlab_ms"),
        "import.numpy_ms": import_ms("numpy_ms"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.output.bytes": metric(cli_bytes, "bytes"),
        "cli.main.exit_nonzero": count("cli.main.exit_nonzero"),
        "combinatorics.enumerate_multisets.self_ms": self_ms("combinatorics.enumerate_multisets"),
        "combinatorics.enumerate_multisets.alloc_peak_mb":
            alloc_mb("combinatorics.enumerate_multisets"),
        "combinatorics.enumerate_multisets.errors": count("combinatorics.enumerate_multisets.errors"),
        "combinatorics.classes": count("combinatorics.classes"),
        "combinatorics.class_size.calls": count("combinatorics.class_size.calls"),
        "reports.build_count_report.self_ms": self_ms("reports.build_count_report"),
        "reports.build_count_report.alloc_peak_mb": alloc_mb("reports.build_count_report"),
        "reports.render.text.self_ms": self_ms("reports.render.text"),
        "reports.render.json.self_ms": self_ms("reports.render.json"),
        "reports.render.csv.self_ms": self_ms("reports.render.csv"),
        "reports.render.bytes": count("reports.render.bytes", "bytes"),
        "reports.render.alloc_peak_mb": alloc_mb("reports.render"),
        "genetic_code.parse_table.self_ms": self_ms("genetic_code.parse_table"),
        "genetic_code.parse_table.bytes_in": count("genetic_code.parse_table.bytes_in", "bytes"),
        "genetic_code.parse_table.errors": count("genetic_code.parse_table.errors"),
        "symmetry.partition_classes.self_ms": self_ms("symmetry.partition_classes"),
        "symmetry.partition_classes.calls_per_op": metric(
            calls["symmetry.partition_classes"] / analyses if analyses else 0.0, "calls/op"),
        "symmetry.prefix_significance.self_ms": self_ms("symmetry.prefix_significance"),
        "symmetry.multiset_invariance_violation.self_ms":
            self_ms("symmetry.multiset_invariance_violation"),
        "reports.build_analyze_report.self_ms": self_ms("reports.build_analyze_report"),
        "grover.simulate.self_ms": self_ms("grover.simulate"),
        "grover.simulate.alloc_peak_mb": alloc_mb("grover.simulate"),
        "grover.simulate.errors": count("grover.simulate.errors"),
        "grover.iterations": count("grover.iterations"),
        "grover.amplitude_updates_computed": count("grover.amplitude_updates_computed"),
        "reports.build_grover_simulate_report.self_ms":
            self_ms("reports.build_grover_simulate_report"),
        "trace.overhead_ratio": metric(traced_p50 / plain_p50, "ratio"),
    }
    detail = {
        "traced_ops": len(ops), "alloc_ops": len(alloc_ops),
        "alloc_skipped_over_classes": ALLOC_MAX_CLASSES,
        "untraced_p50_ms": plain_p50 * 1000.0, "traced_p50_ms": traced_p50 * 1000.0,
        "harness_work": dict(harness_work),
        "spans": {name: {"calls": calls[name], "self_ms_total": total[name] * 1000.0}
                  for name in sorted(calls)},
        "failed_ratio": len(tally.failures) / tally.attempted,
    }
    return metrics, detail


# --- provenance and entry point ----------------------------------------------


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit, "seed": seed,
        "src_lines": src_lines,
        "note": "unpinned runs on a shared machine; other tenants add noise",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "codonlab" / "__init__.py").is_file():
        print(f"error: no codonlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    # A termination request unwinds like an error, so children are stopped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{cls.name}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics, detail = trace(cls, args.seed, workdir, tally)
        else:
            metrics, detail = measure(cls, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    for failure in tally.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    detail.update(workload=cls.name, mode=cls.mode, trace=args.trace,
                  failures=tally.failures[:5], provenance=provenance(args.seed))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
