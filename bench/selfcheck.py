"""Self-checks for the benchmark itself.

    python3 bench/selfcheck.py oracle

Runs a handful of real codonlab invocations, confirms that the oracle
accepts each output, then corrupts it (a class size, a word order, a final
probability, a trace entry, a coherent count, a product, an energy, a
solved n, a refusal's exit code or stderr) and confirms that the oracle
rejects it. Exits 1 if the oracle misses any corruption.

    python3 bench/selfcheck.py spread

Runs the benchmark command from BENCHMARK.json for every workload with ten
seeds, then again with ten other seeds, and prints for each end-to-end
metric the spread of each set (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles) and how much worse
the second set's median is than the first's, beside the metric's bound.
Exits 1 if a run fails or any of these figures is outside its bound.
"""

import argparse
import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from runners import CliRunner
from workloads import STANDARD, Op

ROOT = Path(__file__).resolve().parent.parent


def _replace_once(text, old, new):
    if old not in text:
        raise AssertionError(f"corruption target {old!r} not in output")
    return text.replace(old, new, 1)


def _json_edit(edit):
    def corrupt(text):
        report = json.loads(text)
        edit(report)
        return json.dumps(report, indent=2) + "\n"
    return corrupt


def _bump_size(report):
    report["classes"][3]["size"] += 1


def _perturb_final(report):
    report["trace"][-1] += 1e-6
    report["final_marked_probability"] = report["trace"][-1]


def _bump_coherent(report):
    report["symmetry"]["coherent_count"] += 1


def _swap_rows(text):
    lines = text.split("\n")
    lines[7], lines[8] = lines[8], lines[7]
    return "\n".join(lines)


def _perturb_trace_row(text):
    lines = text.split("\n")
    index, value = lines[9].split(",")
    lines[9] = f"{index},{float(value) + 1e-6!r}"
    return "\n".join(lines)


def _flip_product(text):
    lines = text.split("\n")
    cells = lines[1].split(",")
    products = cells[3].split(";")
    products[0] = "W" if products[0] != "W" else "C"
    cells[3] = ";".join(products)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _perturb_energy(text):
    match = re.search(r"fluctuation energy:\s+(\S+)", text)
    value = float(match.group(1))
    return _replace_once(text, match.group(1), repr(value * (1 + 1e-6)))


def _perturb_n_solved(report):
    report["n_solved"] *= 1 + 1e-7


COUNT = {"k": 4, "r": 3, "alphabet": "ABCD", "classes": True}
CASES = [
    # (name, argv, kind, expect, corruption of the report text)
    ("count json: class size +1", ["count", "--k", "4", "--r", "3", "-f", "json"],
     "count", dict(COUNT, format="json"), _json_edit(_bump_size)),
    ("count text: two classes swapped", ["count", "--k", "4", "--r", "3"],
     "count", dict(COUNT, format="text"), _swap_rows),
    ("count csv: class size +1", ["count", "--k", "4", "--r", "3", "-f", "csv"],
     "count", dict(COUNT, format="csv"),
     lambda text: _replace_once(text, "AAB,2:1:0:0,3", "AAB,2:1:0:0,4")),
    ("simulate json: final probability +1e-6",
     ["grover", "simulate", "--n", "20", "--q", "3", "-f", "json"],
     "simulate", {"n": 20, "q": 3, "marked": 0, "format": "json"}, _json_edit(_perturb_final)),
    ("simulate csv: one trace entry +1e-6",
     ["grover", "simulate", "--n", "64", "--q", "12", "-f", "csv"],
     "simulate", {"n": 64, "q": 12, "marked": 0, "format": "csv"}, _perturb_trace_row),
    ("analyze json: coherent count +1", ["analyze", "--builtin", "standard", "-f", "json"],
     "analyze", {"mapping": STANDARD, "format": "json"}, _json_edit(_bump_coherent)),
    ("analyze csv: one product changed", ["analyze", "--builtin", "standard", "-f", "csv"],
     "analyze", {"mapping": STANDARD, "format": "csv"}, _flip_product),
    ("energy text: fluctuation energy x(1+1e-6)", ["energy"],
     "energy", {"hbar": 1.05e-27, "delta_x": 1.7e-8, "mass": 1.67e-24, "hbond": 7e-14,
                "scale": 3.0, "format": "text"}, _perturb_energy),
    ("solve-n json: n x(1+1e-7)", ["grover", "solve-n", "--q", "3", "-f", "json"],
     "solve-n", {"q": 3, "format": "json"}, _json_edit(_perturb_n_solved)),
]


def check_oracle() -> int:
    workdir = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = CliRunner(ROOT, workdir, "plain")
    missed = 0
    try:
        for index, (name, argv, kind, expect, corrupt) in enumerate(CASES):
            op = Op(kind, {"argv": argv, "output": None}, expect)
            outcome = runner.run(op, index)
            clean = oracle.check(op, outcome.exit_code, outcome.stdout, outcome.stderr, None)
            bad = oracle.check(op, outcome.exit_code, corrupt(outcome.stdout), outcome.stderr,
                               None)
            ok = not clean and bool(bad)
            missed += not ok
            print(f"{'ok  ' if ok else 'MISS'} {name}: clean {clean or 'accepted'}; "
                  f"corrupted {bad or 'ACCEPTED'}")

        refusal = Op("refusal", {"argv": ["count", "--k", "5", "--r", "4", "--cap", "10"],
                                 "output": None}, {"exit": 3, "format": None})
        outcome = runner.run(refusal, len(CASES))
        variants = [
            ("refusal: accepted as is", outcome, True),
            ("refusal: wrong exit code", dataclasses.replace(outcome, exit_code=2), False),
            ("refusal: traceback on stderr",
             dataclasses.replace(outcome, stderr="Traceback (most recent call last):\n" + outcome.stderr), False),
            ("refusal: partial report on stdout", dataclasses.replace(outcome, stdout="Content-class"), False),
        ]
        for name, variant, should_pass in variants:
            problems = oracle.check(refusal, variant.exit_code, variant.stdout, variant.stderr,
                                    None)
            ok = (not problems) == should_pass
            missed += not ok
            print(f"{'ok  ' if ok else 'MISS'} {name}: {problems or 'accepted'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass
    print(f"{missed} corruption(s) missed" if missed else "oracle rejected every corruption")
    return 1 if missed else 0


SEEDS = 10  # runs per workload in each set


def run_set(spec, workload, first_seed):
    """Each end-to-end metric's values over SEEDS runs; None if a run failed."""
    values = {}
    for seed in range(first_seed, first_seed + SEEDS):
        command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        started = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.monotonic() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"run failed: {workload} seed {seed}: {done.stderr[-500:]}")
            return None
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"incorrect: {workload} seed {seed}: {done.stderr[-500:]}")
            return None
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"{workload} seed {seed} ({elapsed:.0f} s): " + ", ".join(
            f"{n}={e['value']:.6g}" for n, e in result["metrics"].items()), flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_spread() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    first = {w: run_set(spec, w, 1) for w in workloads}
    second = {w: run_set(spec, w, 1001) for w in workloads}
    failures = 0
    print(f"\n{'workload':16} {'metric':12} {'bound':>6} {'spread1':>8} {'spread2':>8} "
          f"{'worse':>8}")
    for workload in workloads:
        if first[workload] is None or second[workload] is None:
            failures += 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = (first[workload][name], second[workload][name])
            before, after = map(statistics.median, values)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (after - before) / before
            figures = (*map(spread, values), worse)
            bad = any(figure > bound for figure in figures)
            failures += bad
            print(f"{workload:16} {name:12} {bound:6.3f} "
                  + " ".join(f"{figure:8.4f}" for figure in figures)
                  + ("  OUT OF BOUND" if bad else ""))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-checks for the codonlab benchmark.")
    sub = parser.add_subparsers(dest="check", required=True)
    sub.add_parser("oracle", help="the oracle rejects corrupted outputs")
    sub.add_parser("spread", help="run-to-run spread of every end-to-end metric")
    args = parser.parse_args()
    if args.check == "oracle":
        return check_oracle()
    return check_spread()


if __name__ == "__main__":
    sys.exit(main())
