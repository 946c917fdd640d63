"""Library-mode worker: runs the operations the driver sends, one after another.

Usage: python bench/worker.py MODE    (MODE is plain, trace or alloc)

Protocol, all on stdin/stdout: the worker first writes a JSON header line
{"started", "imports"}. The driver then writes one JSON line per batch,
{"ops": [request, ...]}; the worker runs the batch back to back, each
operation starting when the previous one has finished, and answers with a
header line {"results": [{"seconds", "bytes", "error"}, ...]} followed by
the rendered reports, concatenated. {"fn": "finish"} gets a final header
with the trace export, after which the worker exits. "seconds" covers only
the library calls, timed here, so the pipe and the driver's oracle checks
stay out of the measurement.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    mode = sys.argv[1]
    tracer = None
    imports = {}
    if mode != "plain":
        tracer = Tracer(alloc=mode == "alloc")
        imports = tracer.timed_import()
        tracer.install()
    from codonlab import genetic_code, reports

    import json

    def run(request):
        if request["fn"] == "grover":
            report = reports.build_grover_simulate_report(
                request["n"], request["q"], request["marked"])
        else:
            with open(request["path"], encoding="utf-8") as handle:
                code = genetic_code.parse_table(handle.read())
            report = reports.build_analyze_report(code, request["source"])
        return reports.render(report, request["fmt"])

    out = sys.stdout.buffer

    def send(header, payload=b""):
        out.write(json.dumps(header).encode() + b"\n" + payload)
        out.flush()

    send({"started": STARTED, "imports": imports})
    if tracer is not None and tracer.alloc:
        tracer.start_alloc()
    for line in sys.stdin.buffer:
        batch = json.loads(line)
        if batch.get("fn") == "finish":
            send({"trace": tracer.export() if tracer else None})
            break
        results, payloads = [], []
        for request in batch["ops"]:
            saved = None
            if tracer is not None:
                tracer.op = request["op"]
                if request["op"] < 0:  # the warm-up leaves no spans, counts or peaks behind
                    saved = (len(tracer.spans), dict(tracer.counters), dict(tracer.alloc_peaks))
            error = None
            start = time.perf_counter()
            try:
                text = run(request)
            except Exception as exc:  # reported to the driver, which counts it failed
                text, error = "", f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if saved is not None:
                del tracer.spans[saved[0]:]
                tracer.counters, tracer.alloc_peaks = saved[1], saved[2]
            payloads.append(text.encode())
            results.append({"seconds": seconds, "bytes": len(payloads[-1]), "error": error})
        send({"results": results}, b"".join(payloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
