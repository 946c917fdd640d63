"""Traced stand-in for `python -m codonlab`, used by CLI-mode traced runs.

Usage: python bench/shim.py SPANS_PATH LAUNCHED MODE [codonlab arguments...]

It times `import codonlab` (numpy separately), wraps the public functions
(see tracer.py), calls `codonlab.cli.main` with the remaining arguments and
exits with its code, as `python -m codonlab` would. Spans, counters and
import times go to SPANS_PATH as JSON. LAUNCHED is the driver's
`time.monotonic()` just before it started this process; the difference to
this script's first statement is interpreter start-up. MODE is "trace" or
"alloc" (tracemalloc peaks instead of spans).
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, launched, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    tracer = Tracer(alloc=mode == "alloc")
    imports = tracer.timed_import()
    imports["python_ms"] = (STARTED - launched) * 1000.0
    tracer.install()
    if tracer.alloc:
        tracer.start_alloc()
    from codonlab import cli

    code = 1
    try:
        code = cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        import json

        tracer.count("cli.main.exit_nonzero", int(code != 0))
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(dict(tracer.export(), imports=imports), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
