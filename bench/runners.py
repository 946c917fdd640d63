"""Run one operation at a time against the program, in CLI or library mode.

CLI mode starts `python -m codonlab ARGS` (or the traced shim) per
operation, with stdout and stderr sent to files, and reaps it with
`os.wait4` to get its own peak RSS. Library mode keeps one worker process
(worker.py) and exchanges requests with it over pipes. Either way there is
at most one child process at a time, and every wait has a deadline.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OP_TIMEOUT_S = 150


class Timeout(Exception):
    """A child process did not answer in time."""


def _on_alarm(signum, frame):
    raise Timeout(f"no answer within {OP_TIMEOUT_S} s")


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    output_file: str | None   # content of the --output file, if one was written
    maxrss_kb: int = 0
    trace: dict | None = None  # the traced shim's dump (CLI mode)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _reap(proc):
    """Wait for `proc` with a deadline; returns its resource usage."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # a deadline or a signal: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class CliRunner:
    """One `codonlab` process per operation; `mode` is plain, trace or alloc."""

    def __init__(self, root: Path, workdir: Path, mode: str):
        self.root, self.workdir, self.mode = root, workdir, mode
        self.env = child_env(root)
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"

    def run_many(self, indexed_ops):
        """Outcomes one by one, each operation started when it is asked for."""
        return (self.run(op, index) for index, op in indexed_ops)

    def run(self, op, index: int) -> Outcome:
        spans_path = self.workdir / f"spans-{index}.json"
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            launched = time.monotonic()
            if self.mode == "plain":
                command = [sys.executable, "-m", "codonlab"]
            else:
                command = [sys.executable, str(BENCH_DIR / "shim.py"), str(spans_path),
                           repr(launched), self.mode]
            proc = subprocess.Popen(command + op.request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            usage = _reap(proc)
            seconds = time.monotonic() - launched
        output_file = None
        target = op.request.get("output")
        if target and os.path.exists(target):
            output_file = Path(target).read_text(encoding="utf-8")
            os.remove(target)
        trace = None
        if self.mode != "plain":
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return Outcome(seconds, proc.returncode,
                       self.stdout_path.read_text(encoding="utf-8"),
                       self.stderr_path.read_text(encoding="utf-8"),
                       output_file, usage.ru_maxrss, trace)

    def close(self) -> dict:
        return {}

    def abort(self):
        """Nothing to stop: every child is reaped before `run` returns."""


class LibRunner:
    """A worker process that calls the library; `mode` is plain, trace or alloc."""

    def __init__(self, root: Path, workdir: Path, mode: str):
        self.stderr = open(workdir / f"worker-{mode}.stderr", "wb")
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), mode], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr, env=child_env(root), cwd=root)
        try:
            header, _ = self._receive()
        except BaseException:
            self.abort()
            raise
        self.imports = dict(header["imports"], python_ms=(header["started"] - launched) * 1000.0)

    def _receive(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(OP_TIMEOUT_S)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("library worker exited; see its stderr in the work directory")
            header = json.loads(line)
            size = sum(result["bytes"] for result in header.get("results", ()))
            payload = self.proc.stdout.read(size)
        finally:
            signal.alarm(0)
        return header, payload

    def run_many(self, indexed_ops) -> list[Outcome]:
        """Run a batch back to back in the worker; one outcome per operation."""
        batch = {"ops": [dict(op.request, op=index) for index, op in indexed_ops]}
        self.proc.stdin.write(json.dumps(batch).encode() + b"\n")
        self.proc.stdin.flush()
        header, payload = self._receive()
        outcomes, offset = [], 0
        for result in header["results"]:
            text = payload[offset:offset + result["bytes"]].decode()
            offset += result["bytes"]
            error = result["error"]
            outcomes.append(Outcome(result["seconds"], 1 if error else 0, text, error or "", None))
        return outcomes

    def run(self, op, index: int) -> Outcome:
        return self.run_many([(index, op)])[0]

    def close(self) -> dict:
        """Finish the worker; returns its trace export and peak RSS."""
        try:
            self.proc.stdin.write(b'{"fn": "finish"}\n')
            self.proc.stdin.flush()
            header, _ = self._receive()
        finally:
            usage = self._stop()
        return {"trace": header["trace"], "maxrss_kb": usage.ru_maxrss}

    def abort(self):
        """Stop the worker without waiting for its answers."""
        self.proc.kill()
        self._stop()

    def _stop(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the worker is already gone
            pass
        try:
            return _reap(self.proc)
        finally:
            self.proc.stdout.close()
            self.stderr.close()


RUNNERS = {"cli": CliRunner, "library": LibRunner}
