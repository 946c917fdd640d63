"""Spans, counters and allocation peaks around codonlab's public functions.

Used by the traced CLI shim and by the library-mode worker; the program
itself is not changed. `install` replaces every binding of the listed
functions in the loaded codonlab modules (including `from x import y`
copies) with a wrapper that records a span (op, id, parent, name, start,
end) and the counters named in the issue. Per-element helpers that run
once per class or per row are counted, not spanned, so tracing stays cheap.

This module imports only `sys` and `time` at load time, so timing
`import codonlab` after loading it is not flattered by modules it pulled in.
"""

import sys
import time

SPANNED = {
    "cli": ("build_parser", "main"),
    "combinatorics": ("arrangements", "multiset_count", "enumerate_multisets"),
    "genetic_code": ("parse_table", "builtin_code"),
    "symmetry": ("partition_classes", "multiset_invariance_violation", "prefix_significance",
                 "random_code"),
    "grover": ("solve_n", "solve_q", "success_probability", "simulate"),
    "reports": ("build_count_report", "build_analyze_report", "build_grover_solve_n_report",
                "build_grover_solve_q_report", "build_grover_simulate_report",
                "build_energy_report", "render"),
}
COUNTED = {"combinatorics": ("class_size",)}


class _NumpyImportTimer:
    """Meta-path finder that times the execution of the top-level numpy package.

    It only observes: when codonlab stops importing numpy, it reports 0.
    """

    def __init__(self):
        self.ms = 0.0

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "numpy":
            return None
        from importlib.machinery import PathFinder

        sys.meta_path.remove(self)
        spec = PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run = spec.loader.exec_module

        def exec_module(module):
            start = time.perf_counter()
            try:
                run(module)
            finally:
                self.ms += (time.perf_counter() - start) * 1000.0

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    """In-memory spans and counters for one process.

    With `alloc=True` it records, instead of spans, the tracemalloc peak
    above the entry level of every spanned call (the caller starts
    tracemalloc); the timings of that pass are not used.
    """

    def __init__(self, alloc=False):
        self.alloc = alloc
        self.op = 0
        self.spans = []
        self.counters = {}
        self.alloc_peaks = {}
        self._stack = []
        self._alloc_frames = []
        self._next_id = 0

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def timed_import(self):
        """Import codonlab and its CLI; returns milliseconds by layer."""
        import importlib

        timer = _NumpyImportTimer()
        sys.meta_path.insert(0, timer)
        start = time.perf_counter()
        importlib.import_module("codonlab")
        importlib.import_module("codonlab.cli")
        total = (time.perf_counter() - start) * 1000.0
        if timer in sys.meta_path:
            sys.meta_path.remove(timer)
        return {"codonlab_ms": total - timer.ms, "numpy_ms": timer.ms}

    def install(self):
        import importlib
        import inspect

        replacements = {}
        for module_name, names in SPANNED.items():
            module = importlib.import_module(f"codonlab.{module_name}")
            for name in names:
                original = getattr(module, name)
                replacements[id(original)] = self._spanned(
                    f"{module_name}.{name}", original, inspect.signature(original))
        for module_name, names in COUNTED.items():
            module = importlib.import_module(f"codonlab.{module_name}")
            for name in names:
                original = getattr(module, name)
                replacements[id(original)] = self._counted(f"{module_name}.{name}", original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "codonlab" or module_name.startswith("codonlab."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replacements:
                        setattr(module, attr, replacements[id(value)])

    def _counted(self, name, function):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counters[key] = self.counters.get(key, 0) + 1
            return function(*args, **kwargs)

        return wrapper

    def _spanned(self, name, function, signature):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            if tracer.alloc:
                tracer._alloc_enter()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".errors")
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if tracer.alloc:
                    tracer._alloc_exit(name)
                else:
                    label = name
                    if name == "reports.render":
                        label = f"{name}.{_argument(signature, args, kwargs, 'fmt')}"
                    tracer.spans.append((tracer.op, span_id, parent, label, start, end))
            tracer._after(name, signature, args, kwargs, result)
            return result

        return wrapper

    def _after(self, name, signature, args, kwargs, result):
        if name == "combinatorics.enumerate_multisets":
            self.count("combinatorics.classes", len(result))
        elif name == "grover.simulate":
            n = _argument(signature, args, kwargs, "n")
            q = _argument(signature, args, kwargs, "q")
            self.count("grover.iterations", q)
            # n amplitudes are updated per iteration by an n-vector simulator;
            # derived from the arguments, hence "computed".
            self.count("grover.amplitude_updates_computed", n * q)
        elif name == "genetic_code.parse_table":
            self.count("genetic_code.parse_table.bytes_in",
                       len(_argument(signature, args, kwargs, "text").encode()))
        elif name == "reports.render":
            self.count("reports.render.bytes", len(result.encode()))

    # tracemalloc keeps one peak; each frame on this stack remembers the
    # level at entry and the highest peak seen while it was open, so nested
    # wrapped calls can reset the peak without hiding it from their callers.
    def _alloc_enter(self):
        import tracemalloc

        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_frames:
            self._alloc_frames[-1][1] = max(self._alloc_frames[-1][1], peak)
        self._alloc_frames.append([current, current])
        tracemalloc.reset_peak()

    def _alloc_exit(self, name):
        import tracemalloc

        _, peak = tracemalloc.get_traced_memory()
        start, highest = self._alloc_frames.pop()
        highest = max(highest, peak)
        self.alloc_peaks[name] = max(self.alloc_peaks.get(name, 0), highest - start)
        if self._alloc_frames:
            self._alloc_frames[-1][1] = max(self._alloc_frames[-1][1], highest)
        tracemalloc.reset_peak()

    def start_alloc(self):
        import tracemalloc

        tracemalloc.start()

    def export(self):
        return {"spans": self.spans, "counters": self.counters, "alloc": self.alloc_peaks}


def _argument(signature, args, kwargs, name):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]
