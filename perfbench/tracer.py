"""Per-layer tracing of susyoptics from outside the library.

`Tracer.install()` replaces every public function of every susyoptics module
with a timing wrapper, in every module namespace that binds the name (a
function imported with ``from .evolution import trotter_states`` is bound in
two namespaces) and in module-level dicts of functions such as
``experiments.SCENARIO_RUNNERS``.  Generator functions are wrapped so that
each ``next()`` is one span.  ``numpy.fft.fft``/``ifft`` are wrapped to
count transforms.  Nothing under ``src/`` is edited; the wrappers live only
in the process that installed them.

A span's self time is its duration minus the time of the spans it caused;
a layer's self time is the sum over that layer's spans.  Inclusive times are
counted for the outermost call of a function only, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is a work count (times end in _s or _us)."""
    return not metric.endswith(("_s", "_us"))


class Tracer:
    """Spans and work counts of one process, recorded by installed wrappers."""

    def __init__(self):
        self._stack = []  # [span name, start, child seconds]
        self._wrapped = {}  # original function -> wrapper
        self.reset()

    def reset(self):
        """Forget every span and count recorded so far."""
        self.inclusive = defaultdict(float)  # span name -> outermost-call seconds
        self.self_time = defaultdict(float)  # span name -> self seconds
        self.calls = Counter()  # span name -> calls
        self.counts = Counter()  # work counters set by the argument hooks

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name):
        end = time.perf_counter()
        _, start, child = self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if not any(frame[0] == name for frame in self._stack):
            self.inclusive[name] += duration

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                if hook:
                    hook(self.counts, sig.bind(*args, **kwargs).arguments)
                return self._timed_generator(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(name)
                if hook:
                    hook(self.counts, sig.bind(*args, **kwargs).arguments, result)
                return result
        return wrapper

    def _timed_generator(self, name, gen):
        while True:
            self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(name)
            yield item

    def _counted_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            arr = np.asarray(a)
            length = n if n is not None else arr.shape[axis]
            points = arr.size // arr.shape[axis] * length
            self.counts["fft_calls"] += 1
            self.counts["fft_points"] += points
            self.counts["fft_flop"] += 5.0 * points * math.log2(max(length, 2))
            return fn(a, n, axis, *args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every public function of `package`'s modules wherever it is bound."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]
        prefix = package.__name__ + "."

        def traceable(obj):
            return (inspect.isfunction(obj) and obj.__module__.startswith(prefix)
                    and not obj.__name__.startswith("_"))

        for module in modules:
            for key, obj in list(vars(module).items()):
                if traceable(obj):
                    setattr(module, key, self._wrapper_for(obj))
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in obj.items():
                        if traceable(v):
                            obj[k] = self._wrapper_for(v)
        np.fft.fft = self._counted_fft(np.fft.fft)
        np.fft.ifft = self._counted_fft(np.fft.ifft)

    def _wrapper_for(self, fn):
        if fn in self._wrapped.values():
            return fn
        if fn not in self._wrapped:
            layer = fn.__module__.rsplit(".", 1)[1]
            self._wrapped[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
        return self._wrapped[fn]

    # -- results --------------------------------------------------------------

    def layer_self(self, layer):
        return sum(t for name, t in self.self_time.items()
                   if name.startswith(layer + "."))

    def metrics(self):
        """Per-layer metrics of everything traced since the last reset.

        Seconds are floats; counts are whole numbers (the `_mb` and `_gflop`
        figures are counts scaled to a unit).
        """
        inc, calls, c = self.inclusive, self.calls, self.counts
        state_steps = c["state_steps"]
        trotter_s = inc["evolution.trotter_states"]
        return {
            "susy.self_s": self.layer_self("susy"),
            "susy.bound_spectrum_s": inc["susy.bound_spectrum"],
            "susy.bound_spectrum_calls": calls["susy.bound_spectrum"],
            "susy.dense_h_mb": c["dense_h_bytes"] / 1e6,
            "susy.ladder_s": inc["susy.apply_B"] + inc["susy.apply_B_dag"],
            "susy.ladder_calls": calls["susy.apply_B"] + calls["susy.apply_B_dag"],
            "susy.potential_calls": (calls["susy.partner_potential"]
                                     + calls["susy.eta_potential"]),
            "evolution.self_s": self.layer_self("evolution"),
            "evolution.eigenbasis_s": inc["evolution.eigenbasis"],
            "evolution.exact_evolve_s": inc["evolution.exact_evolve"],
            "evolution.scan_s": inc["evolution.trotter_convergence_scan"],
            "evolution.trotter_s": trotter_s,
            "evolution.trotter_streams": calls["evolution.trotter_states"],
            "evolution.state_steps": state_steps,
            "evolution.step_us": 1e6 * trotter_s / state_steps if state_steps else 0.0,
            "grids.self_s": self.layer_self("grids"),
            "grids.fft_calls": c["fft_calls"],
            "grids.fft_points": c["fft_points"],
            "grids.fft_gflop": c["fft_flop"] / 1e9,
            "grids.fidelity_s": inc["grids.fidelity"],
            "grids.fidelity_calls": calls["grids.fidelity"],
            "grids.norm_calls": calls["grids.norm"],
            "experiments.self_s": self.layer_self("experiments"),
            "experiments.runner_s": sum(t for name, t in inc.items()
                                        if name.startswith("experiments.run_")),
            "experiments.emit_s": inc["experiments.emit_csv"],
            "experiments.emit_mb": c["emit_bytes"] / 1e6,
            "experiments.emit_rows": c["emit_rows"],
            "optics.self_s": self.layer_self("optics"),
            "optics.calibrate_calls": calls["optics.calibrate_interferometer"],
            "optics.bdag_s": inc["optics.interferometric_B_dag"],
            "optics.train_s": inc["optics.simulate_train"],
            "optics.elements_applied": calls["optics.apply_element"],
            "config.parse_s": inc["config.parse_config"],
            "config.validate_calls": calls["config.validate"],
            "cli.self_s": self.layer_self("cli"),
        }


# Work counters read from a call's arguments (and result), keyed by span name.

def _count_dense_h(counts, args, result):
    n = args["V"].grid.n
    counts["dense_h_bytes"] += n * n * 8


def _count_stream(counts, args):
    psi, plan = args["psi"], args["plan"]
    counts["state_steps"] += plan.n_steps * (psi.values.size // psi.grid.n)


def _count_emit(counts, args, paths):
    res = args["result"]
    counts["emit_bytes"] += sum(os.path.getsize(p) for p in paths)
    counts["emit_rows"] += len(res.scalars) + sum(len(t.rows) for t in res.tables)


_HOOKS = {
    "susy.dense_hamiltonian": _count_dense_h,
    "evolution.trotter_states": _count_stream,
    "experiments.emit_csv": _count_emit,
}
