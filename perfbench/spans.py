"""Span recorder for the traced run.

Wraps every public function of the matsync layer modules, and the numpy /
scipy linear-algebra entry points, in every module namespace that binds
them (``cli`` imports ``validate_spec`` directly, ``gains`` imports from
``spectral``, and so on).  A span is recorded only while a root span,
one ``cli.main`` call, is open; calls from the benchmark's own oracle pass
straight through.  Spans are kept in flat arrays and saved when the run ends.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "specdoc", "builders", "array_model", "mwl", "spectral", "gains", "simulation")
LINALG = {
    "numpy.linalg": ("eig", "eigvals", "eigh", "eigvalsh", "svd", "solve", "lstsq"),
    "scipy.linalg": ("schur", "solve_continuous_lyapunov", "expm"),
}
ROOT = "cli.main"


class SpanRecorder:
    """Per-function calls and self time, plus every span as (func, parent, op, start, end)."""

    def __init__(self):
        self.names = []            # function id -> "layer.function"
        self.calls = []
        self.self_s = []
        self.counts = {}           # named counters recorded at layer boundaries
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []           # [span index, func id, start, child time]
        self._ops = 0
        self._undo = []

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, name, fn, hook=None):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        is_root = name == ROOT
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)
            if not stack:
                self._ops += 1
            idx = len(self.func)
            self.func.append(fid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self._ops)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, fid, clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - frame[2]
                self.start[idx], self.end[idx] = frame[2], t1
                self.calls[fid] += 1
                self.self_s[fid] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace each traced function in every layer module that binds it."""
        mods = {name: importlib.import_module(f"matsync.{name}") for name in LAYERS}
        owners = {f"matsync.{name}": name for name in LAYERS}
        wrapped = {}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                layer = owners.get(fn.__module__)
                if layer is None:
                    continue
                key = f"{layer}.{fn.__name__}"
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(key, fn, HOOKS.get(key))
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, wrapped[fn])
        for modname, funcs in LINALG.items():
            mod = importlib.import_module(modname)
            for attr in funcs:
                fn = getattr(mod, attr)
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"linalg.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def root_seconds(self):
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float((np.frombuffer(self.end) - np.frombuffer(self.start))[roots].sum())

    def table(self):
        """{"layer.function.calls": n, "layer.function.self_s": s, "layer.self_s": s}."""
        out = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            layer = name.split(".")[0] + ".self_s"
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            func=np.frombuffer(self.func, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _simulate_hook(rec, args, kwargs, result, exc):
    trace = result if exc is None else getattr(exc, "trace", None)
    if trace is None:
        return
    rows = len(trace.times)
    # a diverged run also computed the state that crossed the cap
    rec.count("simulation.steps", rows - 1 if exc is None else rows)
    rec.count("simulation.diverged", 0 if exc is None else 1)
    rec.count("simulation.state_bytes_computed", rows * trace.q * trace.n * 8)


def _search_hook(rec, args, kwargs, result, exc):
    infeasible = exc is not None and type(exc).__name__ == "Infeasible"
    rec.count("gains.find_common_P.infeasible", int(infeasible))
    rec.count("gains.find_common_P.success", int(exc is None))


HOOKS = {
    "simulation.simulate_ct": _simulate_hook,
    "simulation.simulate_dt": _simulate_hook,
    "gains.find_common_P": _search_hook,
}
