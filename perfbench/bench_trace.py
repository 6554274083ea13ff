"""Span tracing of the stokesgreen layers, installed from the benchmark only.

``Tracer.install`` wraps every public function of the layer modules where it
is looked up: on the module that defines it and on every module that imported
it by value (``solver.residual_profiles_time``, ``resolvent.image_action_exp``,
``cli.check_resolvent_bound``, ...).  ``uninstall`` puts the originals back, so
untraced passes run the program unchanged.

Spans are kept in memory as ``[name, start, end, parent]`` lists.  A span's
self time is its duration minus the time its child spans cover; summed over
all spans of a pass it telescopes to the wall time of the pass's task spans.
Work counts are computed from call arguments in ``COUNTERS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("contours", "actions", "resolvent", "kernels", "biot_savart", "solver", "cli")

# Antiderivative helpers evaluated inside every kernel action: their time is
# part of the action that calls them, and wrapping them would add several
# spans per Toeplitz product.
UNWRAPPED = {"actions.gauss_psi1", "actions.gauss_psi2", "actions.exp_psi1",
             "actions.exp_psi2"}

# Functions reported together under one metric prefix.
GROUPS = {
    "contours.lowfreq_params": "contours.params",
    "contours.highfreq_params": "contours.params",
    "kernels.residual_profiles_time": "kernels.profiles",
    "kernels.residual_profiles_general": "kernels.profiles",
    "kernels.residual_kernel_time": "kernels.residual_kernel",
    "kernels.residual_kernel_general": "kernels.residual_kernel",
    "actions.image_action_gauss": "actions.image_action",
    "actions.image_action_exp": "actions.image_action",
    "actions.halfline_laplace_weights": "actions.laplace_weights",
    "resolvent.resolvent_apply": "resolvent.apply",
    "resolvent.resolvent_apply_general": "resolvent.apply",
    "biot_savart.check_biot_savart_roundtrip": "biot_savart.roundtrip",
}

TASK_SPAN = "bench.task"
COUNT_SPAN = "trace.count"


# ---------------------------------------------------------------------------
# work counts from call arguments: (bound arguments, result) -> increments


def _nvec(shape) -> int:
    return int(np.prod(shape[:-1], dtype=np.int64))


def _lowfreq_nodes(a, _result):
    per_s = 2 * a["n_arm"] + a["n_arc"]
    return {"contours.nodes_built": np.size(a["params"]["a"]) * per_s}


def _highfreq_nodes(a, _result):
    return {"contours.nodes_built": np.size(a["params"]["a"]) * 2 * a["n_arm"]}


def _profiles(a, _result):
    kernels = importlib.import_module("stokesgreen.kernels")
    s = np.asarray(a["s"], dtype=float)
    regime = a["regime"] or kernels._auto_regime(a["nu"], a["mode"])
    per_s = 2 * a["n_arm"] + (a["n_arc"] if regime == "lowfreq" else 0)
    if a.get("sigma", None) == 0.0:
        per_s = 0  # residual_profiles_general returns zeros without quadrature
    # s = y + z of grid nodes repeats up to rounding, so count distinct values
    # at 1e-12 absolute (s is at most a few tens here)
    unique = np.unique(np.round(s.ravel(), 12)).size
    return {"kernels.profiles.s_evals": s.size, "kernels.profiles.s_unique": unique,
            "kernels.profiles.quad_evals": s.size * per_s}


def _image_action(a, _result):
    n = a["grid"].n
    return {"actions.toeplitz_elements": n * (2 * n - 1) * _nvec(np.shape(a["f"]))}


def _hankel(a, _result):
    shape = np.shape(a["g"])
    return {"actions.toeplitz_elements": shape[-1] ** 2 * _nvec(shape)}


def _cn_steps(a, _result):
    return {"solver.cn_steps": int(round(a["problem"].t_final / a["dt"]))}


def _bytes_written(a, _result):
    out = getattr(a["args"], "out", None)
    if not out or out == "-" or not os.path.exists(out):
        return {}
    return {"cli.bytes_written": os.path.getsize(out)}


COUNTERS = {
    "contours.lowfreq_nodes": _lowfreq_nodes,
    "contours.highfreq_nodes": _highfreq_nodes,
    "kernels.residual_profiles_time": _profiles,
    "kernels.residual_profiles_general": _profiles,
    "actions.image_action_gauss": _image_action,
    "actions.image_action_exp": _image_action,
    "actions.hankel_apply": _hankel,
    "solver.crank_nicolson_oracle": _cn_steps,
    "cli.cmd_kernel": _bytes_written,
    "cli.cmd_verify": _bytes_written,
}


def _binder(fn):
    """Fast argument binding (name -> value, defaults filled) for a plain signature."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    defaults = {p.name: p.default for p in params if p.default is not p.empty}

    def bind(args, kwargs):
        bound = dict(defaults)
        bound.update(zip(names, args))
        bound.update(kwargs)
        return bound

    return bind


# ---------------------------------------------------------------------------


class Recording:
    """Spans, work counts and errors of one traced stretch (a pass or the gate)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._seen: list[BaseException] = []

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)


class Tracer:
    def __init__(self, package: str = "stokesgreen"):
        self.layer_modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        # where wrapped functions may be looked up, besides their own module
        self.scan_modules = self.layer_modules + [
            importlib.import_module(f"{package}.{m}") for m in ("core", "errors")
        ] + [importlib.import_module(package)]
        self.originals: dict = {}  # function -> "layer.name"
        for mod in self.layer_modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                fn = inspect.unwrap(getattr(mod, name))
                qual = f"{layer}.{name}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and qual not in UNWRAPPED:
                    self.originals[fn] = qual
        self._binders = {q: _binder(f) for f, q in self.originals.items() if q in COUNTERS}
        self._saved: list[tuple] = []
        self.recording: Recording | None = None
        self._stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every original where it is looked up (also under other wrappers)."""
        if self._saved:
            return
        for mod in self.scan_modules:
            for attr, obj in list(vars(mod).items()):
                if not callable(obj):
                    continue
                base = inspect.unwrap(obj)
                qual = self.originals.get(base) if inspect.isfunction(base) else None
                if qual is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(qual, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, qual: str, target):
        counter = COUNTERS.get(qual)
        bind = self._binders.get(qual)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            rec = tracer.recording
            if rec is None:
                return target(*args, **kwargs)
            with tracer._span(qual):
                result = target(*args, **kwargs)
            if counter is not None:
                with tracer._span(COUNT_SPAN):
                    rec.counts.update(counter(bind(args, kwargs), result))
            return result

        return traced

    # -- recording ----------------------------------------------------------

    @contextmanager
    def _span(self, name: str):
        rec = self.recording
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(rec.spans))
        rec.spans.append(span)
        try:
            yield
        except Exception as exc:
            # count each exception once, at the innermost span it leaves
            if not any(exc is seen for seen in rec._seen):
                rec._seen.append(exc)
                rec.errors[type(exc).__name__] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def record(self, rec: Recording):
        """Record spans into ``rec`` while the block runs (wrappers installed)."""
        self.install()
        self.recording = rec
        try:
            yield rec
        finally:
            self.recording = None
            self._stack.clear()
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run benchmark-side work (digests) without recording it."""
        rec, self.recording = self.recording, None
        try:
            yield
        finally:
            self.recording = rec

    def task(self):
        """Root span around one task of a traced pass."""
        return self._span(TASK_SPAN)


def group_of(qual: str) -> str:
    return GROUPS.get(qual, qual)
