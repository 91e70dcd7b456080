"""In-memory span tracing of the evfaraday layers, from outside the package.

Every public function of the layer modules is replaced, at every import
site inside the package, by a wrapper that records a span (name, layer,
start, end, parent, trace id, error) around the call.  ``scipy.fft``'s
``fft2``/``ifft2`` form the ``fft`` layer.  A generator function gets one
span per yielded item.  Nothing under ``src/`` is modified: the wrappers are
installed by attribute assignment and removed again by ``uninstall``.

Self time of a span is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field

#: Layer modules whose public functions are traced.  ``core`` and ``units``
#: cost microseconds and are left to the caller's (``cli``) self time.
LAYERS = ("propagation", "modes", "analysis", "gratings", "fileio")
FFT_FUNCTIONS = ("fft2", "ifft2")
STEPPING = ("propagate_definite_l", "superposition_evolution",
            "propagate_superposition")


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    layer: str
    name: str
    start: float
    end: float = math.nan
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "trace": self.trace,
                "layer": self.layer, "name": self.name, "start": self.start,
                "end": self.end, "error": self.error, "attrs": self.attrs}


class Tracer:
    """Span recorder with an explicit stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self.trace = 0

    def open(self, layer: str, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, self.trace, layer, name,
                    time.perf_counter(), attrs=attrs or {})
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None):
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:
            raise RuntimeError(f"span {span.name} closed out of order")

    def discard(self, span: Span):
        """Drop an open span that turned out to record no work."""
        self.close(span)
        self.spans.remove(span)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the durations of its direct
    children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def _fft_attrs(x, axes=(-2, -1)) -> dict:
    """Points, 5 N log2 N flops per N-point transform, and input bytes."""
    n = math.prod(x.shape[ax] for ax in axes)
    flops = 5.0 * x.size * math.log2(n) if n > 1 else 0.0
    return {"points": int(x.size), "flops": flops, "bytes_in": int(x.nbytes)}


def _propagation_attrs(name: str, bound: inspect.BoundArguments) -> dict:
    args = bound.arguments
    if name == "propagate_definite_l":
        return {"steps": int(args["n_steps"]), "planes": 1}
    if name == "propagate_superposition":
        plan = args["plan"]
        return {"steps": int(round(args["z_total"] / plan.dz)), "planes": 1}
    return {}


def _wrap_function(tracer: Tracer, layer: str, name: str, fn):
    signature = inspect.signature(fn)

    def attrs_for(a, kw):
        if layer == "propagation" and name in STEPPING:
            return _propagation_attrs(name, signature.bind(*a, **kw))
        return {}

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*a, **kw):
            bound = signature.bind(*a, **kw)
            plan = bound.arguments.get("plan")
            items = fn(*a, **kw)
            index = 0
            while True:
                span = tracer.open(layer, name)
                try:
                    item = next(items)
                except StopIteration:
                    tracer.discard(span)
                    return
                except BaseException as exc:
                    tracer.close(span, exc)
                    raise
                tracer.close(span)
                if plan is not None and name == "superposition_evolution":
                    # the first item is the initial plane, reached without steps
                    steps = plan.steps_per_output if index else 0
                    span.attrs.update(steps=steps, planes=1 if index else 0)
                index += 1
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*a, **kw):
        span = tracer.open(layer, name, attrs_for(a, kw))
        try:
            result = fn(*a, **kw)
        except BaseException as exc:
            tracer.close(span, exc)
            raise
        tracer.close(span)
        return result
    return wrapper


def _wrap_fft(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(x, *a, **kw):
        span = tracer.open("fft", name, _fft_attrs(x, kw.get("axes", (-2, -1))))
        try:
            result = fn(x, *a, **kw)
        except BaseException as exc:
            tracer.close(span, exc)
            raise
        tracer.close(span)
        span.attrs["bytes_out"] = int(result.nbytes)
        return result
    return wrapper


class Instrumentation:
    """Installs and removes the tracing wrappers for one package."""

    def __init__(self, tracer: Tracer, package: str = "evfaraday"):
        self.tracer = tracer
        self.package = package
        self._patched: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.fft
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = (fn, _wrap_function(self.tracer, layer,
                                                       name, fn))
        # re-bind at every import site inside the package, the defining
        # module included
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or
                                      mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for name in FFT_FUNCTIONS:
            self._set(scipy.fft, name,
                      _wrap_fft(self.tracer, name, getattr(scipy.fft, name)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _innermost_errors(spans, layer: str) -> int:
    """Errored spans of a layer that have no errored child of that layer,
    so an exception passing through nested calls counts once."""
    errored = {s.id for s in spans if s.layer == layer and s.error}
    parents = {s.parent for s in spans if s.id in errored}
    return len(errored - parents)


def layer_summary(spans, root_layer: str = "cli") -> dict:
    """Per-layer self times, call counts and work counts of one sequence."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = {}
    for layer in (root_layer,) + LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in mine)
        if layer != root_layer:
            out[f"{layer}.calls"] = len(mine)
    for layer in ("analysis", "gratings"):
        out[f"{layer}.errors"] = _innermost_errors(spans, layer)

    def outermost_propagation(s):
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.layer == "propagation":
                return False
            parent = by_id.get(parent.parent)
        return True

    stepping = [s for s in spans if s.layer == "propagation"
                and "steps" in s.attrs and outermost_propagation(s)]
    steps = sum(s.attrs["steps"] for s in stepping)
    planes = sum(s.attrs["planes"] for s in stepping)
    plans = [s for s in spans if s.layer == "propagation"
             and s.name == "make_plan"]
    out["propagation.steps"] = steps
    out["propagation.steps_per_plane"] = steps / planes if planes else 0.0
    out["propagation.plans"] = len(plans)
    out["propagation.plan_s"] = sum(s.duration for s in plans
                                    if outermost_propagation(s))

    ffts = [s for s in spans if s.layer == "fft"]
    busy = sum(s.duration for s in ffts)
    flops = sum(s.attrs["flops"] for s in ffts)
    out["fft.calls"] = len(ffts)
    out["fft.busy_s"] = busy
    out["fft.points"] = sum(s.attrs["points"] for s in ffts)
    out["fft.flops_computed"] = flops
    out["fft.bytes_computed"] = sum(s.attrs["bytes_in"] +
                                    s.attrs.get("bytes_out", 0) for s in ffts)
    out["fft.gflops"] = flops / busy / 1e9 if busy > 0 else 0.0
    out["traced_accounted_s"] = sum(selfs.values())
    return out
