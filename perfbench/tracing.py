"""Per-layer tracing of the stripldp modules, driven from outside the program.

`Tracer.install()` replaces every binding of every public function of the
traced modules (and the public methods of their public classes) with a
timing wrapper, in every module that holds it: `lmgf` imports
`solve_phi_window` by name, so patching `stripldp.phi` alone would miss
those calls. `uninstall()` puts the originals back.

Each call opens a frame on a per-thread stack. Frames of ordinary functions
become spans (id, parent, name, thread, start, end, op) held in memory;
`hot` functions, and everything they call, are only aggregated as a count
plus summed time, because `trial_uniforms` alone runs about once per Monte
Carlo trial. A span opened at the bottom of a worker thread's stack (the
rate curve's thread pool) takes as parent the innermost span open in the
main thread, since context variables do not follow work into pool threads.

Self time is the span's duration minus the part of its interval that its
children cover; see `self_times`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time

TRACED_MODULES = ("env", "phi", "products", "lmgf", "rates", "montecarlo", "cli")

# aggregated, never recorded as spans: called thousands of times per op
HOT = frozenset({
    "montecarlo.trial_uniforms",
    "phi.hitting_kernels",
    "env.EnvironmentWindow.index_of",
    "env.EnvironmentWindow.slice_at",
})


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time of each span: duration minus `inner` (time of aggregated
    same-thread children) minus the union of its recorded children's
    intervals. Children in other threads may overlap each other; the union
    counts covered time once.

    `spans` holds dicts with keys id, parent, start, end and optionally inner.
    Returns {id: self_seconds}.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = union_length(children.get(s["id"], ()), s["start"], s["end"])
        own = s["end"] - s["start"] - s.get("inner", 0.0) - covered
        out[s["id"]] = max(own, 0.0)
    return out


class _Frame:
    __slots__ = ("name", "start", "span", "parent_span", "child", "inner")

    def __init__(self, name, start, span, parent_span):
        self.name = name
        self.start = start
        self.span = span  # None when aggregated only
        self.parent_span = parent_span
        self.child = 0.0  # same-thread children, all kinds
        self.inner = 0.0  # same-thread children that are not spans


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[_Frame] = []
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []


def _public_functions(module):
    """(owner, attribute, function, qualified name) of each public function
    defined in `module`, and of each public method and __init__ of its public
    classes (properties, class methods and generated dataclass methods are
    left alone)."""
    short = module.__name__.rsplit(".", 1)[-1]
    src = module.__file__
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, f"{short}.{name}"
        elif (inspect.isclass(obj) and obj.__module__ == module.__name__
              and not issubclass(obj, BaseException)):
            for attr, fn in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if inspect.isfunction(fn) and fn.__code__.co_filename == src:
                    yield obj, attr, fn, f"{short}.{obj.__name__}.{attr}"


class Tracer:
    """Wraps the public functions of the traced modules; see module doc."""

    def __init__(self, package, hooks=None):
        self.package = package
        self.modules = [package] + [
            getattr(package, m) for m in TRACED_MODULES
        ]
        self.hooks = hooks or {}
        self.op = None  # request id stamped on each span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patches: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module in self.modules[1:]:
            for owner, attr, fn, qual in _public_functions(module):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(qual, fn))
                if inspect.isclass(owner):
                    self._patch(owner, attr, fn, wrappers[id(fn)][1])
        # every module-level binding of a wrapped function, including names
        # imported with `from .phi import solve_phi_window`
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _foreign_parent(self):
        """Innermost span open in the main thread (parent of a pool task)."""
        for st in list(self._states):
            if st.ident == self._main:
                for frame in reversed(list(st.stack)):
                    if frame.span is not None:
                        return frame.span
        return None

    def _wrap(self, name, fn):
        tracer = self
        hot = name in HOT
        hook = self.hooks.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if hot or (parent is not None and parent.span is None):
                frame = _Frame(name, 0.0, None, None)
            else:
                parent_span = (parent.span if parent is not None
                               else (tracer._foreign_parent()
                                     if st.ident != tracer._main else None))
                frame = _Frame(name, 0.0, next(tracer._ids), parent_span)
            stack.append(frame)
            frame.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame.start
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                if frame.span is None:
                    agg[2] += dur - frame.child
                else:
                    st.spans.append((frame.span, frame.parent_span, name, st.ident,
                                     frame.start, end, frame.inner, tracer.op))
                if parent is not None:
                    parent.child += dur
                    if frame.span is None:
                        parent.inner += dur
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- extra counters set by hooks ----------------------------------------

    def count(self, key: str, amount=1) -> None:
        st = self._state()
        agg = st.agg.get(key)
        if agg is None:
            agg = st.agg[key] = [0, 0.0, 0.0]
        agg[0] += amount

    def in_stack(self, name: str) -> bool:
        """Whether `name` is open in the calling thread."""
        return any(f.name == name for f in self._state().stack)

    # -- results ------------------------------------------------------------

    def spans(self) -> list[dict]:
        keys = ("id", "parent", "name", "thread", "start", "end", "inner", "op")
        with self._lock:
            states = list(self._states)
        return [dict(zip(keys, s)) for st in states for s in st.spans]

    def totals(self) -> dict:
        """{name: {"calls", "s", "self_s"}} over all threads, spans included."""
        with self._lock:
            states = list(self._states)
        out: dict[str, dict] = {}
        for st in states:
            for name, (calls, total, own) in st.agg.items():
                row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["s"] += total
                row["self_s"] += own
        spans = self.spans()
        by_id = {s["id"]: s for s in spans}
        for sid, own in self_times(spans).items():
            out[by_id[sid]["name"]]["self_s"] += own
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans():
                fh.write(json.dumps(s) + "\n")
