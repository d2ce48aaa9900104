"""Outside-in tracer for the stewart66 library layers.

The tracer edits no source.  It replaces every public function of the
six library modules with a timing wrapper in every stewart66 namespace
that binds it: the defining module, the package root, and modules that
imported the name (fk_nonsingular binds its own build_q through
`from .geometry import build_q`).  Calls made through any of those
names, intra-module calls included, then leave a span.

A span is (op, id, parent, name, start_ns, end_ns, exception, size):
the operation it belongs to, the span that called it (0 for none), the
exception class name if the call raised, and for the functions in SIZES
the number of items returned.  Spans stay in memory until the caller
takes them; `dump` writes them out as JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("geometry", "linalg", "ik", "rotation", "fk_nonsingular", "fk_singular")

# How many items a call produced, for the counts that need it.
SIZES = {
    "fk_nonsingular.quaternions_from_w": lambda r: len(r.quaternions),
    "fk_nonsingular.position_from_w": len,
    "fk_nonsingular.solutions_from_w": len,
}


def library_functions() -> dict:
    """{function object: "layer.name"} for the public functions of each layer."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"stewart66.{layer}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out[obj] = f"{layer}.{name}"
    return out


def _namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stewart66" or name.startswith("stewart66."))]


class Tracer:
    """Wraps the library functions while installed; collects spans."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = [0]
        self._next_id = 1
        self._patched = []  # (namespace, attribute, original)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import stewart66  # noqa: F401  (all layers load with the package)
        wrappers = {fn: self._wrap(fn, name) for fn, name in library_functions().items()}
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, and check that it is back."""
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        stale = [f"{ns.__name__}.{attr}" for ns, attr, original in self._patched
                 if getattr(ns, attr) is not original]
        self._patched = []
        if stale:
            raise RuntimeError(f"tracer left wrapped bindings: {stale}")

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        sizer = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end, type(exc).__name__, None))
                raise
            end = perf_counter_ns()
            stack.pop()
            spans.append((self.op, sid, parent, name, start, end, None,
                          sizer(result) if sizer else None))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path, op: int, id_offset: int) -> list:
    """Spans written by `dump`, moved to operation `op` with ids shifted."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return [(op, sid + id_offset, parent + id_offset if parent else 0, name, start, end, exc, size)
            for _, sid, parent, name, start, end, exc, size in raw]


def span_counts(spans) -> dict:
    """Exact counts from one traced pass: calls, raises and items per function."""
    counts = Counter()
    for _, _, _, name, _, _, exc, size in spans:
        counts[f"calls:{name}"] += 1
        if exc is not None:
            counts[f"raised:{name}:{exc}"] += 1
        if size is not None:
            counts[f"items:{name}"] += size
    by_id = {sid: (parent, name) for _, sid, parent, name, *_ in spans}
    for _, _, parent, name, _, _, exc, _ in spans:
        if name != "fk_singular.recover_poses":
            continue
        if exc is None:
            counts["recover_feasible"] += 1
        while parent:
            parent, caller = by_id[parent]
            if caller in ("fk_singular.feasible_interval", "fk_singular.sweep"):
                counts[f"recover_under:{caller}"] += 1
                break
    return dict(counts)


def self_time_ns(spans) -> dict:
    """Per-layer self time: span duration minus its direct children's."""
    child = Counter()
    for _, _, parent, _, start, end, _, _ in spans:
        if parent:
            child[parent] += end - start
    out = Counter({layer: 0 for layer in LAYERS})
    for _, sid, _, name, start, end, _, _ in spans:
        out[name.split(".", 1)[0]] += end - start - child[sid]
    return dict(out)


def layer_metrics(counts: dict, self_ns: dict, ops: int) -> dict:
    """The library part of the per-layer metrics, per operation."""
    def per_op(x):
        return x / ops

    def ratio(num, den):
        return num / den if den else 0.0

    calls = Counter()
    for key, value in counts.items():
        if key.startswith("calls:"):
            calls[key[6:].split(".", 1)[0]] += value
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = per_op(self_ns[layer] / 1e3)
        out[f"{layer}.calls_per_op"] = per_op(calls[layer])
    c = Counter(counts)
    points = c["items:fk_nonsingular.position_from_w"]
    out.update({
        "geometry.q_builds_per_op": per_op(c["calls:geometry.build_q"]),
        "linalg.factorizations_per_op": per_op(c["calls:linalg.lu_factor"]),
        "ik.audits_per_op": per_op(c["calls:ik.leg_lengths"]),
        "fk_nonsingular.candidates_per_op": per_op(c["items:fk_nonsingular.quaternions_from_w"]),
        "fk_nonsingular.points_per_op": per_op(points),
        "fk_nonsingular.no_intersection_per_op":
            per_op(c["raised:fk_nonsingular.position_from_w:NoIntersection"]),
        "fk_nonsingular.accept_ratio": ratio(c["items:fk_nonsingular.solutions_from_w"], points),
        "fk_singular.recover_calls_per_interval":
            ratio(c["recover_under:fk_singular.feasible_interval"],
                  c["calls:fk_singular.feasible_interval"]),
        "fk_singular.recover_calls_per_sweep":
            ratio(c["recover_under:fk_singular.sweep"], c["calls:fk_singular.sweep"]),
        "fk_singular.feasible_ratio":
            ratio(c["recover_feasible"], c["calls:fk_singular.recover_poses"]),
    })
    return out
