"""Spans around the public functions of each layer, installed from outside.

The tracer replaces module attributes: every public function defined in
one of the layer modules is wrapped, and the wrapper is bound under every
name that held the original in any module of the package (``fringes``
binds ``bragg_angle`` from ``planner``, the package re-exports nearly
everything). ``FormFactorTable.f_at`` is wrapped on its class. Functions
reached only through private tables (the CLI's command dispatch) are
timed inside the ``cli.main`` span that calls them.

A span holds its name, start, end, parent span and the op it belongs to.
Spans stay in compact arrays in memory and are written out when the run
ends; a few per-call facts (samples, points, trials, allocation peaks,
error types) are kept as events on their span.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = ("formfactor", "lattice", "planner", "fringes", "inference", "cli")


class Spans:
    """Span arrays plus per-span events; one thread, properly nested."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.events: list[tuple] = []  # (span index, key, value)
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        """JSON header line, then the raw arrays in header order."""
        header = {"names": self.names, "n": len(self.start), "events": self.events,
                  "arrays": ["name", "parent", "op", "start", "end"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key in header["arrays"]:
                getattr(self, key).tofile(fh)

    @classmethod
    def load(cls, path) -> "Spans":
        spans = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            spans.names = header["names"]
            spans._ids = {n: i for i, n in enumerate(spans.names)}
            spans.events = [tuple(e) for e in header["events"]]
            for key in header["arrays"]:
                getattr(spans, key).fromfile(fh, header["n"])
        return spans


# --- per-call facts recorded as events ------------------------------------


def _f_at_facts(spans, idx, args, kwargs, result):
    table, q = args[0], args[1] if len(args) > 1 else kwargs["q_over_4pi"]
    if float(q) > table.q_max:
        spans.events.append((idx, "extrapolated", 1))


def _profile_facts(spans, idx, args, kwargs, result):
    n = len(result.lam)
    spans.events.append((idx, "samples", n))
    spans.events.append((idx, "bytes", sum(a.nbytes for a in (
        result.lam, result.two_theta_deg, result.argument, result.intensity))))


def _bessel_facts(spans, idx, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    spans.events.append((idx, "points", getattr(x, "size", 1)))


def _mc_facts(spans, idx, args, kwargs, result):
    spans.events.append((idx, "trials", result.n_trials))


_FACTS = {
    "formfactor.f_at": _f_at_facts,
    "fringes.intensity_profile": _profile_facts,
    "fringes.bessel_j0": _bessel_facts,
    "inference.monte_carlo_validate": _mc_facts,
}
# Calls whose allocation peak is recorded; tracemalloc runs only around them.
_TRACE_ALLOC = {"inference.monte_carlo_validate"}


def _wrap(spans: Spans, name: str, fn):
    nid = spans.name_id(name)
    facts = _FACTS.get(name)
    alloc = name in _TRACE_ALLOC

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if alloc:
            tracemalloc.start()
        idx = spans.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            spans.close(idx)
            spans.events.append((idx, "error", type(exc).__name__))
            raise
        finally:
            if alloc:
                spans.events.append((idx, "peak_alloc", tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()
        spans.close(idx)
        if facts is not None:
            facts(spans, idx, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs span-recording wrappers into the imported package."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self._undo: list[tuple] = []

    def install(self) -> None:
        from pendellosung.formfactor import FormFactorTable

        package = "pendellosung"
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = _wrap(self.spans, f"{layer}.{attr}", obj)
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        original = FormFactorTable.f_at
        self._undo.append((FormFactorTable, "f_at", original))
        FormFactorTable.f_at = _wrap(self.spans, "formfactor.f_at", original)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()


# --- summaries --------------------------------------------------------------


def _columns(spans: Spans, ops):
    """numpy views of the span arrays, durations, time covered by direct
    children, and a mask of the spans belonging to the given ops."""
    import numpy as np  # only summaries need numpy; run.py loads spans without it

    name = np.frombuffer(spans.name, dtype=np.int32)
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    op = np.frombuffer(spans.op, dtype=np.int32)
    dur = np.frombuffer(spans.end) - np.frombuffer(spans.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    mask = np.isin(op, np.fromiter(ops, dtype=np.int32))
    return np, name, parent, dur, child, mask


def summarize(spans: Spans, ops) -> dict:
    """Per span name over the given op ids: calls, total and self seconds,
    summed event values, and the largest allocation peak."""
    np, name, _, dur, child, mask = _columns(spans, ops)
    k = len(spans.names)
    calls = np.bincount(name[mask], minlength=k)
    total = np.bincount(name[mask], weights=dur[mask], minlength=k)
    self_s = np.bincount(name[mask], weights=(dur - child)[mask], minlength=k)
    out = {spans.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                            "self_s": float(self_s[i])}
           for i in np.flatnonzero(calls)}
    for i, key, value in spans.events:
        if not mask[i]:
            continue
        s = out[spans.names[spans.name[i]]]
        if key == "error":
            s.setdefault("errors", {})
            s["errors"][value] = s["errors"].get(value, 0) + 1
        elif key == "peak_alloc":
            s["peak_alloc"] = max(s.get("peak_alloc", 0), value)
        else:
            s[key] = s.get(key, 0) + value
    return out


def child_counts(spans: Spans, ops, parent_name: str, child_name: str) -> int:
    """Spans named child_name whose direct parent is named parent_name."""
    if parent_name not in spans._ids or child_name not in spans._ids:
        return 0
    np, name, parent, _, _, mask = _columns(spans, ops)
    sel = mask & (name == spans._ids[child_name]) & (parent >= 0)
    return int(np.count_nonzero(name[parent[sel]] == spans._ids[parent_name]))
