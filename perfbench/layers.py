"""Per-layer tracing from outside the program.

The traced run wraps the public entry point of each layer of
``repro`` with a span recorder kept in memory, runs the timed phase,
and derives per-layer self times from the spans plus work counts from
the program's own ``repro.obs.metrics`` registry.  The program itself
gets no new spans: every wrapper is installed by this module, in the
benchmark's own process, after import.

A span's *self time* is its duration minus the durations of the
spans it directly caused.  Spans marked transparent (``solve_offline``
and the predictive controllers' ``.run``) only report their inclusive
duration: their own time stays with the enclosing layer and their
children count as the enclosing layer's children.  That keeps the LP
assembly the predictive controllers do per window inside
``engine.self_s``, where it runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

#: ``(span name, module, class, method, opaque)`` of every
#: wrapped entry point.  Layer self times are reported per span name.
ENTRY_POINTS = (
    ("serve", "repro.serve.runtime", "ServeLoop", "run", True),
    ("serve.events", "repro.serve.events", "EventLog", "emit", True),
    ("obs.health", "repro.obs.health", "HealthMonitor", "observe_slot", True),
    ("engine", "repro.engine.session", "SolveSession", "step", True),
    ("core.solve_reduced", "repro.core.subproblem", "RegularizedSubproblem", "solve_reduced", True),
    ("core.split", "repro.core.subproblem", "RegularizedSubproblem", "split", True),
    ("backends", "repro.solvers.backends.batched", "BatchedNewtonBackend", "solve", True),
    ("backends", "repro.solvers.backends.sequential", "SequentialBackend", "solve", True),
    ("convex", "repro.solvers.convex", "SmoothConvexProgram", "solve", True),
    ("lp", "repro.solvers.lp", "LinearProgram", "solve", True),
    ("prediction.fhc", "repro.prediction.fhc", "FixedHorizonControl", "run", False),
    ("prediction.rhc", "repro.prediction.rhc", "RecedingHorizonControl", "run", False),
    ("prediction.rfhc", "repro.prediction.rfhc", "RegularizedFixedHorizonControl", "run", False),
    ("prediction.rrhc", "repro.prediction.rrhc", "RegularizedRecedingHorizonControl", "run", False),
)

ROOT = "bench.timed"

#: Layers whose self times the report breaks wall time into.
LAYERS = (
    "serve", "serve.events", "obs.health", "engine", "core.solve_reduced",
    "core.split", "backends", "convex", "lp", ROOT,
)


class SpanRecorder:
    """In-memory spans ``[name, id, parent, start, end, self, attrs]``."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        # Open spans: [span id, opaque, time covered by opaque children].
        self._stack: "list[list]" = []

    def _open(self, name: str, opaque: bool) -> "list":
        parent = self._stack[-1][0] if self._stack else -1
        record = [name, len(self.spans), parent, 0.0, 0.0, None, None]
        self.spans.append(record)
        self._stack.append([record[1], opaque, 0.0])
        record[3] = time.perf_counter()
        return record

    def _close(self, record: "list") -> None:
        record[4] = end = time.perf_counter()
        _, opaque, covered = self._stack.pop()
        if not opaque:
            return
        duration = end - record[3]
        record[5] = duration - covered
        for frame in reversed(self._stack):
            if frame[1]:
                frame[2] += duration
                break

    def wrap(self, fn, name: str, opaque: bool, note=None):
        """``fn`` recording one span per call; ``note(args, result)``
        may return attributes to store on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, opaque)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[6] = note(args, result)
                return result
            finally:
                self._close(record)

        return traced

    def root(self, fn):
        """Run ``fn()`` inside the root span; returns its result."""
        record = self._open(ROOT, True)
        try:
            return fn()
        finally:
            self._close(record)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "id", "parent", "start", "end", "self", "attrs"],
                    "spans": self.spans,
                },
                fh,
            )


def _convex_note(args, result):
    return {"backend": args[0].last_info.backend}


def install(recorder: SpanRecorder, extra_modules=()) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`.

    ``solve_offline`` is a module-level function imported by name into
    several modules, so it is replaced wherever it was imported —
    in ``repro`` and in ``extra_modules`` (the benchmark's own).
    """
    import importlib

    for name, module, cls, attr, opaque in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module), cls)
        note = _convex_note if name == "convex" else None
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, opaque, note))

    from repro.offline import optimal

    original = optimal.solve_offline
    traced = recorder.wrap(original, "offline", False)
    modules = [m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")]
    for mod in modules + list(extra_modules):
        if getattr(mod, "solve_offline", None) is original:
            mod.solve_offline = traced


def _registry_totals(snapshot: dict) -> "dict[str, list[tuple[dict, float]]]":
    """Family name -> ``[(labels, value or histogram sum)]``."""
    out: dict = {}
    for entry in snapshot.get("metrics", []):
        value = entry["sum"] if entry["type"] == "histogram" else entry["value"]
        out.setdefault(entry["name"], []).append((entry["labels"], float(value)))
    return out


def _total(families, name: str, where=lambda labels: True) -> float:
    return sum(v for labels, v in families.get(name, []) if where(labels))


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans: "list[list]", snapshot: dict) -> "tuple[dict, dict]":
    """Per-layer metrics and the wall-time attribution of a traced run.

    Returns ``(metrics, attribution)``: ``metrics`` maps per-layer
    metric names to values; ``attribution`` maps each layer in
    :data:`LAYERS` to its share of the root span's duration.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: dict = {}
    inclusive: dict = {}
    trust_constr = 0
    root = next(s for s in spans if s[0] == ROOT)
    for name, _, parent, start, end, own, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        if own is not None:
            self_s[name] = self_s.get(name, 0.0) + own
        if name == "offline" and parent != root[1]:
            continue  # windows planned by the predictive controllers
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if name == "convex" and attrs and attrs.get("backend") == "trust-constr":
            trust_constr += 1

    fam = _registry_totals(snapshot)
    fallbacks = _total(fam, "backend_sequential_fallbacks_total")
    backend_slots = _total(fam, "backend_slots_total")
    warm = _total(fam, "subproblem_warm_starts_total")
    metrics = {
        "serve.self_s": self_s["serve"],
        "serve.events_s": self_s["serve.events"],
        "obs.health_s": self_s["obs.health"],
        "engine.self_s": self_s["engine"],
        "core.split_s": self_s["core.split"],
        "core.solve_reduced_s": self_s["core.solve_reduced"],
        "backends.self_s": self_s["backends"],
        "backends.fast_path_hits": _total(fam, "backend_fast_path_hits_total"),
        "backends.newton_iters": _total(fam, "backend_fused_newton_iters_total"),
        "backends.fallbacks": fallbacks,
        "backends.fallback_share": _share(fallbacks, backend_slots + fallbacks),
        "convex.self_s": self_s["convex"],
        "convex.calls": calls.get("convex", 0),
        "barrier.newton_iters": _total(fam, "solver_newton_iters_total"),
        "barrier.backtracks": _total(fam, "solver_backtracks_total"),
        "barrier.factorization_s": _total(fam, "solver_factorization_seconds"),
        "convex.trust_constr_share": _share(trust_constr, calls.get("convex", 0)),
        "core.warm_hit_share": _share(
            _total(fam, "subproblem_warm_starts_total", lambda l: l.get("outcome") == "hit"),
            warm,
        ),
        "lp.self_s": self_s["lp"],
        "lp.calls": calls.get("lp", 0),
        "offline.solve_s": inclusive.get("offline", 0.0),
    }
    for algo in ("fhc", "rhc", "rfhc", "rrhc"):
        metrics[f"prediction.{algo}_s"] = inclusive.get(f"prediction.{algo}", 0.0)
    wall = root[4] - root[3]
    attribution = {layer: _share(self_s[layer], wall) for layer in LAYERS}
    return metrics, attribution
