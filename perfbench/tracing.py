"""Layer spans for the traced run, recorded from outside the program.

:class:`SpanRecorder` keeps every span in memory as columns (layer id,
start, end, parent span) and writes them once, at the end of the run.
A layer's *self time* is a span's duration minus the time its child
spans cover, so nested layers (a NIB write inside a reconciliation
cycle inside ``Environment.run``) are each charged only for their own
work.

:func:`install_wrappers` replaces the public calls named in
``README.md`` with timing or counting wrappers and returns an undo
list; :func:`remove_wrappers` restores the originals.  Untraced runs
never import this module.

Generator functions (``Reconciler.reconcile_once``,
``Nib.bulk_update``) are simulation processes: they yield to the event
loop and resume later.  They get one span per *resumption*, so the
wall time other processes run while they are suspended is not charged
to them.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

from repro.obs import Tracer

__all__ = ["EventCounter", "SpanRecorder", "install_wrappers",
           "remove_wrappers", "timed_span", "wrap_symmetry"]


class SpanRecorder:
    """In-memory spans plus per-layer self time and call counts."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        #: Indices of the open spans, innermost last.
        self._open: list[int] = []
        #: Child time accumulated by each open span, parallel to _open.
        self._child: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Sums of values returned by wrapped calls (e.g. fixes applied).
        self.totals: dict[str, float] = defaultdict(float)

    def layer_id(self, layer: str) -> int:
        """Small integer id of ``layer`` (assigned on first use)."""
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def open(self, lid: int) -> None:
        """Start a span of layer ``lid`` nested in the innermost open one."""
        index = len(self.span_layer)
        self.span_layer.append(lid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(index)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        """End the innermost open span and charge its self time."""
        end = time.perf_counter()
        index = self._open.pop()
        child = self._child.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.self_s[self.layers[self.span_layer[index]]] += duration - child
        if self._child:
            self._child[-1] += duration

    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self.span_layer)

    def write(self, path, **meta) -> None:
        """Write every span, column-wise, as one JSON document.

        Start and end are integer nanoseconds after the first span's
        start; ``parent`` is the index of the enclosing span or -1.
        """
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "perfbench.spans/v1", **meta,
                       "layers": self.layers,
                       "layer": self.span_layer.tolist(),
                       "start_ns": [round((t - origin) * 1e9)
                                    for t in self.span_start],
                       "end_ns": [round((t - origin) * 1e9)
                                  for t in self.span_end],
                       "parent": self.span_parent.tolist()},
                      handle, separators=(",", ":"))


def timed_span(rec: SpanRecorder, layer: str, fn, total: bool = False):
    """Wrap ``fn`` so each call is a span of ``layer``.

    With ``total`` the values it returns are summed in ``rec.totals``.
    """
    lid = rec.layer_id(layer)
    calls = rec.calls
    totals = rec.totals

    def wrapper(*args, **kwargs):
        calls[layer] += 1
        rec.open(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if total:
            totals[layer] += result
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_generator(rec: SpanRecorder, layer: str, genfn):
    lid = rec.layer_id(layer)
    calls = rec.calls

    def wrapper(*args, **kwargs):
        calls[layer] += 1
        gen = genfn(*args, **kwargs)
        value, error = None, None
        while True:
            rec.open(lid)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.close()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the process
                value, error = None, exc

    wrapper.__wrapped__ = genfn
    return wrapper


def _counted(rec: SpanRecorder, layer: str, fn):
    calls = rec.calls

    def wrapper(*args, **kwargs):
        calls[layer] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(undo: list, owner, name: str, replacement) -> None:
    undo.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, replacement)


def install_wrappers(rec: SpanRecorder) -> list:
    """Wrap the program's layer boundaries; returns the undo list."""
    import repro.analysis as analysis
    import repro.analysis.effects as effects
    import repro.baselines.pr as pr
    import repro.experiments.common as common
    import repro.workloads.background as background
    from repro.core.state import ControllerState
    from repro.net.switch import SimSwitch
    from repro.nib import Nib, NibTable
    from repro.sim import Environment

    undo: list = []
    _patch(undo, Environment, "run",
           timed_span(rec, "sim.run", Environment.run))
    for name in ("put", "delete"):
        _patch(undo, NibTable, name,
               timed_span(rec, "nib.write", NibTable.__dict__[name]))
    _patch(undo, NibTable, "clear",
           timed_span(rec, "nib.clear", NibTable.clear))
    _patch(undo, Nib, "bulk_update",
           _timed_generator(rec, "nib.bulk_update", Nib.bulk_update))
    for name in ("view_of_switch", "intended_entries",
                 "routing_view_snapshot", "clear_view_of_switch"):
        _patch(undo, ControllerState, name,
               timed_span(rec, "core.view_scan",
                          ControllerState.__dict__[name]))
    _patch(undo, pr.Reconciler, "reconcile_once",
           _timed_generator(rec, "baselines.reconcile",
                            pr.Reconciler.reconcile_once))
    _patch(undo, pr, "fix_switch_against_snapshot",
           timed_span(rec, "baselines.switch_fix",
                      pr.fix_switch_against_snapshot, total=True))
    healthy = SimSwitch.__dict__["is_healthy"]
    _patch(undo, SimSwitch, "is_healthy",
           property(_counted(rec, "net.health_read", healthy.fget)))
    # The stability oracle run_failure_workload polls, and the DAG check
    # it calls through the name common imported.
    _patch(undo, common, "_stable",
           timed_span(rec, "metrics.stability", common._stable))
    _patch(undo, common, "dag_installed_in_dataplane",
           timed_span(rec, "metrics.dag_check",
                      common.dag_installed_in_dataplane))
    # build_system calls the preload through the name it imported.
    preload = timed_span(rec, "workloads.preload",
                         background.preload_background_state)
    _patch(undo, background, "preload_background_state", preload)
    _patch(undo, common, "preload_background_state", preload)
    # The checker validates POR hints through repro.analysis (looked up
    # at call time); the inference itself runs only for specs with hints.
    _patch(undo, analysis, "verify_por_hints",
           timed_span(rec, "analysis.effects", analysis.verify_por_hints))
    _patch(undo, effects, "infer_effects",
           timed_span(rec, "analysis.effects", effects.infer_effects))
    return undo


def wrap_symmetry(rec: SpanRecorder, spec, undo: list) -> None:
    """Wrap a spec object's symmetry function (if it has one)."""
    if spec.symmetry is not None:
        _patch(undo, spec, "symmetry",
               timed_span(rec, "spec.symmetry", spec.symmetry))


def remove_wrappers(undo: list) -> None:
    """Restore every attribute :func:`install_wrappers` replaced."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


class EventCounter(Tracer):
    """Kernel tracer hook that counts the simulation events fired."""

    def __init__(self, rec: SpanRecorder):
        self.calls = rec.calls

    def event_fired(self, env, event) -> None:
        self.calls["sim.event"] += 1
