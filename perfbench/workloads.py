"""The four workloads: inputs from the seed, set-up, timed part, checks.

Each workload is driven in rounds by ``run.py``.  One round is

1. ``setup(seed)``: generate the inputs (or build the spec and its
   ``ModelChecker``) — timed as set-up;
2. ``timed(rnd)``: the part that ``wall_s`` / ``states_per_s`` time;
3. ``observe(rnd, output)``: read ground truth and outputs into plain
   data for the checks in :mod:`checks` (not timed).

The sim workloads run the program's own drivers, ``run_install_workload``
and ``run_failure_workload``.  Those build their ``System`` inside the
call and return only latencies, so the timed part hands the driver a
pass-through ``build_system`` (:func:`_keep_build`) that times the build
and keeps the ``System`` for the checks; the build is then charged to
set-up, not to the timed part.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

import checks
import repro.experiments.common as common
import repro.orchestrator.failures as failures
from repro.baselines import PrController
from repro.core.config import ControllerConfig
from repro.core.controller import ZenithController
from repro.core.types import DagStatus, OpType
from repro.net import FailureMode
from repro.net.topology import kdl, subgraph
from repro.orchestrator.failures import SwitchFailureEvent
from repro.spec import ModelChecker
from repro.spec.compile import CompiledStepper
from repro.spec.specs import build_spec, controller_spec

__all__ = ["WORKLOADS", "Round"]


@dataclass
class Round:
    """What one round hands from set-up to the timed part and checks."""

    seed: int
    inputs: dict
    system: Any = None
    checker: Any = None
    spec: Any = None
    #: Seconds of the timed part spent in ``build_system`` (set-up work).
    build_s: float = 0.0
    extra: dict = field(default_factory=dict)


@contextlib.contextmanager
def _substituted(owner, name: str, replacement):
    """Replace ``owner.name`` for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _keep_build(rnd: Round):
    """A ``build_system`` that times the real one and keeps its System."""
    build_system = common.build_system

    def build(*args, **kwargs):
        t0 = time.perf_counter()
        rnd.system = build_system(*args, **kwargs)
        rnd.build_s = time.perf_counter() - t0
        return rnd.system

    return _substituted(common, "build_system", build)


def _tables(network) -> dict:
    """Ground truth: switch → entry ids, read with ``table_snapshot()``."""
    return {sw: {entry.entry_id for entry in network[sw].table_snapshot()}
            for sw in network.topology.switches}


def _view(controller) -> dict:
    """The controller's routing view, read from its NIB table."""
    view: dict = {sw: set() for sw in controller.network.topology.switches}
    for (switch, entry_id) in controller.state.routing_view.keys():
        view.setdefault(switch, set()).add(entry_id)
    return view


def _done_entries(controller) -> dict:
    """dag id → entries its INSTALL ops place, for every DONE DAG."""
    done = {}
    for dag_id, status in controller.state.dag_status.items():
        dag = controller.state.get_dag(dag_id)
        if status is not DagStatus.DONE or dag is None:
            continue
        done[dag_id] = {(op.switch, op.entry.entry_id)
                        for op in dag.ops.values()
                        if op.op_type is OpType.INSTALL
                        and op.entry is not None}
    return done


def _held(rnd: "Round", output) -> int:
    """Flow entries in the simulated data plane (the state it holds)."""
    network = rnd.system.network
    return sum(len(network[sw].table_snapshot())
               for sw in network.topology.switches)


class PrScale:
    """Fig. 11 install workload on the periodic-reconciliation controller.

    The timed part is ``run_install_workload`` as ``fig11`` calls it; the
    program draws the DAG paths itself from the seed's random streams.
    """

    name = "sim-pr-scale"
    kind = "sim"
    held = staticmethod(_held)
    size = 80
    background_per_switch = 10 * size
    duration = 150.0
    path_length = 5
    per_dag_deadline = 45.0
    switch_kwargs = {"op_process_time": 0.12, "channel_delay": 0.01}

    def setup(self, seed: int) -> Round:
        topology = subgraph(kdl(120, seed=seed), self.size, seed=seed)
        return Round(seed=seed, inputs={"topology": topology})

    def states(self, rnd: Round, latencies: list) -> int:
        """Switch-table entries the reconciler read (none during set-up)."""
        network = rnd.system.network
        return sum(network[sw].reconciliation_entries
                   for sw in network.topology.switches)

    def timed(self, rnd: Round) -> list:
        with _keep_build(rnd):
            return common.run_install_workload(
                PrController, rnd.inputs["topology"],
                duration=self.duration, path_length=self.path_length,
                seed=rnd.seed,
                config=ControllerConfig(reconciliation_period=30.0),
                background_entries=self.background_per_switch,
                switch_kwargs=self.switch_kwargs,
                per_dag_deadline=self.per_dag_deadline)

    def observe(self, rnd: Round, latencies: list) -> dict:
        controller = rnd.system.controller
        tables = _tables(rnd.system.network)
        return {
            "output": latencies,
            "attempted": len(latencies),
            "failed": sum(1 for x in latencies if x == float("inf")),
            "failures": (
                checks.done_dags_installed(_done_entries(controller), tables)
                + checks.latency_floor(latencies,
                                       self.switch_kwargs["op_process_time"])
                + checks.view_matches_tables(_view(controller), tables)),
        }


class ZenithFailures:
    """Fig. 12 sequential switch failures on the ZENITH controller.

    The timed part is ``run_failure_workload`` as ``fig12`` calls it
    (demands, build, injector, polling loop and stability oracle are the
    program's), with one input of the benchmark's own: the failure
    schedule, from :meth:`schedule`.  The program's one-at-a-time
    ``random_switch_failures`` draws exponential gaps and then shifts
    each failure past the previous recovery, so on some seeds failures
    land after the run ends or too close to it to re-stabilise; the
    benchmark's schedule keeps every failure and its recovery inside the
    window, so every seed injects all of them.
    """

    name = "sim-zenith-failures"
    kind = "sim"
    held = staticmethod(_held)
    size = 60
    num_demands = 8
    failure_count = 8
    settle = 15.0        # run_failure_workload's build settle
    window = 120.0
    grace = 60.0         # run_failure_workload's grace after the window
    poll = 0.05

    @staticmethod
    def schedule(switches, streams, window, count, mean_downtime,
                 concurrent, protected) -> list:
        """``random_switch_failures``'s inputs, one failure per slot.

        Each failure starts in the first quarter of its slot and is
        recovered within half a slot, so outages never overlap and all
        end well before the window does.
        """
        assert not concurrent
        stream = streams.child("switch-failures")
        candidates = [s for s in switches if s not in set(protected)]
        start, end = window
        slot = (end - start) / count
        events = []
        for i in range(count):
            at = start + i * slot + stream.uniform(0.0, 0.25 * slot)
            downtime = min(stream.expovariate(1.0 / mean_downtime),
                           0.5 * slot)
            mode = (FailureMode.COMPLETE if stream.random() < 0.5
                    else FailureMode.PARTIAL)
            events.append(SwitchFailureEvent(at, stream.choice(candidates),
                                             mode, max(downtime, 0.5)))
        return events

    def setup(self, seed: int) -> Round:
        topology = subgraph(kdl(300, seed=seed), self.size, seed=seed)
        return Round(seed=seed, inputs={"topology": topology})

    def states(self, rnd: Round, episodes: list) -> int:
        """Network states the stability oracle checked: one per poll."""
        polls, now = 0, self.settle
        end = self.settle + 5.0 + self.window + self.grace
        while now < end:  # the steps of run_failure_workload's loop
            polls += 1
            now = now + self.poll
        return polls

    def timed(self, rnd: Round) -> list:
        def schedule(*args, **kwargs):
            rnd.extra["events"] = self.schedule(*args, **kwargs)
            return rnd.extra["events"]

        with _keep_build(rnd), _substituted(
                failures, "random_switch_failures", schedule):
            return common.run_failure_workload(
                ZenithController, rnd.inputs["topology"],
                failure_kind="switch", duration=self.window,
                failure_count=self.failure_count,
                num_demands=self.num_demands, seed=rnd.seed,
                config=ControllerConfig(reconciliation_period=30.0),
                poll=self.poll)

    def observe(self, rnd: Round, episodes: list) -> dict:
        system = rnd.system
        switches = [system.network[sw]
                    for sw in system.network.topology.switches]
        scheduled = len(rnd.extra["events"])
        injected = sum(switch.failure_count for switch in switches)
        tables = _tables(system.network)
        down = [switch.switch_id for switch in switches
                if not switch.is_healthy]
        return {
            "output": episodes,
            "attempted": scheduled,
            "failed": (max(scheduled - injected, 0)
                       + sum(1 for x in episodes if x == float("inf"))),
            "failures": (
                checks.episodes_end(episodes, injected, scheduled)
                + [f"switches still down at the end: {down}"] * bool(down)
                + checks.done_dags_installed(
                    _done_entries(system.controller), tables)
                + checks.view_matches_tables(_view(system.controller),
                                             tables)),
        }


class CheckWorkload:
    """Model checking one configuration plus a seeded-bug configuration.

    The configurations do not depend on the seed: the checker's inputs
    are fixed spec parameters, and the run is deterministic.
    """

    kind = "check"
    spec_kwargs: dict = {}
    engine: dict = {}
    bug_spec = "controller-buggy-recovery"

    def setup(self, seed: int, profile: bool = False, wrap=None) -> Round:
        spec = controller_spec(**self.spec_kwargs)
        if wrap is not None:
            wrap(spec)
        checker = ModelChecker(spec, profile=profile, **self.engine)
        return Round(seed=seed, inputs=dict(self.spec_kwargs), spec=spec,
                     checker=checker)

    def timed(self, rnd: Round):
        return rnd.checker.run()

    def states(self, rnd: Round, result) -> int:
        """Distinct states explored."""
        return result.distinct_states

    held = states

    def observe(self, rnd: Round, result) -> dict:
        verdict = checks.verdict_ok(json.loads(result.to_json()))
        bug = self.seeded_bug()
        return {"output": result.to_json(), "attempted": 2,
                "failed": bool(verdict) + bool(bug),
                "failures": verdict + bug, "result": result}

    def seeded_bug(self) -> list[str]:
        """The seeded-bug spec must fail, with a replayable trace."""
        spec = build_spec(self.bug_spec)
        result = ModelChecker(spec, **self.engine).run()
        failures = checks.seeded_bug_found(json.loads(result.to_json()))
        if failures:
            return failures
        stepper = CompiledStepper(spec, use_por=False)
        canonical = spec.symmetry or (lambda state: state)
        for violation in result.violations:
            predicate = (spec.invariants.get(violation.property_name)
                         or spec.eventually_always.get(
                             violation.property_name))
            if predicate is None:
                failures.append(f"unknown property "
                                f"{violation.property_name!r}")
                continue
            failures += checks.replay_trace(
                violation.trace, spec.initial_state(), stepper.successors,
                canonical,
                lambda state, p=predicate: not p(spec.view(state)))
        return failures


class CheckChain(CheckWorkload):
    """The compiled engine on a 3-op chain with two failures, no symmetry."""

    name = "check-chain"
    spec_kwargs = {"num_ops": 3, "num_switches": 2, "failures": 2}
    engine = {"compiled": True, "symmetry": False}


class CheckTable4(CheckWorkload):
    """The interpreted engine on the Table-4 configuration, symmetric."""

    name = "check-table4"
    spec_kwargs = {"num_ops": 2, "edges": [], "num_switches": 2,
                   "failures": 1}
    engine = {"symmetry": True, "por": True}


WORKLOADS = {w.name: w for w in (PrScale(), ZenithFailures(), CheckChain(),
                                 CheckTable4())}
