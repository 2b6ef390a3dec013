"""The benchmark's own tests (about a minute).

    python3 -m pytest perfbench/test_perfbench.py

* a traced round gives the same program outputs as an untraced one;
* the wrappers are gone afterwards, and an untraced run loads none;
* every output check fails when fed a doctored result.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.spec import ModelChecker  # noqa: E402
from repro.spec.compile import CompiledStepper  # noqa: E402
from repro.spec.specs import build_spec  # noqa: E402


def _wrapped_attributes() -> dict:
    """Every attribute the wrappers replace, with its current value."""
    rec = tracing.SpanRecorder()
    undo = tracing.install_wrappers(rec)
    keys = [(owner, name) for owner, name, _ in undo]
    tracing.remove_wrappers(undo)
    return {(owner, name): owner.__dict__[name] for owner, name in keys}


def _traced_and_untraced(name: str):
    runner = run.Runner(workloads.WORKLOADS[name], seed=3)
    before = _wrapped_attributes()
    base = runner.round()
    rec = tracing.SpanRecorder()
    traced = runner.round(rec)
    after = {key: key[0].__dict__[key[1]] for key in before}
    return runner, base, traced, rec, before, after


def test_traced_sim_round_matches_untraced_and_unwraps():
    runner, base, traced, rec, before, after = _traced_and_untraced(
        "sim-zenith-failures")
    assert runner.failures == []
    assert runner.outputs[0] == runner.outputs[1]  # same episode list
    assert base["states"] == traced["states"]
    assert rec.calls["metrics.stability"] == traced["states"]
    assert rec.calls["sim.event"] > 0 and rec.span_count() > 0
    assert all(after[key] is before[key] for key in before)


def test_traced_check_round_matches_untraced_and_unwraps():
    runner, base, traced, rec, before, after = _traced_and_untraced(
        "check-table4")
    assert runner.failures == []
    assert runner.outputs[0] == runner.outputs[1]  # same to_json()
    assert "profile" in traced["result"].stats
    assert "profile" not in base["result"].stats
    assert rec.calls["spec.symmetry"] > 0
    assert not hasattr(traced["rnd"].spec.symmetry, "__wrapped__")
    assert all(after[key] is before[key] for key in before)


def test_untraced_run_loads_no_wrappers():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import run, workloads\n"
        "from repro.sim import Environment\n"
        "from repro.nib import NibTable\n"
        "import repro.experiments.common as common\n"
        "import repro.orchestrator.failures as failures\n"
        "original = (Environment.run, NibTable.put, common.build_system,\n"
        "            failures.random_switch_failures)\n"
        "run.Runner(workloads.WORKLOADS['sim-zenith-failures'], 1).round()\n"
        "assert 'tracing' not in sys.modules\n"
        "assert (Environment.run, NibTable.put, common.build_system,\n"
        "        failures.random_switch_failures) == original\n"
        "assert not hasattr(Environment.run, '__wrapped__')\n")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE),
                           str(HERE.parent / "src")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_span_self_time_excludes_children():
    rec = tracing.SpanRecorder()
    outer, inner = rec.layer_id("outer"), rec.layer_id("inner")
    rec.open(outer)
    rec.open(inner)
    rec.close()
    rec.close()
    assert list(rec.span_parent) == [-1, 0]
    inner_s = rec.span_end[1] - rec.span_start[1]
    outer_s = rec.span_end[0] - rec.span_start[0]
    assert math.isclose(rec.self_s["outer"], outer_s - inner_s,
                        abs_tol=1e-12)
    assert math.isclose(rec.self_s["inner"], inner_s, abs_tol=1e-12)


def test_generator_wrapper_times_each_resumption_and_returns():
    rec = tracing.SpanRecorder()

    def process(n):
        got = []
        for i in range(n):
            got.append((yield i))
        return got

    wrapped = tracing._timed_generator(rec, "proc", process)
    gen = wrapped(3)
    assert next(gen) == 0
    assert gen.send("a") == 1
    assert gen.send("b") == 2
    try:
        gen.send("c")
    except StopIteration as stop:
        assert stop.value == ["a", "b", "c"]
    assert rec.calls["proc"] == 1 and rec.span_count() == 4


# -- every check fails on a doctored result -----------------------------------

def test_done_dags_installed_detects_missing_entry():
    done = {7: {("s1", 10), ("s2", 11)}}
    assert checks.done_dags_installed(done, {"s1": {10}, "s2": {11}}) == []
    assert checks.done_dags_installed(done, {"s1": {10}, "s2": set()})


def test_latency_floor_detects_too_fast_dag():
    assert checks.latency_floor([0.5, 0.13], 0.12) == []
    assert checks.latency_floor([0.5, 0.05], 0.12)
    assert checks.latency_floor([], 0.12)
    assert checks.latency_floor([float("nan")], 0.12)
    assert checks.latency_floor([0.5, float("inf")], 0.12)


def test_episodes_end_detects_endless_episode_and_lost_failure():
    assert checks.episodes_end([0.4, 1.2], 8, 8) == []
    assert checks.episodes_end([0.4, float("inf")], 8, 8)
    assert checks.episodes_end([0.4, 1.2], 7, 8)
    assert checks.episodes_end([], 8, 8)


def test_view_matches_tables_detects_divergence():
    tables = {"s1": {1, 2}, "s2": set()}
    assert checks.view_matches_tables({"s1": {1, 2}}, tables) == []
    assert checks.view_matches_tables({"s1": {1}}, tables)
    assert checks.view_matches_tables({"s1": {1, 2}, "s2": {9}}, tables)


def test_same_across_rounds_detects_difference():
    assert checks.same_across_rounds([[1.0, 2.0], [1.0, 2.0]]) == []
    assert checks.same_across_rounds([[1.0, 2.0], [1.0, 2.5]])


def test_verdict_checks_detect_wrong_verdicts():
    good = {"ok": True, "distinct_states": 5, "transitions": 9,
            "violations": []}
    assert checks.verdict_ok(good) == []
    assert checks.verdict_ok({**good, "ok": False})
    assert checks.verdict_ok({**good, "distinct_states": 10})
    assert checks.seeded_bug_found({"ok": False, "violations": [{}]}) == []
    assert checks.seeded_bug_found(good)


def test_replay_accepts_real_counterexample_and_rejects_doctored_ones():
    spec = build_spec("controller-buggy-recovery")
    result = ModelChecker(spec).run()
    violation = result.violations[0]
    predicate = spec.eventually_always[violation.property_name]
    stepper = CompiledStepper(spec, use_por=False)
    canonical = spec.symmetry or (lambda state: state)

    def replay(trace):
        return checks.replay_trace(
            trace, spec.initial_state(), stepper.successors, canonical,
            lambda state: not predicate(spec.view(state)))

    trace = list(violation.trace)
    assert replay(trace) == []
    swapped = trace[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert replay(swapped)
    relabelled = trace[:]
    relabelled[2] = ("nobody.nothing", relabelled[2][1])
    assert replay(relabelled)
    assert replay(trace[1:])  # does not start in the initial state
    satisfied = next(i for i, (_, state) in enumerate(trace)
                     if predicate(spec.view(state)))
    assert replay(trace[:satisfied + 1])
    assert replay([])


def test_result_line_has_the_benchmark_metrics(tmp_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runner = run.Runner(workloads.WORKLOADS["check-table4"], seed=1)
    metrics = run.untraced(runner, seconds=1, import_s=0.5)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    runner = run.Runner(workloads.WORKLOADS["check-table4"], seed=1)
    layers = run.traced(runner, tmp_path / "spans.json")
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["start_ns"]) == layers["trace.spans"]["value"]
