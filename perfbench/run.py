"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload sim-pr-scale --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  The untraced run (``--trace 0``) repeats whole rounds of the
workload until the next one would overrun ``--seconds`` and reports
the end-to-end metrics; the traced run (``--trace 1``) does one
untraced and one traced round and reports the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 after a finished run (even one whose checks failed,
which reads ``"correct": false``), 2 when the program is not there to
benchmark.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts before the first repro import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench-trace"

PHASES = ("por_ample", "successor_gen", "compile", "canonicalize", "dedup",
          "property_eval", "liveness")


def _peak_rss_bytes() -> int:
    """High-water mark of this process's resident set."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


#: The interpreter alone, before any repro import.  Memory only grows
#: until then, so the high-water mark is also the current size.
_RSS0 = _peak_rss_bytes()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Runner:
    """Drives the rounds of one workload and collects what they report."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: list = []

    def round(self, rec=None) -> dict:
        """One round: set-up, timed part, checks.  Returns its timings."""
        w = self.workload
        gc.collect()
        t0 = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if rec is not None:
                import tracing
                from repro.obs import observe

                undo = tracing.install_wrappers(rec)
                stack.callback(tracing.remove_wrappers, undo)
                stack.enter_context(observe(tracer=tracing.EventCounter(rec)))
            if w.kind == "check":
                wrap = None
                if rec is not None:
                    def wrap(spec):
                        tracing.wrap_symmetry(rec, spec, undo)
                rnd = w.setup(self.seed, profile=rec is not None, wrap=wrap)
            else:
                rnd = w.setup(self.seed)
            peak_run = _peak_rss_bytes()
            t1 = time.perf_counter()
            output = w.timed(rnd)
            t2 = time.perf_counter()
        peak = _peak_rss_bytes()
        seen = w.observe(rnd, output)
        self.attempted += seen["attempted"]
        self.failed += seen["failed"]
        self.failures += seen["failures"]
        self.outputs.append(seen["output"])
        # The checker builds its state in run(), so its growth is measured
        # across run() (round 1 only: the mark never falls).  The
        # simulator's state (a few hundred entries on sim-zenith-failures)
        # is too small to measure apart from the process, so it is charged
        # all of it.
        grown = peak - (_RSS0 if w.kind == "sim" else peak_run)
        # A sim driver builds its system inside the timed part; that build
        # is set-up work.
        return {"setup": t1 - t0 + rnd.build_s,
                "wall": t2 - t1 - rnd.build_s, "rnd": rnd,
                "states": w.states(rnd, output), "held": w.held(rnd, output),
                "grown": grown, "peak": peak, "result": seen.get("result")}


def untraced(runner: Runner, seconds: float, import_s: float) -> dict:
    """Whole rounds until the next would overrun; end-to-end metrics."""
    start = time.perf_counter()
    rounds: list[dict] = []
    durations: list[float] = []
    while True:
        r0 = time.perf_counter()
        r = runner.round()
        del r["rnd"]  # let the round's system go before the next round
        rounds.append(r)
        durations.append(time.perf_counter() - r0)
        if (time.perf_counter() - start + statistics.median(durations)
                > seconds):
            break
    # Peak RSS is a high-water mark, so only the first round's memory can
    # be told apart from what earlier rounds left behind (how many rounds
    # fit depends on the host's speed).
    first = rounds[0]
    return {
        "setup_s": _metric(
            import_s + statistics.median(r["setup"] for r in rounds), "s"),
        "wall_s": _metric(statistics.median(r["wall"] for r in rounds), "s"),
        "states_per_s": _metric(
            statistics.median(r["states"] / r["wall"] for r in rounds),
            "1/s"),
        "bytes_per_state": _metric(first["grown"] / first["held"], "B"),
        "peak_rss_mb": _metric(first["peak"] / 2 ** 20, "MB"),
    }


def traced(runner: Runner, out_path: Path) -> dict:
    """One untraced and one traced round; per-layer metrics."""
    import tracing

    base = runner.round()
    rec = tracing.SpanRecorder()
    r = runner.round(rec)
    calls, self_s = rec.calls, rec.self_s
    fixes = rec.totals["baselines.switch_fix"]
    switch_fixes = calls["baselines.switch_fix"]
    m = {
        "sim.run_s": self_s["sim.run"],
        "sim.events": calls["sim.event"],
        "nib.writes": calls["nib.write"],
        "nib.write_s": self_s["nib.write"],
        "nib.bulk_update_s": self_s["nib.bulk_update"],
        "nib.clear_s": self_s["nib.clear"],
        "core.view_scans": calls["core.view_scan"],
        "core.view_scan_s": self_s["core.view_scan"],
        "baselines.reconcile_cycles": calls["baselines.reconcile"],
        "baselines.reconcile_s": self_s["baselines.reconcile"],
        "baselines.switch_fix_s": self_s["baselines.switch_fix"],
        "baselines.fix_yield": fixes / switch_fixes if switch_fixes else 0.0,
        "net.table_snapshots": 0,
        "net.health_reads": calls["net.health_read"],
        "metrics.stability_polls": calls["metrics.stability"],
        "metrics.stability_s": (self_s["metrics.stability"]
                                + self_s["metrics.dag_check"]),
        "metrics.dag_checks": calls["metrics.dag_check"],
        "workloads.preload_s": self_s["workloads.preload"],
        "spec.prof_coverage": 0.0,
        "spec.symmetry_calls": calls["spec.symmetry"],
        "spec.symmetry_s": self_s["spec.symmetry"],
        "spec.memo_fills": 0,
        "spec.memo_hit_ratio": 0.0,
        "spec.new_state_ratio": 0.0,
        "analysis.effects_s": self_s["analysis.effects"],
    }
    for phase in PHASES:
        m[f"spec.{phase}_s"] = 0.0
    result = r["result"]
    if result is not None:
        profile = result.stats["profile"]
        for phase in PHASES:
            m[f"spec.{phase}_s"] = profile["phases"][phase]["wall_s"]
        m["spec.prof_coverage"] = profile["coverage"]
        compiled = result.stats.get("compiled")
        if compiled:
            m["spec.memo_fills"] = compiled["label_fills"]
            probes = compiled["probes"]
            m["spec.memo_hit_ratio"] = (
                1.0 - compiled["label_fills"] / probes if probes else 0.0)
        m["spec.new_state_ratio"] = (result.distinct_states
                                     / result.transitions)
    else:
        network = r["rnd"].system.network
        m["net.table_snapshots"] = sum(
            network[sw].table_read_count for sw in network.topology.switches)
    m["trace.untraced_s"] = base["wall"]
    m["trace.traced_s"] = r["wall"]
    m["trace.overhead_s"] = r["wall"] - base["wall"]
    m["trace.spans"] = rec.span_count()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write(out_path, workload=runner.workload.name, seed=runner.seed)
    return {name: _metric(value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_coverage")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the program

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = traced(runner, TRACE_DIR / f"{args.workload}.json")
    else:
        metrics = untraced(runner, args.seconds, import_s)
    runner.failures += workloads.checks.same_across_rounds(runner.outputs)
    for failure in runner.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
