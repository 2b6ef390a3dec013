"""Steadiness: run workloads over several seeds and report the spread.

    python3 perfbench/steady.py --workload sim-pr-scale --seeds 1-10

Each run is a fresh ``run.py`` process with the run length from
``BENCHMARK.json``, one after another.  For every end-to-end metric the
table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) /
median`` and the metric's bound.  A spread above a third of the bound
is flagged: a change to that metric smaller than the spread cannot be
told from noise and should be reported as unresolved, not unchanged.
Exits 1 if any run had a failed operation or was incorrect, or if any
metric's spread (``setup_s``'s included) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` → seeds."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One fresh benchmark process; its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, spread) of one metric's values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    bad = False
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        incorrect = sum(1 for r in results if not r["correct"])
        print(f"== {workload}: {len(seeds)} runs, failed share "
              f"{sorted(shares)}, incorrect runs {incorrect}")
        bad |= incorrect > 0 or any(r["failed"] for r in results)
        print(f"  {'metric':<16}{'median':>14}{'Q1':>14}{'Q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, spread = summarize(values)
            flag = ""
            if spread > metric["bound"]:
                flag, bad = "  OVER BOUND", True
            elif spread > metric["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{metric['bound']:>8.2f}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
