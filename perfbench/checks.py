"""Output checks against ground truth computed apart from the program.

Every check takes plain data (sets, lists, JSON documents) and returns a
list of failure messages; an empty list means the check passed.  The
run collects the data from the finished simulation or check result; the
benchmark's tests feed the same functions doctored data to show that
each one fails when it should.
"""

from __future__ import annotations

import math

__all__ = [
    "done_dags_installed",
    "latency_floor",
    "episodes_end",
    "view_matches_tables",
    "same_across_rounds",
    "verdict_ok",
    "seeded_bug_found",
    "replay_trace",
]


def done_dags_installed(done_entries: dict, tables: dict) -> list[str]:
    """Every entry of every DAG certified DONE is in its switch's table.

    ``done_entries`` maps dag id → {(switch, entry id)} built from the
    DAG's own INSTALL ops; ``tables`` maps switch → {entry id} read with
    ``SimSwitch.table_snapshot()``.
    """
    failures = []
    for dag_id, entries in sorted(done_entries.items()):
        missing = sorted(e for e in entries
                         if e[1] not in tables.get(e[0], ()))
        if missing:
            failures.append(f"DAG {dag_id} is certified DONE but "
                            f"{len(missing)} entries are not in the "
                            f"tables, e.g. {missing[0]}")
    return failures


def latency_floor(latencies: list, floor: float) -> list[str]:
    """Every DAG converged, none faster than one flow-mod takes."""
    if not latencies:
        return ["no DAG latency was measured"]
    failures = []
    missed = [x for x in latencies if not math.isfinite(x)]
    if missed:
        failures.append(f"{len(missed)} DAGs did not converge by their "
                        f"deadline")
    fast = [x for x in latencies if not x >= floor]
    if fast:
        failures.append(f"{len(fast)} DAG latencies are below one "
                        f"flow-mod's processing time {floor} s, e.g. "
                        f"{fast[0]}")
    return failures


def episodes_end(episodes: list, injected: int, scheduled: int) -> list[str]:
    """Every injected failure ran and every instability episode ended."""
    failures = []
    if injected != scheduled:
        failures.append(f"{injected} of {scheduled} scheduled failures "
                        f"were injected")
    if not episodes:
        failures.append("no instability episode was observed")
    endless = [x for x in episodes if not math.isfinite(x) or x <= 0]
    if endless:
        failures.append(f"{len(endless)} instability episodes never "
                        f"re-stabilised or have no duration")
    return failures


def view_matches_tables(view: dict, tables: dict) -> list[str]:
    """The controller's routing view equals the switch tables."""
    failures = []
    for switch in sorted(set(view) | set(tables)):
        believed = view.get(switch, set())
        actual = tables.get(switch, set())
        if believed != actual:
            failures.append(
                f"switch {switch}: view has {len(believed - actual)} "
                f"entries the table lacks and lacks "
                f"{len(actual - believed)} the table has")
    return failures


def same_across_rounds(outputs: list) -> list[str]:
    """Repeated rounds on the same inputs give the same outputs."""
    for index, output in enumerate(outputs[1:], start=2):
        if output != outputs[0]:
            return [f"round {index} output differs from round 1"]
    return []


def verdict_ok(doc: dict) -> list[str]:
    """A bug-free configuration verifies with consistent counts."""
    failures = []
    if doc.get("ok") is not True or doc.get("violations"):
        failures.append("verdict is not OK on a bug-free configuration")
    states, transitions = doc.get("distinct_states"), doc.get("transitions")
    if not (isinstance(states, int) and isinstance(transitions, int)
            and 0 < states <= transitions):
        failures.append(f"distinct states {states} and transitions "
                        f"{transitions} are inconsistent")
    return failures


def seeded_bug_found(doc: dict) -> list[str]:
    """A configuration with a seeded bug reports a violation."""
    if doc.get("ok") is not False or not doc.get("violations"):
        return ["the seeded-bug configuration was reported correct"]
    return []


def replay_trace(trace: list, initial, successors, canonical,
                 violated) -> list[str]:
    """Replay a counterexample through the transition relation.

    ``trace`` is the violation's list of (action, state); ``successors``
    maps a state to its (action, state) successors under the full
    (unreduced) relation; ``canonical`` maps a state to its symmetry
    representative (identity without symmetry); ``violated`` tells
    whether a state falsifies the reported property.
    """
    if not trace:
        return ["the counterexample trace is empty"]
    if canonical(trace[0][1]) != canonical(initial):
        return ["the counterexample does not start in the initial state"]
    for step, ((_, state), (action, nxt)) in enumerate(
            zip(trace, trace[1:]), start=1):
        target = canonical(nxt)
        if not any(a == action and canonical(s) == target
                   for a, s in successors(state)):
            return [f"step {step} ({action}) is not a transition of "
                    f"the spec"]
    if not violated(trace[-1][1]):
        return ["the counterexample's last state satisfies the property"]
    return []
