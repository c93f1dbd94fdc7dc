#!/usr/bin/env python3
"""Scaling curve of whole debates: simulate one, then replay and settle it.

For each k in 8, 16, 24, 32, 48 and 64 this builds the benchmark's
carpet-bombed wide debate (`wide_config` in perfbench/workloads.py:
1 + 2k + 2k^2 nodes, one move per node), times `run_scenario`, then times
`replay` of the produced move log plus `advance_clock` and `settle`. Each
repeat runs in a fresh interpreter with the seed 0, so that no memoized
value, warm cache or garbage-collector state carries over from one run to
the next. Every replay must land on the simulated snapshot. Each point keeps
the median seconds, the median µs per move, the `json.dumps` calls per move
(counted in the child, for simulate and for replay + settle; the same in
every repeat) and the sha256 of the move log.

    python3 scripts/scaling.py --label NAME

times this checkout and writes its points under NAME.

    python3 scripts/scaling.py --checkout ../parent

times the checkout ../parent (section `before`) and this one (section
`after`), alternating one repeat of each, so that every before/after pair is
measured back to back on the same machine state instead of minutes apart.
Both sides must produce the same move log. Each `after` point also counts the
pairs in which this checkout was faster.

Results go into the JSON file `--out` (by default BENCH_movecost.json at
the root of this script's checkout); sections already in the file are kept.
Only the standard library is used; sprig is imported only in the children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KS = (8, 16, 24, 32, 48, 64)
SEED = 0
REPEATS = 5

# One repeat: run in a fresh interpreter with the checkout's src/ and
# perfbench/ on the path; prints one JSON line.
CHILD = """
import gc, hashlib, json, sys, time
from sprig.protocol import advance_clock, replay, settle
from sprig.simulator import run_scenario
from workloads import wide_config

dumps, calls = json.dumps, [0]
def counted_dumps(*args, **kwargs):
    calls[0] += 1
    return dumps(*args, **kwargs)
json.dumps = counted_dumps

k, seed = int(sys.argv[1]), int(sys.argv[2])
config = wide_config(k, seed)
gc.collect()
t0 = time.perf_counter()
trace = run_scenario(config)
t1 = time.perf_counter()
simulate_dumps = calls[0]
twin = replay(trace.move_lines, config.cascade, balances=trace.initial_balances, mode=config.mode)
advance_clock(twin, trace.final_clock)
settle(twin)
t2 = time.perf_counter()
replay_dumps = calls[0] - simulate_dumps
if twin.snapshot() != trace.final_snapshot:
    raise AssertionError(f"k={k}: replayed snapshot differs from the simulated one")
json.dumps = dumps
print(json.dumps({
    "nodes": len(trace.instance.nodes),
    "moves": len(trace.move_lines),
    "moves_sha256": hashlib.sha256("\\n".join(trace.move_lines).encode()).hexdigest(),
    "simulate_s": t1 - t0,
    "replay_settle_s": t2 - t1,
    "simulate_dumps": simulate_dumps,
    "replay_settle_dumps": replay_dumps,
}))
"""


def run_once(checkout: Path, k: int) -> dict[str, float | int | str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")])}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(k), str(SEED)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def summarize(k: int, runs: list[dict[str, float | int | str]]) -> dict[str, float | int | str]:
    if len({(r["nodes"], r["moves"], r["moves_sha256"], r["simulate_dumps"],
             r["replay_settle_dumps"]) for r in runs}) != 1:
        raise AssertionError(f"k={k}: repeats disagree on the debate or its encodes")
    moves = runs[0]["moves"]
    point: dict[str, float | int | str] = {
        "k": k,
        "nodes": runs[0]["nodes"],
        "moves": moves,
        "moves_sha256": runs[0]["moves_sha256"],
    }
    for name in ("simulate", "replay_settle"):
        median = statistics.median(r[f"{name}_s"] for r in runs)
        point[f"{name}_s"] = round(median, 4)
        point[f"{name}_us_per_move"] = round(median / moves * 1e6, 1)
        point[f"{name}_dumps_per_move"] = round(runs[0][f"{name}_dumps"] / moves, 3)
    return point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--label", help="time this checkout only and write its points here")
    which.add_argument("--checkout", type=Path,
                       help="time this checkout (section before) alternately with this one (after)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_movecost.json")
    args = parser.parse_args()

    sides = {args.label: ROOT} if args.label else {"before": args.checkout.resolve(), "after": ROOT}
    points: dict[str, list[dict[str, float | int | str]]] = {label: [] for label in sides}
    for k in KS:
        runs: dict[str, list[dict[str, float | int | str]]] = {label: [] for label in sides}
        for _ in range(REPEATS):
            for label, checkout in sides.items():
                runs[label].append(run_once(checkout, k))
        for label in sides:
            points[label].append(summarize(k, runs[label]))
        if args.checkout:
            before, after = points["before"][-1], points["after"][-1]
            if before["moves_sha256"] != after["moves_sha256"]:
                raise AssertionError(f"k={k}: the two checkouts play different debates")
            for name in ("simulate", "replay_settle"):
                after[f"{name}_pairs_won"] = sum(
                    a[f"{name}_s"] < b[f"{name}_s"] for a, b in zip(runs["after"], runs["before"])
                )
        print(json.dumps({label: points[label][-1] for label in sides}), file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label in sides:
        doc[label] = {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "repeats": REPEATS,
            "seed": SEED,
            "interleaved": len(sides) == 2,
            "points": points[label],
        }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
