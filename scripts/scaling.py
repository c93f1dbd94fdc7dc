#!/usr/bin/env python3
"""Scaling curve of whole debates: simulate one, then replay and settle it.

For each k in 8, 16, 24 and 32 this builds the benchmark's carpet-bombed wide
debate (`wide_config` in perfbench/workloads.py: 1 + 2k + 2k^2 nodes, one
move per node), times `run_scenario`, then times `replay` of the produced
move log plus `advance_clock` and `settle`. Each figure is the median of
five runs with the fixed seed 0, each on a freshly built debate, so that no
value memoized on its formulas and statements carries over from one run to
the next. Every replay must land on the simulated snapshot.

Results go under `--label` in the JSON file `--out` (by default
BENCH_resolver.json at the repository root). Labels already in the file are
kept, so running this script on two checkouts gives a before/after pair:

    python3 scripts/scaling.py --label after

Only the standard library is used besides sprig itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sprig.protocol import advance_clock, replay, settle  # noqa: E402
from sprig.simulator import run_scenario  # noqa: E402
from workloads import wide_config  # noqa: E402

KS = (8, 16, 24, 32)
SEED = 0
REPEATS = 5


def measure(k: int) -> dict[str, float | int]:
    simulate, replay_settle = [], []
    for _ in range(REPEATS):
        config = wide_config(k, SEED)
        gc.collect()
        t0 = time.perf_counter()
        trace = run_scenario(config)
        t1 = time.perf_counter()
        twin = replay(trace.move_lines, config.cascade,
                      balances=trace.initial_balances, mode=config.mode)
        advance_clock(twin, trace.final_clock)
        settle(twin)
        t2 = time.perf_counter()
        if twin.snapshot() != trace.final_snapshot:
            raise AssertionError(f"k={k}: replayed snapshot differs from the simulated one")
        simulate.append(t1 - t0)
        replay_settle.append(t2 - t1)
    return {
        "k": k,
        "nodes": len(trace.instance.nodes),
        "moves": len(trace.move_lines),
        "simulate_s": round(statistics.median(simulate), 4),
        "replay_settle_s": round(statistics.median(replay_settle), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="section of the output file to write")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_resolver.json")
    args = parser.parse_args()

    points = []
    for k in KS:
        point = measure(k)
        print(json.dumps(point), file=sys.stderr)
        points.append(point)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "seed": SEED,
        "points": points,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
