#!/usr/bin/env python3
"""The sprig benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload debate-wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; nothing needs building. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, measured
without tracing. With ``--trace 1`` it wraps the entry points of every sprig
layer (see tracing.py), runs the same workload and prints the per-layer
metrics instead. Every timed output is checked; any failed check makes the
run exit 1. The last line of stdout is the result object; a full report
(environment, percentiles, sample counts, spans) goes to .perfbench_out/.
See perfbench/README.md for the workloads and what each metric should show.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="The sprig benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=["debate-wide", "debate-small", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the workload's main leg")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "sprig", ROOT / "fixtures"):
        if not needed.is_dir():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a sprig checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
