#!/usr/bin/env python3
"""Wall time and peak RSS of `sprig verify-mc` as the number of draws grows.

For each N in 1e5, 1e6 and 1e7 this runs

    python -m sprig.cli verify-mc --sigma2 30 --seed 0 --n N

three times in a fresh interpreter, with `src` of `--checkout` (by default
the checkout this script is in) on PYTHONPATH. Each child is reaped with
`os.wait4`, so its `ru_maxrss` is its own peak. Only the standard library is
used and neither sprig nor numpy is imported here, so this process stays
small and adds nothing to what its children report. Each point keeps the
median wall time, the median and largest peak RSS, the exit code and the
sha256 of stdout, so two labels also show whether the output changed.

Results go under `--label` in the JSON file `--out` (by default
BENCH_montecarlo.json at the root of this script's checkout). Labels already
in the file are kept, so a before/after pair is

    python3 scripts/mc_memory.py --label before --checkout ../parent
    python3 scripts/mc_memory.py --label after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NS = (10**5, 10**6, 10**7)
REPEATS = 3
ARGS = ("verify-mc", "--sigma2", "30", "--seed", "0")


def run_once(checkout: Path, n: int) -> tuple[float, float, int, str]:
    """(wall s, peak RSS MB, exit code, stdout sha256) of one verify-mc child."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.pop("SPRIG_SEED", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "sprig.cli", *ARGS, "--n", str(n)],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status), hashlib.sha256(out).hexdigest()


def measure(checkout: Path, n: int) -> dict[str, float | int | str]:
    runs = [run_once(checkout, n) for _ in range(REPEATS)]
    walls, rss, codes, digests = zip(*runs)
    if len(set(codes)) != 1 or len(set(digests)) != 1:
        raise AssertionError(f"n={n}: repeats disagree on exit code or stdout")
    return {
        "n": n,
        "wall_s": round(statistics.median(walls), 3),
        "peak_rss_mb": round(statistics.median(rss), 1),
        "max_peak_rss_mb": round(max(rss), 1),
        "exit_code": codes[0],
        "stdout_sha256": digests[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="section of the output file to write")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository whose src/ is run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_montecarlo.json")
    args = parser.parse_args()

    points = []
    for n in NS:
        point = measure(args.checkout.resolve(), n)
        print(json.dumps(point), file=sys.stderr)
        points.append(point)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "command": ["python", "-m", "sprig.cli", *ARGS, "--n", "N"],
        "points": points,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
