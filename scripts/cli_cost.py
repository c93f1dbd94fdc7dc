#!/usr/bin/env python3
"""Wall time and peak RSS of `sprig` calls, each in a fresh interpreter.

The commands are the five light subcommands of the benchmark's CLI cycle
(on fixed arguments: one fixture proof, one fixture move log, one seeded
`carpet_bomber` simulation, one `solve` and the 601-point sweep), then

    python -m sprig.cli verify-mc --sigma2 30 --seed 0 --n N

for N in 1e5, 1e6 and 1e7. Each runs REPEATS times with `src` of the
checkout on PYTHONPATH. Each child is reaped with `os.wait4`, so its
`ru_maxrss` is its own peak. Only the standard library is used and neither
sprig nor numpy is imported here, so this process stays small and adds
nothing to what its children report. Each point keeps the median and
quartiles of wall time, the median and largest peak RSS, the exit code and
the sha256 of stdout, so two sections also show whether the output changed.
One more child per command and checkout runs under `-X importtime`; its
point records the summed self time of the `sprig.*` modules it imports and
of the other modules it loads beyond `python -c pass`, which shows where
start-up goes.
Each section records whether PYTHONDONTWRITEBYTECODE was set: with it set,
every child compiles every sprig module it loads, and that is part of its
start-up time. It also records the machine's CPU count and the CPUs this
process may run on (its affinity mask), which verify-mc splits its games
among.

    python3 scripts/cli_cost.py --label NAME | --checkout ../parent [--label NAME]

times this checkout, or ../parent and this one alternately, and writes the
points into BENCH_cli.json (`--out`) as scripts/checkouts.py says. Two sides
must print the same bytes; each `after` point also counts the pairs in which
this checkout was faster.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkouts import ROOT, interleave, parse_sides, write_sections

REPEATS = 10
COMMANDS = {
    "validate": ["validate", "fixtures/proofs/infinite_primes.json"],
    "run": ["run", "fixtures/movelogs/full_run_claim_root.jsonl",
            "fixtures/cascades/full_run_claim_root.json", "--mode", "quiescence"],
    "simulate": ["simulate", "carpet_bomber", "--seed", "1"],
    "solve": ["solve", "--sigma2", "30"],
    "sweep": ["sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "601"],
    **{f"verify-mc 1e{e}": ["verify-mc", "--sigma2", "30", "--seed", "0", "--n", str(10**e)]
       for e in (5, 6, 7)},
}


def run_once(checkout: Path, argv: list[str]) -> tuple[float, float, int, str]:
    """(wall s, peak RSS MB, exit code, stdout sha256) of one sprig child."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.pop("SPRIG_SEED", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "sprig.cli", *argv],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, code, hashlib.sha256(out).hexdigest()


def import_times(checkout: Path, argv: list[str]) -> dict[str, float]:
    """Per imported module, its self time in ms, from the `-X importtime`
    report of one child running `argv` (`python -m sprig.cli` then `argv`,
    or `python` with `argv` as given when it starts with `-c`)."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.pop("SPRIG_SEED", None)
    command = argv if argv[0] == "-c" else ["-m", "sprig.cli", *argv]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *command],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    times: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                times[name.strip()] = int(self_us) / 1000
    return times


def import_summary(checkout: Path, argv: list[str], bare: set[str]) -> dict[str, float]:
    """Summed self import time of the sprig modules and of the other modules
    a command loads that `python -c pass` (whose modules are `bare`) does not."""
    sprig = other = 0.0
    for name, ms in import_times(checkout, argv).items():
        if name.partition(".")[0] == "sprig":
            sprig += ms
        elif name not in bare:
            other += ms
    return {"import_sprig_self_ms": round(sprig, 2), "import_other_self_ms": round(other, 2)}


def summarize(label: str, argv: list[str], runs: list[tuple[float, float, int, str]]) -> dict:
    walls, rss, codes, digests = zip(*runs)
    if len(set(codes)) != 1 or len(set(digests)) != 1:
        raise AssertionError(f"{label}: repeats disagree on exit code or stdout")
    q1, median, q3 = statistics.quantiles(walls, n=4)
    return {
        "command": label,
        "argv": argv,
        "wall_s": round(median, 4),
        "wall_q1_s": round(q1, 4),
        "wall_q3_s": round(q3, 4),
        "peak_rss_mb": round(statistics.median(rss), 1),
        "max_peak_rss_mb": round(max(rss), 1),
        "exit_code": codes[0],
        "stdout_sha256": digests[0],
    }


def main() -> int:
    args, sides = parse_sides(__doc__.splitlines()[0], "BENCH_cli.json")
    points: dict[str, list[dict]] = {label: [] for label in sides}
    bare = set(import_times(ROOT, ["-c", "pass"]))
    for name, argv in COMMANDS.items():
        runs = interleave(sides, REPEATS, lambda checkout: run_once(checkout, argv))
        for label in sides:
            points[label].append(
                {**summarize(name, argv, runs[label]), **import_summary(sides[label], argv, bare)}
            )
        if args.checkout:
            first, second = sides
            before, after = points[first][-1], points[second][-1]
            if any(before[key] != after[key] for key in ("exit_code", "stdout_sha256")):
                raise AssertionError(f"{name}: the two checkouts print different output")
            after["pairs_won"] = sum(a[0] < b[0] for a, b in zip(runs[second], runs[first]))
        print(json.dumps({label: points[label][-1] for label in sides}), file=sys.stderr)

    write_sections(
        args.out, points,
        usable_cpus=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        repeats=REPEATS,
        pythondontwritebytecode=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
