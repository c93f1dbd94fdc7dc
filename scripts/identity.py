#!/usr/bin/env python3
"""Whether this checkout's `sprig` prints the same bytes as another's.

    python3 scripts/identity.py --checkout DIR

runs each command below once per checkout, DIR first, each in a fresh
interpreter with that checkout's `src` on PYTHONPATH, PYTHONDONTWRITEBYTECODE
set and SPRIG_SEED unset, and compares the exit code, the stdout and every
file the command writes. DIR runs under PYTHONHASHSEED 0 and this checkout
under 1, so equal bytes also show that the output does not depend on the
string-hash seed. Both sides read the same inputs, this checkout's fixtures.
The commands are:

- `sprig simulate` of every preset with `--trace` and `--csv`, at the
  preset's own seed and at seeds 0, 1 and 7: by name, in the preset's own
  quiescence mode, and from its `fixtures/scenarios` file with the mode set
  to early-stop;
- `sprig run` of every fixture move log with its cascade, in both modes;
- `sprig solve`, the 601-point `sweep` and `verify-mc` at 1e5 draws, on the
  arguments of `scripts/cli_cost.py`.

It prints one line per command, stops at the first difference, which it
names with the first line that differs, and exits 1 then; 0 when all agree.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SEEDS = (None, 0, 1, 7)
# PYTHONHASHSEED of the other checkout and of this one.
HASH_SEEDS = ("0", "1")
OUTPUTS = ("trace.jsonl", "payoffs.csv")


def commands(scenarios: Path) -> list[list[str]]:
    """The argument lists to run, in order. The early-stop scenario files
    they read are written into `scenarios`."""
    out = []
    for path in sorted((FIXTURES / "scenarios").glob("*.json")):
        early = scenarios / path.name
        early.write_text(json.dumps({**json.loads(path.read_text()), "mode": "early-stop"}))
        for scenario in (path.stem, str(early)):
            for seed in SEEDS:
                given = [] if seed is None else ["--seed", str(seed)]
                out.append(["simulate", scenario, *given, "--trace", OUTPUTS[0],
                            "--csv", OUTPUTS[1]])
    for log in sorted((FIXTURES / "movelogs").glob("*.jsonl")):
        cascade = FIXTURES / "cascades" / f"{log.stem}.json"
        for mode in ("quiescence", "early-stop"):
            out.append(["run", str(log), str(cascade), "--mode", mode])
    out += [
        ["solve", "--sigma2", "30"],
        ["sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "601"],
        ["verify-mc", "--sigma2", "30", "--seed", "0", "--n", "100000"],
    ]
    return out


def run(checkout: Path, args: list[str], cwd: Path, hash_seed: str) -> dict[str, bytes]:
    """What `sprig ARGS` of `checkout` gives under PYTHONHASHSEED
    `hash_seed`, run in the empty directory `cwd`: its exit code, its
    stdout and each file it writes, by name; the files are removed again."""
    env = {k: v for k, v in os.environ.items() if k != "SPRIG_SEED"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-m", "sprig.cli", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    got = {"exit code": str(done.returncode).encode(), "stdout": done.stdout}
    for path in sorted(cwd.iterdir()):
        got[path.name] = path.read_bytes()
        path.unlink()
    return got


def first_difference(before: dict[str, bytes], after: dict[str, bytes]) -> str | None:
    """The first output that differs and its first differing line, if any."""
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) == after.get(name):
            continue
        old, new = (side.get(name, b"(not written)").splitlines() for side in (before, after))
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        show = lambda lines: lines[at].decode(errors="replace") if at < len(lines) else "(end)"
        return f"{name}, line {at + 1}:\n  checkout: {show(old)}\n  this:     {show(new)}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, required=True,
                        help="the checkout to compare this one against")
    checkout = parser.parse_args().checkout.resolve()
    if not (checkout / "src" / "sprig").is_dir():
        parser.error(f"{checkout} holds no src/sprig")
    with tempfile.TemporaryDirectory() as tmp:
        before, after, scenarios = (Path(tmp, name) for name in ("before", "after", "scenarios"))
        for path in (before, after, scenarios):
            path.mkdir()
        todo = commands(scenarios)
        for args in todo:
            shown = " ".join(Path(a).name if "/" in a else a for a in args)
            difference = first_difference(run(checkout, args, before, HASH_SEEDS[0]),
                                          run(ROOT, args, after, HASH_SEEDS[1]))
            if difference is not None:
                print(f"DIFFERS  sprig {shown}: {difference}")
                return 1
            print(f"same     sprig {shown}")
    print(f"all {len(todo)} commands print the same bytes in both checkouts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
