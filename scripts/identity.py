#!/usr/bin/env python3
"""Whether this checkout's `sprig` prints the same bytes as another's.

    python3 scripts/identity.py --checkout DIR

runs each command below once per checkout, DIR first, each in a fresh
interpreter with that checkout's `src` on PYTHONPATH, PYTHONDONTWRITEBYTECODE
set and SPRIG_SEED unset, and compares the exit code, the stdout, the stderr
and every file the command writes. DIR runs under PYTHONHASHSEED 0 and this
checkout under 1, so equal bytes also show that the output does not depend
on the string-hash seed. Both sides read the same inputs, this checkout's fixtures.
The commands are:

- `sprig simulate` of every preset with `--trace` and `--csv`, at the
  preset's own seed and at seeds 0, 1 and 7: by name, in the preset's own
  quiescence mode, and from its `fixtures/scenarios` file with the mode set
  to early-stop;
- `sprig run` of every fixture move log with its cascade, in both modes;
- `sprig run`, in quiescence mode, of 16 copies of
  `full_run_claim_root.jsonl` with one fault each (`FAULTS`): a time, seq,
  actor, kind or payload field of the wrong type or value, or a missing or
  second root move, each reported as an error on stderr;
- `sprig validate` of every proof fixture, and of `SYMBOLS_DOC` (a chain
  whose definitions, target, steps and subproofs refer to symbols declared
  later, shadowed or never declared, with repeats), at the document's own
  height and at `--level-limit 1`;
- `sprig solve`, the 601-point `sweep` and `verify-mc` at 1e5 draws, on the
  arguments of `scripts/cli_cost.py`;
- `snapshot log` of every fixture move log with its cascade, in both modes:
  the `ProtocolInstance.snapshot()` of the log replayed (up to an early
  stop) with each actor funded, then of that instance advanced past every
  window and settled (no `sprig` command prints a snapshot, so these run
  the program `SNAPSHOT` against the checkout's package);
- `snapshot preset` of every preset in both modes: the settled snapshot of
  `run_scenario` at seeds 0, 1 and 7, one line each.

It prints one line per command, naming each difference by its first line
that differs, and exits 1 if any command differs, 0 when all agree. Only the
standard library is used; sprig is imported only in the children.
"""

from __future__ import annotations

import argparse
import hashlib
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
FAULTY = "full_run_claim_root"
# The faults put into copies of the move log FAULTY, by name: (the 0-based
# line, the fields it gets), where None drops the line and "root" makes it a
# copy of the root move at the line's seq. An edited line gets its payload
# hash recomputed, so that the fault, not the hash, is what `run` reports.
FAULTS = {
    "time-float": (1, {"time": 1.5}),
    "time-string": (1, {"time": "1"}),
    "time-bool": (1, {"time": True}),
    "step-bool": (1, {"payload": {"origin": "c1", "step": True}}),
    "seq-bool": (1, {"seq": True}),
    "seq-repeated": (1, {"seq": 1}),
    "actor-int": (1, {"actor": 7}),
    "actor-bool": (1, {"actor": True}),
    "actor-list": (1, {"actor": ["sam"]}),
    "missing-root": (0, None),
    "kind-x-line-1": (0, {"kind": "x"}),
    "kind-x-line-2": (1, {"kind": "x"}),
    "second-root": (1, "root"),
    "time-backwards": (2, {"time": 0}),
    "origin-list": (1, {"payload": {"origin": ["c1"], "step": 1}}),
    "missing-step": (1, {"payload": {"origin": "c1"}}),
}



def _statement(conclusion: dict, *assumptions: dict) -> dict:
    return {"assumptions": list(assumptions), "conclusion": conclusion, "context": "sym"}


_SYM = {name: {"sym": name} for name in "abcvwxyz"}
_TARGET = _statement(_SYM["a"], _SYM["y"], {"and": [_SYM["x"], _SYM["w"]]})
_STEP_1 = _statement({"or": [_SYM["v"], _SYM["v"]]}, *_TARGET["assumptions"])
SYMBOLS_DOC = {
    "kind": "chain",
    "definitions": {"symbols": [
        ["a", {"and": [_SYM["b"], _SYM["b"]]}],
        ["b", {"or": [_SYM["z"], {"not": _SYM["a"]}]}],
        ["c", {"imp": [_SYM["y"], _SYM["z"]]}],
    ]},
    "target": _TARGET,
    "steps": [
        {"statement": _STEP_1, "subproof": {
            "kind": "chain",
            "definitions": {"symbols": [["y", {"atom": "p"}], ["a", {"atom": "q"}]]},
            "target": _STEP_1,
            "steps": [{"statement": _STEP_1}],
        }},
        {"imports": [1], "statement": _statement(_SYM["a"], *_STEP_1["assumptions"],
                                                 _STEP_1["conclusion"]),
         "subproof": {"kind": "machine_proof", "target": _STEP_1,
                      "steps": [{"formula": _SYM["y"], "rule": "assumption", "premises": [-1]}]}},
    ],
}

# The program of the snapshot commands, run as `python -c SNAPSHOT ARGS` with
# the checkout's src on the path; it prints one snapshot per line.
SNAPSHOT = """
import json, sys
from sprig.protocol import ParameterCascade, ProtocolError, ProtocolInstance, replay_line
from sprig.scenarios import preset_scenario, scenario_from_json
from sprig.simulator import run_scenario

what, *args = sys.argv[1:]
if what == "log":
    log, cascade, mode = args
    with open(log, encoding="utf-8") as f:
        records = [(line, json.loads(line)) for line in f.read().splitlines()]
    with open(cascade, encoding="utf-8") as f:
        cascade = ParameterCascade.from_json(json.load(f))
    balances = {record["actor"]: 10**6 for _, record in records}
    instance = ProtocolInstance(cascade, balances=balances, mode=mode)
    for line, record in records:
        try:
            replay_line(instance, line, record)
        except ProtocolError:
            break
    print(instance.snapshot())
    instance.advance_clock(instance.max_deadline())
    instance.settle()
    print(instance.snapshot())
else:
    name, mode, *seeds = args
    for seed in seeds:
        config = scenario_from_json(preset_scenario(name))
        config.seed, config.mode = int(seed), mode
        print(run_scenario(config).final_snapshot)
"""
MODES = ("quiescence", "early-stop")


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def faulty_log(name: str, records: list[dict]) -> str:
    """The log `records` with the fault `FAULTS[name]` put in."""
    at, fields = FAULTS[name]
    records = [dict(r) for r in records]
    if fields is None:
        del records[at]
    else:
        records[at].update({**records[0], "seq": at + 1} if fields == "root" else fields)
        payload = canonical(records[at]["payload"]).encode()
        records[at]["payload_hash"] = hashlib.sha256(payload).hexdigest()
    return "".join(canonical(r) + "\n" for r in records)


def commands(inputs: Path) -> list[list[str]]:
    """The argument lists to run, in order. The early-stop scenario files
    and the faulty move logs they read are written into `inputs`."""
    out = []
    for path in sorted((FIXTURES / "scenarios").glob("*.json")):
        early = inputs / path.name
        early.write_text(json.dumps({**json.loads(path.read_text()), "mode": "early-stop"}))
        for scenario in (path.stem, str(early)):
            for seed in SEEDS:
                given = [] if seed is None else ["--seed", str(seed)]
                out.append(["simulate", scenario, *given, "--trace", OUTPUTS[0],
                            "--csv", OUTPUTS[1]])
        out += [["snapshot", "preset", path.stem, mode, *map(str, SEEDS[1:])] for mode in MODES]
    for log in sorted((FIXTURES / "movelogs").glob("*.jsonl")):
        cascade = FIXTURES / "cascades" / f"{log.stem}.json"
        for mode in MODES:
            out.append(["run", str(log), str(cascade), "--mode", mode])
            out.append(["snapshot", "log", str(log), str(cascade), mode])
    log = FIXTURES / "movelogs" / f"{FAULTY}.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for name in FAULTS:
        faulty = inputs / f"{name}.jsonl"
        faulty.write_text(faulty_log(name, records))
        out.append(["run", str(faulty), str(FIXTURES / "cascades" / f"{FAULTY}.json")])
    symbols = inputs / "symbols.json"
    symbols.write_text(json.dumps(SYMBOLS_DOC))
    for doc in [*sorted((FIXTURES / "proofs").glob("*.json")), symbols]:
        out += [["validate", str(doc)], ["validate", str(doc), "--level-limit", "1"]]
    out += [
        ["solve", "--sigma2", "30"],
        ["sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "601"],
        ["verify-mc", "--sigma2", "30", "--seed", "0", "--n", "100000"],
    ]
    return out


def run(checkout: Path, args: list[str], cwd: Path, hash_seed: str) -> dict[str, bytes]:
    """What `sprig ARGS` of `checkout` gives under PYTHONHASHSEED
    `hash_seed`, run in the empty directory `cwd`: its exit code, its
    stdout, its stderr and each file it writes, by name; the files are
    removed again."""
    env = {k: v for k, v in os.environ.items() if k != "SPRIG_SEED"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED=hash_seed)
    program = ["-c", SNAPSHOT, *args[1:]] if args[0] == "snapshot" else ["-m", "sprig.cli", *args]
    done = subprocess.run([sys.executable, *program], cwd=cwd, env=env,
                          capture_output=True, check=False)
    got = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
           "stderr": done.stderr}
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
        before, after, inputs = (Path(tmp, name) for name in ("before", "after", "inputs"))
        for path in (before, after, inputs):
            path.mkdir()
        todo = commands(inputs)
        differing = 0
        for args in todo:
            shown = " ".join(Path(a).name if "/" in a else a for a in args)
            shown = shown if args[0] == "snapshot" else f"sprig {shown}"
            difference = first_difference(run(checkout, args, before, HASH_SEEDS[0]),
                                          run(ROOT, args, after, HASH_SEEDS[1]))
            if difference is not None:
                differing += 1
                print(f"DIFFERS  {shown}: {difference}")
            else:
                print(f"same     {shown}")
    if differing:
        print(f"{differing} of {len(todo)} commands differ between the checkouts")
        return 1
    print(f"all {len(todo)} commands print the same bytes in both checkouts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
