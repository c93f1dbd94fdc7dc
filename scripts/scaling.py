#!/usr/bin/env python3
"""Scaling curve of whole debates: simulate one, then replay and settle it.

For each k in 8, 16, 24, 32, 48 and 64 this builds the benchmark's
carpet-bombed wide debate (`wide_config` in perfbench/workloads.py:
1 + 2k + 2k^2 nodes, one move per node), times `run_scenario`, reads its
move log, then times `replay` of that log plus `advance_clock` and
`settle`. Each
repeat runs in a fresh interpreter with the seed 0, so that no memoized
value, warm cache or garbage-collector state carries over from one run to
the next. The child then drops that debate and times `WARM_RUNS` more
simulates and replays in the same interpreter, dropping each debate before
the next, and reports the fastest of those: the cold numbers include
first-call costs, the warm ones (`*_warm_*`) are what a process that replays
log after log pays. Interference from other work only adds time, so the
fastest of a child's warm runs is the steadiest estimate of its warm cost,
steadier than their median or a single run. Every replay must land on the
simulated snapshot. Each point keeps the median seconds and the median µs
per move, cold and warm, the `json.dumps` calls and kernel verdicts
(`ToyVerifier.verdict`) per move (counted in the child during the cold run,
for simulate and for replay + settle; the same in every repeat) and the
sha256 of the move log. It also keeps the resolution work per move, which
no timing noise blurs: the rule evaluations (calls of `_close`, or of
`_decide` in a checkout that rescans a node's children at every visit) and
the children read off `Node.children`, counted after the timed runs in one
more simulate and replay + settle, so that the counting costs no timed
run anything. The same pass counts the `sprig.Frozen` records built (calls
of the `__init__` of each subclass), the fixed per-move cost that a plain
`typing.NamedTuple` record does not pay, and, apart from them, the `Formula`
and `Statement` objects created and the proof records created
(`DefinitionSet`, `InferenceStep`, `MachineProof`, `ChainStep` and
`ProofChain`): each call of a class's constructor in a checkout that builds
one object per call, each object not alive before the call in one that
returns the live instance of a value (a class whose equality is identity).

`simulate_log_warm` times `run_scenario` together with reading its move
log (`move_log_lines`, which composes and hashes each line from its node),
so that work moved from playing a move to reading the log does not show as
a cheaper simulate. `live_bytes_per_node` is what a replay + settle of the
log alone leaves live, per node: the bytes tracemalloc counts after a
`gc.collect()`, traced from before the replay, with nothing else decoded
alive (the median over the repeats).

Four more timings show what that reuse is worth and what a snapshot costs.
`replay_settle_alone_warm` replays and settles the log once the debate and
its built tree are dropped, with nothing decoded alive, as `sprig run`
replays a log (its counts are the third half, `replay_settle_alone`);
`build_drop_warm` builds a fresh wide tree (`wide_config`) and drops it,
with no other tree alive; and `build_simulate_warm` builds a fresh wide
tree and simulates it in one timing, so that it pays for making every
formula and proof value, as a replay of the log alone pays for decoding
them. `snapshot_warm` times one `snapshot()` of each settled replay of the
log alone, taken after the snapshot that checks it, so that every statement
and proof hash is memoized and only composing the state is timed; each
point keeps it per node as `snapshot_us_per_node`. All four are the fastest
of WARM_RUNS in the child. Each point keeps the ratios of the replay halves
to the simulate halves: replay + settle to simulate
(`replay_settle_per_simulate`), and replay + settle, next to the trace and
alone, to build + simulate (`replay_settle_per_build_simulate`,
`replay_settle_alone_per_build_simulate`).

    python3 scripts/scaling.py --label NAME | --checkout ../parent [--label NAME]

times this checkout, or ../parent and this one alternately, and writes the
points into BENCH_movecost.json (`--out`) as scripts/checkouts.py says. Two
sides must produce the same move log; each `after` point also counts the
pairs in which this checkout was faster. Only the standard library is used;
sprig is imported only in the children.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from checkouts import interleave, parse_sides, write_sections

KS = (8, 16, 24, 32, 48, 64)
SEED = 0
# Fresh interpreters per point and checkout: five left a ~10% change
# unresolved at some k.
REPEATS = 10
# What each half counts, kept per move: `json.dumps` calls, kernel verdicts,
# rule evaluations, children read, `Frozen` records built other than formulas,
# statements and proof records, formulas and statements created, and proof
# records (definition sets, inference steps, machine proofs, chain steps and
# chains) created.
COUNTS = ("dumps", "verdicts", "evals", "children", "frozen", "formulas", "proofs")
HALVES = ("simulate", "replay_settle", "replay_settle_alone")
# Cold: the first simulate and replay in a fresh interpreter. Warm: the
# fastest of the next WARM_RUNS in the same interpreter, each after the
# previous debate is dropped, as a long-running verifier (and the
# benchmark's wide leg) replays.
WARM_RUNS = 7
TIMED = ("simulate", "replay_settle", "simulate_warm", "simulate_log_warm", "replay_settle_warm",
         "replay_settle_alone_warm", "build_drop_warm", "build_simulate_warm", "snapshot_warm")
# Each ratio's name, numerator and denominator, of the timings' medians.
RATIOS = (
    ("replay_settle_per_simulate", "replay_settle_warm", "simulate_warm"),
    ("replay_settle_per_build_simulate", "replay_settle_warm", "build_simulate_warm"),
    ("replay_settle_alone_per_build_simulate", "replay_settle_alone_warm", "build_simulate_warm"),
)

# One repeat: run in a fresh interpreter with the checkout's src/ and
# perfbench/ on the path; prints one JSON line.
CHILD = """
import gc, hashlib, json, sys, time, tracemalloc, weakref
from sprig import Frozen, formulas
from sprig.formulas import DefinitionSet, Formula, Statement
from sprig.proofs import ChainStep, InferenceStep, MachineProof, ProofChain
from sprig.protocol import Node, ProtocolInstance, advance_clock, replay, settle
from sprig.simulator import run_scenario
from sprig.verifier import ToyVerifier
from workloads import wide_config

dumps, calls = json.dumps, [0]
def counted_dumps(*args, **kwargs):
    calls[0] += 1
    return dumps(*args, **kwargs)
json.dumps = counted_dumps
verdict, verdicts = ToyVerifier.verdict, [0]
def counted_verdict(self, *args, **kwargs):
    verdicts[0] += 1
    return verdict(self, *args, **kwargs)
ToyVerifier.verdict = counted_verdict

k, seed, warm_runs = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
warm = {"simulate_warm_s": [], "simulate_log_warm_s": [], "replay_settle_warm_s": [],
        "replay_settle_alone_warm_s": [], "build_drop_warm_s": [], "build_simulate_warm_s": [],
        "snapshot_warm_s": []}
for run in range(warm_runs):
    gc.collect()
    t0 = time.perf_counter()
    config = wide_config(k, seed)
    del config
    warm["build_drop_warm_s"].append(time.perf_counter() - t0)
config = wide_config(k, seed)
out = {}
for run in range(1 + warm_runs):  # each run after the first drops the last debate first
    gc.collect()
    before, verdicts_before = calls[0], verdicts[0]
    t0 = time.perf_counter()
    trace = run_scenario(config)
    t1 = time.perf_counter()
    simulate_dumps = calls[0] - before
    simulate_verdicts = verdicts[0] - verdicts_before
    lines = trace.move_lines
    t_log = time.perf_counter()
    twin = replay(lines, config.cascade, balances=trace.initial_balances, mode=config.mode)
    advance_clock(twin, trace.final_clock)
    settle(twin)
    t2 = time.perf_counter()
    replay_dumps = calls[0] - before - simulate_dumps
    replay_verdicts = verdicts[0] - verdicts_before - simulate_verdicts
    if twin.snapshot() != trace.final_snapshot:
        raise AssertionError(f"k={k}: replayed snapshot differs from the simulated one")
    if run:
        warm["simulate_warm_s"].append(t1 - t0)
        warm["simulate_log_warm_s"].append(t_log - t0)
        warm["replay_settle_warm_s"].append(t2 - t_log)
    else:
        out.update({
            "simulate_s": t1 - t0,
            "replay_settle_s": t2 - t_log,
            "nodes": len(trace.instance.nodes),
            "moves": len(lines),
            "moves_sha256": hashlib.sha256("\\n".join(lines).encode()).hexdigest(),
            "simulate_dumps": simulate_dumps,
            "replay_settle_dumps": replay_dumps,
            "simulate_verdicts": simulate_verdicts,
            "replay_settle_verdicts": replay_verdicts,
        })
    balances, final_clock, snapshot = trace.initial_balances, trace.final_clock, trace.final_snapshot
    del trace, twin
json.dumps, ToyVerifier.verdict = dumps, verdict
cascade, mode = config.cascade, config.mode
def replay_alone():
    twin = replay(lines, cascade, balances=balances, mode=mode)
    advance_clock(twin, final_clock)
    settle(twin)
    return twin
def check(twin):
    if twin.snapshot() != snapshot:
        raise AssertionError(f"k={k}: replayed snapshot differs from the simulated one")
del config
for run in range(warm_runs):
    gc.collect()
    t0 = time.perf_counter()
    twin = replay_alone()
    warm["replay_settle_alone_warm_s"].append(time.perf_counter() - t0)
    check(twin)
    t0 = time.perf_counter()
    twin.snapshot()
    warm["snapshot_warm_s"].append(time.perf_counter() - t0)
    del twin
for run in range(warm_runs):
    gc.collect()
    t0 = time.perf_counter()
    fresh = wide_config(k, seed)
    trace = run_scenario(fresh)
    warm["build_simulate_warm_s"].append(time.perf_counter() - t0)
    if trace.final_snapshot != snapshot:
        raise AssertionError(f"k={k}: a fresh tree plays another debate")
    del fresh, trace
out.update({name: min(times) for name, times in warm.items()})
gc.collect()
tracemalloc.start()
twin = replay_alone()
gc.collect()
out["live_bytes"] = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
check(twin)
del twin

rule_name = "_close" if hasattr(ProtocolInstance, "_close") else "_decide"
rule, init, evals, reads = getattr(ProtocolInstance, rule_name), Node.__init__, [0], [0]
def counted_rule(self, *args):
    evals[0] += 1
    return rule(self, *args)
class Counted(list):
    def __iter__(self):
        for child in list.__iter__(self):
            reads[0] += 1
            yield child
def counted_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    self.children = Counted(self.children)
setattr(ProtocolInstance, rule_name, counted_rule)
Node.__init__ = counted_init
built, made, proofs = [0], [0], [0]
VALUES = {Formula: made, Statement: made, DefinitionSet: proofs, InferenceStep: proofs,
          MachineProof: proofs, ChainStep: proofs, ProofChain: proofs}
def counted_build(init):
    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)
    return counted
frozen = [Frozen]
for cls in frozen:
    frozen.extend(cls.__subclasses__())
    if "__init__" in vars(cls) and cls not in VALUES:
        cls.__init__ = counted_build(cls.__init__)
alive = weakref.WeakSet()
def counted_new(new, counter):
    def counted(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        if value not in alive:
            counter[0] += 1
            alive.add(value)
        return value
    return counted
def counted_call(new, counter):
    def counted(*args, **kwargs):
        counter[0] += 1
        return new(*args, **kwargs)
    return counted
live = [v() if isinstance(v, weakref.ref) else v for v in list(formulas._interned.values())]
for cls, counter in VALUES.items():
    if cls.__eq__ is object.__eq__:
        alive.update(v for v in live if type(v) is cls)
        cls.__new__ = staticmethod(counted_new(cls.__new__, counter))
    elif "__init__" in vars(cls):
        cls.__init__ = counted_call(cls.__init__, counter)
    else:
        cls.__new__ = staticmethod(counted_call(cls.__new__, counter))
def counts(half):
    out.update({f"{half}_evals": evals[0], f"{half}_children": reads[0],
                f"{half}_frozen": built[0], f"{half}_formulas": made[0],
                f"{half}_proofs": proofs[0]})
    evals[0] = reads[0] = built[0] = made[0] = proofs[0] = 0
config = wide_config(k, seed)
evals[0] = reads[0] = built[0] = made[0] = proofs[0] = 0
trace = run_scenario(config)
counts("simulate")
twin = replay(trace.move_lines, config.cascade, balances=trace.initial_balances, mode=config.mode)
advance_clock(twin, trace.final_clock)
settle(twin)
counts("replay_settle")
del config, trace, twin
gc.collect()
json.dumps, ToyVerifier.verdict = counted_dumps, counted_verdict
calls[0] = verdicts[0] = 0
twin = replay_alone()
out.update(replay_settle_alone_dumps=calls[0], replay_settle_alone_verdicts=verdicts[0])
counts("replay_settle_alone")
check(twin)
print(json.dumps(out))
"""


def run_once(checkout: Path, k: int) -> dict[str, float | int | str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")])}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(k), str(SEED), str(WARM_RUNS)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def summarize(k: int, runs: list[dict[str, float | int | str]]) -> dict[str, float | int | str]:
    if len({(r["nodes"], r["moves"], r["moves_sha256"],
             *(r[f"{half}_{count}"] for half in HALVES for count in COUNTS))
            for r in runs}) != 1:
        raise AssertionError(f"k={k}: repeats disagree on the debate or its counts")
    moves = runs[0]["moves"]
    point: dict[str, float | int | str] = {
        "k": k,
        "nodes": runs[0]["nodes"],
        "moves": moves,
        "moves_sha256": runs[0]["moves_sha256"],
    }
    medians = {name: statistics.median(r[f"{name}_s"] for r in runs) for name in TIMED}
    for name, median in medians.items():
        point[f"{name}_s"] = round(median, 4)
        if name != "snapshot_warm":
            point[f"{name}_us_per_move"] = round(median / moves * 1e6, 1)
    point["snapshot_us_per_node"] = round(medians["snapshot_warm"] / runs[0]["nodes"] * 1e6, 2)
    for name, numerator, denominator in RATIOS:
        point[name] = round(medians[numerator] / medians[denominator], 2)
    point["live_bytes_per_node"] = round(
        statistics.median(r["live_bytes"] for r in runs) / runs[0]["nodes"])
    for half in HALVES:
        for count in COUNTS:
            point[f"{half}_{count}_per_move"] = round(runs[0][f"{half}_{count}"] / moves, 3)
    return point


def main() -> int:
    args, sides = parse_sides(__doc__.splitlines()[0], "BENCH_movecost.json")
    points: dict[str, list[dict[str, float | int | str]]] = {label: [] for label in sides}
    for k in KS:
        runs = interleave(sides, REPEATS, lambda checkout: run_once(checkout, k))
        for label in sides:
            points[label].append(summarize(k, runs[label]))
        if args.checkout:
            first, second = sides
            before, after = points[first][-1], points[second][-1]
            if before["moves_sha256"] != after["moves_sha256"]:
                raise AssertionError(f"k={k}: the two checkouts play different debates")
            for name in TIMED:
                after[f"{name}_pairs_won"] = sum(
                    a[f"{name}_s"] < b[f"{name}_s"] for a, b in zip(runs[second], runs[first])
                )
        print(json.dumps({label: points[label][-1] for label in sides}), file=sys.stderr)

    write_sections(args.out, points, repeats=REPEATS, warm_runs=WARM_RUNS, seed=SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
