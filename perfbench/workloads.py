"""Inputs, timed legs and output checks of the sprig benchmark.

Every run executes three legs, each a closed loop with one client: the next
operation starts only when the previous one has returned.

* ``wide``: one carpet-bombed wide debate (``run_scenario``), then a replay
  of its move log and the settlement (``replay``, ``advance_clock``,
  ``settle``), timed per move.
* ``small``: many independent small jobs: preset debates through
  ``run_scenario`` + ``verify_replay``, the fixture move logs replayed and
  settled, and proof documents parsed, validated, measured, kernel-checked
  and serialized again.
* ``cli``: the ``sprig`` command line, one fresh interpreter at a time.

The workload picks which leg runs for the whole measuring time; the other
two run a small fixed sample, so that every end-to-end metric exists on every
workload. Inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from sprig.cli import main as cli_main
from sprig.formulas import Formula, Statement, atom, conj, disj
from sprig.proofs import (
    MachineProof,
    ProofChain,
    measure_length,
    parse_proof_document,
    serialize_proof_document,
    validate_chain,
)
from sprig.protocol import (
    LevelParameters,
    MachineParameters,
    ParameterCascade,
    advance_clock,
    replay,
    settle,
)
from sprig.scenarios import (
    PRESET_NAMES,
    PROTOCOL_FIXTURES,
    StepPlan,
    plan_chain,
    preset_scenario,
    scenario_from_json,
)
from sprig.simulator import (
    AgentSpec,
    CarpetBomber,
    HonestDefender,
    IdleStrategy,
    ScenarioConfig,
    run_scenario,
)
from sprig.verifier import ToyVerifier

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RECORDED_PATH = Path(__file__).resolve().parent / "recorded.json"

CHILD_TIMEOUT_S = 120
# The mean `calibration()` chunk on the reference machine: reported times
# are wall times scaled to a machine of that speed (see `calibration`).
REF_CALIBRATION_S = 0.008
SMALL_CHUNK = 8
PRESET_SEEDS = 10
SETUP_STEPS = 8

# Per workload: the size of each leg. The workload's own leg ("home") runs
# for the measuring time; the others run a fixed number of steps, so that
# every end-to-end metric exists on every workload. k=16 is the scaling shape
# of the roadmap (545 nodes); k=8 (145 nodes) keeps the side sample short. A
# CLI cycle runs the five light commands `light` times each, then verify-mc
# once: at 1e7 draws on the cli workload, where its O(n) memory shows, at
# 1e6 in the side samples. A wide step is one debate, a small step
# SMALL_CHUNK jobs (104 are about seven passes), a CLI step one command.
PLANS: dict[str, dict[str, Any]] = {
    "debate-wide": {
        "home": "wide",
        "wide": {"k": 16},
        "small": {"steps": 104},
        "cli": {"light": 1, "mc_n": 1_000_000, "steps": 24},
    },
    "debate-small": {
        "home": "small",
        "wide": {"k": 8, "steps": 10},
        "small": {},
        "cli": {"light": 1, "mc_n": 1_000_000, "steps": 24},
    },
    "cli": {
        "home": "cli",
        "wide": {"k": 8, "steps": 10},
        "small": {"steps": 104},
        "cli": {"light": 2, "mc_n": 10_000_000},
    },
}


@functools.cache
def recorded() -> dict[str, Any]:
    """Outputs pinned when the benchmark was defined (see record.py)."""
    return json.loads(RECORDED_PATH.read_text())


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Tally:
    """Timed samples and checks of one run.

    Work is done in steps with a calibration chunk (see `calibration`)
    between any two: the run's own record of how fast the machine was."""

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    run_id: int = 0
    # Every timed operation's (run id, wall seconds, leg); the traced run
    # relates span time to it.
    ops: list[tuple[int, float, str]] = field(default_factory=list)
    on_op: Callable[[int], None] | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def calibrate(self) -> None:
        """Time a calibration chunk (see `calibration`) between two steps."""
        self.calibrations.append(calibration())

    def speed_factor(self) -> float:
        """REF_CALIBRATION_S over the run's mean calibration chunk: above 1
        when the machine ran faster than the reference during this run."""
        return REF_CALIBRATION_S / statistics.fmean(self.calibrations)

    def next_op(self) -> int:
        self.run_id += 1
        if self.on_op is not None:
            self.on_op(self.run_id)
        return self.run_id


# -- inputs --------------------------------------------------------------------


def wide_tree(k: int, seed: int) -> ProofChain:
    """Root chain of k steps, each step carried by a k-step subchain whose
    steps all have machine proofs. The seed picks atom names and leaf shapes."""
    rng = random.Random(f"wide/{k}/{seed}")
    tag = f"w{rng.randrange(10**6)}_"
    h1, h2 = atom(tag + "h1"), atom(tag + "h2")
    tops = [disj(h1, atom(f"{tag}c{i}")) for i in range(k)]

    def leaf(assumed: list[Formula], fresh: str) -> Formula:
        a, b = rng.choice(assumed), rng.choice(assumed)
        return (disj(a, atom(fresh)), disj(atom(fresh), a), conj(a, b))[rng.randrange(3)]

    plans = []
    for i in range(k):
        assumed = [h1, h2] + ([tops[i - 1]] if i else [])
        sub = [StepPlan(leaf(assumed, f"{tag}d{i}_{j}"), sub="machine") for j in range(k - 1)]
        sub.append(StepPlan(tops[i], sub="machine"))
        plans.append(StepPlan(tops[i], imports=(i,) if i else (), sub=tuple(sub)))
    target = Statement(conclusion=tops[-1], assumptions=frozenset({h1, h2}), context="wide")
    return plan_chain(target, plans)


def wide_cascade() -> ParameterCascade:
    """Windows long enough that every question and answer lands in time,
    budgets no k-step chain can exceed."""
    return ParameterCascade(
        root_level=2,
        levels={
            2: LevelParameters(10**6, 0, 10, 8, 4, 8),
            1: LevelParameters(10**6, 3, 5, 8, 2, 8),
        },
        machine=MachineParameters(10**6, 1, 1, 1, 8),
    )


def wide_config(k: int, seed: int) -> ScenarioConfig:
    tree = wide_tree(k, seed)
    return ScenarioConfig(
        cascade=wide_cascade(),
        agents=[
            AgentSpec("owner", 10**6, IdleStrategy()),
            AgentSpec("defender", 10**6, HonestDefender(), tree=tree),
            AgentSpec("bomber", 10**6, CarpetBomber()),
        ],
        root_owner="owner",
        horizon=4 * k,
        seed=seed,
        root_tree=tree,
    )


def wide_nodes(k: int) -> int:
    """Root, k questions and k answer chains, k*k questions and k*k machine answers."""
    return 1 + 2 * k + 2 * k * k


@dataclass
class SmallJob:
    kind: str  # "preset", "fixture" or "doc"
    name: str
    run: Callable[[], bool]


def _preset_job(name: str, seed: int) -> SmallJob:
    config = scenario_from_json({**preset_scenario(name), "seed": seed})

    def run() -> bool:
        run_scenario(config).verify_replay()
        return True

    return SmallJob("preset", f"{name}@{seed}", run)


def _fixture_job(name: str) -> SmallJob:
    fx = PROTOCOL_FIXTURES[name]()
    advance_clock(fx.instance, fx.final_time)
    settle(fx.instance)
    expected = fx.instance.snapshot()
    lines = (FIXTURES / "movelogs" / f"{name}.jsonl").read_text().splitlines()
    cascade = ParameterCascade.from_json(
        json.loads((FIXTURES / "cascades" / f"{name}.json").read_text())
    )

    def run() -> bool:
        inst = replay(lines, cascade, balances=fx.balances, mode=fx.mode)
        advance_clock(inst, fx.final_time)
        settle(inst)
        return inst.snapshot() == expected

    return SmallJob("fixture", name, run)


def machine_leaves(chain: ProofChain) -> Iterator[tuple[Statement, MachineProof]]:
    for step in chain.steps:
        if isinstance(step.subproof, ProofChain):
            yield from machine_leaves(step.subproof)
        elif isinstance(step.subproof, MachineProof):
            yield step.statement, step.subproof


def doc_summary(data: bytes) -> dict[str, Any]:
    """Parse, validate, measure, kernel-check every machine leaf, serialize."""
    doc = parse_proof_document(data)
    out: dict[str, Any] = {"kind": doc.kind if not isinstance(doc, Statement) else "statement"}
    if isinstance(doc, ProofChain):
        report = validate_chain(doc.target, doc, level_limit=doc.height())
        out["violations"] = len(report.violations)
        out["length"] = str(measure_length(doc))
        leaves = list(machine_leaves(doc))
    elif isinstance(doc, MachineProof):
        out["length"] = str(measure_length(doc))
        leaves = [(doc.target, doc)]
    else:
        leaves = []
    kernel = ToyVerifier()
    out["leaves"] = [sum(kernel.verdict(s, p).validated for s, p in leaves), len(leaves)]
    out["round_trip"] = serialize_proof_document(doc) == data
    return out


def _doc_job(name: str, data: bytes, expected: dict[str, Any]) -> SmallJob:
    def run() -> bool:
        return doc_summary(data) == expected

    return SmallJob("doc", name, run)


def proof_documents() -> dict[str, bytes]:
    return {
        p.stem: p.read_bytes().rstrip(b"\n") for p in sorted((FIXTURES / "proofs").glob("*.json"))
    }


def small_jobs(seed: int) -> list[SmallJob]:
    """The presets over PRESET_SEEDS seeds, the six fixture logs, the eight
    proof fixtures plus the k=16 wide tree as a chain document, in seeded
    order."""
    base = seed * 1000
    jobs = [_preset_job(name, base + i) for i in range(PRESET_SEEDS) for name in PRESET_NAMES]
    jobs += [_fixture_job(name) for name in sorted(PROTOCOL_FIXTURES)]
    for name, data in proof_documents().items():
        jobs.append(_doc_job(name, data, recorded()["docs"][name]))
    wide = wide_tree(16, seed)
    expected = {"kind": "chain", "violations": 0, "length": str(measure_length(wide)),
                "leaves": [16 * 16, 16 * 16], "round_trip": True}
    jobs.append(_doc_job("wide16", serialize_proof_document(wide), expected))
    random.Random(f"small/{seed}").shuffle(jobs)
    return jobs


# -- CLI commands ----------------------------------------------------------------


@dataclass
class CliCommand:
    argv: list[str]
    expected_out: bytes | None  # None for verify-mc, judged by its verdict
    expected_code: int
    heavy: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv[:2])


def in_process(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().encode("utf-8")


def validate_argv(doc: str) -> list[str]:
    return ["validate", f"fixtures/proofs/{doc}.json"]


def run_argv(log: str) -> list[str]:
    mode = PROTOCOL_FIXTURES[log]().mode
    return ["run", f"fixtures/movelogs/{log}.jsonl", f"fixtures/cascades/{log}.json", "--mode", mode]


SWEEP_ARGV = ["sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "601"]


def cli_commands(seed: int, mc_n: int, light_repeat: int) -> list[CliCommand]:
    """One cycle: the five light subcommands on repo fixtures, each
    `light_repeat` times in seeded order, then verify-mc. Expected bytes come
    from `cli.main` run in this process; where the arguments are fixed they
    are also pinned to digests recorded with the benchmark."""
    rng = random.Random(f"cli/{seed}")
    light = [
        validate_argv(rng.choice(sorted(proof_documents()))),
        run_argv(rng.choice(sorted(PROTOCOL_FIXTURES))),
        ["simulate", "carpet_bomber", "--seed", str(rng.randrange(10**6))],
        ["solve", "--sigma2", str(rng.randrange(1, 60))],
        SWEEP_ARGV,
    ]
    light_commands = []
    with contextlib.chdir(ROOT):
        for argv in light:
            code, out = in_process(argv)
            pinned = recorded()["cli"].get(" ".join(argv))
            if pinned is not None and pinned != [code, sha256(out)]:
                raise RuntimeError(f"in-process output of {argv} differs from the recorded digest")
            light_commands.append(CliCommand(argv, out, code))
    commands = light_commands * light_repeat
    rng.shuffle(commands)
    mc_seed = recorded()["mc_seeds"][seed % len(recorded()["mc_seeds"])]
    heavy = ["verify-mc", "--sigma2", "30", "--n", str(mc_n), "--seed", str(mc_seed)]
    commands.append(CliCommand(heavy, None, 0, heavy=True))
    return commands


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SPRIG_SEED", None)
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, int, bytes, bytes, float]:
    """Run one child to completion: (wall s, exit code, stdout, stderr, peak RSS MB).

    The child is reaped with `os.wait4` so its own peak RSS is known; an
    alarm kills it if it outlives CHILD_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, err, usage.ru_maxrss / 1024


# -- legs ------------------------------------------------------------------------
#
# Each leg is an endless generator; one step is one unit of work: a wide
# debate simulated and replayed, SMALL_CHUNK small jobs, one CLI call, or one
# set-up. `run_legs` interleaves the steps of all legs over the whole run, so
# that no leg inherits the machine speed of one stretch of it (see
# `calibration`).


@dataclass
class Inputs:
    wide_k: int
    wide: ScenarioConfig
    jobs: list[SmallJob]
    commands: list[CliCommand]


def build_inputs(workload: str, seed: int) -> Inputs:
    plan = PLANS[workload]
    k = plan["wide"]["k"]
    return Inputs(
        wide_k=k,
        wide=wide_config(k, seed),
        jobs=small_jobs(seed),
        commands=cli_commands(seed, plan["cli"]["mc_n"], plan["cli"]["light"]),
    )


def wide_steps(inputs: Inputs, tally: Tally, digest: str | None) -> Iterator[None]:
    config, k = inputs.wide, inputs.wide_k
    clock = time.perf_counter
    while True:
        gc.collect()
        op = tally.next_op()
        t0 = clock()
        trace = run_scenario(config)
        t1 = clock()
        tally.ops.append((op, t1 - t0, "wide"))
        tally.add("wide.sim_s", t1 - t0)
        lines = trace.move_lines
        moves_digest = sha256("\n".join(lines))
        tally.check(len(lines) == wide_nodes(k) == len(trace.instance.nodes),
                    f"wide k={k}: {len(lines)} moves, {len(trace.instance.nodes)} nodes")
        if digest is None:
            digest = moves_digest
        tally.check(moves_digest == digest, f"wide k={k}: move-log digest {moves_digest[:16]}")

        # A move's latency runs from replay() pulling its line to pulling
        # the next one (or returning, for the last).
        stamps: list[float] = []

        def feed() -> Iterator[str]:
            for line in lines:
                stamps.append(clock())
                yield line

        op = tally.next_op()
        t2 = clock()
        inst = replay(feed(), config.cascade, balances=trace.initial_balances, mode=config.mode)
        stamps.append(clock())
        advance_clock(inst, trace.final_clock)
        settle(inst)
        t3 = clock()
        tally.ops.append((op, t3 - t2, "wide"))
        tally.add("wide.replay_s", t3 - t2)
        for a, b in zip(stamps, stamps[1:]):
            tally.add("wide.move_s", b - a)
        tally.check(inst.snapshot() == trace.final_snapshot,
                    f"wide k={k}: replayed snapshot differs from the simulated one")
        # Drop the debate before the other legs run, so their garbage
        # collections do not scan it.
        del trace, inst, lines, stamps
        yield


def small_steps(inputs: Inputs, tally: Tally) -> Iterator[None]:
    """One step is SMALL_CHUNK jobs, taken round-robin from the seeded job
    list, so that a side sample is spread over the whole run."""
    clock = time.perf_counter
    while True:
        for start in range(0, len(inputs.jobs), SMALL_CHUNK):
            for job in inputs.jobs[start:start + SMALL_CHUNK]:
                op = tally.next_op()
                t0 = clock()
                try:
                    ok = job.run()
                except (AssertionError, ValueError, KeyError) as exc:
                    ok = False
                    print(f"{job.kind} {job.name}: {exc!r}", file=sys.stderr)
                wall = clock() - t0
                tally.ops.append((op, wall, "small"))
                tally.check(ok, f"{job.kind} {job.name}: output differs from the expected one")
                tally.add("small.doc_s" if job.kind == "doc" else "small.debate_s", wall)
            yield


def cli_steps(inputs: Inputs, tally: Tally) -> Iterator[None]:
    env = child_env()
    # One untimed child first, so the timed ones find warm file caches.
    spawn([sys.executable, "-c", "import sprig.cli"], env)
    while True:
        for cmd in inputs.commands:
            op = tally.next_op()
            wall, code, out, err, rss = spawn([sys.executable, "-m", "sprig.cli", *cmd.argv], env)
            tally.ops.append((op, wall, "cli"))
            kind = "mc" if cmd.heavy else "light"
            tally.add(f"cli.{kind}_s", wall)
            tally.add(f"cli.{kind}_rss_mb", rss)
            ok = cli_output_ok(cmd, code, out)
            if not ok and err:
                print(err.decode("utf-8", "replace")[-2000:], file=sys.stderr)
            tally.check(ok, f"cli {cmd.label}: exit {code} or stdout differs from the expected")
            yield


def cli_output_ok(cmd: CliCommand, code: int, out: bytes) -> bool:
    """Light commands must reproduce their expected bytes and exit code;
    verify-mc must exit 0 with a passing verdict."""
    if not cmd.heavy:
        return code == cmd.expected_code and out == cmd.expected_out
    try:
        return code == 0 and json.loads(out).get("verdict") == "pass"
    except (json.JSONDecodeError, AttributeError):
        return False


def calibration(iterations: int = 15_000) -> float:
    """Wall seconds of a fixed piece of pure-Python work (arithmetic, list,
    dict and string operations, as in sprig's own code), timed between every
    two steps of a run.

    On the shared 2-core VM the benchmark was tuned on, speed drifts: this
    chunk takes either ~6 ms or ~9.5 ms, switching within a fraction of a
    second on either core, and the share of slow time moves from minute to
    minute. Over ten runs of a workload, the
    run's mean chunk correlated at 0.65-0.95 with every timing metric of the
    run, so reported times are scaled by REF_CALIBRATION_S over that mean
    (rates by its inverse); that cut the metrics' quartile spread across
    runs about twofold. The mean, not the median, because the chunk times
    are bimodal and the mean moves linearly with the share of slow time."""
    t0 = time.perf_counter()
    table: dict[int, str] = {}
    items: list[int] = []
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFF
        items.append(acc)
        table[acc & 1023] = str(acc)
        if len(items) > 64:
            items.sort()
            del items[:32]
    return time.perf_counter() - t0


def setup_steps(workload: str, seed: int, tally: Tally) -> Iterator[Inputs]:
    """Set-up as a leg of its own: each step builds every input and expected
    output of the run again, so `setup_s` is sampled across the run too."""
    while True:
        gc.collect()
        t0 = time.perf_counter()
        inputs = build_inputs(workload, seed)
        tally.add("setup_s", time.perf_counter() - t0)
        yield inputs


def run_legs(workload: str, seed: int, seconds: float, tally: Tally) -> Inputs:
    """Set up, then interleave the legs: the workload's own leg runs
    `seconds` of wall time, the others their fixed number of steps. The next
    step always goes to the leg furthest behind its share, so every leg is
    sampled across the whole run. Returns the inputs."""
    plan = PLANS[workload]
    home = plan["home"]
    setup = setup_steps(workload, seed, tally)
    tally.calibrate()
    inputs = next(setup)
    digest = recorded()["wide"].get(str(inputs.wide_k), {}).get(str(seed))
    legs = {
        "setup": setup,
        "wide": wide_steps(inputs, tally, digest),
        "small": small_steps(inputs, tally),
        "cli": cli_steps(inputs, tally),
    }
    steps = {name: plan[name]["steps"] for name in ("wide", "small", "cli") if name != home}
    steps["setup"] = SETUP_STEPS - 1
    done = dict.fromkeys(legs, 0)
    home_time = 0.0
    # The home leg runs at least one full CLI cycle, so verify-mc is timed.
    home_min = len(inputs.commands) if home == "cli" else 1

    def progress(name: str) -> float:
        if name == home:
            return min(home_time / seconds, done[home] / home_min)
        return done[name] / steps[name]

    while True:
        tally.calibrate()
        name = min(legs, key=progress)
        if progress(name) >= 1.0:
            return inputs
        t0 = time.perf_counter()
        next(legs[name])
        if name == home:
            home_time += time.perf_counter() - t0
        done[name] += 1
