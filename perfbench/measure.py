"""Measurement and reporting for perfbench/run.py: set-up timing, the
end-to-end metrics, the traced run and its per-layer metrics, and the
environment record written next to every result."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

import numpy

import workloads
from tracing import Spans, Tracer
from workloads import ROOT

OUT_DIR = ROOT / ".perfbench_out"
# Samples per block of a tail (see `tail`): the 11th largest of 545 moves
# (one k=16 debate) is p98.2, of 110 debates p90.9.
MOVE_TAIL_BLOCK = 545
DEBATE_TAIL_BLOCK = 110


median = statistics.median


def tail(values: list[float], block: int | None = None) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum of ten or fewer: (value, percentile, sample count). With `block`,
    the samples are cut into consecutive blocks of that many (a remainder is
    dropped) and the value is the median of the blocks' tails: one slow
    stretch of the run then moves the value by one block, not outright."""
    if block is None or len(values) < 2 * block:
        block = len(values)
    rank = block - 11 if block > 10 else block - 1
    tails = [sorted(values[start:start + block])[rank]
             for start in range(0, len(values) - block + 1, block)]
    return median(tails), 100.0 * (rank + 1) / block, len(values)


# -- environment ---------------------------------------------------------------


def noise_floor(calibrations: list[float]) -> dict[str, float]:
    """The machine's own run-to-run spread over this run, against which the
    metrics' spread can be judged: quartiles of the calibration chunks
    (fixed pure-Python work, timed between every two steps)."""
    q1, mid, q3 = statistics.quantiles(calibrations, n=4)
    return {"calibration_s_median": mid, "calibration_quartile_spread": (q3 - q1) / mid,
            "calibration_s_min": min(calibrations), "calibration_s_max": max(calibrations),
            "chunks": len(calibrations)}


def source_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def source_digest() -> str:
    """sha256 over src/sprig, which identifies the measured code in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sprig").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- end-to-end metrics --------------------------------------------------------


def end_to_end(tally: Any, k: int) -> dict[str, dict[str, Any]]:
    """Every end-to-end metric. Latencies are medians and tails of their
    samples, tails taken per block of MOVE_TAIL_BLOCK moves or
    DEBATE_TAIL_BLOCK debates; throughputs are total work over total
    busy time, and verify-mc a mean, because the machine's speed is bimodal
    (see workloads.calibration) and a median of a few long samples would
    jump between its two modes. Times and rates are then scaled to the
    reference speed; `raw` keeps them as measured."""
    s = tally.samples
    moves = workloads.wide_nodes(k)
    metrics: dict[str, dict[str, Any]] = {}

    def put(name: str, value: float, unit: str, sample: str, **detail: Any) -> None:
        metrics[name] = {"value": value, "unit": unit, "samples": len(s[sample]), **detail}

    def put_ms(name: str, sample: str, block: int | None = None) -> None:
        if name.endswith("_tail_ms"):
            value, pct, _ = tail(s[sample], block)
            detail = {"percentile": round(pct, 2)} | ({"block": block} if block else {})
            put(name, value * 1000, "ms", sample, **detail)
        else:
            put(name, median(s[sample]) * 1000, "ms", sample)

    put("setup_s", median(s["setup_s"]), "s", "setup_s")
    put("sim_moves_per_s", moves * len(s["wide.sim_s"]) / sum(s["wide.sim_s"]), "moves/s",
        "wide.sim_s", nodes=moves)
    put("replay_moves_per_s", moves * len(s["wide.replay_s"]) / sum(s["wide.replay_s"]),
        "moves/s", "wide.replay_s", nodes=moves)
    put_ms("move_p50_ms", "wide.move_s")
    put_ms("move_tail_ms", "wide.move_s", block=MOVE_TAIL_BLOCK)
    put("debates_per_s", len(s["small.debate_s"]) / sum(s["small.debate_s"]), "debates/s",
        "small.debate_s")
    put_ms("debate_p50_ms", "small.debate_s")
    put_ms("debate_tail_ms", "small.debate_s", block=DEBATE_TAIL_BLOCK)
    put("docs_per_s", len(s["small.doc_s"]) / sum(s["small.doc_s"]), "docs/s", "small.doc_s")
    put_ms("cli_p50_ms", "cli.light_s")
    put_ms("cli_tail_ms", "cli.light_s")
    put("verify_mc_s", statistics.mean(s["cli.mc_s"]), "s", "cli.mc_s")
    put("cli_rss_mb", median(s["cli.light_rss_mb"]), "MB", "cli.light_rss_mb")
    put("verify_mc_rss_mb", median(s["cli.mc_rss_mb"]), "MB", "cli.mc_rss_mb")
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    factor = tally.speed_factor()
    for metric in metrics.values():
        unit = metric["unit"]
        if unit != "MB":
            metric["raw"] = metric["value"]
            metric["value"] *= 1 / factor if unit.endswith("/s") else factor
    return metrics


# -- traced run ----------------------------------------------------------------


def probe(workload: str, inputs: Any) -> float:
    """Wall time of one pass of the workload's main operations: one wide
    debate, one pass over the small jobs, or the light CLI commands run in
    this process."""
    scratch = workloads.Tally()
    home = workloads.PLANS[workload]["home"]
    gc.collect()
    t0 = time.perf_counter()
    if home == "wide":
        next(workloads.wide_steps(inputs, scratch, None))
    elif home == "small":
        steps = workloads.small_steps(inputs, scratch)
        for _ in range(0, len(inputs.jobs), workloads.SMALL_CHUNK):
            next(steps)
    else:
        with contextlib.chdir(ROOT):
            for cmd in inputs.commands:
                if not cmd.heavy:
                    workloads.in_process(cmd.argv)
    return time.perf_counter() - t0


def tracing_overhead(workload: str, inputs: Any, pairs: int = 2) -> tuple[float, float]:
    """Median wall time of a probe pass without and with a tracer of its
    own installed, alternating, after one pass to warm up."""
    probe(workload, inputs)
    untraced, traced = [], []
    for _ in range(pairs):
        untraced.append(probe(workload, inputs))
        tracer = Tracer()
        tracer.install(workloads)
        try:
            traced.append(probe(workload, inputs))
        finally:
            tracer.uninstall()
    return median(untraced), median(traced)


def import_probe(reps: int = 3) -> tuple[float, float]:
    """(seconds to import sprig.cli, numpy's part of it) in fresh
    interpreters, from `-X importtime`; medians over `reps`."""
    env = workloads.child_env()
    totals, numpys = [], []
    for _ in range(reps):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sprig.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stderr
        cumulative: dict[str, int] = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                bare = name.strip()
                if bare == "numpy" or (bare == "sprig.cli" and name == " " + bare):
                    cumulative[bare] = max(cumulative.get(bare, 0), int(parts[1]))
        totals.append(cumulative["sprig.cli"] / 1e6)
        numpys.append(cumulative.get("numpy", 0) / 1e6)
    return median(totals), median(numpys)


def per_layer(view: Any, tally: Any, home_runs: set[int], overhead: float,
              imports: tuple[float, float], mc_rss_delta: float, mc_draws: int) -> dict[str, Any]:
    metrics: dict[str, dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def both(prefix: str, names: set[str]) -> None:
        put(f"{prefix}_calls", view.calls(names), "count")
        put(f"{prefix}_s", view.total(names), "s")

    both("formulas.statement_hash", {"Statement.hash"})
    both("formulas.sorted_assumptions", {"Statement.sorted_assumptions"})
    both("formulas.content_hash", {"content_hash"})

    put("proofs.parse_s", view.total({"parse_proof_document", "ProofChain.from_json",
                                      "MachineProof.from_json"}), "s")
    both("proofs.validate", {"validate_chain"})
    put("proofs.measure_s", view.total({"measure_length"}), "s")

    verdicts = {"ToyVerifier.verdict", "ScriptedVerifier.verdict"}
    both("verifier.verdict", verdicts)
    outcomes = [v for v in view.values(verdicts, outermost=False) if v is not None]
    put("verifier.validated_ratio", ratio(sum(v == 1 for v in outcomes), len(outcomes)), "ratio")

    posts = {"create_root_claim", "create_root_question", "ProtocolInstance.post_question",
             "ProtocolInstance.post_answer_claim"}
    put("protocol.post_calls", view.calls(posts, outermost=False), "count")
    put("protocol.post_rejected", sum(v == -1 for v in view.values(posts, outermost=False)),
        "count")
    put("protocol.post_self_s", view.self_time(posts), "s")
    resolves = {"ProtocolInstance.resolve"}
    put("protocol.resolve_calls", view.calls(resolves), "count")
    put("protocol.resolve_self_s", view.self_time(resolves), "s")
    determined = [v for v in view.values(resolves) if v is not None and v >= 0]
    put("protocol.determinations_per_resolve", ratio(sum(determined), len(determined)), "ratio")
    home_time = sum(wall for run, wall, _ in tally.ops if run in home_runs)
    put("protocol.resolve_share_home", ratio(view.total(resolves, runs=home_runs), home_time),
        "ratio")
    put("protocol.settle_s", view.total({"ProtocolInstance.settle"}), "s")
    put("protocol.replay_self_s", view.self_time({"replay"}), "s")

    decides = {n for n in view.tracer.names if n.endswith(".decide")}
    both("simulator.decide", decides)
    intents = sum(v for v in view.values(decides) if v is not None and v >= 0)
    put("simulator.intents", intents, "count")
    rejected = sum(v for v in view.values({"run_scenario"}) if v is not None and v >= 0)
    put("simulator.intent_accept_ratio", ratio(intents - rejected, intents), "ratio")
    context = {n for n in view.tracer.names if n.startswith("AgentContext.")}
    put("simulator.loop_self_s", view.self_time({"run_scenario"}) + view.self_time(context), "s")
    put("simulator.verify_replay_s", view.total({"SimulationTrace.verify_replay"}), "s")

    put("scenarios.load_s", view.total({"preset_scenario", "scenario_from_json",
                                        "build_knowledge"}), "s")

    put("equilibrium.solve_s", view.total({"solve_pbe"}), "s")
    put("equilibrium.sweep_s", view.total({"sweep"}), "s")
    mc_s = view.total({"monte_carlo_estimate"})
    put("equilibrium.mc_s", mc_s, "s")
    put("equilibrium.mc_draws_per_s", ratio(mc_draws, mc_s), "draws/s")
    put("equilibrium.mc_rss_delta_mb", mc_rss_delta, "MB")

    put("cli.import_s", imports[0], "s")
    put("cli.numpy_import_s", imports[1], "s")
    put("cli.main_self_s", view.layer_self_time({"main"}), "s")
    put("trace.overhead_frac", overhead, "ratio")
    put("trace.spans", len(view.spans), "count")
    return metrics


def traced_run(args: argparse.Namespace, tally: Any) -> tuple[dict[str, Any], Any, dict]:
    untraced, traced = tracing_overhead(args.workload,
                                        workloads.build_inputs(args.workload, args.seed))
    tracer = Tracer()
    tracer.install(workloads)
    try:
        tally.on_op = lambda run: setattr(tracer, "run_id", run)
        inputs = workloads.run_legs(args.workload, args.seed, args.seconds, tally)
        home = workloads.PLANS[args.workload]["home"]
        home_runs = {run for run, _, leg in tally.ops if leg == home}
        # The CLI leg runs in children, out of the tracer's reach; run the same
        # commands once more in this process so the equilibrium and cli
        # layers are seen too.
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with contextlib.chdir(ROOT):
            for cmd in inputs.commands:
                tally.next_op()
                code, out = workloads.in_process(cmd.argv)
                tally.check(workloads.cli_output_ok(cmd, code, out),
                            f"in-process cli {cmd.label}: exit {code} or stdout differs")
        rss_delta = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    finally:
        tracer.uninstall()
    mc_draws = sum(int(c.argv[c.argv.index("--n") + 1]) for c in inputs.commands if c.heavy)
    view = Spans(tracer)
    metrics = per_layer(view, tally, home_runs, (traced - untraced) / untraced, import_probe(),
                        rss_delta, mc_draws)
    return metrics, view, {"untraced_probe_s": untraced, "traced_probe_s": traced}


# -- main ------------------------------------------------------------------------


def main(args: argparse.Namespace) -> int:
    env = environment(args)
    tally = workloads.Tally()
    report: dict[str, Any] = {"environment": env}
    if args.trace:
        metrics, view, extra = traced_run(args, tally)
        report["trace"] = extra
    else:
        inputs = workloads.run_legs(args.workload, args.seed, args.seconds, tally)
        metrics = end_to_end(tally, inputs.wide_k)
    env["loadavg_end"] = os.getloadavg()
    env["noise_floor"] = noise_floor(tally.calibrations)
    env["speed_factor"] = tally.speed_factor()
    report["metrics"] = metrics
    report["failures"] = tally.failures
    report["calibrations_s"] = tally.calibrations
    report["samples"] = tally.samples

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for row in view.records():
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"# {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        extra = " ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:10s} {extra}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if tally.failed == 0 else 1

