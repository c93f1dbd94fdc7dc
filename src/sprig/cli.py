"""Command-line front end.

Subcommands:

* ``validate``  - structural check of a proof document, one line per violation
* ``run``       - replay a move log against a cascade file, settle, print JSON
* ``simulate``  - run a preset or scenario file, print the payoff summary
* ``solve``     - perfect Bayesian equilibrium at one parameter point (JSON)
* ``sweep``     - CSV of solutions along one parameter axis
* ``verify-mc`` - closed forms against a Monte Carlo run, pass/fail at 3 SE

Exit status: 0 on success, 1 on domain errors (malformed documents, illegal
moves, degenerate parameters, a failed verification verdict), 2 on usage
errors including missing input files. Output goes to stdout and is meant for
machines first; identical invocations produce byte-identical bytes. The
``SPRIG_SEED`` environment variable supplies the default seed wherever a
``--seed`` flag is accepted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

# Each command imports its own layer when it runs, so `validate` never loads
# the protocol, the equilibrium commands never load `formulas`, and only
# `verify-mc` loads numpy. `canonical_json` lives in the package itself.
from . import canonical_json

if TYPE_CHECKING:
    from .equilibrium import GameParameters
    from .protocol import ParameterCascade, ProtocolInstance

USAGE_ERROR = 2
DOMAIN_ERROR = 1

# Most grid points `sweep` solves. Rows are printed as they are solved, so
# memory stays flat in the steps; the bound keeps one call to ~5 s.
MAX_SWEEP_STEPS = 10**5
# Most moves `run` replays, the move-log counterpart of the simulator's
# MAX_RUN_TICKS (kept here so that `run` loads no simulator): a replayed
# move costs tens of µs, so the bound keeps one call to about a minute.
MAX_RUN_MOVES = 10**6


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_bytes(path: str) -> bytes:
    """Read an input file; a missing path is a usage error. Each command
    decodes the bytes as UTF-8 and reports bytes that are not UTF-8 as a bad
    document of its kind, a domain error."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(path)
    return p.read_bytes()


def _env_seed() -> int | None:
    raw = os.environ.get("SPRIG_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SPRIG_SEED must be an integer, got {raw!r}") from None


# -- validate ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    from .formulas import ParseError
    from .proofs import MachineProof, ProofChain, parse_proof_document, validate_chain

    try:
        data = _read_bytes(args.path)
    except FileNotFoundError:
        return _fail(f"no such file: {args.path}", USAGE_ERROR)
    try:
        doc = parse_proof_document(data)
    except ParseError as exc:
        return _fail(f"unparsable document: {exc}", DOMAIN_ERROR)
    if isinstance(doc, ProofChain):
        limit = args.level_limit if args.level_limit is not None else doc.height()
        report = validate_chain(doc.target, doc, level_limit=limit)
        for violation in report.violations:
            print(violation)
        if report.ok:
            print("ok: chain has no violations")
            return 0
        n = len(report.violations)
        print(f"invalid: {n} violation{'s' if n != 1 else ''}")
        return DOMAIN_ERROR
    # Statements and machine proofs carry no import structure to cross-check;
    # parsing is the whole structural story. Whether a machine proof actually
    # derives its conclusion is the verifier's business, not this command's.
    label = "machine proof" if isinstance(doc, MachineProof) else "statement"
    print(f"ok: well-formed {label}")
    return 0


# -- run -----------------------------------------------------------------


def _generous_funding(actors: Iterable[Any], cascade: ParameterCascade) -> dict[str, int]:
    """Opening balances that cannot run dry during replay.

    Move logs record actions, not accounts, so the replayer grants each actor
    the worst-case deposit per move they attempt. Published deltas are
    unaffected: settlement moves tokens between accounts and the burn pile,
    never against the float.
    """
    per_move = max(
        max(cascade.deposit(level), cascade.bounty(level))
        for level in range(cascade.root_level + 1)
    )
    funding: dict[str, int] = {}
    for actor in actors:
        if isinstance(actor, str):  # replay rejects any other actor
            funding[actor] = funding.get(actor, 0) + per_move
    return funding


def _run_outcome(instance: ProtocolInstance, initial: dict[str, int]) -> dict[str, Any]:
    transfers = instance.settle()
    nodes = {}
    for node in instance.nodes.values():
        nodes[node.id] = {
            "determined_at": node.determination.to_json() if node.determination else None,
            "kind": node.kind,
            "level": node.level,
            "owner": node.owner,
            "status": node.status,
        }
    final = instance.ledger.balances
    accounts = sorted(set(initial) | set(final))
    return {
        "burned": instance.ledger.burned,
        "clock": instance.clock,
        "deltas": {a: final.get(a, 0) - initial.get(a, 0) for a in accounts},
        "nodes": nodes,
        "settlement": [t.to_json() for t in transfers],
    }


def cmd_run(args: argparse.Namespace) -> int:
    from .formulas import ParseError, parse_json, read_object
    from .protocol import (
        EARLY_STOP, QUIESCENCE, ParameterCascade, ProtocolError, ProtocolInstance, replay_line
    )

    try:
        log_data = _read_bytes(args.movelog)
        cascade_data = _read_bytes(args.cascade)
    except FileNotFoundError as exc:
        return _fail(f"no such file: {exc.args[0]}", USAGE_ERROR)
    try:
        cascade = ParameterCascade.from_json(parse_json(cascade_data.decode("utf-8")))
    except ValueError as exc:
        return _fail(f"bad cascade file: {exc}", DOMAIN_ERROR)
    try:
        log_text = log_data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first byte that is not UTF-8, as `splitlines` counts.
        number = len((log_data[: exc.start].decode("utf-8") + "x").splitlines())
        return _fail(f"bad move log at line {number}: {exc}", DOMAIN_ERROR)
    mode = EARLY_STOP if args.mode == "early-stop" else QUIESCENCE
    # Each line is decoded once, up front: funding needs every actor first.
    moves = []
    for number, raw in enumerate(log_text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        if len(moves) == MAX_RUN_MOVES:
            return _fail(f"move log has more than {MAX_RUN_MOVES} moves", DOMAIN_ERROR)
        try:
            record = read_object(parse_json(raw), "move", required=("actor",))
        except (json.JSONDecodeError, ParseError) as exc:
            return _fail(f"bad move log at line {number}: {exc}", DOMAIN_ERROR)
        moves.append((number, raw, record))
    balances = _generous_funding([record["actor"] for _, _, record in moves], cascade)
    instance = ProtocolInstance(cascade, balances=balances, mode=mode)
    for number, raw, record in moves:
        try:
            replay_line(instance, raw, record)
        except (ProtocolError, ParseError) as exc:
            return _fail(f"illegal move at line {number}: {exc}", DOMAIN_ERROR)
    if instance.root_id is None:
        return _fail("empty move log", DOMAIN_ERROR)
    instance.advance_clock(instance.max_deadline())
    print(canonical_json(_run_outcome(instance, balances)))
    return 0


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    from .formulas import ParseError, parse_json, read_object
    from .protocol import ProtocolError
    from .scenarios import PRESET_NAMES, preset_scenario, scenario_from_json
    from .simulator import run_scenario

    if args.scenario in PRESET_NAMES:
        doc = preset_scenario(args.scenario)
    else:
        try:
            data = _read_bytes(args.scenario)
        except FileNotFoundError:
            known = ", ".join(PRESET_NAMES)
            return _fail(
                f"{args.scenario!r} is neither a preset ({known}) nor a file", USAGE_ERROR
            )
        try:
            doc = parse_json(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, ParseError) as exc:
            return _fail(f"scenario is not JSON: {exc}", DOMAIN_ERROR)
    seed = args.seed if args.seed is not None else _env_seed()
    try:
        if seed is not None:
            doc = {**read_object(doc, "scenario"), "seed": seed}
        # Only the root move can fail; the simulator logs an agent's failed move.
        trace = run_scenario(scenario_from_json(doc))
    except (ValueError, ProtocolError) as exc:
        return _fail(f"bad scenario: {exc}", DOMAIN_ERROR)
    if args.trace is not None:
        Path(args.trace).write_text("\n".join(trace.to_json_lines()) + "\n", encoding="utf-8")
    if args.csv is not None:
        Path(args.csv).write_text("\n".join(trace.metrics_csv()) + "\n", encoding="utf-8")
    print(canonical_json(trace.summary()))
    return 0


# -- equilibrium commands --------------------------------------------------


def _theta_from_flags(args: argparse.Namespace) -> GameParameters:
    from .equilibrium import GameParameters

    return GameParameters(
        b0=args.b0,
        b1=args.b1,
        b2=args.b2,
        sigma1=args.sigma1,
        sigma2=args.sigma2,
        beta0=args.beta0,
        beta1=args.beta1,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    from .equilibrium import DegenerateParametersError, outcome_probabilities, solve_pbe

    theta = _theta_from_flags(args)
    try:
        sol = solve_pbe(theta)
    except DegenerateParametersError as exc:
        return _fail(f"degenerate parameters: {exc}", DOMAIN_ERROR)
    probs = outcome_probabilities(sol, theta)
    print(
        canonical_json(
            {
                "equilibrium": sol._asdict(),
                "outcome_probabilities": probs._asdict(),
                "parameters": theta._asdict(),
            }
        )
    )
    return 0


def _grid(start: float, stop: float, steps: int) -> Iterator[float]:
    """The grid's points, yielded one at a time; `steps` is checked at once."""
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"--steps must be between 1 and {MAX_SWEEP_STEPS}")
    if steps == 1:
        return iter([start])
    return (_grid_point(start, stop, i, steps - 1) for i in range(steps))


def _grid_point(start: float, stop: float, i: int, intervals: int) -> float:
    """`start + (stop - start) * i / intervals` where that is finite. Between
    finite ends it can still overflow, in the difference or the product, so
    there the point is its exact value rounded once, which is finite because
    it lies between the ends."""
    point = start + (stop - start) * i / intervals
    if math.isfinite(point) or not (math.isfinite(start) and math.isfinite(stop)):
        return point
    from fractions import Fraction

    return float(Fraction(start) + (Fraction(stop) - Fraction(start)) * i / intervals)


def cmd_sweep(args: argparse.Namespace) -> int:
    from .equilibrium import SWEEP_COLUMNS, sweep

    theta = _theta_from_flags(args)
    rows = sweep(theta, args.param, _grid(args.start, args.stop, args.steps))
    # Lines go out a thousand at a time, the header with the first rows: a
    # print per row would be a write per row where stdout is unbuffered
    # (PYTHONUNBUFFERED), ~40% more time, and a grid that fails on one of
    # its first thousand points prints nothing.
    lines = chain([",".join(SWEEP_COLUMNS)], (",".join(row) for row in rows))
    while block := list(islice(lines, 1000)):
        print("\n".join(block))
    return 0


def cmd_verify_mc(args: argparse.Namespace) -> int:
    from .equilibrium import (
        DegenerateParametersError,
        closed_form_row,
        monte_carlo_estimate,
        outcome_probabilities,
        solve_pbe,
    )

    theta = _theta_from_flags(args)
    try:
        sol = solve_pbe(theta)
    except DegenerateParametersError as exc:
        return _fail(f"degenerate parameters: {exc}", DOMAIN_ERROR)
    probs = outcome_probabilities(sol, theta)
    seed = args.seed if args.seed is not None else (_env_seed() or 0)
    estimates = monte_carlo_estimate(theta, sol, n=args.n, seed=seed)
    rows: dict[str, Any] = {}
    for name in sorted(estimates):
        closed, est = closed_form_row(probs, name, sol), estimates[name]
        if closed is None or est.estimate is None:
            ok = closed is None and est.estimate is None
        else:
            gap = abs(est.estimate - closed)
            ok = gap <= 3 * est.se if est.se > 0 else gap == 0.0
        rows[name] = {"closed": closed, "estimate": est.estimate, "ok": ok, "se": est.se}
    all_ok = all(row["ok"] for row in rows.values())
    print(
        canonical_json(
            {
                "n": args.n,
                "parameters": theta._asdict(),
                "rows": rows,
                "seed": seed,
                "verdict": "pass" if all_ok else "fail",
            }
        )
    )
    return 0 if all_ok else DOMAIN_ERROR


# -- parser wiring -----------------------------------------------------------


def _add_theta_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b0", type=float, default=40.0, help="machine-level reward")
    parser.add_argument("--b1", type=float, default=40.0, help="mid-level reward")
    parser.add_argument("--b2", type=float, default=10.0, help="top-level reward")
    parser.add_argument("--sigma1", type=float, default=5.0, help="reply stake")
    parser.add_argument("--sigma2", type=float, default=5.0, help="entry stake")
    parser.add_argument("--beta0", type=float, default=5.0, help="second-challenge bounty")
    parser.add_argument("--beta1", type=float, default=5.0, help="first-challenge bounty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprig",
        description="Staked proof debates: validate, replay, simulate, solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structurally check a proof document")
    p.add_argument("path", help="JSON proof document")
    p.add_argument(
        "--level-limit",
        type=int,
        default=None,
        help="maximum chain-subproof nesting (default: the document's own height)",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="replay a move log and settle the debate")
    p.add_argument("movelog", help="JSON-lines move log")
    p.add_argument("cascade", help="JSON parameter cascade")
    p.add_argument(
        "--mode",
        choices=["quiescence", "early-stop"],
        default="quiescence",
        help="when resolution may end the debate",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="run a preset or scenario file")
    p.add_argument("scenario", help="preset name or JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--trace", default=None, metavar="PATH", help="write the JSON-lines trace here")
    p.add_argument("--csv", default=None, metavar="PATH", help="write the payoff CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="equilibrium and outcome rates at one point")
    _add_theta_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="re-solve along one parameter axis, emit CSV")
    _add_theta_flags(p)
    p.add_argument("--param", required=True, help="parameter to vary (e.g. sigma2)")
    p.add_argument("--from", dest="start", type=float, required=True, help="first value")
    p.add_argument("--to", dest="stop", type=float, required=True, help="last value")
    p.add_argument(
        "--steps", type=int, required=True, help=f"number of grid points, 1 to {MAX_SWEEP_STEPS:,}"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-mc", help="check closed forms against simulation")
    _add_theta_flags(p)
    p.add_argument(
        "--n",
        type=int,
        default=1_000_000,
        # equilibrium.MAX_MC_DRAWS, written out so that parsing the command
        # line loads no layer; a test holds the two equal.
        help="number of simulated games, 0 to 1,000,000,000",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: SPRIG_SEED or 0)")
    p.set_defaults(func=cmd_verify_mc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`sprig sweep ... | head -1`). Point
        # stdout at devnull so the interpreter's own flush at exit does not
        # fail again, and report a domain error without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return DOMAIN_ERROR
    except ValueError as exc:
        return _fail(str(exc), USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
