"""Acceptance gate: nine release criteria, one test and one verdict line each.

Every numeric tolerance and time budget below is part of the package's
contract. Criteria that cannot hold are still asserted exactly as stated;
a red line here means the contract clause itself is the problem, and the
failure message carries the measured values.
"""

import functools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sprig.equilibrium import (
    GameParameters,
    _phi_slope,
    best_response_check,
    closed_form_row,
    monte_carlo_estimate,
    outcome_probabilities,
    phi,
    solve_pbe,
)
from sprig.proofs import ProofChain, parse_proof_document, validate_chain
from sprig.protocol import ParameterCascade, advance_clock, replay, settle
from sprig.scenarios import PROTOCOL_FIXTURES, preset_scenario, scenario_from_json
from sprig.simulator import run_scenario

import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GRID_SEED = 20260814
GRID_SIZE = 10_000


def baseline(sigma2: float) -> GameParameters:
    return GameParameters(b0=40, b1=40, b2=10, sigma1=5, sigma2=sigma2, beta0=5, beta1=5)


@functools.lru_cache(maxsize=1)
def solved_grid():
    """The shared random parameter grid: draw order is load-bearing."""
    rng = random.Random(GRID_SEED)
    points = []
    for _ in range(GRID_SIZE):
        points.append(
            GameParameters(
                b0=rng.uniform(0.5, 50),
                b1=rng.uniform(0.5, 50),
                b2=rng.uniform(0.5, 50),
                sigma1=rng.uniform(0.1, 30),
                sigma2=rng.uniform(0.0, 60),
                beta0=rng.uniform(0.1, 30),
                beta1=rng.uniform(0.1, 30),
            )
        )
    return [(theta, solve_pbe(theta)) for theta in points]


def test_criterion_1_grid_classification_and_interior_identities():
    start = time.perf_counter()
    grid = solved_grid()
    assert len(grid) == GRID_SIZE
    worst_bayes = worst_reply = worst_phi = 0.0
    for theta, sol in grid:
        assert sol.eq_type in (1, 2, 3), theta
        exact = oracles.exact_solution(
            b0=Fraction(theta.b0), b1=Fraction(theta.b1), b2=Fraction(theta.b2),
            sigma1=Fraction(theta.sigma1), sigma2=Fraction(theta.sigma2),
            beta0=Fraction(theta.beta0), beta1=Fraction(theta.beta1),
        )
        assert sol.eq_type == exact["eq_type"], theta
        if sol.p < 1:
            gap = abs(sol.pi_e - sol.pi1_star * (sol.pi_e + (1 - sol.pi_e) * sol.p))
            worst_bayes = max(worst_bayes, gap)
        if sol.q1 > 0:
            gap = abs(
                (1 - sol.q1) * (theta.b1 + theta.beta1)
                - sol.q1 * (theta.sigma2 + theta.sigma1)
                + theta.sigma2
            )
            worst_reply = max(worst_reply, gap)
        if (1 + sol.pi_star) / 2 < sol.pi1_star:
            gap = abs(
                phi(sol.pi_star, theta)
                - (theta.sigma2 + (1 + sol.pi_star) / 2 * _phi_slope(theta))
            )
            worst_phi = max(worst_phi, gap)
    elapsed = time.perf_counter() - start
    assert worst_bayes <= 1e-12, worst_bayes
    assert worst_reply <= 1e-12, worst_reply
    assert worst_phi <= 1e-12, worst_phi
    assert elapsed < 10.0, f"grid run took {elapsed:.2f}s"


def test_criterion_2_baseline_sweep_regions_and_reliability():
    start = time.perf_counter()
    values = [round(i * 0.1, 1) for i in range(601)]
    rows = []
    for sigma2 in values:
        theta = baseline(sigma2)
        sol = solve_pbe(theta)
        rows.append((sigma2, sol, outcome_probabilities(sol, theta)))
    elapsed = time.perf_counter() - start
    failures = []

    types = [sol.eq_type for _, sol, _ in rows]
    changes = [
        (values[i], types[i - 1], types[i])
        for i in range(1, len(types))
        if types[i] != types[i - 1]
    ]
    if [(a, b) for _, a, b in changes] != [(3, 2), (2, 1)]:
        failures.append(f"region pattern should run 3->2->1, transitions: {changes}")

    drop = [
        (values[i], rows[i][1].pi_star)
        for i in range(1, len(rows))
        if rows[i][1].pi_star < rows[i - 1][1].pi_star - 1e-12
    ]
    if drop:
        failures.append(f"entry threshold should be weakly increasing, drops at {drop[:3]}")

    rise = [
        (values[i], rows[i][2].accept_rate)
        for i in range(1, len(rows))
        if rows[i][2].accept_rate > rows[i - 1][2].accept_rate + 1e-12
    ]
    if rise:
        failures.append(f"acceptance rate should be weakly decreasing, rises at {rise[:3]}")

    type1 = [(sigma2, probs.reliability) for sigma2, sol, probs in rows if sol.eq_type == 1]
    if not type1:
        failures.append("no Type-1 region on the sweep")
    else:
        off = [(sigma2, abs(1 - r)) for sigma2, r in type1 if abs(1 - r) > 1e-3]
        if off:
            worst = max(off, key=lambda x: x[1])
            failures.append(
                f"reliability should stay within 1e-3 of 1 across all {len(type1)} "
                f"Type-1 points; {len(off)} points miss it, worst |1-RR| = "
                f"{worst[1]:.6f} at sigma2 = {worst[0]} (smallest miss "
                f"{min(x[1] for x in off):.6f})"
            )

    coin = [
        sigma2
        for sigma2, sol, probs in rows
        if sol.eq_type == 3 and probs.valid_given_accept != 0.5
    ]
    if coin:
        failures.append(f"Type-3 acceptance should be an exact coin flip, off at {coin[:3]}")

    if elapsed >= 5.0:
        failures.append(f"sweep took {elapsed:.2f}s, budget 5s")
    assert not failures, " | ".join(failures)


def test_criterion_3_benchmark_spot_values():
    low = solve_pbe(baseline(5))
    assert low.eq_type == 3

    mid = solve_pbe(baseline(30))
    assert mid.eq_type == 2
    assert mid.pi_star == pytest.approx(0.3617, abs=5e-4)
    assert mid.q2 == pytest.approx(0.895, abs=1e-3)

    high = solve_pbe(baseline(40))
    assert high.eq_type == 1
    assert high.pi_star == pytest.approx(0.4458, abs=5e-4)
    assert high.q1 == pytest.approx(0.9444, abs=5e-4)
    assert high.p == pytest.approx(0.2609, abs=5e-4)


def test_criterion_4_monte_carlo_matches_closed_forms():
    for sigma2 in (5, 30, 40):
        theta = baseline(sigma2)
        sol = solve_pbe(theta)
        probs = outcome_probabilities(sol, theta)
        start = time.perf_counter()
        estimates = monte_carlo_estimate(theta, sol, n=1_000_000, seed=GRID_SEED)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sigma2={sigma2} took {elapsed:.2f}s"
        for name, mc in estimates.items():
            closed = closed_form_row(probs, name, sol)
            if closed is None:
                assert mc.estimate is None and mc.draws == 0, (sigma2, name)
                continue
            assert mc.estimate is not None, (sigma2, name)
            if mc.se and mc.se > 0:
                gap = abs(mc.estimate - closed)
                assert gap <= 3 * mc.se, (sigma2, name, gap, mc.se)
            else:
                assert mc.estimate == closed, (sigma2, name)


def test_criterion_5_no_profitable_deviation_anywhere():
    solutions = list(solved_grid()) + [
        (baseline(sigma2), solve_pbe(baseline(sigma2))) for sigma2 in (5, 30, 40)
    ]
    dirty = []
    for theta, sol in solutions:
        deviations = best_response_check(theta, sol)
        if deviations:
            dirty.append((theta, [(d.node, d.gain) for d in deviations]))
    assert not dirty, dirty[:3]


def test_criterion_6_fixture_replays_and_conservation():
    for name, build in sorted(PROTOCOL_FIXTURES.items()):
        fx = build()
        lines = (FIXTURES / "movelogs" / f"{name}.jsonl").read_text().splitlines()
        cascade = ParameterCascade.from_json(
            json.loads((FIXTURES / "cascades" / f"{name}.json").read_text())
        )
        inst = replay(lines, cascade, balances=fx.balances, mode=fx.mode)
        total = sum(fx.balances.values())
        advance_clock(inst, fx.final_time)
        for label, (status, det_time) in fx.expected.items():
            node = inst.nodes[fx.node(label)]
            assert node.status == status, (name, label)
            if status == "pending":
                assert node.determination is None, (name, label)
            else:
                assert node.determination.time == det_time, (name, label)
        settle(inst)
        assert inst.ledger.total() == total, name
        assert not inst.ledger.escrowed, name
        nets = {a: inst.ledger.balance(a) - s for a, s in fx.balances.items()}
        assert sum(nets.values()) == -inst.ledger.burned, name
        if fx.expected_payoffs is not None:
            assert nets == fx.expected_payoffs, name


def test_criterion_7_randomized_debates_against_the_oracle():
    start = time.perf_counter()
    balances = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}
    total = sum(balances.values())
    for seed in range(1000):
        inst, horizon = oracles.random_debate(seed)
        lines = inst.move_log_lines()
        advance_clock(inst, horizon)
        assert oracles.observed_statuses(inst) == oracles.brute_force_statuses(
            inst, horizon
        ), seed
        assert inst.ledger.total() == total, seed
        stepper = replay(lines, inst.cascade, balances=balances)
        for t in range(stepper.clock, horizon + 1):
            advance_clock(stepper, t)
        jumper = replay(lines, inst.cascade, balances=balances)
        advance_clock(jumper, horizon)
        assert stepper.snapshot() == jumper.snapshot(), seed
        settle(inst)
        assert inst.ledger.total() == total, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"fuzz run took {elapsed:.2f}s"


def test_criterion_8_attacks_lose_and_defense_outraces_theft():
    bomber = run_scenario(scenario_from_json(preset_scenario("carpet_bomber")))
    payoffs = bomber.summary()["payoffs"]
    assert payoffs["bomber"] < 0, payoffs

    sandbag = run_scenario(scenario_from_json(preset_scenario("sandbagger")))
    payoffs = sandbag.summary()["payoffs"]
    assert payoffs["sandy"] < 0, payoffs

    defense = run_scenario(scenario_from_json(preset_scenario("plagiarist_defense")))
    inst = defense.instance
    question = next(q for q in oracles.questions(inst) if q.owner == "bob")
    answers = question.children
    assert len(answers) == 2, "defense scenario must produce both answers"
    stolen = next(c for c in answers if c.owner == "charlie")
    own = next(c for c in answers if c.owner == "alice")
    assert stolen.status == own.status == "validated"
    assert own.determination <= stolen.determination


def test_criterion_9_validator_accepts_references_and_rejects_mutants():
    names = ("infinite_primes", "polynomial_root", "inverse_function")
    docs = []
    for name in names:
        doc = json.loads((FIXTURES / "proofs" / f"{name}.json").read_text())
        chain = parse_proof_document(json.dumps(doc))
        assert isinstance(chain, ProofChain)
        report = validate_chain(chain.target, chain, level_limit=chain.height())
        assert report.ok, (name, str(report))
        docs.append(doc)

    rng = random.Random(GRID_SEED)
    survivors = []
    for i in range(1000):
        kind, mutated = oracles.mutate_chain(docs[i % len(docs)], rng)
        chain = ProofChain.from_json(mutated)
        report = validate_chain(chain.target, chain, level_limit=chain.height())
        if report.ok:
            survivors.append((names[i % len(docs)], kind))
    assert not survivors, f"{len(survivors)} mutants validated: {survivors[:5]}"
