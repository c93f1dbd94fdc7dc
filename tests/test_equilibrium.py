"""Incentive-layer tests against the exact rational-arithmetic oracle.

The three benchmark parameter points (low, middle, high entry stake against
the flat baseline budgets) have closed forms small enough to carry around as
fractions; everything else is cross-checked numerically on random grids.
"""

import itertools
import math
import os
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sprig import equilibrium
from sprig.equilibrium import (
    MAX_MC_DRAWS,
    MC_BLOCK,
    DegenerateParametersError,
    EquilibriumSolution,
    GameParameters,
    SWEEP_COLUMNS,
    best_response_check,
    closed_form_row,
    monte_carlo_estimate,
    outcome_probabilities,
    phi,
    pi1_star,
    q1,
    reply_prob_p,
    solve_pbe,
    sweep,
)

import oracles


def baseline(sigma2: float) -> GameParameters:
    return GameParameters(b0=40, b1=40, b2=10, sigma1=5, sigma2=sigma2, beta0=5, beta1=5)


def exact_baseline(sigma2) -> dict:
    return oracles.exact_solution(
        b0=Fraction(40), b1=Fraction(40), b2=Fraction(10),
        sigma1=Fraction(5), sigma2=Fraction(sigma2),
        beta0=Fraction(5), beta1=Fraction(5),
    )


# The three pinned points. Every fraction below was derived by hand from the
# indifference conditions and double-checked by the oracle.
SPOTS = {
    5: {
        "eq_type": 3,
        "pi_star": Fraction(0),
        "pi_e": Fraction(1, 2),
        "pi1_star": Fraction(3, 4),
        "q1": Fraction(10, 11),
        "q2": Fraction(0),
        "p": Fraction(1, 3),
    },
    30: {
        "eq_type": 2,
        "pi_star": Fraction(17, 47),
        "pi_e": Fraction(32, 47),
        "pi1_star": Fraction(8, 9),
        "q1": Fraction(15, 16),
        "q2": Fraction(1504, 1681),
        "p": Fraction(4, 15),
    },
    40: {
        "eq_type": 1,
        "pi_star": Fraction(144, 323),
        "pi_e": Fraction(467, 646),
        "pi1_star": Fraction(10, 11),
        "q1": Fraction(17, 18),
        "q2": Fraction(1),
        "p": Fraction(467, 1790),
    },
}


@pytest.mark.parametrize("sigma2", sorted(SPOTS))
def test_benchmark_points_match_their_closed_forms(sigma2):
    want = SPOTS[sigma2]
    exact = exact_baseline(sigma2)
    assert exact == want  # the oracle agrees with the hand derivation
    sol = solve_pbe(baseline(sigma2))
    assert sol.eq_type == want["eq_type"]
    for field in ("pi_star", "pi_e", "pi1_star", "p", "q1", "q2"):
        assert getattr(sol, field) == pytest.approx(float(want[field]), abs=1e-12), field


@pytest.mark.parametrize("sigma2", sorted(SPOTS))
def test_benchmark_points_have_zero_indifference_residuals(sigma2):
    residuals = oracles.indifference_residuals(
        b0=Fraction(40), b1=Fraction(40), b2=Fraction(10),
        sigma1=Fraction(5), sigma2=Fraction(sigma2),
        beta0=Fraction(5), beta1=Fraction(5),
        sol=exact_baseline(sigma2),
    )
    assert set(residuals) == {"reply", "posterior", "bayes", "entry"}
    assert all(v == 0 for v in residuals.values()), residuals


def grid_point(rng: random.Random) -> GameParameters:
    return GameParameters(
        b0=rng.uniform(0.5, 50),
        b1=rng.uniform(0.5, 50),
        b2=rng.uniform(0.5, 50),
        sigma1=rng.uniform(0.1, 30),
        sigma2=rng.uniform(0.0, 60),
        beta0=rng.uniform(0.1, 30),
        beta1=rng.uniform(0.1, 30),
    )


def test_solver_agrees_with_the_exact_oracle_on_a_random_grid():
    rng = random.Random(7)
    for _ in range(500):
        theta = grid_point(rng)
        sol = solve_pbe(theta)
        exact = oracles.exact_solution(
            b0=Fraction(theta.b0), b1=Fraction(theta.b1), b2=Fraction(theta.b2),
            sigma1=Fraction(theta.sigma1), sigma2=Fraction(theta.sigma2),
            beta0=Fraction(theta.beta0), beta1=Fraction(theta.beta1),
        )
        assert sol.eq_type == exact["eq_type"], theta
        for field in ("pi_star", "pi_e", "pi1_star", "p", "q1", "q2"):
            got, want = getattr(sol, field), float(exact[field])
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (field, theta)


def test_outcome_probabilities_obey_the_probability_laws():
    rng = random.Random(11)
    for _ in range(300):
        theta = grid_point(rng)
        sol = solve_pbe(theta)
        probs = outcome_probabilities(sol, theta)
        rates = [
            probs.accept_rate, probs.valid_accept_rate, probs.accept_given_valid,
            probs.accept_given_invalid, probs.valid_given_accept,
            probs.unchallenged_share, probs.replied_share, probs.reliability,
        ]
        if probs.valid_given_reject is not None:
            rates.append(probs.valid_given_reject)
        assert all(-1e-12 <= r <= 1 + 1e-12 for r in rates), (theta, probs)
        assert probs.valid_accept_rate <= probs.accept_rate + 1e-12
        assert probs.reliability == probs.valid_given_accept
        if probs.accept_rate > 0:
            assert probs.valid_given_accept == pytest.approx(
                probs.valid_accept_rate / probs.accept_rate, rel=1e-12
            )
        if probs.accept_given_valid > 0:
            p_valid = probs.valid_accept_rate / probs.accept_given_valid
            total = (
                probs.valid_accept_rate + probs.accept_given_invalid * (1 - p_valid)
            )
            assert probs.accept_rate == pytest.approx(total, rel=1e-9, abs=1e-12)
            if probs.valid_given_reject is not None:
                recompose = (
                    probs.valid_given_accept * probs.accept_rate
                    + probs.valid_given_reject * (1 - probs.accept_rate)
                )
                assert recompose == pytest.approx(p_valid, rel=1e-9, abs=1e-12)


def test_type_one_accepts_only_through_scrutiny():
    sol = solve_pbe(baseline(40))
    probs = outcome_probabilities(sol, baseline(40))
    assert sol.q2 == 1.0
    assert probs.unchallenged_share == 0.0  # exact zero, not approximately


def test_type_three_collapses_to_a_coin_flip():
    theta = baseline(5)
    sol = solve_pbe(theta)
    probs = outcome_probabilities(sol, theta)
    assert sol.eq_type == 3 and sol.q2 == 0.0 and sol.pi_star == 0.0
    assert probs.accept_rate == 1.0
    assert probs.valid_given_accept == 0.5
    assert probs.valid_given_reject is None
    assert probs.unchallenged_share == 1.0


# -- Monte Carlo ------------------------------------------------------------------


def test_monte_carlo_matches_closed_forms_at_the_benchmarks():
    for sigma2 in sorted(SPOTS):
        theta = baseline(sigma2)
        sol = solve_pbe(theta)
        probs = outcome_probabilities(sol, theta)
        estimates = monte_carlo_estimate(theta, sol, n=20_000, seed=101)
        for name, mc in estimates.items():
            closed = closed_form_row(probs, name, sol)
            if closed is None:
                assert mc.estimate is None and mc.draws == 0
                continue
            assert mc.estimate is not None
            spread = max(mc.se if mc.se else 0.0, 1e-9)
            assert abs(mc.estimate - closed) <= 4 * spread, (sigma2, name)


def test_monte_carlo_is_deterministic_in_the_seed():
    theta = baseline(30)
    sol = solve_pbe(theta)
    a = monte_carlo_estimate(theta, sol, n=5_000, seed=3)
    b = monte_carlo_estimate(theta, sol, n=5_000, seed=3)
    c = monte_carlo_estimate(theta, sol, n=5_000, seed=4)
    assert {k: (v.estimate, v.hits, v.draws) for k, v in a.items()} == {
        k: (v.estimate, v.hits, v.draws) for k, v in b.items()
    }
    assert any(a[k].estimate != c[k].estimate for k in a)


def test_monte_carlo_reports_empty_conditionals_as_none():
    theta = baseline(5)  # nothing is ever rejected here
    sol = solve_pbe(theta)
    mc = monte_carlo_estimate(theta, sol, n=2_000, seed=0)
    vgr = mc["valid_given_reject"]
    assert vgr.estimate is None and vgr.se is None and vgr.draws == 0
    assert mc["accept_rate"].estimate == 1.0


B = MC_BLOCK
# One parameter point per equilibrium type: sigma2 -> eq_type.
MC_TYPES = {5: 3, 30: 2, 40: 1}


def _same_estimates(got, want):
    # McEstimate equality is exact field equality, floats included.
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("sigma2", sorted(MC_TYPES))
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_streamed_monte_carlo_equals_the_whole_array_reference(sigma2, seed, n):
    theta = baseline(sigma2)
    sol = solve_pbe(theta)
    assert sol.eq_type == MC_TYPES[sigma2]
    _same_estimates(
        monte_carlo_estimate(theta, sol, n=n, seed=seed),
        oracles.monte_carlo_reference(sol, n=n, seed=seed),
    )


@pytest.mark.parametrize("block", [7, 1_000])
def test_monte_carlo_block_size_is_invisible(monkeypatch, block):
    monkeypatch.setattr(equilibrium, "MC_BLOCK", block)
    for sigma2 in sorted(MC_TYPES):
        theta = baseline(sigma2)
        sol = solve_pbe(theta)
        for n in (0, 1, 6, 7, 8, 999, 1_000, 1_001, 3_007):
            _same_estimates(
                monte_carlo_estimate(theta, sol, n=n, seed=12345),
                oracles.monte_carlo_reference(sol, n=n, seed=12345),
            )


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("block", [1, 7, 1_000])
def test_monte_carlo_split_among_cpus_is_invisible(monkeypatch, cpus, block):
    _usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(equilibrium, "MC_BLOCK", block)
    width = max(1, block // cpus)  # each span's block
    edges = {0, 1, 2, width * 2 + 1, block * cpus * 3 + 7}
    for edge in (width, block, 2 * block, cpus * block, cpus * width * 4):
        edges.update((edge - 1, edge, edge + 1))
    for sigma2 in sorted(MC_TYPES):
        theta = baseline(sigma2)
        sol = solve_pbe(theta)
        for n in sorted(edges):
            _same_estimates(
                monte_carlo_estimate(theta, sol, n=n, seed=12345),
                oracles.monte_carlo_reference(sol, n=n, seed=12345),
            )


def test_monte_carlo_starts_one_thread_per_usable_cpu_and_block(monkeypatch):
    theta = baseline(30)
    sol = solve_pbe(theta)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(equilibrium, "MC_BLOCK", 100)
    for cpus, n, threads in [(1, 10_000, 0), (5, 100, 0), (5, 101, 2), (5, 350, 4),
                             (3, 10_000, 3)]:
        _usable_cpus(monkeypatch, cpus)
        started.clear()
        monte_carlo_estimate(theta, sol, n=n)
        assert len(started) == threads, (cpus, n)
    # Without CPU affinity masks, the CPU count decides; an unknown count is 1.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpu_count, threads in [(None, 0), (1, 0), (3, 3)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        started.clear()
        monte_carlo_estimate(theta, sol, n=10_000)
        assert len(started) == threads, cpu_count


def _streams_drawing(monkeypatch, draw):
    """Make every Monte Carlo stream's `random(out=)` call `draw(span,
    real_random, out)`. The caller builds each span's five streams before
    starting any, span by span, so the k-th stream built reads span k // 5."""
    import numpy as np

    real = np.random.Generator
    built = itertools.count()

    class Stream:
        def __init__(self, bits):
            self.span = next(built) // 5
            self.real = real(bits)

        def random(self, out):
            return draw(self.span, self.real.random, out)

    monkeypatch.setattr(np.random, "Generator", Stream)


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs CPU affinity masks and two usable CPUs",
)
def test_each_span_runs_on_its_own_cpu_and_the_caller_keeps_its_mask(monkeypatch):
    theta = baseline(30)
    sol = solve_pbe(theta)
    affinity = os.sched_getaffinity
    mask = affinity(0)
    two = sorted(mask)[:2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(two))
    seen = {}

    def draw(span, real_random, out):
        seen.setdefault(span, affinity(0))  # the calling thread's own mask
        return real_random(out=out)

    _streams_drawing(monkeypatch, draw)
    monte_carlo_estimate(theta, sol, n=2 * MC_BLOCK)
    assert seen == {0: {two[0]}, 1: {two[1]}}
    assert affinity(0) == mask


class _Boom(Exception):
    pass


def test_a_failing_span_stops_the_others_and_reaches_the_caller(monkeypatch, capfd):
    theta = baseline(30)
    sol = solve_pbe(theta)
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(equilibrium, "MC_BLOCK", 100)  # spans of 20 blocks of 50
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    boom = _Boom("the second span's stream failed")
    failing = []
    failed = threading.Event()
    drawn = [0]
    gate = []

    def draw(span, real_random, out):
        if span == 1:
            failing.append(threading.current_thread())
            failed.set()
            raise boom
        if drawn[0] == 0:
            # Hold the first span in its first block until the second has
            # failed and its thread has ended.
            if failed.wait(10):
                failing[0].join(10)
                gate.append(not failing[0].is_alive())
        drawn[0] += 1
        return real_random(out=out)

    _streams_drawing(monkeypatch, draw)
    before = set(threading.enumerate())
    with pytest.raises(_Boom) as raised:
        monte_carlo_estimate(theta, sol, n=2_000)
    assert raised.value is boom and str(raised.value) == "the second span's stream failed"
    assert gate == [True]
    assert drawn[0] == 5  # one block of five streams, of the span's 20
    assert set(threading.enumerate()) == before
    assert hooked == []
    assert capfd.readouterr() == ("", "")


def test_an_interrupt_while_waiting_stops_every_span(monkeypatch):
    theta = baseline(30)
    sol = solve_pbe(theta)
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(equilibrium, "MC_BLOCK", 100)
    joins = []
    rejoined = threading.Event()

    class Interrupted(threading.Thread):
        # The first wait is cut by Ctrl-C; the caller then waits for every
        # span again.
        def join(self, timeout=None):
            joins.append(self)
            if len(joins) == 1:
                raise KeyboardInterrupt
            rejoined.set()
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", Interrupted)
    drawn = [0, 0]

    def draw(span, real_random, out):
        if drawn[span] == 0:
            rejoined.wait(10)
        drawn[span] += 1
        return real_random(out=out)

    _streams_drawing(monkeypatch, draw)
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        monte_carlo_estimate(theta, sol, n=2_000)
    assert rejoined.is_set()
    assert drawn == [5, 5]  # one block each
    assert set(threading.enumerate()) == before


# Any probability, with the end points, where branches vanish, drawn often.
_PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=25, deadline=None)
@given(
    pi_star=_PROBABILITY, p=_PROBABILITY, w1=_PROBABILITY, w2=_PROBABILITY,
    n=st.integers(min_value=0, max_value=3 * B + 7), seed=st.integers(min_value=0, max_value=2**32),
)
def test_monte_carlo_counts_equal_the_reference_at_any_strategy(pi_star, p, w1, w2, n, seed):
    # Solutions no parameter point produces, so that every branch of the
    # fused counts is reached, whatever the equilibrium type allows.
    sol = EquilibriumSolution(
        eq_type=2, pi_star=pi_star, pi_e=(1 + pi_star) / 2, pi1_star=0.5, p=p, q1=w1, q2=w2
    )
    _same_estimates(
        monte_carlo_estimate(baseline(30), sol, n=n, seed=seed),
        oracles.monte_carlo_reference(sol, n=n, seed=seed),
    )


def test_monte_carlo_rejects_out_of_range_n_before_importing_numpy(monkeypatch):
    theta = baseline(30)
    sol = solve_pbe(theta)
    # With numpy unimportable, reaching the draws raises ImportError instead.
    monkeypatch.setitem(sys.modules, "numpy", None)
    for n in (-1, -5, MAX_MC_DRAWS + 1, 10**20):
        with pytest.raises(ValueError, match="n must be between 0 and 1000000000"):
            monte_carlo_estimate(theta, sol, n=n)
    with pytest.raises(ImportError):
        monte_carlo_estimate(theta, sol, n=MAX_MC_DRAWS)


def test_monte_carlo_memory_does_not_grow_with_n():
    theta = baseline(30)
    sol = solve_pbe(theta)
    monte_carlo_estimate(theta, sol, n=1)  # numpy's import is not the subject

    def traced_peak(n):
        tracemalloc.start()
        try:
            monte_carlo_estimate(theta, sol, n=n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(200_000), traced_peak(2_000_000)
    assert large < 16 * 2**20, large
    assert large - small < 2 * 2**20, (small, large)


def test_monte_carlo_memory_does_not_grow_with_the_cpu_count(monkeypatch):
    theta = baseline(30)
    sol = solve_pbe(theta)
    monte_carlo_estimate(theta, sol, n=1)  # numpy's import is not the subject
    peaks = {}
    for cpus in (1, 2, 5):
        _usable_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            monte_carlo_estimate(theta, sol, n=2_000_000)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # The spans share one block's buffers (~2.9 MB); a full block per span
    # would add that much again for every span past the first.
    assert max(peaks.values()) - peaks[1] < 2**20, peaks


def test_closed_form_rows_cover_every_estimator():
    theta = baseline(30)
    sol = solve_pbe(theta)
    probs = outcome_probabilities(sol, theta)
    estimates = monte_carlo_estimate(theta, sol, n=100, seed=0)
    for name in estimates:
        value = closed_form_row(probs, name, sol)
        if name == "enter_given_valid":
            assert value == pytest.approx(1 - sol.pi_star**2, rel=1e-12)
        elif name == "valid_given_reject" and probs.valid_given_reject is None:
            assert value is None
        else:
            assert value == getattr(probs, name)


# -- best responses ----------------------------------------------------------------


@pytest.mark.parametrize("sigma2", sorted(SPOTS))
def test_no_profitable_deviation_at_the_benchmarks(sigma2):
    theta = baseline(sigma2)
    assert best_response_check(theta, solve_pbe(theta)) == []


def test_perturbed_strategies_admit_deviations():
    theta = baseline(30)
    sol = solve_pbe(theta)
    bent = EquilibriumSolution(**{**sol._asdict(), "q1": min(1.0, sol.q1 + 0.1)})
    deviations = best_response_check(theta, bent)
    assert deviations
    assert all(d.gain > 1e-9 for d in deviations)
    assert any("reply" in d.node for d in deviations)


def test_best_response_check_randomized_perturbations():
    rng = random.Random(23)
    for _ in range(40):
        theta = grid_point(rng)
        sol = solve_pbe(theta)
        assert best_response_check(theta, sol) == []
        field = rng.choice(["q1", "q2", "p", "pi_e"])
        base = getattr(sol, field)
        delta = 0.15 if base < 0.5 else -0.15
        bent = EquilibriumSolution(**{**sol._asdict(), field: base + delta})
        # a bent strategy may or may not open a gap for the *other* player,
        # but the check must never crash on it
        for d in best_response_check(theta, bent):
            assert d.gain > 0


# -- parameter plumbing ---------------------------------------------------------------


def test_game_parameters_reject_bad_values():
    with pytest.raises(ValueError):
        GameParameters(b0=-1, b1=1, b2=1, sigma1=1, sigma2=1, beta0=1, beta1=1)
    with pytest.raises(ValueError):
        GameParameters(b0=math.nan, b1=1, b2=1, sigma1=1, sigma2=1, beta0=1, beta1=1)
    with pytest.raises(ValueError):
        GameParameters(b0=math.inf, b1=1, b2=1, sigma1=1, sigma2=1, beta0=1, beta1=1)


def test_degenerate_points_raise_instead_of_dividing_by_zero():
    flat = GameParameters(b0=40, b1=40, b2=10, sigma1=0, sigma2=0, beta0=0, beta1=0)
    with pytest.raises(DegenerateParametersError):
        solve_pbe(flat)
    assert issubclass(DegenerateParametersError, ValueError)


def test_only_a_solution_that_overflows_is_degenerate_for_not_being_finite():
    huge = GameParameters(b0=40, b1=40, b2=10, sigma1=1e308, sigma2=1e308, beta0=5, beta1=1e308)
    with pytest.raises(DegenerateParametersError, match="^solution not finite: pi1_star, p, q1$"):
        solve_pbe(huge)
    # Small parameters never overflow: every point of this grid that solves
    # solves to finite values, as it did before the check.
    for values in itertools.product([0.0, 1.0, 5.0, 40.0], repeat=7):
        try:
            sol = solve_pbe(GameParameters(*values))
        except DegenerateParametersError as exc:
            assert "not finite" not in str(exc)
        else:
            assert all(map(math.isfinite, sol._asdict().values()))


def test_scalar_helpers_validate_their_domains():
    theta = baseline(30)
    assert pi1_star(theta) == pytest.approx(8 / 9)
    assert q1(theta) == pytest.approx(15 / 16)
    with pytest.raises(ValueError):
        reply_prob_p(1.0, theta)
    with pytest.raises(ValueError):
        phi(1.5, theta)
    # the reply rate stays a probability right up to the indifference belief
    assert 0 <= reply_prob_p(0.5, theta) <= 1


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.85))
def test_reply_rate_is_monotone_in_the_belief(pi_e):
    theta = baseline(30)
    higher = min(0.87, pi_e + 0.02)
    assert reply_prob_p(pi_e, theta) <= reply_prob_p(higher, theta)


# -- sweeps ------------------------------------------------------------------------


def test_sweep_rows_follow_the_column_layout():
    theta = baseline(0)
    rows = list(sweep(theta, "sigma2", [5.0, 30.0, 40.0]))
    assert len(rows) == 3
    for csv, sigma2 in zip(rows, (5.0, 30.0, 40.0)):
        assert len(csv) == len(SWEEP_COLUMNS)
        assert csv[0] == "sigma2" and float(csv[1]) == sigma2
        assert int(csv[2]) == SPOTS[int(sigma2)]["eq_type"]


def test_sweep_marks_degenerate_points_instead_of_failing():
    bare = GameParameters(b0=40, b1=40, b2=10, sigma1=0, sigma2=0, beta0=0, beta1=0)
    first, second = sweep(bare, "sigma2", [0.0, 10.0])
    assert first[2] == "degenerate"
    assert first[3:] == [""] * (len(SWEEP_COLUMNS) - 3)
    assert second[2] == "1"


def test_sweep_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="b3"):
        sweep(baseline(0), "b3", [1.0])


def test_sweep_yields_each_row_before_reading_the_next_point():
    def values():
        yield 5.0
        yield 30.0
        raise RuntimeError("no third point")

    rows = sweep(baseline(0), "sigma2", values())
    assert [next(rows)[1], next(rows)[1]] == ["5.0", "30.0"]
    with pytest.raises(RuntimeError, match="no third point"):
        next(rows)
