"""Strategic analysis of the one-challenge-deep debate game.

The model: a claimer draws a private signal P ~ U[0,1], the probability that
her statement can actually be carried to the machine level. She decides
whether to post a top-level claim (benefit b2 if it is accepted unchallenged,
b1 if accepted after surviving one challenge, b0 if accepted at the machine
level; stakes sigma2, then sigma1, are lost on the way down if she folds or
fails). A skeptic, seeing only that the claim was posted, challenges with
probability q2 at the entry node (bounty beta1) and, if the claimer replies,
challenges again with probability q1 (bounty beta0). A claimer whose statement
is provable (X = 1) always replies and always wins the machine check; one
whose statement is not (X = 0) can only bluff a reply, with probability p.

Equilibria come in three shapes, found in this order:

* type 1 - the skeptic always challenges (q2 = 1); the posting threshold
  pi_star makes the marginal claimer indifferent.
* type 2 - the skeptic mixes at entry (q2 in [0,1]) so the marginal claimer
  is held exactly indifferent at the threshold that zeroes the skeptic's
  entry payoff phi.
* type 3 - challenging never pays (phi < 0 even for a coin-flip posterior):
  everybody posts, nothing is challenged.

All money parameters are non-negative reals. Probability identities are
checked against a Monte Carlo of the actual game tree, streamed in blocks
so that its memory does not grow with the number of draws and split among
the usable CPUs without changing a draw, and best_response_check re-audits
any solution in exact rational arithmetic.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from . import Frozen

if TYPE_CHECKING:
    import threading
    from fractions import Fraction

__all__ = [
    "DegenerateParametersError",
    "GameParameters",
    "EquilibriumSolution",
    "OutcomeProbabilities",
    "McEstimate",
    "Deviation",
    "pi1_star",
    "q1",
    "reply_prob_p",
    "phi",
    "solve_pbe",
    "outcome_probabilities",
    "monte_carlo_estimate",
    "best_response_check",
    "sweep",
    "SWEEP_COLUMNS",
]


class DegenerateParametersError(ValueError):
    """Parameters give the game no monetary content to price."""


class GameParameters(Frozen):
    """Benefits b0/b1/b2, stakes sigma1/sigma2, bounties beta0/beta1."""

    def __init__(
        self,
        b0: float,
        b1: float,
        b2: float,
        sigma1: float,
        sigma2: float,
        beta0: float,
        beta1: float,
    ) -> None:
        self._set_field("b0", b0)
        self._set_field("b1", b1)
        self._set_field("b2", b2)
        self._set_field("sigma1", sigma1)
        self._set_field("sigma2", sigma2)
        self._set_field("beta0", beta0)
        self._set_field("beta1", beta1)
        for name in self._fields:
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be a non-negative finite number")


class EquilibriumSolution(NamedTuple):
    eq_type: int
    pi_star: float
    pi_e: float
    pi1_star: float
    p: float
    q1: float
    q2: float


def pi1_star(theta: GameParameters) -> float:
    """Posterior above which a second challenge stops paying for the skeptic."""
    denom = theta.sigma2 + theta.sigma1 + theta.beta1 + theta.beta0
    if denom == 0:
        raise DegenerateParametersError("all stakes and bounties are zero")
    return (theta.sigma2 + theta.sigma1 + theta.beta1) / denom


def q1(theta: GameParameters) -> float:
    """Second-challenge rate that makes an unprovable reply worthless."""
    denom = theta.b1 + theta.sigma2 + theta.beta1 + theta.sigma1
    if denom == 0:
        raise DegenerateParametersError("level-1 game has no monetary content")
    return (theta.b1 + theta.sigma2 + theta.beta1) / denom


def reply_prob_p(pi_e: float, theta: GameParameters) -> float:
    """Bluff rate pinning the post-reply posterior at pi1_star.

    Only defined while the skeptic's entry belief sits at or below the
    indifference posterior; beyond it the required p leaves [0, 1].
    """
    p1 = pi1_star(theta)
    if not 0 <= pi_e < 1:
        raise ValueError(f"pi_e must be in [0, 1), got {pi_e}")
    if p1 == 0:
        raise ValueError("no interior mixing: second challenge always pays")
    p = pi_e * (1 - p1) / (p1 * (1 - pi_e))
    if p > 1:
        raise ValueError(f"no interior mixing: required reply rate {p} exceeds 1")
    return p


def _mixing_rate(pi_e: float, theta: GameParameters) -> float:
    """`reply_prob_p` for the branch `solve_pbe` picked. When that branch has
    no valid mixing rate there is no equilibrium to report, so the point is
    degenerate rather than a usage error."""
    try:
        return reply_prob_p(pi_e, theta)
    except ValueError as exc:
        raise DegenerateParametersError(f"no valid mixing rate: {exc}") from None


def _phi_slope(theta: GameParameters) -> float:
    p1 = pi1_star(theta)
    w1 = q1(theta)
    return (
        -w1 * (theta.beta1 + theta.beta0)
        - (1 - w1) * theta.beta1
        - theta.sigma2
        - (1 - p1) * (theta.sigma2 + theta.beta1) / p1
    )


def phi(pi_star_candidate: float, theta: GameParameters) -> float:
    """Skeptic's expected entry-challenge payoff at a candidate threshold.

    Evaluated at the entry belief (1 + pi_star) / 2 with the claimer bluffing
    at the rate that pins the post-reply posterior, and the second challenge
    mixed at q1. Linear and decreasing in the belief.
    """
    if not 0 <= pi_star_candidate <= 1:
        raise ValueError("candidate threshold must be in [0, 1]")
    pi_e = (1 + pi_star_candidate) / 2
    p1 = pi1_star(theta)
    if pi_e >= p1:
        raise ValueError(
            f"beliefs outside the mixing region: entry belief {pi_e} >= {p1}"
        )
    return theta.sigma2 + pi_e * _phi_slope(theta)


def _challenged_value(theta: GameParameters, w1: float) -> float:
    """Claimer's value of being challenged on a provable statement."""
    return w1 * (theta.b0 + theta.beta0 + theta.beta1) + (1 - w1) * (theta.b1 + theta.beta1)


def solve_pbe(theta: GameParameters) -> EquilibriumSolution:
    """Classify and solve, trying type 1, then 2, then 3; boundaries take the
    lower-numbered type. Finite parameters can still overflow a float when
    summed, and the ratios of two overflows are NaN: a solution with any
    value that is not finite has nothing to report, so it is degenerate."""
    sol = _classify(theta)
    not_finite = [name for name, value in sol._asdict().items() if not math.isfinite(value)]
    if not_finite:
        raise DegenerateParametersError(f"solution not finite: {', '.join(not_finite)}")
    return sol


def _classify(theta: GameParameters) -> EquilibriumSolution:
    p1 = pi1_star(theta)
    w1 = q1(theta)
    g = _challenged_value(theta, w1)

    if p1 > 0:
        if g + theta.sigma2 == 0:
            raise DegenerateParametersError("claimer has nothing to gain or lose")
        cand = theta.sigma2 / (g + theta.sigma2)
        pi_e = (1 + cand) / 2
        if pi_e < p1 and phi(cand, theta) >= 0:
            return EquilibriumSolution(
                eq_type=1,
                pi_star=cand,
                pi_e=pi_e,
                pi1_star=p1,
                p=_mixing_rate(pi_e, theta),
                q1=w1,
                q2=1.0,
            )

        if 0.5 < p1 and phi(0.0, theta) >= 0:
            slope = _phi_slope(theta)
            pi_e = 0.5 if slope == 0 else theta.sigma2 / -slope
            star = 2 * pi_e - 1
            denom = theta.b2 - star * g + (1 - star) * theta.sigma2
            if denom > 0:
                w2 = theta.b2 / denom
                if 0 <= w2 <= 1:
                    return EquilibriumSolution(
                        eq_type=2,
                        pi_star=star,
                        pi_e=pi_e,
                        pi1_star=p1,
                        p=_mixing_rate(pi_e, theta),
                        q1=w1,
                        q2=w2,
                    )

    if 0.5 >= p1:
        p, w1_used = 1.0, 0.0
    else:
        p, w1_used = _mixing_rate(0.5, theta), w1
    return EquilibriumSolution(
        eq_type=3, pi_star=0.0, pi_e=0.5, pi1_star=p1, p=p, q1=w1_used, q2=0.0
    )


class OutcomeProbabilities(NamedTuple):
    """Long-run outcome rates implied by a solution.

    `accept_rate` is the chance a posted claim ends accepted;
    `valid_accept_rate` the chance it is accepted and provable.
    `unchallenged_share` and `replied_share` split the provable accepted mass
    by how far the debate went (no challenge / one survived challenge); the
    remainder reached the machine. `valid_given_reject` is None when nothing
    is ever rejected. `reliability` is the ratio of provable accepted claims
    to accepted claims.
    """

    accept_rate: float
    valid_accept_rate: float
    accept_given_valid: float
    accept_given_invalid: float
    valid_given_accept: float
    valid_given_reject: float | None
    unchallenged_share: float
    replied_share: float
    reliability: float


def outcome_probabilities(sol: EquilibriumSolution, theta: GameParameters) -> OutcomeProbabilities:
    s = sol.pi_star
    if sol.eq_type == 1:
        f0 = sol.p * (1 - sol.q1)
    elif sol.eq_type == 2:
        f0 = (1 - sol.q2) + sol.q2 * sol.p * (1 - sol.q1)
    else:
        f0 = 1.0

    accept_valid = 0.5 * (1 + s) * (1 - s)
    accept_invalid = 0.5 * (1 - s) ** 2 * f0
    accept = accept_valid + accept_invalid
    reject = 1 - accept
    reject_valid = 0.5 - accept_valid

    share_unchallenged = 1 - sol.q2
    share_replied = sol.q2 * (1 - sol.q1)

    return OutcomeProbabilities(
        accept_rate=accept,
        valid_accept_rate=accept_valid,
        accept_given_valid=2 * accept_valid,
        accept_given_invalid=2 * accept_invalid,
        valid_given_accept=accept_valid / accept,
        valid_given_reject=(reject_valid / reject) if reject > 0 else None,
        unchallenged_share=share_unchallenged,
        replied_share=share_replied,
        reliability=accept_valid / accept,
    )


class McEstimate(NamedTuple):
    estimate: float | None
    se: float | None
    hits: int
    draws: int


# Draws per block of the Monte Carlo stream, shared among the spans that run
# at once. Results do not depend on it.
MC_BLOCK = 1 << 16
# Largest draw count monte_carlo_estimate accepts. Draws are streamed, so
# memory no longer stops a huge n; this cap keeps a mistyped one from running
# for hours.
MAX_MC_DRAWS = 10**9


def monte_carlo_estimate(
    theta: GameParameters, sol: EquilibriumSolution, n: int = 10**6, seed: int = 0
) -> Mapping[str, McEstimate]:
    """Simulate the game tree and estimate every outcome probability.

    The five uniforms of game i (signal, provability, entry challenge, bluff,
    second challenge) are outputs j*n + i of one PCG64 stream seeded with
    `seed`, for j = 0..4. The draws are exactly those of five consecutive
    `default_rng(seed).random(n)` calls, so results depend only on (seed, n),
    not on the solution values.

    The games are split into one contiguous span per usable CPU (never more
    spans than blocks of MC_BLOCK games, so a short run starts no thread),
    and each span runs in its own thread, kept on its own CPU, reading its
    own five copies of the stream, jumped ahead with `advance(j * n +
    start)` to its first game. numpy releases the interpreter lock while
    drawing and judging a block, so the spans run in parallel. Each span draws into buffers MC_BLOCK //
    spans games wide, allocated once, and keeps only five integer counts,
    which are summed at the end. Memory depends neither on n nor on the CPU
    count, and the result depends neither on the CPU count nor on the block
    size. An error in one span stops the others at their next block and is
    raised here, as is an interrupt that arrives while the spans run.
    """
    if not 0 <= n <= MAX_MC_DRAWS:
        raise ValueError(f"n must be between 0 and {MAX_MC_DRAWS}, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # Imported here, not at module level: no other command needs them, and
    # importing numpy is a large share of the CLI's start-up time.
    import threading

    import numpy as np

    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity masks
        cpus = list(range(os.cpu_count() or 1))
    workers = max(1, min(len(cpus), -(-n // MC_BLOCK)))
    width = max(1, MC_BLOCK // workers)
    bounds = [n * k // workers for k in range(workers + 1)]
    spans = []
    for lo, hi in zip(bounds, bounds[1:]):
        streams = []
        for j in range(5):
            bits = np.random.PCG64(seed)
            bits.advance(j * n + lo)
            streams.append(np.random.Generator(bits))
        spans.append((streams, hi - lo))
    stop = threading.Event()

    if workers == 1:
        totals = [_count_span(sol, *spans[0], width, stop)]
    else:
        totals = [()] * workers
        errors: list[BaseException] = []

        def work(k: int) -> None:
            try:
                _pin_this_thread(cpus[k])
                totals[k] = _count_span(sol, *spans[k], width, stop)
            except BaseException as error:  # raised again by the caller below
                errors.append(error)
                stop.set()

        threads: list[threading.Thread] = []
        try:
            for k in range(workers):
                thread = threading.Thread(target=work, args=(k,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        finally:
            # After an interrupt, the spans still running end at their next
            # block; after a normal finish this changes nothing.
            stop.set()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
    valid_n, posted_valid, unchallenged_valid, replied_valid, accepted_invalid = (
        sum(column) for column in zip(*totals)
    )

    def est(hits: int, draws: int) -> McEstimate:
        if draws == 0:
            return McEstimate(None, None, 0, 0)
        v = hits / draws
        return McEstimate(v, math.sqrt(v * (1 - v) / draws), hits, draws)

    accepted_n = posted_valid + accepted_invalid
    return {
        "accept_rate": est(accepted_n, n),
        "valid_accept_rate": est(posted_valid, n),
        "accept_given_valid": est(posted_valid, valid_n),
        "accept_given_invalid": est(accepted_invalid, n - valid_n),
        "valid_given_accept": est(posted_valid, accepted_n),
        "valid_given_reject": est(valid_n - posted_valid, n - accepted_n),
        "unchallenged_share": est(unchallenged_valid, posted_valid),
        "replied_share": est(replied_valid, posted_valid),
        "reliability": est(posted_valid, accepted_n),
        "enter_given_valid": est(posted_valid, valid_n),
    }


def _pin_this_thread(cpu: int) -> None:
    """Keep the calling thread on `cpu`, where the platform allows it.

    Left to itself, the kernel may keep every span on the CPU that started
    them: the threads take turns at the interpreter lock, and each wakes on
    its waker's CPU. On Linux an affinity set for pid 0 applies to the
    calling thread alone, so the caller's own mask is untouched.
    """
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity API, or the CPU is gone
        pass


def _count_span(
    sol: EquilibriumSolution, streams: list, size: int, width: int, stop: threading.Event
) -> tuple[int, int, int, int, int]:
    """The five counts of `size` games read from `streams`, at most `width`
    games per block, ending early once `stop` is set: provable games; posted
    provable claims; those never challenged; those challenged whose reply
    was not challenged again; and posted unprovable claims that were
    accepted."""
    import numpy as np

    # Every block is drawn into the same five float buffers and judged in
    # the same six masks, so a block allocates nothing.
    uniforms = np.empty((5, min(width, size)))
    masks = np.empty((6, min(width, size)), dtype=bool)
    count = np.count_nonzero
    # A posted provable claim is accepted on every branch: unchallenged,
    # replied to and left standing, or carried to the machine. So five
    # counts give every row.
    valid_n = posted_valid = unchallenged_valid = replied_valid = accepted_invalid = 0
    for start in range(0, size, width):
        if stop.is_set():
            break
        block = min(width, size - start)
        signal, u_valid, u_entry, u_bluff, u_second = uniforms[:, :block]
        for stream, out in zip(streams, (signal, u_valid, u_entry, u_bluff, u_second)):
            stream.random(out=out)
        posted, valid, challenged, bluffs, stands, hit = masks[:, :block]
        np.greater_equal(signal, sol.pi_star, out=posted)
        np.less(u_valid, signal, out=valid)
        np.less(u_entry, sol.q2, out=challenged)
        np.less(u_bluff, sol.p, out=bluffs)
        # No second challenge: negated rather than `>=`, so that a NaN rate
        # reads as it does in the game tree.
        np.less(u_second, sol.q1, out=stands)
        np.logical_not(stands, out=stands)

        valid_n += int(count(valid))
        np.logical_and(posted, valid, out=hit)
        np.logical_xor(posted, hit, out=posted)  # posted and unprovable
        block_posted_valid = int(count(hit))
        posted_valid += block_posted_valid
        np.logical_and(hit, challenged, out=hit)
        unchallenged_valid += block_posted_valid - int(count(hit))
        np.logical_and(hit, stands, out=hit)
        replied_valid += int(count(hit))
        # An unprovable posted claim is accepted if nobody challenges it, or
        # if its bluffed reply stands.
        np.logical_and(bluffs, stands, out=bluffs)
        np.logical_not(challenged, out=challenged)
        np.logical_or(challenged, bluffs, out=challenged)
        np.logical_and(posted, challenged, out=posted)
        accepted_invalid += int(count(posted))
    return valid_n, posted_valid, unchallenged_valid, replied_valid, accepted_invalid


def closed_form_row(probs: OutcomeProbabilities, name: str, sol: EquilibriumSolution) -> float | None:
    if name == "enter_given_valid":
        return 1 - sol.pi_star**2
    return getattr(probs, name)


class Deviation(NamedTuple):
    node: str
    action: str
    gain: float
    detail: str


# How much a deviation must gain before `best_response_check` reports it:
# far above the rounding of a solution computed in floats.
DEVIATION_TOLERANCE = 1e-9


def best_response_check(theta: GameParameters, sol: EquilibriumSolution) -> list[Deviation]:
    """Audit a solution in exact rational arithmetic.

    Walks every decision node of the game tree under the solution's beliefs
    and mixes and reports any action whose payoff beats the prescribed
    behaviour by more than `DEVIATION_TOLERANCE`. An empty list certifies
    the equilibrium.
    """
    # Imported here: no command audits a solution, and `fractions` loads
    # `decimal`.
    from fractions import Fraction

    b0, b1, b2 = Fraction(theta.b0), Fraction(theta.b1), Fraction(theta.b2)
    s1, s2 = Fraction(theta.sigma1), Fraction(theta.sigma2)
    a0, a1 = Fraction(theta.beta0), Fraction(theta.beta1)
    star, pi_e = Fraction(sol.pi_star), Fraction(sol.pi_e)
    p, w1, w2 = Fraction(sol.p), Fraction(sol.q1), Fraction(sol.q2)
    tol = Fraction(DEVIATION_TOLERANCE)
    out: list[Deviation] = []

    def report(node: str, action: str, gain: Fraction, detail: str) -> None:
        if gain > tol:
            out.append(Deviation(node, action, float(gain), detail))

    if abs(pi_e - (1 + star) / 2) > tol:
        out.append(
            Deviation(
                "entry belief",
                "update",
                float(abs(pi_e - (1 + star) / 2)),
                "posterior after posting must average the surviving signals",
            )
        )

    # claimer reply nodes
    reply_valid = w1 * (b0 + a0 + a1) + (1 - w1) * (b1 + a1)
    report(
        "claimer reply (provable)",
        "fold",
        -s2 - reply_valid,
        "folding must not beat defending a provable statement",
    )
    reply_bluff = (1 - w1) * (b1 + a1) - w1 * (s2 + s1)
    bluff_value = p * reply_bluff + (1 - p) * -s2
    gain_bluff = max(reply_bluff, -s2) - bluff_value
    report(
        "claimer reply (unprovable)",
        "bluff" if reply_bluff > -s2 else "fold",
        gain_bluff,
        "mixed bluffing must match the better pure reply choice",
    )

    # machine node
    report(
        "claimer machine (provable)",
        "fold",
        (-s2 - s1) - (b0 + a0 + a1),
        "abandoning a provable machine check must not pay",
    )

    # skeptic second challenge
    post_reply = pi_e / (pi_e + (1 - pi_e) * p) if pi_e + (1 - pi_e) * p > 0 else Fraction(1)
    second_go = post_reply * (-a1 - a0) + (1 - post_reply) * (s2 + s1)
    second_stop = -a1
    second_value = w1 * second_go + (1 - w1) * second_stop
    report(
        "skeptic second challenge",
        "challenge" if second_go > second_stop else "stop",
        max(second_go, second_stop) - second_value,
        "mixing q1 must match the better pure action at the post-reply belief",
    )

    # skeptic entry
    entry_go = pi_e * (-w1 * (a1 + a0) - (1 - w1) * a1) + (1 - pi_e) * ((1 - p) * s2 - p * a1)
    entry_value = w2 * entry_go
    report(
        "skeptic entry",
        "challenge" if entry_go > 0 else "pass",
        max(entry_go, Fraction(0)) - entry_value,
        "mixing q2 must match the better of challenging and passing",
    )

    # claimer entry threshold
    def posting_value(signal: Fraction) -> Fraction:
        challenged = signal * reply_valid + (1 - signal) * bluff_value
        return (1 - w2) * b2 + w2 * challenged

    if star > 0:
        report(
            "claimer entry",
            "flip at threshold",
            abs(posting_value(star)),
            "the marginal signal must be indifferent about posting",
        )
    else:
        report(
            "claimer entry",
            "stay out",
            -posting_value(Fraction(0)),
            "posting must be worthwhile even for the worst signal",
        )

    return out


SWEEP_COLUMNS = [
    "param",
    "value",
    "eq_type",
    "pi_star",
    "pi_e",
    "p",
    "q1",
    "q2",
    "accept_rate",
    "valid_accept_rate",
    "accept_given_valid",
    "accept_given_invalid",
    "valid_given_accept",
    "valid_given_reject",
    "unchallenged_share",
    "replied_share",
    "reliability",
]


def sweep(theta: GameParameters, param: str, values: Iterable[float]) -> Iterator[list[str]]:
    """Re-solve along one parameter axis: the CSV cells of each point, in
    `SWEEP_COLUMNS` order, yielded as `values` yields the point. Degenerate
    points are marked, not fatal; an unknown `param` fails at once."""
    if param not in GameParameters._fields:
        raise ValueError(f"unknown parameter {param!r}")
    return _sweep_rows(theta, param, values)


def _sweep_rows(theta: GameParameters, param: str, values: Iterable[float]) -> Iterator[list[str]]:
    def fmt(x: float | None) -> str:
        return "" if x is None else repr(float(x))

    point_fields = theta._asdict()
    for value in values:
        point_fields[param] = float(value)
        point = GameParameters(**point_fields)
        try:
            sol = solve_pbe(point)
        except DegenerateParametersError:
            yield [param, fmt(value), "degenerate"] + [""] * (len(SWEEP_COLUMNS) - 3)
            continue
        pr = outcome_probabilities(sol, point)
        cells = [getattr(sol, c) for c in SWEEP_COLUMNS[3:8]]
        cells += [getattr(pr, c) for c in SWEEP_COLUMNS[8:]]
        yield [param, fmt(value), str(sol.eq_type)] + [fmt(x) for x in cells]
