"""Probabilistic verification suite.

Covers the completed-pairs statistic of sampling without replacement from n
face-down pairs (exact law, expectation, tail bound, Monte Carlo), the
relative-entropy Chernoff bound for binomial tails, the Las-Vegas-to-
Monte-Carlo truncation of a randomized player, and the unique-pairs
expectation over uniform inputs.

Exact small-instance distributions use rational arithmetic; floats appear
only in bounds and Monte Carlo estimates.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from . import game_core
from .game_core import CapExceeded, Deck, FlipBudgetExceeded, Transcript, check_cells
from .strategies import DeckHost

if TYPE_CHECKING:
    import numpy as np

# numpy loads on the first Monte Carlo draw, so the commands that never sample
# start without it.  A sampler's largest array is refused past
# game_core.MAX_CELLS before numpy loads or anything is allocated.


@dataclass(frozen=True)
class YExperiment:
    """One Monte Carlo cell: draw r of 2n half-cards, count completed pairs."""

    n: int
    r: int
    t: int = 1
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0 <= self.r <= 2 * self.n:
            raise ValueError(f"need 0 <= r <= 2n, got r={self.r}, n={self.n}")
        if self.t < 1:
            raise ValueError(f"need t >= 1, got {self.t}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")


def y_sample_many(n: int, r: int, trials: int, seed: int) -> np.ndarray:
    """Sequential urn, vectorized over trials: completed-pairs counts of r draws.

    After k draws that completed y pairs, k - 2y drawn halves wait for their
    mates among the 2n - k cards left, so draw k+1 completes a pair with
    probability (k - 2y) / (2n - k).  Step k consumes one uniform per trial.
    """
    if not 0 <= r <= 2 * n:
        raise ValueError(f"need 0 <= r <= 2n, got r={r}, n={n}")
    check_cells(trials, f"{trials} trials")
    import numpy as np

    rng = np.random.default_rng(seed)
    ys = np.zeros(trials, dtype=np.int64)
    for k in range(r):
        ys += rng.random(trials) * (2 * n - k) < k - 2 * ys
    return ys


@dataclass(frozen=True)
class TailEstimate:
    estimate: float
    sigma: float
    bound: float
    ok: bool


def y_tail_estimate(exp: YExperiment) -> TailEstimate:
    """Monte Carlo Pr[Y >= t] against the e^-t target with 3-sigma slack."""
    ys = y_sample_many(exp.n, exp.r, exp.trials, exp.seed)
    est = float((ys >= exp.t).sum()) / exp.trials
    bound = math.exp(-exp.t)
    sigma = math.sqrt(bound * (1.0 - bound) / exp.trials)
    return TailEstimate(est, sigma, bound, est <= bound + 3.0 * sigma)


def y_exact_distribution(n: int, r: int) -> list[Fraction]:
    """Exact law of the completed-pairs count over u = 0..floor(r/2).

    Pr[Y=u] = C(n,u) * C(n-u, r-2u) * 2^(r-2u) / C(2n, r): choose the u
    completed pairs, the r-2u half-open pairs, and a side for each half.
    """
    if not 0 <= r <= 2 * n:
        raise ValueError(f"need 0 <= r <= 2n, got r={r}, n={n}")
    denom = math.comb(2 * n, r)
    probs = []
    for u in range(r // 2 + 1):
        num = math.comb(n, u) * math.comb(n - u, r - 2 * u) * 2 ** (r - 2 * u)
        probs.append(Fraction(num, denom))
    return probs


def y_expectation(n: int, r: int) -> Fraction:
    """Exact mean n * (r/2n) * ((r-1)/(2n-1)); at most r^2/(4n)."""
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    if r < 2:
        return Fraction(0)
    return Fraction(n) * Fraction(r, 2 * n) * Fraction(r - 1, 2 * n - 1)


def y_tail_exact(n: int, r: int, t: int) -> Fraction:
    """Exact Pr[Y >= t] summed from the exact law."""
    return sum(y_exact_distribution(n, r)[t:], Fraction(0))


def y_tail_bound(n: int, r: int, t: int) -> float:
    """Closed-form tail bound exp(-t ln(4nt / (e r^2))) = (e r^2 / 4nt)^t."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return math.exp(-t * math.log(4.0 * n * t / (math.e * r * r)))


def y_sample_size(n: int, t: int) -> int:
    """Largest r = floor((2/e) sqrt(nt)) for which the tail bound is e^-t or better."""
    return int(2.0 / math.e * math.sqrt(n * t))


# ---------------------------------------------------------------------------
# Relative entropy / Chernoff

def relent(a: float, p: float) -> float:
    """Bernoulli relative entropy a ln(a/p) + (1-a) ln((1-a)/(1-p))."""
    if not 0.0 < a < 1.0 or not 0.0 < p < 1.0:
        raise ValueError(f"need a, p in (0,1), got a={a}, p={p}")
    return a * math.log(a / p) + (1.0 - a) * math.log((1.0 - a) / (1.0 - p))


def chernoff_tail(n: int, a: float, p: float) -> float:
    """Upper bound exp(-n D(a||p)) on Pr[Bin(n,p) >= an]; needs p <= a.

    The sampling tail reduces to this binomial one with a = t/n and
    p = r^2/(4n^2), the rate that dominates each completed-pairs indicator.
    """
    if p > a:
        raise ValueError(f"bound needs p <= a, got p={p} > a={a}")
    return math.exp(-n * relent(a, p))


def binomial_tail_exact(n: int, p: Fraction, threshold: Fraction) -> Fraction:
    """Exact Pr[Bin(n,p) >= threshold] by term summation in integer arithmetic."""
    p = Fraction(p)
    k0 = max(0, math.ceil(threshold))
    if k0 > n:
        return Fraction(0)
    if p == 1 or p == 0:
        return Fraction(1) if (p == 1 or k0 <= 0) else Fraction(0)
    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    coeff = math.comb(n, k0)
    pw_p = pn**k0
    pw_q = qn ** (n - k0)
    total = 0
    for k in range(k0, n + 1):
        total += coeff * pw_p * pw_q
        if k < n:
            coeff = coeff * (n - k) // (k + 1)
            pw_p *= pn
            pw_q //= qn
    return Fraction(total, pd**n)


# ---------------------------------------------------------------------------
# Las Vegas -> Monte Carlo truncation

@dataclass
class CappedRun:
    transcript: Transcript
    errored: bool


class MonteCarloWrapped:
    """A player truncated at 10x its expected flip count, reporting an error
    when the game is unfinished at the cutoff.  When expected_T upper-bounds
    the true mean, the error probability is at most 1/10.  The cutoff is the
    cap of the game's transcript, which refuses the flip past it."""

    def __init__(self, strategy, expected_T: float):
        if expected_T <= 0:
            raise ValueError(f"need expected_T > 0, got {expected_T}")
        self.strategy = strategy
        self.cap = int(10 * expected_T)

    def play(self, x: Deck, slots: int) -> CappedRun:
        """Run the player with `slots` stored cards but halt it after `cap`
        flips; errored when incomplete."""
        host = DeckHost(x, slots, Transcript(lean=True, cap=self.cap))
        try:
            self.strategy.play(host)
        except FlipBudgetExceeded:
            return CappedRun(host.transcript, True)
        return CappedRun(host.transcript, not host.done())


def monte_carlo_wrap(strategy, expected_T: float) -> MonteCarloWrapped:
    return MonteCarloWrapped(strategy, expected_T)


# ---------------------------------------------------------------------------
# Unique pairs

def unique_pairs(xs) -> list[tuple[int, int]]:
    """All (i, j), i < j, with x_i = x_j and that value appearing nowhere else.

    Input is a sequence of 2n integers in 1..n (not necessarily a valid deck).
    """
    xs = tuple(xs)
    if len(xs) % 2 != 0:
        raise ValueError(f"need an even number of entries, got {len(xs)}")
    n = len(xs) // 2
    if any(v < 1 or v > n for v in xs):
        raise ValueError(f"entries must lie in 1..{n}")
    counts = Counter(xs)
    out = []
    for i in range(len(xs)):
        if counts[xs[i]] != 2:
            continue
        for j in range(i + 1, len(xs)):
            if xs[j] == xs[i]:
                out.append((i + 1, j + 1))
    return out


@dataclass(frozen=True)
class UniquePairsExpectation:
    """Both closed-form candidates for E[#outputs] plus the lower threshold.

    from_n_pairs uses C(n,2) position pairs; from_all_pairs uses C(2n,2),
    counting every position pair of the length-2n input.  Both exceed
    (n-1)/(2e^2).
    """

    n: int
    from_n_pairs: float
    from_all_pairs: float
    threshold: float


def unique_pairs_expected(n: int) -> UniquePairsExpectation:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    per_pair = (1.0 / n) * (1.0 - 1.0 / n) ** (2 * n - 2)
    return UniquePairsExpectation(
        n=n,
        from_n_pairs=math.comb(n, 2) * per_pair,
        from_all_pairs=math.comb(2 * n, 2) * per_pair,
        threshold=(n - 1) / (2.0 * math.e**2),
    )


def unique_pairs_expected_enumerated(n: int) -> Fraction:
    """Exact E[#outputs] over all n^(2n) inputs, refused past
    `game_core.DEFAULT_ENUM_CAP` of them.

    The inputs are summed by value-count vector: (2n)!/prod(c_v!) inputs
    have counts c, and each has #{v : c_v = 2} outputs, as `unique_pairs`
    counts them one input at a time."""
    cap = game_core.DEFAULT_ENUM_CAP
    # n^(2n) is built one factor at a time and refused once past the cap
    total_inputs = 1
    for _ in range(2 * n):
        if total_inputs > cap:
            break
        total_inputs *= n
    if total_inputs > cap:
        raise CapExceeded(f"{n}^{2 * n} inputs for n={n} exceeds cap {cap}")
    # stars and bars: n - 1 bars among 3n - 1 slots split 2n draws into n counts
    total = 0
    for bars in combinations(range(3 * n - 1), n - 1):
        counts = [b - a - 1 for a, b in zip((-1, *bars), (*bars, 3 * n - 1))]
        total += (math.factorial(2 * n) // math.prod(map(math.factorial, counts))
                  * counts.count(2))
    return Fraction(total, total_inputs)


def unique_pairs_mc(n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of the output count over uniform inputs.

    One bincount tallies every trial: row k's values are shifted by k(n+1),
    so each trial counts into its own block of n+1 bins.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    check_cells(trials * 2 * n, f"{trials} trials of {2 * n} draws")
    import numpy as np

    rng = np.random.default_rng(seed)
    draws = rng.integers(1, n + 1, size=(trials, 2 * n))
    draws += np.arange(trials)[:, None] * (n + 1)
    occ = np.bincount(draws.ravel(), minlength=trials * (n + 1)).reshape(trials, n + 1)
    counts = (occ[:, 1:] == 2).sum(axis=1)
    mean = float(counts.mean())
    sigma = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return mean, sigma
