import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlab import (GameParams, YExperiment, binomial_tail_exact,
                    chernoff_tail, generate_valid_input, monte_carlo_wrap,
                    multi_pass_play, relent, unique_pairs,
                    unique_pairs_expected, unique_pairs_expected_enumerated,
                    unique_pairs_mc, y_exact_distribution, y_expectation,
                    y_sample_many, y_sample_size, y_tail_bound,
                    y_tail_estimate, y_tail_exact)
from memlab import game_core
from memlab.game_core import MAX_CELLS, CapExceeded
from memlab.strategies import MultiPass, randomized_order


def _y_distribution_by_subsets(n, r):
    """Oracle: enumerate all C(2n, r) draws and count completed pairs."""
    from collections import Counter
    tally = Counter()
    total = 0
    for subset in itertools.combinations(range(2 * n), r):
        pairs = Counter(idx >> 1 for idx in subset)
        tally[sum(1 for c in pairs.values() if c == 2)] += 1
        total += 1
    return [Fraction(tally.get(u, 0), total) for u in range(r // 2 + 1)]


def _y_urn_by_trial(n, r, trials, seed):
    """Oracle: the urn run trial by trial on the same draws; row k of the
    noise is step k.  Draw k completes a pair when its index among the
    2n - k cards left falls on one of the k - 2y mates still face down."""
    draws = np.random.default_rng(seed).random((r, trials))
    ys = []
    for j in range(trials):
        y = 0
        for k in range(r):
            if int(draws[k, j] * (2 * n - k)) < k - 2 * y:
                y += 1
        ys.append(y)
    return np.array(ys, dtype=np.int64)


class _ConstantRng:
    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestYSample:
    def test_full_draw_is_always_n(self):
        for n in (1, 2, 5):
            assert (y_sample_many(n, 2 * n, 20, seed=3) == n).all()

    def test_tiny_draws_are_zero(self):
        for r in (0, 1):
            assert (y_sample_many(4, r, 20, seed=0) == 0).all()

    def test_r_beyond_deck_rejected(self):
        with pytest.raises(ValueError, match="r <= 2n"):
            YExperiment(n=2, r=5)

    @pytest.mark.parametrize("n,seed", [(1, 0), (3, 11), (8, 5), (50, 2024)])
    def test_same_draws_as_per_trial_urn(self, n, seed):
        # pins the RNG stream that `replay` of a lemma-y row depends on; the
        # ends of the range are near-deterministic, so r = n is added
        for r in sorted({0, 1, 2, n, 2 * n - 1, 2 * n}):
            expected = _y_urn_by_trial(n, r, 64, seed)
            ys = y_sample_many(n, r, 64, seed)
            assert ys.dtype == np.int64
            assert np.array_equal(ys, expected), (n, r, seed)

    @pytest.mark.parametrize("n,r", [(3, 4), (8, 7), (50, 30), (6, 12)])
    def test_extreme_draws_give_support_ends(self, monkeypatch, n, r):
        # u = 0 lands on a waiting mate whenever one is face down: the most
        # pairs, floor(r/2); u just below 1 completes a pair only when every
        # card left is a waiting mate: the fewest, max(0, r - n)
        for value, expected in ((0.0, r // 2), (1.0 - 2.0 ** -53, max(0, r - n))):
            monkeypatch.setattr(np.random, "default_rng", lambda seed: _ConstantRng(value))
            assert (y_sample_many(n, r, 3, seed=0) == expected).all(), (value, n, r)

    @pytest.mark.parametrize("n,r,seed", [(3, 4, 12), (8, 7, 13), (50, 30, 14), (1000, 65, 15)])
    def test_urn_sampler_matches_exact_law(self, n, r, seed):
        # frequency of each value within 4 sigma of the closed form, which
        # equals the C(2n, r) subset enumeration for n <= 8 (see
        # TestYExactDistribution), so the small points check both oracles
        trials = 200_000
        ys = y_sample_many(n, r, trials, seed)
        exact = y_exact_distribution(n, r)
        counts = np.bincount(ys, minlength=len(exact))
        assert len(counts) == len(exact)
        for u, p in enumerate(exact):
            p = float(p)
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert abs(counts[u] / trials - p) <= 4.0 * sigma, (u, counts[u], p)
        mean = float(y_expectation(n, r))
        var = sum(float(p) * (u - mean) ** 2 for u, p in enumerate(exact))
        assert abs(ys.mean() - mean) <= 4.0 * math.sqrt(var / trials), (ys.mean(), mean)


class TestYExactDistribution:
    def test_n2_r2(self):
        assert y_exact_distribution(2, 2) == [Fraction(2, 3), Fraction(1, 3)]

    def test_point_mass_at_full_draw(self):
        for n in (1, 3, 5):
            dist = y_exact_distribution(n, 2 * n)
            assert dist[-1] == 1 and sum(dist) == 1

    def test_n3_r3(self):
        assert y_exact_distribution(3, 3)[1] == Fraction(3, 5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_subset_enumeration(self, n):
        # cap 2n <= 16 keeps the C(2n, r) oracle desk-scale
        for r in range(0, 2 * n + 1):
            assert y_exact_distribution(n, r) == _y_distribution_by_subsets(n, r), (n, r)

    @given(st.integers(min_value=1, max_value=20), st.data())
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, n, data):
        r = data.draw(st.integers(min_value=0, max_value=2 * n))
        assert sum(y_exact_distribution(n, r)) == 1


class TestYExpectation:
    def test_full_draw(self):
        for n in (1, 4, 9):
            assert y_expectation(n, 2 * n) == n

    def test_n2_r2(self):
        assert y_expectation(2, 2) == Fraction(1, 3)

    def test_degenerate(self):
        assert y_expectation(5, 0) == 0
        assert y_expectation(5, 1) == 0

    def test_equals_distribution_mean_and_quarter_bound(self):
        for n in range(1, 9):
            for r in range(0, 2 * n + 1):
                mean = sum(u * p for u, p in enumerate(y_exact_distribution(n, r)))
                assert y_expectation(n, r) == mean
                assert y_expectation(n, r) <= Fraction(r * r, 4 * n)


class TestYTailBound:
    def test_threshold_sample_size_hits_e_minus_t(self):
        # r exactly (2/e) sqrt(nt) makes the bound e^-t
        n, t = 100, 4
        r_star = 2.0 / math.e * math.sqrt(n * t)
        assert abs(y_tail_bound(n, r_star, t) - math.exp(-t)) < 1e-12

    def test_spec_point(self):
        # n=100, t=4, r=14: r <= (2/e)sqrt(400) ~ 14.71, bound below e^-4
        b = y_tail_bound(100, 14, 4)
        assert b == pytest.approx(0.0122948230433289)
        assert b <= math.exp(-4)
        assert 14 == y_sample_size(100, 4)

    def test_exact_tail_below_bound_on_grid(self):
        for n in range(1, 9):
            for r in range(1, 2 * n + 1):
                for t in range(1, r // 2 + 1):
                    if 4 * n * t / (math.e * r * r) >= 1.0:
                        assert float(y_tail_exact(n, r, t)) <= y_tail_bound(n, r, t) + 1e-15

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            y_tail_bound(4, 2, 0)
        with pytest.raises(ValueError):
            y_tail_bound(4, 0, 1)

    def test_monte_carlo_cell(self):
        est = y_tail_estimate(YExperiment(n=100, r=14, t=4, trials=30_000, seed=5))
        assert est.ok
        assert est.estimate <= est.bound + 3 * est.sigma

    @pytest.mark.parametrize("t,trials", [(1, 1), (1, 400), (3, 2_000), (8, 50)])
    def test_sigma_is_the_binomial_standard_error_at_the_bound(self, t, trials):
        est = y_tail_estimate(YExperiment(n=10, r=6, t=t, trials=trials, seed=3))
        p = math.exp(-t)
        assert est.bound == p
        assert est.sigma == pytest.approx(math.sqrt(p * (1 - p) / trials), rel=1e-12)


class TestChernoff:
    def test_relent_at_equality_is_zero(self):
        for a in (0.1, 0.5, 0.9):
            assert abs(relent(a, a)) < 1e-12

    def test_relent_half_quarter(self):
        # 0.5 ln 2 + 0.5 ln(2/3), evaluated independently
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert relent(0.5, 0.25) == pytest.approx(want)
        assert relent(0.5, 0.25) == pytest.approx(0.14384103622589042)

    @pytest.mark.parametrize("n,p,threshold,want", [
        (5, 0, 0, 1), (5, 0, 1, 0), (5, 1, 3, 1), (5, 1, 6, 0), (5, Fraction(1, 2), 6, 0),
    ])
    def test_binomial_tail_edges(self, n, p, threshold, want):
        assert binomial_tail_exact(n, p, threshold) == want

    def test_tail_domination_spot(self):
        exact = binomial_tail_exact(20, Fraction(1, 4), 10)
        assert exact == Fraction(7622043821, 549755813888)
        assert chernoff_tail(20, 0.5, 0.25) >= float(exact)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            relent(0.0, 0.5)
        with pytest.raises(ValueError):
            relent(0.5, 1.0)
        with pytest.raises(ValueError):
            chernoff_tail(10, 0.3, 0.4)

    def test_simplification_chain(self):
        # D(a||p) >= a ln(a/p) + (1-a) ln(1-a) >= a ln(a/(ep))
        for a in (0.2, 0.5, 0.8):
            for p in (0.01, 0.1, a / 2, a * 0.9):
                d = relent(a, p)
                mid = a * math.log(a / p) + (1 - a) * math.log(1 - a)
                low = a * math.log(a / (math.e * p))
                assert d >= mid - 1e-12 >= low - 1e-12

    def test_domination_on_grid(self):
        for n in (1, 7, 40, 120, 200):
            for ai in range(1, 10):
                a = ai / 10
                for pj in range(1, 8):
                    p = Fraction(pj, 10) * Fraction(ai, 10)
                    tail = binomial_tail_exact(n, p, Fraction(ai, 10) * n)
                    assert float(tail) <= chernoff_tail(n, a, float(p)) * (1 + 1e-9)


class TestMonteCarloWrap:
    def test_randomized_player_with_tenfold_mean_budget(self):
        n, slots = 16, 4
        runs = [multi_pass_play(generate_valid_input(GameParams(n, n, k)),
                                slots, order=randomized_order(n, 7 * k), lean=True).flips
                for k in range(200)]
        mean = sum(runs) / len(runs)
        wrapped = monte_carlo_wrap(MultiPass(order=randomized_order(n, 999)), mean)
        errs = 0
        for k in range(500):
            x = generate_valid_input(GameParams(n, n, 10_000 + k))
            run = wrapped.play(x, slots)
            errs += run.errored
        assert errs / 500 <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 500)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            monte_carlo_wrap(MultiPass(), 0)


class _WaryCap(int):
    """A cap that refuses a comparison with a number over 10^6 times itself."""

    def __lt__(self, other):
        assert other <= 10**6 * int(self), "the cap was compared with a huge number"
        return int(self) < other


class TestUniquePairs:
    def test_singleton(self):
        assert unique_pairs((1, 1)) == [(1, 2)]

    def test_triple_and_single_suppressed(self):
        assert unique_pairs((1, 1, 1, 2)) == []

    def test_mixed(self):
        assert unique_pairs((2, 1, 2, 3, 3, 1)) == [(1, 3), (2, 6), (4, 5)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="1..2"):
            unique_pairs((1, 3, 1, 2))
        with pytest.raises(ValueError, match="even"):
            unique_pairs((1, 1, 1))

    def test_enumerated_n2_adjudicates_formulas(self):
        # full 16-input enumeration: the all-position-pairs form is the truth
        truth = unique_pairs_expected_enumerated(2)
        assert truth == Fraction(3, 4)
        exp = unique_pairs_expected(2)
        assert exp.from_n_pairs == pytest.approx(1 / 8)
        assert exp.from_all_pairs == pytest.approx(float(truth))

    def test_enumerated_n3_matches_all_pairs_form(self):
        truth = unique_pairs_expected_enumerated(3)
        exp = unique_pairs_expected(3)
        assert float(truth) == pytest.approx(exp.from_all_pairs)

    def test_exceeds_threshold_both_forms(self):
        for n in (5, 10, 100):
            exp = unique_pairs_expected(n)
            assert exp.from_all_pairs > exp.threshold
            assert exp.from_n_pairs > exp.threshold

    def test_enumeration_refused_past_int_str_digit_limit(self):
        # 1000^2000 has 6,001 digits, past Python's int-to-str limit
        with pytest.raises(CapExceeded, match=r"1000\^2000 inputs"):
            unique_pairs_expected_enumerated(1000)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_vector_sum_equals_the_input_walk(self, n):
        walk = sum(len(unique_pairs(xs))
                   for xs in itertools.product(range(1, n + 1), repeat=2 * n))
        assert unique_pairs_expected_enumerated(n) == Fraction(walk, n ** (2 * n))

    def test_n5_is_the_linearity_closed_form(self):
        # C(2n, 2) position pairs, each unique with chance (n-1)^(2n-2)/n^(2n-1)
        assert unique_pairs_expected_enumerated(5) == Fraction(math.comb(10, 2) * 4**8, 5**9)

    @pytest.mark.parametrize("cap", [729, 728])
    def test_cap_boundary_is_exact(self, monkeypatch, cap):
        # 3^6 = 729 inputs: enumerated at cap 729, refused at 728
        truth = unique_pairs_expected_enumerated(3)
        monkeypatch.setattr(game_core, "DEFAULT_ENUM_CAP", cap)
        if cap >= 3 ** 6:
            assert unique_pairs_expected_enumerated(3) == truth
        else:
            with pytest.raises(CapExceeded, match=r"3\^6 inputs for n=3 exceeds cap 728"):
                unique_pairs_expected_enumerated(3)

    def test_cap_refusal_never_builds_the_power(self, monkeypatch):
        # 100000^200000 has a million digits; the refusal compares the cap
        # only with numbers near it
        monkeypatch.setattr(game_core, "DEFAULT_ENUM_CAP", _WaryCap(10**7))
        with pytest.raises(CapExceeded, match=r"100000\^200000 inputs for n=100000 exceeds "
                                              r"cap 10000000$"):
            unique_pairs_expected_enumerated(10**5)

    def test_mc_close_to_exact_at_n3(self):
        truth = float(unique_pairs_expected_enumerated(3))
        mean, sigma = unique_pairs_mc(3, 4000, seed=2)
        assert abs(mean - truth) <= 4 * sigma

    @pytest.mark.parametrize("n,trials,seed", [(2, 50, 0), (3, 200, 1), (10, 100, 7),
                                               (37, 40, 3), (100, 20, 11), (5, 1, 2)])
    def test_mc_matches_row_by_row_oracle(self, n, trials, seed):
        # same draws, counted one row at a time by unique_pairs
        draws = np.random.default_rng(seed).integers(1, n + 1, (trials, 2 * n))
        counts = np.array([len(unique_pairs(row)) for row in draws.tolist()])
        sigma = counts.std(ddof=1) / math.sqrt(trials) if trials > 1 else float("inf")
        assert unique_pairs_mc(n, trials, seed) == (float(counts.mean()), float(sigma))


class _Drew(Exception):
    """Raised by the stand-in RNG: the sampler passed its size check."""


class TestMonteCarloCap:
    """A sampler refuses an array past MAX_CELLS before it draws or
    allocates anything; the stand-in RNG stops every call that gets further."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(seed):
            raise _Drew
        monkeypatch.setattr(np.random, "default_rng", refuse)

    def test_urn_trials_past_the_cap_refused(self):
        with pytest.raises(ValueError, match="array cells"):
            y_sample_many(10, 4, MAX_CELLS + 1, seed=0)
        with pytest.raises(ValueError, match="array cells"):
            y_tail_estimate(YExperiment(n=10, r=4, t=1, trials=10**12))

    def test_unique_pairs_draws_past_the_cap_refused(self):
        with pytest.raises(ValueError, match="array cells"):
            unique_pairs_mc(10, MAX_CELLS // 20 + 1, seed=0)
        with pytest.raises(ValueError, match="array cells"):
            unique_pairs_mc(100_000, 100_000, seed=0)

    def test_cells_at_the_cap_reach_the_rng(self):
        with pytest.raises(_Drew):
            y_sample_many(10, 4, MAX_CELLS, seed=0)
        with pytest.raises(_Drew):
            unique_pairs_mc(10, MAX_CELLS // 20, seed=0)
