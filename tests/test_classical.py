import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from entbench import classical
from entbench.classical import (
    ClassicalRandomizedTest,
    beta_binomial,
    beta_binomial_ge,
    beta_one_sample,
    beta_poisson,
    binomial_ump_test,
    binomial_ump_test_ge,
    error_exponent,
    neyman_pearson,
    poisson_limit_gap,
    poisson_ump_test,
    relative_entropy,
)
from helpers import binom_pmf, brute_force_min_beta, linear_walk_threshold


class TestBetaOneSample:
    def test_eps_below_alpha(self):
        assert abs(beta_one_sample(0.0, 0.05, 0.5) - 0.475) < 1e-15

    def test_eps_above_alpha(self):
        assert abs(beta_one_sample(0.2, 0.1, 0.8) - 0.6) < 1e-14

    def test_branch_continuity(self):
        a = 0.15
        for q in (0.3, 0.6, 0.9):
            lo = beta_one_sample(a - 1e-12, a, q)
            hi = beta_one_sample(a + 1e-12, a, q)
            assert abs(lo - hi) < 1e-9
            assert abs(lo - (1 - q)) < 1e-9

    def test_matches_brute_force(self):
        for eps, alpha, q in [(0.0, 0.05, 0.5), (0.2, 0.1, 0.8), (0.1, 0.25, 0.4)]:
            p0 = np.array([1 - eps, eps])
            p1 = np.array([1 - q, q])
            assert abs(beta_one_sample(eps, alpha, q) - brute_force_min_beta(p0, p1, alpha)) < 1e-12

    def test_flags_alternative_inside_null(self):
        with pytest.warns(UserWarning):
            beta_one_sample(0.3, 0.05, 0.2)

    @pytest.mark.parametrize("q", [1.5, -0.1, math.nan])
    def test_refuses_defect_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match=r"defect .* outside \[0, 1\]"):
            beta_one_sample(0.1, 0.05, q)


class TestBinomialUmp:
    def test_single_trial_zero_boundary(self):
        t = binomial_ump_test(1, 0.0, 0.1)
        assert t.threshold == 0 and abs(t.gamma - 0.9) < 1e-15

    def test_two_trials_exact_tie(self):
        t = binomial_ump_test(2, 0.5, 0.25)
        assert t.threshold == 1 and abs(t.gamma - 1.0) < 1e-12

    def test_defining_inequalities(self):
        for n, eps, alpha in [(5, 0.1, 0.05), (8, 0.3, 0.25), (40, 0.02, 0.1)]:
            t = binomial_ump_test(n, eps, alpha)
            below = stats.binom.cdf(t.threshold - 1, n, eps) if t.threshold else 0.0
            at = stats.binom.cdf(t.threshold, n, eps)
            assert below < 1 - alpha <= at + 1e-15

    def test_size_exact(self):
        for n, eps, alpha in [(1, 0.0, 0.1), (6, 0.05, 0.01), (2000, 0.05, 0.1)]:
            t = binomial_ump_test(n, eps, alpha)
            size = stats.binom.cdf(t.threshold - 1, n, eps) + t.gamma * stats.binom.pmf(
                t.threshold, n, eps
            )
            assert abs(size - (1 - alpha)) < 1e-12

    def test_beta_matches_brute_force_small_n(self):
        for n in range(1, 6):
            for eps, alpha, q in [(0.0, 0.1, 0.4), (0.1, 0.05, 0.5), (0.3, 0.25, 0.8)]:
                p0 = binom_pmf(n, np.arange(n + 1), eps)
                p1 = binom_pmf(n, np.arange(n + 1), q)
                assert abs(beta_binomial(n, eps, alpha, q) - brute_force_min_beta(p0, p1, alpha)) < 1e-9


class TestBetaBinomial:
    def test_single_trial_reduces_to_closed_form(self):
        for eps, alpha, q in [(0.0, 0.05, 0.5), (0.2, 0.1, 0.8)]:
            assert abs(beta_binomial(1, eps, alpha, q) - beta_one_sample(eps, alpha, q)) < 1e-13

    def test_boundary_value(self):
        assert abs(beta_binomial(7, 0.2, 0.15, 0.2) - 0.85) < 1e-12

    def test_monotone_decreasing_in_q(self):
        vals = [beta_binomial(10, 0.1, 0.05, q) for q in np.linspace(0.15, 0.95, 20)]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_level_over_null_grid(self):
        n, eps, alpha = 12, 0.25, 0.1
        t = binomial_ump_test(n, eps, alpha)
        accept = t.acceptance()
        for p in np.linspace(0.0, eps, 100):
            power = binom_pmf(n, np.arange(n + 1), p) @ accept
            assert power >= 1 - alpha - 1e-12


class TestHighPrecisionOracle:
    """Criterion 9's n = 2000 value recomputed in 60-digit arithmetic."""

    def test_ump_test_and_beta_at_n_2000(self):
        mp = pytest.importorskip("mpmath").mp
        n, eps, alpha, q = 2000, 0.05, 0.1, 0.3
        with mp.workdps(60):

            def pmf(k, p):
                return mp.binomial(n, k) * mp.mpf(p) ** k * (1 - mp.mpf(p)) ** (n - k)

            level = 1 - mp.mpf(alpha)
            cdf, l = mp.mpf(0), 0
            while cdf + pmf(l, eps) < level:  # settle cdf(l - 1) < 1 - alpha <= cdf(l)
                cdf += pmf(l, eps)
                l += 1
            gamma = (level - cdf) / pmf(l, eps)
            beta = mp.fsum(pmf(k, q) for k in range(l)) + gamma * pmf(l, q)
            exponent = -mp.log(beta) / n
            rel_dev = 1 - exponent / relative_entropy(eps, q)

        t = binomial_ump_test(n, eps, alpha)
        assert t.threshold == l
        assert abs(t.gamma - gamma) <= 1e-10 * gamma
        assert abs(beta_binomial(n, eps, alpha, q) - beta) <= 1e-10 * beta
        assert abs(exponent - mp.mpf("0.189643")) < 5e-7
        # the criterion-9 gap itself: 5.43% below d(eps || q) at n = 2000
        assert abs(rel_dev - mp.mpf("0.0543")) < 5e-5


class TestGeDirection:
    def test_mirror_symmetry(self):
        for n, eps, alpha, q in [(5, 0.6, 0.1, 0.2), (8, 0.8, 0.25, 0.3)]:
            assert abs(beta_binomial_ge(n, eps, alpha, q) - beta_binomial(n, 1 - eps, alpha, 1 - q)) < 1e-12

    def test_size_at_boundary(self):
        n, eps, alpha = 9, 0.7, 0.2
        t = binomial_ump_test_ge(n, eps, alpha)
        accept = t.acceptance()
        size = 1.0 - binom_pmf(n, np.arange(n + 1), eps) @ accept
        assert abs(size - alpha) < 1e-12

    def test_matches_brute_force(self):
        for n in range(1, 9):
            eps, alpha, q = 0.7, 0.1, 0.3
            p0 = binom_pmf(n, np.arange(n + 1), eps)
            p1 = binom_pmf(n, np.arange(n + 1), q)
            assert abs(beta_binomial_ge(n, eps, alpha, q) - brute_force_min_beta(p0, p1, alpha)) < 1e-9


class TestPoisson:
    def test_zero_boundary_closed_form(self):
        for alpha, t in [(0.05, 3.0), (0.25, 1.5)]:
            assert abs(beta_poisson(0.0, alpha, t) - (1 - alpha) * math.exp(-t)) < 1e-14

    def test_boundary_alternative(self):
        assert abs(beta_poisson(1.0, 0.05, 1.0) - 0.95) < 1e-12

    def test_defining_inequalities(self):
        for delta in (1.0, 2000.5, 1e5):
            t = poisson_ump_test(delta, 0.05)
            below = stats.poisson.cdf(t.threshold - 1, delta)
            assert below < 0.95 <= stats.poisson.cdf(t.threshold, delta)

    def test_against_direct_series(self):
        delta, alpha, t_alt = 1.0, 0.05, 3.0
        t = poisson_ump_test(delta, alpha)
        # independent series oracle with explicit factorials
        def pmf(k, rate):
            return math.exp(-rate) * rate**k / math.factorial(k)

        cum = sum(pmf(k, delta) for k in range(t.threshold))
        gamma = (1 - alpha - cum) / pmf(t.threshold, delta)
        beta = sum(pmf(k, t_alt) for k in range(t.threshold)) + gamma * pmf(t.threshold, t_alt)
        assert abs(beta_poisson(delta, alpha, t_alt) - beta) < 1e-12


class TestCountsPastFloat64:
    """Counts past 2**53 are not all float64s: the search refuses them at
    once, where its quantile or its unit-step walks could run without end."""

    def test_largest_n_is_searched_and_the_next_refused(self):
        assert binomial_ump_test(2**53, 0.05, 0.1).threshold > 0
        with pytest.raises(ValueError, match=r"need 1 <= n <= 2\*\*53.*, got 9007199254740993$"):
            binomial_ump_test(2**53 + 1, 0.05, 0.1)
        with pytest.raises(ValueError, match=r"got 10{30}$"):
            binomial_ump_test(10**30, 0.3, 0.1)

    def test_a_quantile_of_exactly_2_to_the_53_is_searched(self):
        # eps = 1 puts every trial's count at n, so the quantile is n itself
        test = binomial_ump_test(2**53, 1.0, 0.1)
        assert (test.threshold, test.gamma) == (2**53, 0.9)

    @pytest.mark.parametrize("delta, alpha", [(1e30, 0.5), (1e20, 0.05), (1e16, 0.5)])
    def test_poisson_quantile_past_the_counts_is_refused(self, delta, alpha):
        with pytest.raises(ValueError, match=r"quantile at .* is \S+, not a count at most 2\*\*53"):
            poisson_ump_test(delta, alpha)


class TestNanQuantileStart:
    """Where scipy's quantile ufunc is NaN at valid parameters inside the 2**53
    cap, the search starts at the normal approximation and settles the
    defining inequalities exactly, in well under a second."""

    @pytest.mark.parametrize(
        "family, params, alpha",
        [("poisson", (1e12,), 0.5), ("poisson", (1e12,), 0.999), ("binom", (5 * 10**15, 0.9), 0.05)],
    )
    def test_threshold_meets_its_inequalities(self, family, params, alpha):
        own, scipy_family = getattr(classical.stats, family), getattr(stats, family)
        target = 1.0 - alpha
        with warnings.catch_warnings():  # the binomial ufunc warns of its failure
            warnings.simplefilter("ignore", RuntimeWarning)
            assert math.isnan(own.ppf(target, *params))  # the case the start is for
        search = binomial_ump_test if family == "binom" else poisson_ump_test
        start = time.perf_counter()
        test = search(*params, alpha)
        assert time.perf_counter() - start < 1.0
        l = test.threshold
        assert scipy_family.cdf(l - 1, *params) < target <= scipy_family.cdf(l, *params)
        accepted = own.cdf(l - 1, *params) + test.gamma * own.pmf(l, *params)
        assert abs(accepted - target) < 1e-12

    def test_no_warning_of_the_failed_quantile(self, recwarn):
        binomial_ump_test(5 * 10**15, 0.9, 0.05)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_invalid_parameters_are_not_approximated(self):
        # a NaN quantile at invalid parameters stays NaN and is refused
        assert math.isnan(classical._start(classical.stats.binom, 0.5, (10.5, 0.3)))
        assert math.isnan(classical._start(classical.stats.poisson, 0.5, (-1.0,)))


class TestWalksFromAnyStart:
    """The two walks settle the threshold from a start on either side of it,
    an exact tie cdf(l - 1) = 1 - alpha included (Bin(1, 1/2) at alpha 1/2)."""

    @pytest.mark.parametrize("offset", [-7, -1, 1, 7])
    @pytest.mark.parametrize(
        "family, params, alpha",
        [("binom", (1, 0.5), 0.5), ("binom", (400, 0.3), 0.05), ("poisson", (37.5,), 0.1),
         ("poisson", (1e12,), 0.5)],
    )
    def test_same_threshold(self, monkeypatch, offset, family, params, alpha):
        search = binomial_ump_test if family == "binom" else poisson_ump_test
        want = search(*params, alpha)
        start = classical._start
        monkeypatch.setattr(classical, "_start", lambda *a: start(*a) + offset)
        got = search(*params, alpha)
        assert (got.threshold, got.gamma) == (want.threshold, want.gamma)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 2000),
    # scipy's binom.pmf raises OverflowError at some subnormal p (a known defect)
    eps=st.floats(0.0, 1.0, allow_subnormal=False),
    delta=st.one_of(st.floats(0.0, 200.0), st.floats(0.0, 1e5)),
    alpha=st.floats(1e-6, 0.9),
)
def test_threshold_search_properties(n, eps, delta, alpha):
    """Defining inequalities and size exactly alpha for both families; the
    quantile-started search agrees with a walk up from 0 where that is cheap."""
    target = 1.0 - alpha
    binomial = binomial_ump_test(n, eps, alpha)
    poisson = poisson_ump_test(delta, alpha)
    for dist, params, t in ((stats.binom, (n, eps), binomial), (stats.poisson, (delta,), poisson)):
        below = dist.cdf(t.threshold - 1, *params)
        assert below < target <= dist.cdf(t.threshold, *params)
        assert abs(below + t.gamma * dist.pmf(t.threshold, *params) - target) < 1e-12
    if delta <= 200.0:
        reference = linear_walk_threshold(
            lambda k: stats.poisson.cdf(k, delta), lambda k: stats.poisson.pmf(k, delta), alpha
        )
        assert (poisson.threshold, poisson.gamma) == reference


class TestNeymanPearson:
    def test_equal_hypotheses(self):
        p = np.array([0.2, 0.3, 0.5])
        t = neyman_pearson(p, p, 0.1)
        assert abs(t.beta(p) - 0.9) < 1e-12
        assert abs(t.size(p) - 0.1) < 1e-12

    def test_reduces_to_binomial_threshold(self):
        n, eps, alpha, q = 6, 0.1, 0.05, 0.5
        p0 = binom_pmf(n, np.arange(n + 1), eps)
        p1 = binom_pmf(n, np.arange(n + 1), q)
        t = neyman_pearson(p0, p1, alpha)
        ct = binomial_ump_test(n, eps, alpha)
        assert np.max(np.abs(t.accept - ct.acceptance())) < 1e-9

    def test_likelihood_ratio_rejection_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p0 = rng.dirichlet(np.ones(5))
            p1 = rng.dirichlet(np.ones(5))
            t = neyman_pearson(p0, p1, 0.15)
            lhs = float(p0 @ (1 - t.accept))
            rhs = float(p1 @ (1 - t.accept))
            assert lhs <= rhs + 1e-10

    def test_optimal_vs_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p0 = rng.dirichlet(np.ones(6))
            p1 = rng.dirichlet(np.ones(6))
            t = neyman_pearson(p0, p1, 0.2)
            assert abs(t.size(p0) - 0.2) < 1e-10
            assert t.beta(p1) <= brute_force_min_beta(p0, p1, 0.2) + 1e-10


class TestEntropyAndLimits:
    def test_zero_at_equal_arguments(self):
        assert relative_entropy(0.3, 0.3) == 0.0

    def test_zero_boundary_limit_convention(self):
        assert abs(relative_entropy(0.0, 0.4) + math.log(0.6)) < 1e-15

    def test_one_boundary(self):
        assert abs(relative_entropy(1.0, 0.5) - math.log(2.0)) < 1e-15
        assert relative_entropy(1.0, 1.0) == 0.0
        assert relative_entropy(1.0, 0.0) == math.inf

    def test_exponent_cases(self):
        assert error_exponent(0.05, 0.3, 0.1) == relative_entropy(0.05, 0.3)
        assert abs(error_exponent(0.0, 0.3, 0.0) + math.log(0.7)) < 1e-15
        assert error_exponent(0.1, 0.3, 0.0) == 0.0

    def test_exponent_trend_toward_limit(self):
        eps, p, alpha = 0.05, 0.3, 0.1
        target = relative_entropy(eps, p)
        seq = [-math.log(beta_binomial(n, eps, alpha, p)) / n for n in (200, 500, 1000)]
        assert seq[0] < seq[1] < seq[2] < target

    def test_poisson_gap_shrinks(self):
        g100 = poisson_limit_gap(100, 1.0, 3.0, 0.05)
        g10000 = poisson_limit_gap(10000, 1.0, 3.0, 0.05)
        assert g10000 < g100
        assert poisson_limit_gap(50, 1.0, 1.0, 0.05) < 1e-12  # t' = delta


class TestDataTypes:
    def test_randomized_test_accept_prob(self):
        t = ClassicalRandomizedTest(threshold=2, gamma=0.5, n=5)
        assert t.accept_prob(1) == 1.0 and t.accept_prob(2) == 0.5 and t.accept_prob(3) == 0.0
        assert t.accept_prob(np.array([[1, 2], [3, 0]])).tolist() == [[1.0, 0.5], [0.0, 1.0]]

    def test_ge_accept_prob(self):
        t = ClassicalRandomizedTest(threshold=2, gamma=0.5, n=5, accept_large=True)
        assert t.accept_prob(3) == 1.0 and t.accept_prob(1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalRandomizedTest(threshold=3, gamma=1.5, n=5)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFamiliesMatchScipyStats:
    """``classical.stats`` computes binom and poisson by scipy.special's ufuncs
    (the private Boost wrappers ``_binom_*`` among them) with rv_discrete's
    boundary handling; every value must equal ``scipy.stats``' bit for bit,
    NaN for NaN, so the 12-digit outputs cannot move.  A scipy release that
    moves or changes the ufuncs fails here."""

    QS = (0.0, 1e-300, 1e-10, 0.05, 0.5, 0.95, 1 - 1e-10, 1 - 1e-16, 1.0, -0.5, 1.5, math.nan)

    def test_ufuncs_present(self):
        ufuncs = classical._special()
        for name in ("_binom_pmf", "_binom_cdf", "_binom_ppf", "pdtr", "pdtrik", "xlogy", "gammaln"):
            assert hasattr(ufuncs, name), f"scipy.special._ufuncs.{name} is gone; classical.stats needs it"

    def _check(self, ours, ref, ks, params):
        for k in ks:
            for name in ("pmf", "cdf"):
                got = getattr(ours, name)(k, *params)
                assert isinstance(got, float), (name, k, params)
                assert _bits(got) == _bits(getattr(ref, name)(k, *params)), (name, k, params)
        for q in self.QS:
            got = ours.ppf(q, *params)
            assert isinstance(got, float), ("ppf", q, params)
            assert _bits(got) == _bits(ref.ppf(q, *params)), ("ppf", q, params)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 999, 10**4, 10**5, 10**6])
    def test_binom(self, n):
        for p in (0.0, 1e-300, 1e-3, 0.3, 0.5, 1 - 1e-16, 1.0, -0.1, 1.5, math.nan):
            ks = [-1, 0, 0.5, 1, n // 3, n - 1, n - 0.5, n, n + 1, math.inf, -math.inf, math.nan]
            self._check(classical.stats.binom, stats.binom, ks, (n, p))

    @pytest.mark.parametrize("rate", [0.0, 1e-300, 0.5, 1.0, 37.5, 2000.5, 1e6, -1.0, math.nan])
    def test_poisson(self, rate):
        mode = math.floor(rate) if math.isfinite(rate) else 3
        ks = [-1, 0, 0.5, 1, mode - 1, mode, mode + 0.5, mode + 1, 2 * mode + 40, math.inf, -math.inf, math.nan]
        self._check(classical.stats.poisson, stats.poisson, ks, (rate,))

    def test_tests_and_errors(self, monkeypatch):
        """Each threshold, gamma and beta equals the one a scipy.stats-backed
        ``classical.stats`` gives, the mirrored direction included."""
        binomial = [(n, eps, alpha, q)
                    for n in (1, 2, 10, 51, 1000, 10**5, 10**6)
                    for eps in (0.0, 1e-300, 0.01, 0.1, 0.5, 0.9, 1.0)
                    for alpha in (0.01, 0.05, 0.3)
                    for q in (0.0, eps, min(1.0, eps + 0.05), 1.0)]
        poisson = [(delta, alpha, t)
                   for delta in (0.0, 1e-300, 0.5, 2000.5, 1e6)
                   for alpha in (0.01, 0.05, 0.3)
                   for t in (0.0, delta, 2 * delta + 1)]

        def evaluate():
            out = []
            for n, eps, alpha, q in binomial:
                t = binomial_ump_test(n, eps, alpha)
                out.append((t.threshold, _bits(t.gamma), _bits(beta_binomial(n, eps, alpha, q))))
                out.append(_bits(beta_binomial_ge(n, eps, alpha, q)))
            for delta, alpha, x in poisson:
                t = poisson_ump_test(delta, alpha)
                out.append((t.threshold, _bits(t.gamma), _bits(beta_poisson(delta, alpha, x))))
            return out

        ours = evaluate()
        monkeypatch.setattr(classical, "stats", stats)
        assert ours == evaluate()
