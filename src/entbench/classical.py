"""Uniformly most powerful randomized tests for binomial and Poisson families.

A randomized test on counts is stored in threshold form ``(l, gamma)``: accept
outcomes below the threshold with probability 1, at the threshold with
probability gamma, above it with probability 0 (mirrored for the
accept-large direction).  The threshold is pinned by

    cdf(l - 1)  <  1 - alpha  <=  cdf(l)

at the null boundary, with gamma chosen so the acceptance probability at the
boundary, ``cdf(l - 1) + gamma pmf(l)``, is exactly ``1 - alpha``.  gamma = 0
is permitted; when ``1 - alpha`` hits a cumulative sum exactly the two
conventions describe the same test.

One search serves both families (Lehmann & Romano, Testing Statistical
Hypotheses, sec. 3.4): it starts at the ``1 - alpha`` quantile from the
family's ``ppf`` (or, where that is NaN at valid parameters, at the normal
approximation) and settles the inequalities above with two short walks, so
its cost does not grow with n or the Poisson rate.  A held test gives its
acceptance at any alternative (``accepted_mass``) without a second search.
The accept-large binomial test is the mirror image of the accept-small one,
since ``n - X ~ Bin(n, 1 - eps)``.

The pmf, cdf and quantile of both families are computed as ``scipy.stats``
computes them, by the same ``scipy.special`` ufuncs and with ``rv_discrete``'s
boundary handling, without importing ``scipy.stats`` (about a second, against
about 0.4 s for ``scipy.special``, which is imported at the first call).  They
live in the module global ``stats``, which every search and accepted mass
reads at call time, so a rebound ``stats`` (a counting stand-in, say) is seen.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


_ufuncs = None
# every count up to 2**53 is a float64, as the ufuncs take it; past that a
# quantile or a walk of unit steps may not end
_MAX_COUNT = 2**53


def _special():
    """``scipy.special``'s ufunc module, imported at the first pmf, cdf or quantile."""
    global _ufuncs
    if _ufuncs is None:
        from scipy.special import _ufuncs
    return _ufuncs


def _clip01(x) -> float:
    """``np.clip(x, 0, 1)`` for a scalar, as a float; NaN stays NaN."""
    return min(max(float(x), 0.0), 1.0)


class _Discrete:
    """pmf, cdf, quantile, mean and variance of a family on the counts 0..top, as
    ``scipy.stats``' ``rv_discrete`` evaluates a subclass's ``_pmf``, ``_cdf``
    and ``_ppf``: NaN for invalid parameters or a NaN argument; outside the
    support a pmf of 0 and a cdf of 0 or 1; inside, the kernel clipped to
    [0, 1], the cdf's at floor(k).  Each takes a scalar and gives a float.
    """

    def pmf(self, k, *params):
        if k != k or not self._valid(*params):
            return math.nan
        if not (0 <= k <= self._top(*params) and np.floor(k) == k):
            return 0.0
        return _clip01(self._pmf(k, *params))

    def cdf(self, k, *params):
        if k != k or not self._valid(*params):
            return math.nan
        if k < 0:
            return 0.0
        if k >= self._top(*params):
            return 1.0
        return _clip01(self._cdf(math.floor(k), *params))

    def ppf(self, q, *params):
        """Smallest k with cdf(k) >= q; -1 at q = 0."""
        if not (0.0 <= q <= 1.0 and self._valid(*params)):
            return math.nan
        if q == 0.0:
            return -1.0
        if q == 1.0:
            return float(self._top(*params))
        return float(self._ppf(q, *params))

    def mean(self, *params):
        return self._mean_var(*params)[0] if self._valid(*params) else math.nan

    def var(self, *params):
        return self._mean_var(*params)[1] if self._valid(*params) else math.nan


class _Binom(_Discrete):
    """``scipy.stats.binom`` at (n, p), from the Boost ufuncs it calls."""

    def _valid(self, n, p):
        return n >= 0 and (isinstance(n, int) or n == np.floor(n)) and 0.0 <= p <= 1.0

    def _top(self, n, p):
        return n

    def _mean_var(self, n, p):
        return n * p, n * p * (1.0 - p)

    def _pmf(self, k, n, p):
        return _special()._binom_pmf(k, n, p)

    def _cdf(self, k, n, p):
        return _special()._binom_cdf(k, n, p)

    def _ppf(self, q, n, p):
        return _special()._binom_ppf(q, n, p)


class _Poisson(_Discrete):
    """``scipy.stats.poisson`` at rate mu."""

    def _valid(self, mu):
        return mu >= 0

    def _top(self, mu):
        return math.inf

    def _mean_var(self, mu):
        return mu, mu

    def _pmf(self, k, mu):
        sp = _special()
        return np.exp(sp.xlogy(k, mu) - sp.gammaln(k + 1) - mu)

    def _cdf(self, k, mu):
        return _special().pdtr(k, mu)

    def _ppf(self, q, mu):
        sp = _special()
        k = np.ceil(sp.pdtrik(q, mu))
        below = np.maximum(k - 1, 0)
        return below if sp.pdtr(below, mu) >= q else k


stats = SimpleNamespace(binom=_Binom(), poisson=_Poisson())


@dataclass(frozen=True)
class ClassicalRandomizedTest:
    """Threshold test; ``n=None`` marks the Poisson (unbounded count) domain."""

    threshold: int
    gamma: float
    n: int | None = None
    accept_large: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if self.n is not None and self.threshold > self.n:
            raise ValueError("threshold exceeds sample count")

    def accept_prob(self, k):
        """Acceptance probability of count(s) k: 1 on the accepting side of the
        threshold, gamma at it, 0 past it.  Elementwise on arrays; a float for a
        scalar."""
        k = np.asarray(k)
        accepting = k > self.threshold if self.accept_large else k < self.threshold
        w = np.where(k == self.threshold, self.gamma, accepting.astype(float))
        return w if w.ndim else float(w)

    def accepted_mass(self, x: float) -> float:
        """Probability that the test accepts a count that is binomial with
        success probability x on its n trials, or Poisson with rate x when
        ``n`` is None: cdf(l - 1) + gamma pmf(l), on n - X ~ Bin(n, 1 - x)
        for the accept-large direction."""
        if self.n is None:
            family, params, l = stats.poisson, (x,), self.threshold
        elif self.accept_large:
            family, params, l = stats.binom, (self.n, 1.0 - x), self.n - self.threshold
        else:
            family, params, l = stats.binom, (self.n, x), self.threshold
        return float(family.cdf(l - 1, *params) + self.gamma * family.pmf(l, *params))

    def acceptance(self) -> np.ndarray:
        if self.n is None:
            raise ValueError("acceptance vector needs a finite domain")
        return self.accept_prob(np.arange(self.n + 1))


def beta_one_sample(eps: float, alpha: float, q: float) -> float:
    """Minimum type-2 error at q for a single coin flip with null p <= eps."""
    check_level(eps, alpha)
    check_defects(q)
    if q <= eps:
        warnings.warn(
            f"alternative q={q} lies inside the null (<= {eps}); value is the "
            "acceptance probability there, not a type-2 error",
            stacklevel=2,
        )
    if eps <= alpha:
        return (1.0 - alpha) * (1.0 - q) / (1.0 - eps)
    return 1.0 - alpha * q / eps


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def check_level(eps: float, alpha: float) -> None:
    """Refuse a null boundary eps outside [0, 1] or a level alpha outside (0, 1),
    and either one that is not a real number (a bool or a list, say)."""
    for key, value in (("epsilon", eps), ("alpha", alpha)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{key} must be a real number, got {value!r}")
    _require(0.0 <= eps <= 1.0, "eps must lie in [0, 1]")
    _require(0.0 < alpha < 1.0, "alpha must lie in (0, 1)")


def check_defects(*ps: float) -> None:
    """Refuse a defect (a failure probability) outside [0, 1]; NaN fails every
    comparison, so it is refused too."""
    for p in ps:
        _require(0.0 <= p <= 1.0, f"defect {p} outside [0, 1]")


def _start(family, q: float, params: tuple) -> float:
    """Where the search of the q quantile of ``family`` at ``params`` starts:
    ``ppf``, or where that is NaN the normal approximation mean + z_q sd
    (scipy's quantile ufuncs fail at some large counts whose cdf is fine, and
    warn of it; the warning is not passed on).  Both are NaN at invalid
    parameters."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        k = family.ppf(q, *params)
    if k != k:
        k = family.mean(*params) + float(_special().ndtri(q)) * math.sqrt(family.var(*params))
    return k


def _threshold(family, params: tuple, alpha: float) -> tuple[int, float]:
    """Smallest l with cdf(l) >= 1 - alpha for ``family`` (``stats.binom`` or
    ``stats.poisson``) at ``params``, plus the randomization weight at l."""
    target = 1.0 - alpha
    # start at the quantile, then settle the defining inequalities exactly
    start = _start(family, target, params)
    _require(start <= _MAX_COUNT, f"the {target} quantile at {params} is {start}, not a count "
                                  "at most 2**53 (counts exact in float64)")
    l = max(0, int(start))
    while l > 0 and family.cdf(l - 1, *params) >= target:
        l -= 1
    while family.cdf(l, *params) < target:
        l += 1
    mass = family.pmf(l, *params)
    gamma = (target - family.cdf(l - 1, *params)) / mass if mass > 0 else 0.0
    return l, min(max(gamma, 0.0), 1.0)


def binomial_ump_test(n: int, eps: float, alpha: float) -> ClassicalRandomizedTest:
    """Level-alpha UMP test for the null p <= eps on n Bernoulli trials."""
    _require(1 <= n <= _MAX_COUNT, f"need 1 <= n <= 2**53 (counts exact in float64), got {n}")
    check_level(eps, alpha)
    l, gamma = _threshold(stats.binom, (n, eps), alpha)
    return ClassicalRandomizedTest(threshold=l, gamma=gamma, n=n)


def beta_binomial(n: int, eps: float, alpha: float, q: float) -> float:
    """Type-2 error of the binomial UMP test at alternative parameter q."""
    return binomial_ump_test(n, eps, alpha).accepted_mass(q)


def binomial_ump_test_ge(n: int, eps: float, alpha: float) -> ClassicalRandomizedTest:
    """Mirrored direction: null p >= eps, acceptance favors large counts."""
    t = binomial_ump_test(n, 1.0 - eps, alpha)  # accept-small on n - X ~ Bin(n, 1 - eps)
    return ClassicalRandomizedTest(threshold=n - t.threshold, gamma=t.gamma, n=n, accept_large=True)


def beta_binomial_ge(n: int, eps: float, alpha: float, q: float) -> float:
    return binomial_ump_test_ge(n, eps, alpha).accepted_mass(q)


def poisson_ump_test(delta: float, alpha: float) -> ClassicalRandomizedTest:
    """Level-alpha UMP test for the null rate <= delta."""
    _require(0.0 <= delta < math.inf, "delta must be finite and nonnegative")
    _require(0.0 < alpha < 1.0, "alpha must lie in (0, 1)")
    l, gamma = _threshold(stats.poisson, (delta,), alpha)
    return ClassicalRandomizedTest(threshold=l, gamma=gamma, n=None)


def beta_poisson(delta: float, alpha: float, t_alt: float) -> float:
    """Type-2 error of the Poisson UMP test at alternative rate t_alt."""
    return poisson_ump_test(delta, alpha).accepted_mass(t_alt)


@dataclass(frozen=True)
class LikelihoodRatioTest:
    """Most powerful level-alpha test of P0 vs P1 on a finite support."""

    accept: np.ndarray  # acceptance probability per outcome
    ratio: float  # likelihood-ratio threshold
    gamma: float

    def size(self, p0: np.ndarray) -> float:
        return 1.0 - float(p0 @ self.accept)

    def beta(self, p1: np.ndarray) -> float:
        return float(p1 @ self.accept)


def neyman_pearson(p0, p1, alpha: float) -> LikelihoodRatioTest:
    """Threshold the likelihood ratio P0/P1 so the size is exactly alpha."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    _require(p0.shape == p1.shape and p0.ndim == 1, "P0, P1 must be matching vectors")
    _require(abs(p0.sum() - 1.0) < 1e-9 and abs(p1.sum() - 1.0) < 1e-9, "inputs must be pmfs")
    _require(0.0 < alpha < 1.0, "alpha must lie in (0, 1)")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p1 > 0, p0 / np.where(p1 > 0, p1, 1.0), np.inf)
    ratio = np.where((p1 == 0) & (p0 == 0), np.inf, ratio)
    target = 1.0 - alpha
    accept = np.zeros_like(p0)
    order = np.argsort(-ratio, kind="stable")
    taken = 0.0
    threshold, gamma = 0.0, 0.0
    i = 0
    while i < order.size:
        r = ratio[order[i]]
        tie = [j for j in order[i:] if ratio[j] == r]
        mass = float(p0[tie].sum())
        if taken + mass < target and mass > 0:
            accept[tie] = 1.0
            taken += mass
            i += len(tie)
            continue
        threshold = r
        gamma = (target - taken) / mass if mass > 0 else 0.0
        accept[tie] = gamma
        break
    return LikelihoodRatioTest(accept=accept, ratio=float(threshold), gamma=float(gamma))


def relative_entropy(eps: float, p: float) -> float:
    """Binary relative entropy d(eps || p) with the 0 log 0 = 0 convention."""
    _require(0.0 <= eps <= 1.0 and 0.0 <= p <= 1.0, "arguments must lie in [0, 1]")
    if eps == p:
        return 0.0
    out = 0.0
    if eps > 0.0:
        if p == 0.0:
            return math.inf
        out += eps * math.log(eps / p)
    if eps < 1.0:
        if p == 1.0:
            return math.inf
        out += (1.0 - eps) * math.log((1.0 - eps) / (1.0 - p))
    return out


def error_exponent(eps: float, p: float, alpha: float) -> float:
    """Large-deviation rate of the type-2 error for the null p <= eps at p > eps."""
    _require(0.0 <= alpha < 1.0, "alpha must lie in [0, 1)")
    if alpha > 0.0:
        return relative_entropy(eps, p)
    if eps == 0.0:
        return -math.log(1.0 - p)
    return 0.0


def poisson_limit_gap(n: int, delta: float, t_alt: float, alpha: float) -> float:
    """Distance between the rescaled binomial error and its Poisson limit."""
    return abs(beta_binomial(n, delta / n, alpha, t_alt / n) - beta_poisson(delta, alpha, t_alt))
