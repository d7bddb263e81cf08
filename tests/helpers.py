"""Shared oracles for the test suite, independent of the library's own paths."""

from __future__ import annotations

import numpy as np

from entbench.states import DensityMatrix, fidelity_defect, max_entangled_ket, proj, random_density


def brute_force_min_beta(p0: np.ndarray, p1: np.ndarray, alpha: float) -> float:
    """Minimum of sum P1 T over randomized tests with sum P0 T >= 1 - alpha.

    Enumerates every vertex of the feasible polytope: all 0/1 acceptance
    vectors satisfying the constraint, plus all vectors with one fractional
    coordinate making the constraint tight.  Exact up to float rounding; no
    likelihood-ratio reasoning involved.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    m = p0.size
    target = 1.0 - alpha
    masks = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    w0 = masks @ p0
    w1 = masks @ p1
    best = np.inf
    feasible = w0 >= target - 1e-14
    if feasible.any():
        best = float(w1[feasible].min())
    for j in range(m):
        if p0[j] == 0.0:
            continue
        free = masks[:, j] == 0
        t = (target - w0[free]) / p0[j]
        ok = (t >= -1e-14) & (t <= 1.0 + 1e-14)
        if ok.any():
            cand = w1[free][ok] + np.clip(t[ok], 0.0, 1.0) * p1[j]
            best = min(best, float(cand.min()))
    return best


def linear_walk_threshold(cdf, pmf, alpha: float) -> tuple[int, float]:
    """Threshold test (l, gamma) found by walking l up from 0 to the first
    cdf(l) >= 1 - alpha; the plain reference for the library's quantile-started
    search."""
    target = 1.0 - alpha
    l = 0
    while cdf(l) < target:
        l += 1
    below = cdf(l - 1) if l > 0 else 0.0
    mass = pmf(l)
    gamma = (target - below) / mass if mass > 0 else 0.0
    return l, min(max(gamma, 0.0), 1.0)


def random_state_with_defect(d: int, p: float, rng: np.random.Generator) -> DensityMatrix:
    """Random state with fidelity defect exactly p (mixes toward the target)."""
    sigma = random_density((d, d), rng)
    p0 = fidelity_defect(sigma)
    while p0 < p:  # rare for low targets; resample
        sigma = random_density((d, d), rng)
        p0 = fidelity_defect(sigma)
    lam = 1.0 - p / p0
    mat = (1.0 - lam) * sigma.mat + lam * proj(max_entangled_ket(d))
    return DensityMatrix(mat, (d, d))


def singular_value_max_entangled(u: np.ndarray, tol: float = 1e-10) -> bool:
    """SVD oracle: u is maximally entangled iff all singular values are 1/sqrt(d)."""
    vec = np.asarray(u, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(vec.size)))
    s = np.linalg.svd(vec.reshape(d, d), compute_uv=False)
    return bool(np.max(np.abs(s - 1.0 / np.sqrt(d))) <= tol)
