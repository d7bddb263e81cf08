"""Shared oracles for the test suite, independent of the library's own paths."""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

import numpy as np
from scipy import stats

from entbench.quantum import bell_pair_test, to_group_major
from entbench.states import (
    DensityMatrix,
    Ket,
    Operator,
    bell_basis,
    fidelity_defect,
    haar_columns,
    haar_unitaries,
    max_entangled_ket,
    permute_systems,
    proj,
    random_density,
    tensor,
)
from entbench.twirl import TwirlEstimate, orthocomplement_unitary


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


def binom_pmf(n: int, k, p: float):
    """C(n, k) (1-p)^(n-k) p^k, elementwise over the counts k."""
    return stats.binom.pmf(k, n, p)


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


def placement_sum(a: np.ndarray, b: np.ndarray, n: int, k: int) -> np.ndarray:
    """Sum over all placements of k copies of ``b`` and n-k copies of ``a``,
    one Kronecker chain per placement."""
    dim = a.shape[0]
    total = np.zeros((dim**n, dim**n), dtype=complex)
    for positions in combinations(range(n), k):
        term = np.ones((1, 1), dtype=complex)
        for i in range(n):
            term = np.kron(term, b if i in positions else a)
        total += term
    return total


def kron_fold(a: np.ndarray, b: np.ndarray, coeffs) -> np.ndarray:
    """``mixed_tensor_sum`` as a fold of ``np.kron``: ``h_j`` starts as
    ``[[coeffs[j]]]`` and each level sends it to ``kron(a, h_j) + kron(b, h_{j+1})``."""
    h = [np.full((1, 1), c, dtype=complex) for c in coeffs]
    while len(h) > 1:
        h = [np.kron(a, lo) + np.kron(b, hi) for lo, hi in zip(h, h[1:])]
    return h[0]


def outer_moments_reference(w: np.ndarray, cancellation: float = 1e-8):
    """``(count, sum, M2)`` of the outer products of a batch-last batch of
    vectors, computed with full-size temporaries: M2 = S2 - |sum|^2/k, with
    entries at or below ``cancellation * S2`` recomputed from the products
    ``w_i conj(w_j)``.  ``w`` is left unchanged."""
    dim, k = w.shape
    part = w @ w.conj().T
    a = np.square(w.real)
    a += np.square(w.imag)
    s2 = a @ a.T
    m2 = s2 - (part.real**2 + part.imag**2) / k
    rows, cols = np.nonzero((m2 <= cancellation * s2) & (s2 > 0))
    for start in range(0, len(rows), dim):
        i, j = rows[start : start + dim], cols[start : start + dim]
        products = (w[j].conj() * w[i]).T
        products -= products.sum(axis=0) / k
        m2[i, j] = (np.einsum("i...,i...->...", products.real, products.real)
                    + np.einsum("i...,i...->...", products.imag, products.imag))
    return k, part, m2


def mean_stderr_reference(moments):
    """Mean and standard error from ``(count, sum, M2)`` triples by Chan's
    pairwise update, starting from zero and making a new array at every step;
    the triples are left unchanged."""
    n = 0
    total = m2 = 0.0
    for k, part, part_m2 in moments:
        m2 = m2 + part_m2
        if n:
            delta = part * (1.0 / k) - total * (1.0 / n)
            m2 = m2 + (delta.real**2 + delta.imag**2) * (n * k / (n + k))
        total = total + part
        n += k
    return total * (1.0 / n), np.sqrt(m2 / max(n - 1, 1) / n)


def su2_reference(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar SU(2) elements, shape (count, 2, 2): each unit column
    (a, b) of one one-column ``haar_columns`` draw completed, one sample at a
    time, to the unit quaternion [[a, -conj(b)], [b, conj(a)]]."""
    columns = haar_columns(2, count, rng, 1)
    out = []
    for i in range(count):
        a, b = columns[:, 0, i]
        out.append(np.array([[a, -np.conj(b)], [b, np.conj(a)]]))
    return np.array(out).reshape(count, 2, 2)


def reference_samples(action, count: int, rng: np.random.Generator, keep=None) -> np.ndarray:
    """The ``count`` group elements that ``GroupAction._draws`` draws, in its
    documented order, each built as a per-sample ``np.kron`` chain of its pair
    unitaries; only the samples at the indices ``keep`` (default all) are built.
    The local kinds' g is Haar U(d), or at d = 2 Haar SU(2) (``su2_reference``)."""
    d, kind, copies = action.d, action.kind, action.copies
    local = su2_reference if d == 2 else functools.partial(haar_unitaries, d)
    p = proj(max_entangled_ket(d))

    def phase(theta):
        return np.eye(d * d) + (np.exp(1j * theta) - 1.0) * p

    if kind == "phase":
        factors = [[phase(t)] * copies for t in rng.uniform(0.0, 2.0 * np.pi, size=count)]
    elif kind == "ortho":
        gs = haar_unitaries(d * d - 1, count, rng)
        factors = [[orthocomplement_unitary(g, d)] * copies for g in gs]
    elif kind == "local_independent":
        gs = [local(count, rng) for _ in range(copies)]
        factors = [[np.kron(g[i], g[i].conj()) for g in gs] for i in range(count)]
    else:
        gs = local(count, rng)
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=count) if kind == "local_phase" else None
        factors = []
        for i, g in enumerate(gs):
            u = np.kron(g, g.conj())
            if thetas is not None:
                u = u @ phase(thetas[i])
            factors.append([u] * copies)
    out = []
    for per_copy in factors if keep is None else [factors[i] for i in keep]:
        f = per_copy[0]
        for u in per_copy[1:]:
            f = np.kron(f, u)
        out.append(f)
    return np.array(out)


def reference_twirl(op, action, samples: int, rng: np.random.Generator) -> TwirlEstimate:
    """Mean and standard error of f T f^dag over the group elements of
    ``reference_samples``, drawn in the twirl's batches of 4096 so that a seeded
    result matches ``mc_twirl``'s draws; a ``Ket`` v stands for |v><v| and is
    conjugated as f v."""
    f = np.concatenate([reference_samples(action, min(4096, samples - start), rng)
                        for start in range(0, samples, 4096)])
    if isinstance(op, Ket):
        w = f @ op.vec
        conj = w[:, :, None] * w[:, None, :].conj()
    else:
        mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
        conj = (f @ mat) @ f.conj().transpose(0, 2, 1)
    return TwirlEstimate(conj.mean(axis=0), conj.std(axis=0, ddof=1) / np.sqrt(samples), samples)


def local_twirl_exact(mat: np.ndarray, d: int, copies: int) -> np.ndarray:
    """The exact Haar average of f T f^dag with f = (g (x) conj(g))^{(x) copies},
    for a pair-major operator T on ``copies`` pairs.

    As a vector on 4 copies legs, f T f^dag is T's vector under g on the
    A legs of the rows and the B legs of the columns, and conj(g) on the
    others.  The Haar average of that representation is the orthogonal
    projection onto its fixed vectors, which are spanned by the (2 copies)!
    vectors that pair every g leg with a conj(g) leg by a Kronecker delta
    (Schur-Weyl duality); the projection is a least-squares fit on them.
    """
    n = 2 * copies
    g_legs = [2 * c for c in range(copies)] + [n + 2 * c + 1 for c in range(copies)]
    h_legs = [2 * c + 1 for c in range(copies)] + [n + 2 * c for c in range(copies)]
    letters = "abcdefghijklmnop"[: 2 * n]
    eye = np.eye(d)
    span = np.array([np.einsum(",".join(letters[g] + letters[h] for g, h in zip(g_legs, perm))
                               + "->" + letters, *[eye] * n).reshape(-1)
                     for perm in permutations(h_legs)]).T
    vec = np.asarray(mat, dtype=complex).reshape(-1)
    return (span @ np.linalg.lstsq(span, vec, rcond=None)[0]).reshape(np.shape(mat))


def invariance_deviation(op, action, samples: int, rng: np.random.Generator) -> float:
    """Max over ``samples`` group elements f of ``reference_samples`` of the
    entrywise deviation |f T f^dag - T|, one sample at a time."""
    mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    return max(float(np.max(np.abs(f @ mat @ f.conj().T - mat)))
               for f in reference_samples(action, samples, rng))


def sample_povm_outcome(state, povm, rng: np.random.Generator) -> int:
    """Draw one outcome index with probability Tr(state E_i).

    Tiny negative probabilities (within -1e-12) are clamped before
    renormalizing.
    """
    mat = state.mat if isinstance(state, Operator) else np.asarray(state, dtype=complex)
    probs = []
    for e in povm:
        em = e.mat if isinstance(e, Operator) else np.asarray(e, dtype=complex)
        probs.append(float(np.trace(mat @ em).real))
    probs = np.array(probs)
    if probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("POVM probabilities are not a distribution")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


def within_ci(res, value: float, nsigma: float = 3.0) -> bool:
    """Whether ``value`` lies within ``nsigma`` binomial standard errors of the
    acceptance rate of the ``ExperimentResult`` ``res``."""
    half = nsigma * math.sqrt(max(res.rate * (1.0 - res.rate), 0.0) / res.trials)
    return abs(res.rate - value) <= half + 1e-12


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


def haar_batch_first(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitaries of shape (count, dim, dim) drawn batch first: Ginibre
    matrices a + 1j b with every real part drawn first, then classical
    Gram-Schmidt applied twice to the strided columns ``g[..., j]``."""
    shape = (count, dim, dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cols: list[np.ndarray] = []
    for j in range(dim):
        v = g[..., j].copy()
        for _ in range(2):
            overlaps = [np.einsum("ni,ni->n", q.conj(), v) for q in cols]
            for q, r in zip(cols, overlaps):
                v -= r[:, np.newaxis] * q
        norm2 = np.einsum("ni,ni->n", v.real, v.real) + np.einsum("ni,ni->n", v.imag, v.imag)
        v /= np.sqrt(norm2)[:, np.newaxis]
        cols.append(v)
    return np.stack(cols, axis=-1)


def one_way_reference(sigma_mat: np.ndarray, d: int, g: np.ndarray, u: np.ndarray):
    """One batch of the covariant one-way protocol from Bob's full conditional states.

    ``rho[n, i]`` is Bob's unnormalized state after Alice, measuring in the
    columns of ``g[n]``, sees i; its trace is her outcome probability.  She
    reports the first i whose cumulative probability exceeds ``u[n]``, and Bob
    accepts with the overlap of conj(g_i) with his normalized state.  Returns
    ``(p, pick, accept)`` with ``p`` normalized.
    """
    tens = sigma_mat.reshape(d, d, d, d)  # [a, b, a', b']
    rho = np.einsum("nai,abcd,nci->nibd", g.conj(), tens, g, optimize=True)
    p = np.clip(np.real(np.einsum("nibb->ni", rho)), 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    pick = (u > np.cumsum(p, axis=1)).sum(axis=1)
    rows = np.arange(len(g))
    bob = g[rows, :, pick].conj()
    rho_i = rho[rows, pick]
    num = np.real(np.einsum("nb,nbc,nc->n", bob.conj(), rho_i, bob))
    den = np.real(np.einsum("nbb->n", rho_i))
    return p, pick, np.clip(num / den, 0.0, 1.0)


def one_way_acceptance_reference(sigma_mat: np.ndarray, rho_a: np.ndarray, z: np.ndarray):
    """Bob's one-way acceptance for the columns of ``z`` (d, batch) in complex
    arithmetic: ``<x|sigma|x> / (|z|^2 <z|rho_A|z>)`` for ``x = z (x) conj(z)``,
    clipped to [0, 1]."""
    d, batch = z.shape
    x = (z[:, np.newaxis] * z.conj()).reshape(d * d, batch)
    sx = sigma_mat @ x
    num = np.einsum("jn,jn->n", x.real, sx.real) + np.einsum("jn,jn->n", x.imag, sx.imag)
    rz = rho_a @ z
    den = (np.einsum("an,an->n", z.real, rz.real) + np.einsum("an,an->n", z.imag, rz.imag)) * (
        np.einsum("an,an->n", z.real, z.real) + np.einsum("an,an->n", z.imag, z.imag))
    return np.clip(num / den, 0.0, 1.0)


def _exact_integers(a: np.ndarray):
    """Integers m (an object array) and one exponent e with ``a == m 2^e`` exactly."""
    mant, exp = np.frexp(a)
    e = int(exp.min()) - 53
    m = [int(x * 2.0**53) << int(k - 53 - e) for x, k in zip(mant.flat, exp.flat)]
    return np.array(m, dtype=object).reshape(a.shape), e


def _exact_form(m: np.ndarray, vr: np.ndarray, vi: np.ndarray):
    """Re(v^dag m v) for each column of v = vr + i vi (integer object arrays)
    as exact integers s, with the exponent e of m: the form is ``s 2^e`` in
    units of the square of v's unit."""
    (mr, mi), e = _exact_integers(np.array([m.real, m.imag]))
    return (vr * (mr @ vr - mi @ vi) + vi * (mr @ vi + mi @ vr)).sum(axis=0), e


def exact_one_way_acceptance(sigma_mat: np.ndarray, rho_a: np.ndarray, z: np.ndarray) -> list:
    """``one_way_acceptance_reference`` as 50-digit mpmath numbers, one a column.

    Every float64 is an integer times a power of two, so the numerator
    Re <x|sigma|x> and the denominator Re <z|rho_A|z> |z|^2 are summed exactly
    in Python integers from the entries of ``sigma_mat``, ``rho_a`` and ``z``;
    only their ratio is rounded, to 50 digits.
    """
    import mpmath

    d, batch = z.shape
    (zr, zi), _ = _exact_integers(np.array([z.real, z.imag]))
    xr = (zr[:, None] * zr + zi[:, None] * zi).reshape(d * d, batch)  # z (x) conj(z)
    xi = (zi[:, None] * zr - zr[:, None] * zi).reshape(d * d, batch)
    num, e_num = _exact_form(sigma_mat, xr, xi)
    den, e_den = _exact_form(rho_a, zr, zi)
    den = den * (zr * zr + zi * zi).sum(axis=0)
    with mpmath.workdps(50):
        return [min(max(mpmath.ldexp(mpmath.mpf(n) / mpmath.mpf(m), e_num - e_den), 0), 1)
                for n, m in zip(num, den)]


def bell_tables_reference(sigma1: DensityMatrix, sigma2: DensityMatrix, d: int):
    """Bell-pair outcome and acceptance tables as traces against d^4 x d^4 operators.

    The joint state is arranged (A1, A2, B1, B2); Alice's outcome i has
    probability Tr(joint (|b_i><b_i| (x) I)), seeing it and Bob accepting
    Tr(joint (|b_i><b_i| (x) |conj b_i><conj b_i|)), and the per-pair
    acceptance is Tr(joint T_bell).  Returns ``(p_alice, p_joint, per_pair)``
    before any clipping or normalization.
    """
    joint = tensor(
        DensityMatrix(sigma1.mat, (d, d), ("A1", "B1")),
        DensityMatrix(sigma2.mat, (d, d), ("A2", "B2")),
    )
    joint = permute_systems(joint, ("A1", "A2", "B1", "B2")).mat
    p_alice, p_joint = np.zeros(d * d), np.zeros(d * d)

    def trace_of_product(a, b):
        return np.einsum("ij,ji->", a, b).real

    for i, ket in enumerate(bell_basis(d)):
        p_alice[i] = trace_of_product(joint, np.kron(proj(ket), np.eye(d * d)))
        p_joint[i] = trace_of_product(joint, np.kron(proj(ket), proj(ket.vec.conj())))
    t_bell = to_group_major(bell_pair_test(d)).mat
    return p_alice, p_joint, float(trace_of_product(joint, t_bell))
