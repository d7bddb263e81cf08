"""Acceptance operators for testing a maximally entangled state.

Every test here is an explicit matrix with 0 <= T <= I.  Operators on several
sample pairs are stored pair-major: the factor order is (A1, B1, A2, B2, ...).
Operators built from a POVM on Alice's side come out group-major
(A1, ..., Ak, B1, ..., Bk) and are permuted before comparison.  Both layouts,
their labels and the doubled seed u (x) conj(u) are defined in ``states``.

The one-way construction pairs each POVM vector with its entrywise conjugate:

    T(M) = sum_i p_i |u_i (x) conj(u_i)><u_i (x) conj(u_i)|

which accepts the maximally entangled state with certainty and has trace equal
to the dimension of Alice's side.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .classical import beta_binomial, binomial_ump_test, check_defects, check_level
from .memory import check_fits
from .states import (
    Ket,
    Operator,
    RankOnePOVM,
    TestOperator,
    _exponent,
    _from_sectors,
    _group_labels,
    _pair_labels,
    _pair_matrix,
    _pair_order,
    bell_basis,
    doubled_ket,
    max_entangled_ket,
    mixed_tensor_sum,
    permute_systems,
    sector_operator,
)
from .twirl import (
    GroupAction,
    TwirlEstimate,
    _batch_moments,
    _chunks,
    _mean_stderr,
    doubled_twirl,
)

# result-sized complex arrays alive at once while binomial_operator_test or
# pooled_covariant_test builds and validates its operator.  Peak RSS growth
# (getrusage, one BLAS thread): binomial_operator_test on a complex 2 x 2 test
# holds the built sum, the constructor's copy and the certificate's workspace,
# 3.21 and 3.09 results at dims 1024 and 2048 (2.67 and 2.61 on a real test,
# whose workspace is float64); pooled_covariant_test, certified from its
# coefficients, not copied and built from its nonzeros, 0.94-1.00 at dim 1024.
# At dim 256 a fixed MB or so of workspace adds about one result (4.37 for
# binomial_operator_test)
_BUILD_ARRAYS = 4
# slack of the structural predicates ``separable_trace_bound`` and
# ``is_max_entangled``
_PREDICATE_TOL = 1e-10


def to_pair_major(op: Operator) -> Operator:
    """Reorder (A1..Ak, B1..Bk) factors to (A1, B1, ..., Ak, Bk)."""
    return permute_systems(op, _pair_order(len(op.dims) // 2))


def to_group_major(op: Operator) -> Operator:
    """Reorder (A1, B1, ..., Ak, Bk) factors to (A1..Ak, B1..Bk)."""
    k = len(op.dims) // 2
    return permute_systems(op, [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)])


def test_from_povm(povm: RankOnePOVM, d: int) -> TestOperator:
    """Acceptance operator of the one-way protocol driven by a rank-one POVM.

    The POVM lives on Alice's k samples, of dimension d^k; the result acts on
    the doubled space group-major, with factors (A1..Ak, B1..Bk).
    """
    k = _exponent(povm.dim, d, "POVM dim")
    vecs = povm.vectors
    big = np.einsum("ka,kb->kab", vecs, vecs.conj()).reshape(len(povm), -1)
    mat = np.einsum("k,ki,kj->ij", povm.weights, big, big.conj())
    return TestOperator(mat, (d,) * (2 * k), _group_labels(k))


def level_adjust(t: TestOperator, eps: float, alpha: float) -> TestOperator:
    """Randomize a level-0 test into a level-alpha test for the null defect <= eps.

    Accepting with probability (1-alpha)/(1-eps) on the T outcome (eps <= alpha)
    or with probability (eps-alpha)/eps on the complement outcome (eps > alpha)
    makes the acceptance probability at the null boundary exactly 1 - alpha.
    """
    check_level(eps, alpha)
    if eps <= alpha:
        mat = (1.0 - alpha) / (1.0 - eps) * t.mat
    else:
        mat = t.mat + (eps - alpha) / eps * (np.eye(t.dim) - t.mat)
    return TestOperator(mat, t.dims, t.labels)


def binomial_operator_test(t: TestOperator, eps: float, alpha: float, n: int) -> TestOperator:
    """Repeat the two-outcome test {T, I-T} on n copies, then threshold the count.

    The result is sum_{k < l} S_{n,k} + gamma S_{n,l} where S_{n,k} is the
    sum of the tensor products with k failure factors (I - T) and n - k
    factors T, and (l, gamma) is the binomial UMP threshold at the null
    boundary eps.  An operator that would not fit in physical RAM raises
    ``ValueError`` before it is built.
    """
    ct = binomial_ump_test(n, eps, alpha)
    check_fits(f"binomial_operator_test on n={n} copies of a {t.dim}-dim test", "n", n, 1,
               lambda m: _BUILD_ARRAYS * 16 * t.dim ** (2 * m))
    coeffs = [1.0] * ct.threshold + [ct.gamma] + [0.0] * (n - ct.threshold)
    mat = mixed_tensor_sum(t.mat, np.eye(t.dim) - t.mat, coeffs)
    dims = t.dims * n
    labels = tuple(f"{lab}.{i}" for i in range(1, n + 1) for lab in t.labels)
    return TestOperator(mat, dims, labels)


# ---------------------------------------------------------------------------
# covariant tests and their exact error probabilities


def one_sample_covariant_test(d: int) -> TestOperator:
    """Twirl of the computational-basis one-way test: P + (I - P)/(d+1)."""
    return _from_sectors(TestOperator, d, [1.0, 1.0 / (d + 1)], (d, d), ("A", "B"))


def two_sample_covariant_test(d: int) -> TestOperator:
    """P (x) P + (I-P) (x) (I-P) / (d^2 - 1) on two pairs, pair-major."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    coeffs = [1.0, 0.0, 1.0 / (d * d - 1)]
    return _from_sectors(TestOperator, d, coeffs, (d, d) * 2, _pair_labels(2))


def two_sample_trace(d: int, p: float) -> float:
    """(1-p)^2 + p^2/(d^2-1): acceptance of the two-sample covariant test."""
    check_defects(p)
    return (1.0 - p) ** 2 + p * p / (d * d - 1)


def bell_pair_test(d: int) -> TestOperator:
    """One-way test driven by the Bell measurement on Alice's two samples."""
    vecs = np.array([k.vec for k in bell_basis(d)])
    povm = RankOnePOVM(np.ones(d * d), vecs)
    return to_pair_major(test_from_povm(povm, d))


def pooled_covariant_test(d: int, n: int) -> TestOperator:
    """The one-sample covariant test applied to the pooled d^n x d^n pair.

    An operator of more than 4096 dimensions, or one that would not fit in
    physical RAM, raises ``ValueError`` before it is built.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 pairs, got {n}")
    if (d * d) ** n > 4096:
        raise ValueError("pooled operator too large; use pooled_trace for big n")
    check_fits(f"pooled_covariant_test on n={n} pairs at d={d}", "n", n, 1,
               lambda m: _BUILD_ARRAYS * 16 * d ** (4 * m))
    coeffs = [1.0] + [1.0 / (d**n + 1)] * n
    return _from_sectors(TestOperator, d, coeffs, (d, d) * n, _pair_labels(n))


def pooled_trace(d: int, n: int, p: float) -> float:
    """(d^n (1-p)^n + 1) / (d^n + 1): acceptance of the pooled test on defect p.

    Evaluated as ((1-p)^n + r) / (1 + r) with r = d^-n in floats, which
    costs the same at any n and underflows to 0 where d^n would overflow.
    (1-p)^n is ``exp(n log1p(-p))``: rounding 1 - p first would cost a
    relative error of about n eps (2.8e-8 at n = 10^9, p = 1e-9)."""
    if n < 1:
        raise ValueError(f"need n >= 1 pairs, got {n}")
    check_defects(p)
    r = float(d) ** -n
    survive = math.exp(n * math.log1p(-p)) if p < 1.0 else 0.0
    return (survive + r) / (1.0 + r)


def mapped_boundary(d: int, x: float) -> float:
    """Failure probability of one two-sample round when each copy has defect x."""
    return 2.0 * x - d * d * x * x / (d * d - 1)


def beta_one_way(d: int, eps: float, alpha: float, p: float) -> float:
    """Exact type-2 error of the level-adjusted one-sample covariant test."""
    check_level(eps, alpha)
    check_defects(p)
    r = d / (d + 1.0)
    if r * eps <= alpha:
        return (1.0 - alpha) * (1.0 - r * p) / (1.0 - r * eps)
    return 1.0 - alpha * p / eps


def beta_pair_repeated(d: int, n: int, eps: float, alpha: float, p: float) -> float:
    """Type-2 error of n repetitions of the two-sample covariant test (2n copies)."""
    check_level(eps, alpha)
    check_defects(p)
    cap = (d * d - 1) / (d * d)
    if eps > cap:
        warnings.warn(
            f"eps={eps} exceeds {cap}; the mapped boundary folds back and the "
            "bound is outside its validity region",
            stacklevel=2,
        )
    return beta_binomial(n, mapped_boundary(d, eps), alpha, mapped_boundary(d, p))


# ---------------------------------------------------------------------------
# sequential (one-way between Alice's samples) covariant test


def _sequential_seed_vectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    u1 = np.zeros(d, dtype=complex)
    u1[0] = 1.0
    u2 = np.zeros(d, dtype=complex)
    u2[0] = 1.0 / math.sqrt(d)
    u2[1] = math.sqrt(1.0 - 1.0 / d)
    return u1, u2


class ScalarEstimate(NamedTuple):
    value: float
    stderr: float
    samples: int


def sequential_covariant_trace(
    sigma, samples: int, rng: np.random.Generator
) -> ScalarEstimate:
    """Monte-Carlo estimate of the sequential covariant test's acceptance.

    Alice measures her first sample covariantly and steers the basis on the
    second; the POVM average is d^2 (g x g)|u1 x u2><u1 x u2|(g x g)^dag over
    Haar g with |<u1|u2>|^2 = 1/d.  Per sample g the integrand factorizes into
    the product of two pair overlaps, so no big matrices are needed.  u1 = e_0
    and u2 lies in span(e_0, e_1), so only the first two columns of each g are
    drawn, through ``GroupAction._draws`` in ``_chunks`` order: the draw
    ``sequential_covariant_operator`` makes, so at the same seed both use the
    same group elements.  A state that is not a square matrix on a d x d pair
    with d >= 2 raises ``ValueError``.
    """
    mat, d = _pair_matrix(sigma)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    seeds = [u[:2] for u in _sequential_seed_vectors(d)]
    action = GroupAction("local", d)

    def values(batch):
        (g,), _ = action._draws(batch, rng, 2)
        vals = np.ones(batch)
        for u in seeds:
            gu = np.einsum("akn,k->na", g, u)
            w = np.einsum("na,nb->nab", gu, gu.conj()).reshape(batch, d * d)
            vals = vals * np.real(np.einsum("ni,ij,nj->n", w.conj(), mat, w))
        return d * d * vals

    mean, stderr = _mean_stderr(_batch_moments(values(batch)) for batch in _chunks(samples))
    return ScalarEstimate(float(mean), float(stderr), samples)


def sequential_covariant_operator(
    d: int, samples: int, rng: np.random.Generator
) -> TwirlEstimate:
    """MC average of the sequential covariant test operator, pair-major.

    The seed is d^2 |x><x| with x = (u1 (x) conj(u1)) (x) (u2 (x) conj(u2)),
    the doubled (u1 (x) u2), so it is twirled from u1 (x) u2 by
    ``doubled_twirl``, which draws two columns of each g.
    """
    return doubled_twirl(np.kron(*_sequential_seed_vectors(d)), GroupAction("local", d, 2),
                         samples, rng)


# ---------------------------------------------------------------------------
# structural predicates


class SeparableBoundResult(NamedTuple):
    holds: bool
    trace: float
    overlap: float


def separable_trace_bound(terms, d: int) -> SeparableBoundResult:
    """Check Tr T >= d <phi0|T|phi0> for T = sum_i a_i A_i (x) B_i, a_i >= 0,
    within ``_PREDICATE_TOL``.

    Holds for every genuinely separable operator; entangled acceptance
    operators such as |phi0><phi0| itself violate it.
    """
    phi = max_entangled_ket(d).vec
    total_tr = 0.0
    total_ov = 0.0
    for weight, a_mat, b_mat in terms:
        if weight < 0:
            raise ValueError("separable decomposition needs nonnegative weights")
        term = weight * np.kron(np.asarray(a_mat), np.asarray(b_mat))
        total_tr += float(np.trace(term).real)
        total_ov += float(np.real(phi.conj() @ term @ phi))
    return SeparableBoundResult(total_tr >= d * total_ov - _PREDICATE_TOL, total_tr, total_ov)


def is_max_entangled(u) -> bool:
    """Whether u on A1 (x) A2 is maximally entangled.

    Evaluates the commutation residual on u (x) conj(u): the charge sector in
    which exactly one of the two pairs lies on the maximally entangled vector
    must annihilate the vector.  Equivalent to all singular values of the
    amplitude matrix being 1/sqrt(d).  The residual's norm must be at most
    ``_PREDICATE_TOL``.
    """
    vec = u.vec if isinstance(u, Ket) else np.asarray(u, dtype=complex).reshape(-1)
    d = math.isqrt(vec.size)
    if d * d != vec.size:
        raise ValueError("vector must live on a d x d pair")
    w = doubled_ket(vec, d).vec
    return bool(np.linalg.norm(sector_operator(d, [0.0, 1.0, 0.0]) @ w) <= _PREDICATE_TOL)


def simplex_completion(phi) -> list[Ket]:
    """d orthonormal vectors, each overlapping phi by exactly 1/sqrt(d).

    Offsets from phi/sqrt(d) are the vertices of a regular simplex in the
    orthocomplement of phi, so the pairwise offset inner products are -1/d.
    """
    from scipy import linalg  # here, so importing the package skips scipy.linalg

    vec = phi.vec if isinstance(phi, Ket) else np.asarray(phi, dtype=complex).reshape(-1)
    d = vec.size
    if d < 2:
        raise ValueError("need dimension >= 2")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("phi must be a unit vector")
    comp = linalg.null_space(vec.conj()[np.newaxis, :])
    helmert = np.zeros((d, d))
    helmert[0, :] = 1.0 / math.sqrt(d)
    for k in range(1, d):
        helmert[k, :k] = 1.0 / math.sqrt(k * (k + 1))
        helmert[k, k] = -k / math.sqrt(k * (k + 1))
    frame = np.column_stack([vec, comp])  # unitary: phi then its orthocomplement
    cols = frame @ helmert
    return [Ket(cols[:, i], (d,), ("A",)) for i in range(d)]
