"""Dense complex linear algebra on labeled tensor-product spaces.

Vectors and operators carry an explicit factor structure: an ordered tuple of
subsystem dimensions with string labels.  The index convention is row-major
with the LEFT factor most significant, so the basis state ``|i, j>`` of a
``(dA, dB)`` system sits at flat index ``i * dB + j``.  Complex conjugation is
always entrywise in this computational basis.

The layout of k sample pairs lives here too: the pair-major (A1, B1, ..., Ak,
Bk) and group-major (A1..Ak, B1..Bk) orders and labels, the rule d^k, k >= 1,
for Alice's side (``_exponent``), and the doubled seed u (x) conj(u).

Arrays held by the dataclasses are frozen (non-writeable); all operations
return new values, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
POVM_TOL = 1e-9
# entries of an n x n array that a blocked pass holds at once: ``_certify``'s
# Hermitian check, the passes of ``twirl._outer_moments`` after its two GEMMs
# and ``TwirlEstimate``'s comparisons run on row blocks of about this size
# (128 KB of float64)
_ROW_BLOCK = 1 << 14


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _settle(obj, field: str, array: np.ndarray, dims, labels) -> None:
    """Store the frozen ``array`` as ``obj.<field>`` with its checked factors;
    ``labels`` default to ``s0, s1, ...``."""
    dims = tuple(int(d) for d in dims)
    labels = tuple(labels) if labels else tuple(f"s{i}" for i in range(len(dims)))
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != array.shape[0]:
        raise ValueError(f"total dimension {array.shape[0]} != product of factors {dims}")
    if len(labels) != len(dims):
        raise ValueError("one label per factor required")
    if len(set(labels)) != len(labels):
        raise ValueError(f"factor labels must be unique, got {labels}")
    object.__setattr__(obj, field, array)
    object.__setattr__(obj, "dims", dims)
    object.__setattr__(obj, "labels", labels)


def _exponent(size: int, base: int, what: str) -> int:
    """The k >= 1 with ``base**k == size``; ``ValueError`` naming ``what``
    otherwise, and for ``base < 2``."""
    k, power = 1, base
    while 1 < base and power < size:
        k, power = k + 1, power * base
    if base < 2 or power != size:
        raise ValueError(f"{what} {size} is not a power of {base}")
    return k


def _pair_order(k: int) -> list[int]:
    """Group-major positions of the pair-major factors (A1, B1, ..., Ak, Bk)."""
    return [j for i in range(k) for j in (i, k + i)]


def _pair_labels(k: int) -> tuple[str, ...]:
    return tuple(x for i in range(1, k + 1) for x in (f"A{i}", f"B{i}"))


def _group_labels(k: int) -> tuple[str, ...]:
    return tuple(f"A{i}" for i in range(1, k + 1)) + tuple(f"B{i}" for i in range(1, k + 1))


@dataclass(frozen=True)
class Ket:
    """Column vector on a labeled tensor-product space."""

    vec: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        _settle(self, "vec", _frozen(np.asarray(self.vec).reshape(-1)), self.dims, self.labels)

    @property
    def dim(self) -> int:
        return self.vec.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class Operator:
    """Square matrix on a labeled tensor-product space."""

    mat: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        mat = _frozen(np.asarray(self.mat))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        _settle(self, "mat", mat, self.dims, self.labels)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.mat))


def _block_rows(width: int) -> int:
    """Rows of a ``width``-wide array in one ``_ROW_BLOCK``-entry block, at least one."""
    return max(1, _ROW_BLOCK // max(width, 1))


def _certify(m: np.ndarray, what: str, upper: bool) -> None:
    """Raise ``ValueError`` unless ``m`` is finite and Hermitian within
    ``HERMITIAN_TOL``, ``m + PSD_TOL I > 0`` and, if ``upper``,
    ``(1 + PSD_TOL) I - m > 0``.

    Each bound is certified by a Cholesky factorization (LAPACK ``potrf``),
    which succeeds on a Hermitian matrix exactly when it is positive definite.
    One workspace copy of ``m`` is shifted on its diagonal and factored in
    place, then refilled with ``-m`` for the upper bound.  ``potrf`` runs on
    the Fortran-ordered view ``a.T = conj(a)``, which is positive definite
    exactly when ``a`` is, and reads the same triangle of ``m`` as
    ``np.linalg.eigvalsh``.  The verdict can differ from the eigenvalue test
    only within the factorization's backward error, about ``dim * eps``
    relative to the norm of ``m`` (1e-13 at dim 729), around the band edges.
    Only a failed factorization computes the eigenvalues, to name them.  The
    Hermitian check compares ``_ROW_BLOCK`` entries at a time, so the
    workspace is the one full-size array this makes.

    A real ``m``, of real dtype or with an imaginary part that is exactly
    zero (NaN is not), is certified in real arithmetic: the Hermitian check
    and ``dpotrf`` run on ``m.real``, with a float64 workspace of half the
    size.  A real symmetric matrix is positive definite over C exactly when
    it is over R, so the verdict, its caveat and the messages are those of
    the complex path (``zpotrf``), which takes every other ``m``.
    ``scipy.linalg`` is imported here, at the first certificate, so
    importing the package does not pay for it.

    This is the certificate of every ``TestOperator`` and ``DensityMatrix``
    but the library's sector-built ones (the covariant tests and the
    isotropic states), whose spectrum is their set of sector coefficients
    and which ``_from_sectors`` certifies from those, with the same bounds
    and messages.
    """
    from scipy.linalg import lapack

    real = not np.iscomplexobj(m) or not m.imag.any()
    src, potrf = (m.real, lapack.dpotrf) if real else (m, lapack.zpotrf)
    n = m.shape[0]
    rows = _block_rows(n)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        for start in range(0, n, rows):
            block = src[start : start + rows] - src[:, start : start + rows].T.conj()
            if not np.max(np.abs(block)) <= HERMITIAN_TOL:
                raise ValueError(f"{what} is not finite and Hermitian within tolerance")
    a = np.array(src, dtype=float if real else complex, order="C")
    a.flat[:: n + 1] += PSD_TOL
    ok = potrf(a.T, clean=False, overwrite_a=True)[1] == 0
    if ok and upper:
        np.negative(src, out=a)
        a.flat[:: n + 1] += 1.0 + PSD_TOL
        ok = potrf(a.T, clean=False, overwrite_a=True)[1] == 0
    if ok:
        return
    evals = np.linalg.eigvalsh(m)
    if upper:
        raise ValueError(f"{what} eigenvalues [{evals.min()}, {evals.max()}] leave [0, 1]")
    raise ValueError(f"{what} has negative eigenvalue {evals.min()}")


@dataclass(frozen=True)
class DensityMatrix(Operator):
    """Trace-one positive semidefinite operator (a quantum state).

    Construction rejects a matrix that is not finite and Hermitian within
    ``HERMITIAN_TOL``, has an eigenvalue below ``-PSD_TOL`` (certified by a
    Cholesky factorization, see ``_certify``) or a trace off 1 by more than
    ``TRACE_TOL``.  ``isotropic_state`` is certified from its sector
    coefficients instead (``_from_sectors``).
    """

    def __post_init__(self):
        super().__post_init__()
        m = self.mat
        _certify(m, "density matrix", upper=False)
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(m)} is not 1")


@dataclass(frozen=True)
class TestOperator(Operator):
    """Acceptance operator T of a two-outcome test {T, I - T}, 0 <= T <= I.

    Construction rejects a matrix that is not finite and Hermitian within
    ``HERMITIAN_TOL`` or whose spectrum leaves ``[-PSD_TOL, 1 + PSD_TOL]``,
    certified by two Cholesky factorizations (see ``_certify``).  The
    covariant tests are certified from their sector coefficients instead
    (``_from_sectors``).
    """

    def __post_init__(self):
        super().__post_init__()
        _certify(self.mat, "test operator", upper=True)


@dataclass(frozen=True)
class RankOnePOVM:
    """Weighted family {(p_i, u_i)} of unit vectors with sum p_i |u_i><u_i| = I."""

    weights: np.ndarray
    vectors: np.ndarray  # shape (k, dim), rows are unit kets

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != w.size:
            raise ValueError("need one weight per vector")
        if w.min() < 0:
            raise ValueError("POVM weights must be nonnegative")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > POVM_TOL:
            raise ValueError("POVM vectors must be unit")
        gram = (v.conj().T * w) @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        w.setflags(write=False)
        v2 = v.copy()
        v2.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v2)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.weights.size


# ---------------------------------------------------------------------------
# constructors


def max_entangled_ket(d: int, labels=("A", "B")) -> Ket:
    """(1/sqrt(d)) sum_i |i>|i> on a d x d bipartite space."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return Ket(vec, (d, d), labels)


def proj(u) -> np.ndarray:
    """|u><u| as a raw matrix."""
    v = u.vec if isinstance(u, Ket) else np.asarray(u, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def _pair_matrix(sigma) -> tuple[np.ndarray, int]:
    """The matrix of an ``Operator`` or array on a d x d pair with d >= 2, and d."""
    mat = sigma.mat if isinstance(sigma, Operator) else np.asarray(sigma, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("state must be a square matrix")
    d = math.isqrt(mat.shape[0])
    if d * d != mat.shape[0] or d < 2:
        raise ValueError(f"dimension {mat.shape[0]} is not d^2 of a d x d pair")
    return mat, d


def fidelity_defect(sigma) -> float:
    """1 - <phi0| sigma |phi0>, clamped to [0, 1]."""
    mat, d = _pair_matrix(sigma)
    phi = max_entangled_ket(d).vec
    p = 1.0 - float(np.real(phi.conj() @ mat @ phi))
    return min(max(p, 0.0), 1.0)


def isotropic_state(d: int, p: float) -> DensityMatrix:
    """(1-p)|phi0><phi0| + p (I - |phi0><phi0|) / (d^2 - 1); defect is exactly p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"defect p must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return _from_sectors(DensityMatrix, d, [1.0 - p, p / (d * d - 1)], (d, d), ("A", "B"))


# ---------------------------------------------------------------------------
# structural operations


def tensor(*factors):
    """Kronecker product of Kets or of Operators; left factor most significant.

    Factor lists concatenate; colliding labels get positional suffixes.
    """
    if not factors:
        raise ValueError("tensor of nothing")
    if len({isinstance(f, Ket) for f in factors}) != 1:
        raise TypeError("cannot mix Kets and Operators in one tensor product")
    dims = tuple(d for f in factors for d in f.dims)
    labels = [lab for f in factors for lab in f.labels]
    if len(set(labels)) != len(labels):
        labels = [f"{lab}.{i}" for i, lab in enumerate(labels)]
    if isinstance(factors[0], Ket):
        return Ket(reduce(np.kron, [f.vec for f in factors]), dims, tuple(labels))
    # certified again: two in-band factors can leave the band, (1 + 1e-10)^2 > 1 + 1e-10
    cls = next((c for c in (DensityMatrix, TestOperator) if all(isinstance(f, c) for f in factors)),
               Operator)
    return cls(reduce(np.kron, [f.mat for f in factors]), dims, tuple(labels))


def _resolve_indices(spec, labels) -> tuple[int, ...]:
    out = []
    for s in spec:
        if isinstance(s, str):
            if s not in labels:
                raise ValueError(f"unknown factor label {s!r}; have {labels}")
            out.append(labels.index(s))
        else:
            out.append(int(s))
    return tuple(out)


def permute_systems(x, order):
    """Reorder tensor factors; ``order[j]`` is the old position of new factor j.

    Entries of ``order`` may be factor indices or labels.  On operators this is
    conjugation by the corresponding permutation matrix, which keeps
    Hermiticity and the spectrum exactly: the result keeps the input's class
    and adopts its one permuted array, with no second copy or certificate.
    """
    order = _resolve_indices(order, list(x.labels))
    n = len(x.dims)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} factors")
    dims = tuple(x.dims[i] for i in order)
    labels = tuple(x.labels[i] for i in order)
    if isinstance(x, Ket):
        vec = x.vec.reshape(x.dims).transpose(order).reshape(-1)
        return Ket(vec, dims, labels)
    mat = np.empty_like(x.mat)
    mat.reshape(dims + dims)[...] = x.mat.reshape(x.dims + x.dims).transpose(
        list(order) + [n + i for i in order])
    return _adopt(type(x), mat, dims, labels)


def doubled_ket(u, d: int) -> Ket:
    """u (x) conj(u) for a vector u on Alice's k samples, arranged pair-major.

    Factors are (A1, B1, ..., Ak, Bk) with Bob's factor i carrying the
    conjugate of Alice's; ``len(u)`` must be d^k for some k >= 1.
    """
    vec = u.vec if isinstance(u, Ket) else np.asarray(u, dtype=complex).reshape(-1)
    k = _exponent(vec.size, d, "vector length")
    dims = (d,) * (2 * k)
    # entry (a, b) of the outer product is u[a] conj(u[b]), as in np.kron
    outer = (vec[:, None] * vec.conj()).reshape(dims)
    return Ket(outer.transpose(_pair_order(k)), dims, _pair_labels(k))


def partial_trace(a: Operator, keep) -> Operator:
    """Trace out all factors not in ``keep`` (labels or indices); the kept
    factors come out in the order of ``keep``."""
    keep_idx = _resolve_indices(keep, list(a.labels))
    if not keep_idx:
        raise ValueError("keep set must be nonempty")
    if len(set(keep_idx)) != len(keep_idx):
        raise ValueError("duplicate factors in keep set")
    tens = a.mat.reshape(a.dims + a.dims)
    for i in reversed([i for i in range(len(a.dims)) if i not in keep_idx]):
        tens = np.trace(tens, axis1=i, axis2=tens.ndim // 2 + i)
    # the kept axes are left in ascending order; move them into keep's
    kept = sorted(keep_idx)
    order = [kept.index(i) for i in keep_idx]
    tens = tens.transpose(order + [len(kept) + j for j in order])
    dims = tuple(a.dims[i] for i in keep_idx)
    labels = tuple(a.labels[i] for i in keep_idx)
    return Operator(tens.reshape(math.prod(dims), math.prod(dims)), dims, labels)


def mixed_tensor_sum(a: np.ndarray, b: np.ndarray, coeffs) -> np.ndarray:
    """``sum_k coeffs[k] S_k`` on n = len(coeffs) - 1 factors, where S_k is the
    sum of every tensor product with k factors ``b`` and n - k factors ``a``.

    Built right to left: ``h_j`` starts as ``[[coeffs[j]]]``, and each factor
    added on the left sends it to ``kron(a, h_j) + kron(b, h_{j+1})``, so the
    whole sum costs two full-size products, not one per placement.  Each new
    ``h_j`` is written straight into its own 2-D array, through a 4-D view:
    ``kron(a, h_j)``, then ``kron(b, h_{j+1})`` in one scratch array per
    level, added in place, with the same operations as ``np.kron``.  So the
    result is the ``np.kron`` fold's, bit for bit, and it owns its data.
    """
    if len(coeffs) == 0:
        raise ValueError("need at least one coefficient")
    # kron(x, y) is the broadcast product x[:, None, :, None] * y[:, None, :]
    a, b = a[:, None, :, None], b[:, None, :, None]
    h = [np.full((1, 1), c, dtype=complex) for c in coeffs]
    while len(h) > 1:
        shape = (a.shape[0], h[0].shape[0], a.shape[2], h[0].shape[1])
        scratch = np.empty(shape, dtype=complex)
        level = []
        for lo, hi in zip(h, h[1:]):
            out = np.empty((shape[0] * shape[1], shape[2] * shape[3]), dtype=complex)
            view = np.multiply(a, lo[:, None, :], out=out.reshape(shape))
            view += np.multiply(b, hi[:, None, :], out=scratch)
            level.append(out)
        h = level
    return h[0]


@lru_cache(maxsize=None)
def _sector_pattern(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where a sector operator on n pairs can be nonzero, and how each entry is made.

    On one pair, P = |phi0><phi0| and I - P are zero but at 2d^2 - d
    entries (ab, a'b'), in three classes: a = b and a' = b' with ab != a'b'
    (P = P0, I - P = -P0); ab = a'b' with a != b (0 and 1); and
    a = b = a' = b' (P0 and 1 - P0).  Returns the flat positions of
    the (2d^2 - d)^n entries of the n-pair matrix on which every pair is in a
    class; each one's class sequence s, the base-3 number whose digit i is
    the class of pair i (pair 0 most significant); and ``x[i, s]`` and
    ``y[i, s]``, the entries of P and I - P in pair i's class, taken from the
    fold's own matrices so that ``sector_operator`` computes with its values.
    """
    pair = d * d
    diag = np.arange(d) * (d + 1)  # |aa>
    a, b = np.nonzero(~np.eye(d, dtype=bool))
    off = a * d + b  # |ab>, a != b
    rows = np.concatenate([diag[a], off, diag])
    cols = np.concatenate([diag[b], off, diag])
    kind = np.repeat([0, 1, 2], [pair - d, pair - d, d])
    r = c = s = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        r, c, s = ((acc[:, None] * base + digit).ravel()
                   for acc, base, digit in ((r, pair, rows), (c, pair, cols), (s, 3, kind)))
    # P and I - P at one entry of each class: (00, 11), (01, 01) and (00, 00)
    p = proj(max_entangled_ket(d).vec[[0, d + 1, 1]])
    at = ([0, 2, 0], [1, 2, 0])
    classes = np.arange(3**n) // 3 ** np.arange(n - 1, -1, -1)[:, None] % 3
    out = r * pair**n + c, s, p[at][classes], (np.eye(3) - p)[at][classes]
    for arr in out:
        arr.setflags(write=False)
    return out


def sector_operator(d: int, coeffs) -> np.ndarray:
    """``coeffs[k]`` on each charge sector of n = len(coeffs) - 1 pairs, pair-major.

    Sector k is the span of the tensor products in which k pairs lie in the
    orthocomplement of |phi0> and n - k on it, so this is
    ``mixed_tensor_sum(P, I - P, coeffs)`` with P = |phi0><phi0|.  Every
    covariant acceptance operator is of this form.  The sector projectors are
    orthogonal and sum to I, so the spectrum is exactly the set of
    ``coeffs``, ``coeffs[k]`` with multiplicity C(n, k) (d^2 - 1)^k; the
    library's sector-built operators and states are certified from it by
    ``_from_sectors``.

    Only the (2d^2 - d)^n entries of ``_sector_pattern`` can be nonzero, of
    d^{4n}, and an entry's value depends only on its class sequence.  So the
    fold's recursion ``h_j <- x h_j + y h_{j+1}``, pairs from right to left,
    runs once on the 3^n sequences, with the fold's own entries (x, y) of P
    and I - P, and its values are put into one zeroed array.  Each is the
    fold's, bit for bit, for finite ``coeffs``: the result is
    ``np.array_equal`` to ``mixed_tensor_sum(P, I - P, coeffs)``, whose
    entries off the pattern are zeros of either sign, here all +0.  It owns
    its data, and the build holds it and nothing else full-size.
    """
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    if c.size == 0:
        raise ValueError("need at least one coefficient")
    n = c.size - 1
    pos, seq, x, y = _sector_pattern(d, n)
    h = c[:, None]
    for i in reversed(range(n)):
        h = x[i] * h[:-1] + y[i] * h[1:]
    dim = (d * d) ** n
    out = np.zeros((dim, dim), dtype=complex)
    np.put(out, pos, h[0][seq])
    return out


def _from_sectors(cls, d: int, coeffs, dims, labels):
    """``cls(sector_operator(d, coeffs), dims, labels)`` for ``cls`` one of
    ``TestOperator`` and ``DensityMatrix``, certified from its coefficients.

    The spectrum of a sector operator is its set of coefficients (see
    ``sector_operator``), so the bounds ``_certify`` proves by factorization
    are proved here exactly, in O(n) and with no dense arithmetic: the
    coefficients must be real and finite, each in ``[-PSD_TOL, 1 + PSD_TOL]``
    for a test operator, and for a state each at least ``-PSD_TOL`` with
    ``sum_k coeffs[k] C(n, k) (d^2 - 1)^k`` within ``TRACE_TOL`` of 1.  The
    messages are ``_certify``'s and the dataclasses', with the extreme
    eigenvalues named exactly.  The built matrix is exactly Hermitian and
    real: an entry and its transpose have the same class sequence, so
    ``sector_operator`` writes them the same real value.  The certificate is
    skipped, so this builds no workspace and loads no ``scipy.linalg``; and
    ``_adopt`` freezes the fresh matrix itself, not a copy as the public
    constructors do, so the operator owns its one array, the only full-size
    one the build holds.
    """
    what = "test operator" if cls is TestOperator else "density matrix"
    c = np.asarray(coeffs)
    if c.dtype.kind not in "iuf" or not np.isfinite(c).all():
        raise ValueError(f"{what} is not finite and Hermitian within tolerance")
    lo, hi = c.min(), c.max()
    if cls is TestOperator and (lo < -PSD_TOL or hi > 1.0 + PSD_TOL):
        raise ValueError(f"{what} eigenvalues [{lo}, {hi}] leave [0, 1]")
    if cls is DensityMatrix:
        if lo < -PSD_TOL:
            raise ValueError(f"{what} has negative eigenvalue {lo}")
        n = c.size - 1
        trace = sum(float(ck) * math.comb(n, k) * (d * d - 1) ** k for k, ck in enumerate(c))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"{what} trace {trace} is not 1")
    return _adopt(cls, sector_operator(d, c), dims, labels)


def _adopt(cls, mat: np.ndarray, dims, labels):
    """A ``cls`` operator holding ``mat``, a fresh complex square array that
    nothing else holds, frozen in place rather than copied, with its factors
    checked as in any constructor.  ``__post_init__`` does not run, so the
    caller vouches for the class's certificate."""
    mat.setflags(write=False)
    op = object.__new__(cls)
    _settle(op, "mat", mat, dims, labels)
    return op


# ---------------------------------------------------------------------------
# qudit Pauli operators and the Bell basis


def generalized_pauli(d: int) -> tuple[Operator, Operator]:
    """Shift and clock unitaries: X|j> = |j+1 mod d>, Z|j> = e^{2 pi i j / d}|j>."""
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(1, d + 1) % d), np.arange(d)] = 1.0
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return Operator(x, (d,), ("A",)), Operator(z, (d,), ("A",))


def bell_basis(d: int) -> list[Ket]:
    """The d^2 orthonormal vectors ((X^n Z^m) tensor I) |phi0>, row-major in (n, m)."""
    phi0 = max_entangled_ket(d)
    x, z = generalized_pauli(d)
    eye = np.eye(d)
    out = []
    for n in range(d):
        xn = np.linalg.matrix_power(np.asarray(x.mat), n)
        for m in range(d):
            zm = np.linalg.matrix_power(np.asarray(z.mat), m)
            vec = np.kron(xn @ zm, eye) @ phi0.vec
            out.append(Ket(vec, (d, d), phi0.labels))
    return out


# ---------------------------------------------------------------------------
# random instances (Ginibre-based; bit-reproducible for a fixed Generator state)


def _ginibre(
    dim: int, rng: np.random.Generator, count: int = 1, columns: int | None = None
) -> np.ndarray:
    """``count`` complex Ginibre matrices of ``columns`` columns (default
    ``dim``), batch last: shape (dim, columns, count).

    Every real part is drawn first, as ``standard_normal((count, dim, columns))``,
    then every imaginary part, and each is written straight into its half of
    the complex result, so no other complex array is made.
    """
    columns = dim if columns is None else columns
    g = np.empty((dim, columns, count), dtype=complex)
    g.real = rng.standard_normal((count, dim, columns)).transpose(1, 2, 0)
    g.imag = rng.standard_normal((count, dim, columns)).transpose(1, 2, 0)
    return g


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary; see ``haar_columns``."""
    return haar_columns(dim, 1, rng)[:, :, 0]


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries, shape (count, dim, dim): the
    draws of ``haar_columns`` with the batch moved first."""
    return np.ascontiguousarray(haar_columns(dim, count, rng).transpose(2, 0, 1))


def haar_columns(dim: int, count: int, rng: np.random.Generator,
                 columns: int | None = None) -> np.ndarray:
    """The first ``columns`` columns (default all ``dim``) of ``count``
    Haar-distributed unitaries, batch last: ``u[:, j, n]`` is column j of the
    n-th, shape (dim, columns, count).

    Each is a complex dim x columns Ginibre matrix with its columns
    orthonormalized in order.  At ``columns = dim`` that is the Q of its QR
    decomposition with a positive real R diagonal, which is exactly Haar, and
    any fixed ``columns`` columns of a Haar unitary have the law of the same
    steps on a dim x columns Ginibre matrix (Mezzadri, Notices AMS 54, 2007).
    The Gaussians are drawn in the order of ``_ginibre``, so ``columns = dim``
    is the full draw's stream.
    """
    return _orthonormal_columns(_ginibre(dim, rng, count, columns))


def _orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """The columns of each matrix in a batch-last (dim, columns, count) array,
    orthonormalized in order, in place; returns ``a``.

    Classical Gram-Schmidt with each column projected twice against the ones
    before it, which keeps Q unitary to rounding for any input of full rank
    with cond(a) eps < 1 ("twice is enough": Giraud, Langou & Rozloznik,
    2005).  Column j of every matrix is the (dim, count) slice ``a[:, j]``,
    whose rows are contiguous over the batch, so each step is a few
    operations on those rows.  Per 8192 draws at one BLAS thread,
    ``haar_columns`` took 2.1 ms at dim 2, 5.5 at dim 3 and 11 at dim 4, of
    which drawing the Gaussians is 1.4, 3.1 and 4.9 ms.  The same steps on
    batch-first (count, dim) columns took 3.0, 9.4 and 16 ms, and one LAPACK
    QR per matrix 14, 26 and 37 ms.  At dim 8 this is about 1.5x faster than
    QR, and at dim 15 about 1.4x slower.
    """
    for j in range(a.shape[1]):
        v = a[:, j]
        for _ in range(2):
            overlaps = [np.einsum("in,in->n", a[:, i].conj(), v) for i in range(j)]
            for i, r in enumerate(overlaps):
                v -= r * a[:, i]
        norm2 = np.einsum("in,in->n", v.real, v.real) + np.einsum("in,in->n", v.imag, v.imag)
        # numpy's complex-by-real division computes v * (1/s), at three times the cost
        v *= 1.0 / np.sqrt(norm2)
    return a


def random_ket(dims, rng: np.random.Generator) -> Ket:
    dims = tuple(int(d) for d in dims)
    dim = math.prod(dims)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(v / np.linalg.norm(v), dims)


def random_density(dims, rng: np.random.Generator, labels=()) -> DensityMatrix:
    """G G^dag / Tr for a complex Ginibre G."""
    dims = tuple(int(d) for d in dims)
    g = _ginibre(math.prod(dims), rng)[:, :, 0]
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims, labels)


def random_test(dims, rng: np.random.Generator) -> TestOperator:
    """Random Hermitian with spectrum clipped into [0, 1]."""
    dims = tuple(int(d) for d in dims)
    g = _ginibre(math.prod(dims), rng)[:, :, 0]
    h = (g + g.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(h)
    lo, hi = evals.min(), evals.max()
    clipped = (evals - lo) / (hi - lo) if hi > lo else np.clip(evals, 0.0, 1.0)
    return TestOperator((vecs * clipped) @ vecs.conj().T, dims)


def random_rank_one_povm(d: int, rng: np.random.Generator, parts: int = 2) -> RankOnePOVM:
    """Mixture of ``parts`` random orthonormal bases: a d*parts element rank-one POVM."""
    mix = rng.dirichlet(np.ones(parts))
    bases = [haar_unitary(d, rng).T for _ in mix]  # a basis's vectors are a unitary's columns
    return RankOnePOVM(np.repeat(mix, d), np.concatenate(bases))
