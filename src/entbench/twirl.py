"""Group actions on bipartite pair spaces and twirling.

Five unitary actions on a d x d pair (and their n-fold tensor powers) are
supported:

* ``phase``             -- multiplies the maximally entangled vector by
                           ``e^{i theta}`` and fixes its orthocomplement,
* ``local``             -- ``g (x) conj(g)`` for g in SU(d), simultaneously on
                           every copy,
* ``local_phase``       -- the product of the two actions above,
* ``ortho``             -- a unitary of the (d^2 - 1)-dimensional
                           orthocomplement of the maximally entangled vector,
                           extended by the identity on it,
* ``local_independent`` -- an independent ``g_i (x) conj(g_i)`` on every copy
                           (used for multi-source tests).

``mc_twirl`` is the Monte-Carlo group average used as the verification oracle
for every covariant closed form; ``phase_twirl`` is the exact average over the
n-fold phase action, a mean over n + 1 equally spaced angles.

Every sampled element is a tensor power ``u_1 (x) ... (x) u_copies`` of
single-pair unitaries, so the dim x dim unitary is never formed.  The local
actions are defined with g in SU(d) but sampled from Haar U(d): a Haar U(d)
element is a Haar SU(d) element times the global phase det(g)^(1/d), which
cancels in ``g (x) conj(g)`` and in every ``g|i><i|g^dag``.

One kernel, ``_apply_factors``, contracts a sample's factors with a flat
vector, each factor on its own pair axes: ``8 n d^2`` real flops per factor
and sample on a vector of size n.

* A rank-one input, given as a ``Ket`` v, is twirled as the vectors f v.  A
  batch W of them gives the sum of ``|f v><f v|`` as one GEMM,
  ``W^T conj(W)``, and the sum of the squared moduli as a second,
  ``(|W|^2)^T |W|^2``: ``10 dim^2`` real flops per sample, which dominate at
  large dim (5.3 MFLOP at dim 729, against 0.23 GFLOP to conjugate a dense
  operator there).
* A dense operator T is conjugated as the vector twirl of its row-major
  flattening, since ``vec(f T f^dag) = (f (x) conj(f)) vec(T)``: the same
  kernel applies the factors and then their conjugates to ``vec(T)``, a
  vector of size dim^2 with twice as many pair factors.  That is
  ``16 copies d^2 dim^2`` real flops per sample (about 0.23 GFLOP at dim 729,
  against ``16 dim^3`` = 6.2 GFLOP for the dense product).  At one copy it
  is exactly the dense ``(f @ T) @ f^dag``.

Both paths check their batch's footprint with ``memory.check_fits`` before
any draw, naming the largest ``samples`` that fits, and feed one accumulator
that merges per-batch moments with Chan's pairwise update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .memory import check_fits

# the Haar sampler lives in states, which random_rank_one_povm shares; its
# names stay importable from here as well
from .states import Ket, Operator, haar_unitaries, haar_unitary, max_entangled_ket, proj

_CHUNK = 4096  # fixed batch size so results depend only on (seed, samples)
# batch-sized complex arrays alive at once in a twirl, of (batch, dim) vectors
# or (batch, dim, dim) conjugates: a contraction's input and output, plus
# |W|^2 at half size and one gathered slice of the cancellation guard for
# vectors, or c - T and its modulus in check_invariance.  Peak RSS growth over
# one batch (getrusage, one BLAS thread): 2.0 batches for a dense mc_twirl at
# dims 64, 81 and 729, 2.5 for check_invariance there, and about 2 for a
# vector batch at dim 729
_LIVE_BATCHES = 3
# a vector twirl also budgets arrays of one factor's size that a factor draw
# holds while it is built (ortho: g, b g and b g b^dag), on top of the one
# kept per copy ...
_FACTOR_TEMPS = 3
# ... and dim x dim float64 arrays alive while a batch is accumulated and
# merged, complex ones counting twice (measured 10 at dim 2401)
_LIVE_ACCUMULATORS = 12
# a batch M2 = S2 - |sum|^2/k at or below this share of S2 has lost half its
# digits or more to cancellation, so it is recomputed from explicit deviations
_CANCELLATION = 1e-8

KINDS = ("phase", "local", "local_phase", "ortho", "local_independent")


def phase_unitary(theta, d: int) -> np.ndarray:
    """e^{i theta} on the maximally entangled vector, identity on its complement;
    an array of angles gives a stack of shape ``theta.shape + (d^2, d^2)``."""
    p = proj(max_entangled_ket(d))
    return np.eye(d * d) + (np.exp(1j * np.asarray(theta)) - 1.0)[..., None, None] * p


def pair_conjugate_unitary(g: np.ndarray) -> np.ndarray:
    """g (x) conj(g), stacked over leading axes; it fixes the maximally entangled vector."""
    g = np.asarray(g, dtype=complex)
    return _kron_batch(g, g.conj())


@lru_cache(maxsize=None)
def _orthocomplement_basis(d: int) -> np.ndarray:
    """Isometry (d^2, d^2-1) onto the orthocomplement of |phi0>.

    Columns come from Gram-Schmidt of the computational basis against |phi0>,
    in index order, dropping the one dependent vector; fixed here so that
    embedded unitaries are reproducible.
    """
    phi = max_entangled_ket(d).vec
    cols = [phi]
    for i in range(d * d):
        e = np.zeros(d * d, dtype=complex)
        e[i] = 1.0
        for c in cols:
            e = e - (c.conj() @ e) * c
        n = np.linalg.norm(e)
        if n > 1e-9:
            cols.append(e / n)
    b = np.array(cols[1:]).T
    b.setflags(write=False)
    return b


def orthocomplement_unitary(g: np.ndarray, d: int) -> np.ndarray:
    """Embed a (d^2-1) x (d^2-1) unitary into the orthocomplement of |phi0>."""
    g = np.asarray(g, dtype=complex)
    b = _orthocomplement_basis(d)
    return b @ g @ b.conj().T + proj(max_entangled_ket(d))


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over leading ones."""
    dim = a.shape[-1] * b.shape[-1]
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(out.shape[:-4] + (dim, dim))


@dataclass(frozen=True)
class GroupAction:
    """One of the supported actions, applied as its ``copies``-fold tensor power."""

    kind: str
    d: int
    copies: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}; choose from {KINDS}")
        if self.d < 2 or self.copies < 1:
            raise ValueError("need d >= 2 and copies >= 1")

    @property
    def dim(self) -> int:
        return (self.d * self.d) ** self.copies

    def _factor(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """A batch of ``count`` single-pair unitaries of this action."""
        d = self.d
        if self.kind == "phase":
            return phase_unitary(rng.uniform(0.0, 2.0 * np.pi, size=count), d)
        if self.kind == "ortho":
            return orthocomplement_unitary(haar_unitaries(d * d - 1, count, rng), d)
        u = pair_conjugate_unitary(haar_unitaries(d, count, rng))
        if self.kind == "local_phase":
            u = u @ phase_unitary(rng.uniform(0.0, 2.0 * np.pi, size=count), d)
        return u

    def _factors(self, count: int, rng: np.random.Generator) -> list[np.ndarray]:
        """``count`` samples of the action as one factor batch per copy, left first.

        Each batch draws, in order: theta ~ U[0, 2 pi) for ``phase``; U(d) for
        ``local``; U(d) then theta for ``local_phase``; U(d^2 - 1) for
        ``ortho``; one U(d) batch per copy for ``local_independent``.  The
        other kinds use their one factor batch on every copy.
        """
        if self.kind == "local_independent":
            return [self._factor(count, rng) for _ in range(self.copies)]
        return [self._factor(count, rng)] * self.copies

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` samples of the action, shape (count, dim, dim), drawn as ``_factors``."""
        return reduce(_kron_batch, self._factors(count, rng))


@dataclass(frozen=True)
class TwirlEstimate:
    """Monte-Carlo group average with per-entry standard errors."""

    mean: np.ndarray
    stderr: np.ndarray
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if np.min(self.stderr) < 0:
            raise ValueError("standard errors must be nonnegative")

    def deviation(self, target: np.ndarray) -> float:
        return float(np.max(np.abs(self.mean - np.asarray(target))))

    def within(self, target: np.ndarray, nsigma: float = 5.0, atol: float = 1e-9) -> bool:
        """Entrywise |mean - target| <= nsigma * stderr + atol."""
        dev = np.abs(self.mean - np.asarray(target))
        return bool(np.all(dev <= nsigma * self.stderr + atol))


def _chunks(total: int, size: int = _CHUNK):
    """Batch sizes that split ``total`` items into runs of ``size`` in order."""
    for start in range(0, total, size):
        yield min(size, total - start)


def _check_batch(
    size: int, action: GroupAction, samples: int, per_sample: int, fixed: int = 0
) -> None:
    """Refuse, before any draw, an input of the wrong dimension or a twirl
    whose batch (``per_sample`` bytes a sample plus ``fixed``) exceeds RAM."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim = action.dim
    if size != dim:
        raise ValueError(f"operator dim {size} != action dim {dim}")
    check_fits(f"the batch of a {samples}-sample twirl at dim {dim}", "samples", samples, 1,
               lambda s: min(_CHUNK, s) * per_sample + fixed)


def _apply_factors(vec: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """``(f_1 (x) ... (x) f_n) vec`` per sample of the factor batches, shape (batch, vec.size).

    Factor f_c, of dimension k with ``lead`` dimensions before its axes and
    ``tail`` after, multiplies ``w.reshape(batch, lead, k, tail)`` from the
    left; the last one is ``w @ f_c^T``.  The first factor (lead 1) meets the
    one shared ``vec``, so its whole batch is one 2-D product,
    ``(batch k, k) x (k, tail)``.
    """
    w, lead = vec[np.newaxis], 1
    for factor in factors:
        k = factor.shape[-1]
        tail = vec.size // (lead * k)
        if tail == 1:  # one wide product in place of lead k x 1 ones
            w = w.reshape(len(w), lead, k) @ factor.transpose(0, 2, 1)
        elif lead == 1:  # the shared vec: the whole batch in one 2-D product
            w = (factor.reshape(-1, k) @ w.reshape(k, tail)).reshape(len(factor), k * tail)
        else:
            w = factor[:, np.newaxis] @ w.reshape(len(w), lead, k, tail)
        lead *= k
    return w.reshape(len(w), vec.size)


def _conjugates(mat: np.ndarray, action: GroupAction, samples: int, rng: np.random.Generator):
    """Batches of f(g) mat f(g)^dag over ``samples`` sampled group elements.

    f(g) is never formed: ``vec(f mat f^dag) = (f (x) conj(f)) vec(mat)`` for
    the row-major ``vec``, so the factors of f and then their conjugates are
    applied to ``mat.reshape(-1)`` by ``_apply_factors``.  With one copy this
    is exactly ``(f @ mat) @ f^dag``.
    """
    dim = action.dim
    _check_batch(mat.shape[0], action, samples, dim * dim * 16 * _LIVE_BATCHES)
    for batch in _chunks(samples):
        factors = action._factors(batch, rng)
        conj = _apply_factors(mat.reshape(-1), factors + [f.conj() for f in factors])
        yield conj.reshape(batch, dim, dim)


def _vectors(vec: np.ndarray, action: GroupAction, samples: int, rng: np.random.Generator):
    """Batches of f(g) vec, shape (batch, dim), over ``samples`` sampled group elements."""
    dim, q = action.dim, action.d * action.d
    per_sample = 16 * (_LIVE_BATCHES * dim + (action.copies + _FACTOR_TEMPS) * q * q)
    _check_batch(vec.size, action, samples, per_sample, 8 * _LIVE_ACCUMULATORS * dim * dim)
    for batch in _chunks(samples):
        yield _apply_factors(vec, action._factors(batch, rng))


def _batch_moments(x: np.ndarray):
    """``(count, sum, M2)`` of a batch of samples along its leading axis.

    M2 is the sum of squared moduli of the deviations from the batch mean.
    ``x`` is overwritten by its deviations, which saves a batch-sized temporary.
    """
    k = len(x)
    part = x.sum(axis=0)
    x -= part / k
    m2 = np.einsum("i...,i...->...", x.real, x.real) + np.einsum("i...,i...->...", x.imag, x.imag)
    return k, part, m2


def _outer_moments(w: np.ndarray):
    """``(count, sum, M2)`` of the outer products ``w_s w_s^dag`` of a batch of vectors.

    The sum is ``W^T conj(W)`` and the sum of squared moduli is
    ``S2 = (|W|^2)^T |W|^2``, so M2 = S2 - |sum|^2/k.  That difference cancels
    on an entry every sample shares (one the action fixes); where it is at or
    below ``_CANCELLATION * S2``, M2 is recomputed from the gathered products
    ``w_i conj(w_j)``, ``dim`` entries at a time.
    """
    k, dim = w.shape
    part = w.T @ w.conj()
    a = w.real**2 + w.imag**2
    s2 = a.T @ a
    m2 = s2 - (part.real**2 + part.imag**2) / k
    rows, cols = np.nonzero((m2 <= _CANCELLATION * s2) & (s2 > 0))
    for start in range(0, len(rows), dim):
        i, j = rows[start : start + dim], cols[start : start + dim]
        m2[i, j] = _batch_moments(w[:, i] * w[:, j].conj())[2]
    return k, part, m2


def _mean_stderr(moments):
    """Mean and standard error from per-batch ``(count, sum, M2)`` triples.

    Batches merge with Chan's pairwise update, so an entry every sample shares
    gets a standard error at rounding level, not the residue of a
    sum-of-squares cancellation.  One sample gives zero error.
    """
    n = 0
    total = m2 = 0.0
    for k, part, part_m2 in moments:
        m2 = m2 + part_m2
        if n:
            delta = part / k - total / n
            m2 = m2 + (delta.real**2 + delta.imag**2) * (n * k / (n + k))
        total = total + part
        n += k
    return total / n, np.sqrt(m2 / max(n - 1, 1) / n)


def mc_twirl(
    op, action: GroupAction, samples: int, rng: np.random.Generator
) -> TwirlEstimate:
    """Average f(g) op f(g)^dag over ``samples`` group elements.

    A ``Ket`` v stands for the rank-one operator |v><v|.  It is twirled as
    vectors (see ``_vectors``), ``8 dim d^2 copies`` real flops per sample,
    and accumulated by two GEMMs (see ``_outer_moments``), ``10 dim^2`` more;
    its memory is one batch of vectors and a few dim x dim accumulators.  Any
    other operator is conjugated as the vector twirl of its flattening (see
    ``_conjugates``), ``16 copies d^2 dim^2`` real flops instead of the dense
    ``16 dim^3``, with batches of dim x dim conjugates in memory.  Both paths
    draw the same group elements through one contraction kernel and
    accumulate in sample order with a fixed internal batch size, so the
    result is a deterministic function of (seed, samples).  A batch that
    would not fit in physical RAM raises ``ValueError`` before any draw.
    """
    if isinstance(op, Ket):
        moments = map(_outer_moments, _vectors(op.vec, action, samples, rng))
    else:
        mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
        moments = map(_batch_moments, _conjugates(mat, action, samples, rng))
    mean, stderr = _mean_stderr(moments)
    return TwirlEstimate(mean, stderr, samples)


def phase_twirl(op, d: int) -> np.ndarray:
    """Exact average over the n-fold phase action.

    The action has eigenvalue ``e^{i k theta}`` on the charge sector spanned
    by tensor products with exactly k factors along the maximally entangled
    vector, so it multiplies the block between sectors k and k' by
    ``e^{i (k - k') theta}``.  Since |k - k'| <= n, the mean over the n + 1
    angles ``2 pi j / (n + 1)`` keeps the diagonal blocks and zeroes the rest;
    each angle conjugates ``vec(op)`` through ``_apply_factors``.  It is a
    projection, hence idempotent.
    """
    mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    dim = mat.shape[0]
    copies = round(math.log(dim, d * d))
    if (d * d) ** copies != dim:
        raise ValueError(f"dim {dim} is not a power of {d * d}")
    factors = [phase_unitary(2.0 * np.pi * np.arange(copies + 1) / (copies + 1), d)] * copies
    conj = _apply_factors(mat.reshape(-1), factors + [f.conj() for f in factors])
    return conj.mean(axis=0).reshape(dim, dim)


def check_invariance(
    op, action: GroupAction, samples: int, rng: np.random.Generator, tol: float = 1e-10
) -> tuple[bool, float]:
    """Max over sampled g of the entrywise deviation ||f(g) T f(g)^dag - T||."""
    mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    worst = max(float(np.max(np.abs(c - mat))) for c in _conjugates(mat, action, samples, rng))
    return worst <= tol, worst
