"""Group actions on bipartite pair spaces, Haar sampling, and twirling.

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
phase action, which just zeroes matrix blocks between charge sectors.

Every sampled element is a tensor power ``u_1 (x) ... (x) u_copies`` of
single-pair unitaries, so conjugation never forms the dim x dim unitary.
Consecutive copies are merged into blocks of dimension at most 64, and each
block acts on its own row axes and then, conjugated, on its own column axes
of the reshaped operator.  A sample costs ``16 dim^2 sum_b k_b`` real flops
for block dimensions ``k_b``, i.e. ``16 copies d^2 dim^2`` when every block
is one pair (about 0.23 GFLOP at dim 729, against ``16 dim^3`` = 6.2 GFLOP
for the dense product).  Up to dim 64 the single block is the whole unitary
and the product is the dense ``f T f^dag``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import Operator, max_entangled_ket, mixed_tensor_sum, proj

_CHUNK = 4096  # fixed batch size so results depend only on (seed, samples)
# largest block of merged copies; below it one dense product beats per-pair
# contractions of small blocks (measured crossover between dims 64 and 81)
_BLOCK_DIM = 64
# batch-sized complex arrays alive at once in a twirl: a contraction's input
# and output, and, when one block spans the whole space, that unitary batch
# and its conjugate (peak RSS measured at about 4 batches at dim 64, 2 at 729)
_LIVE_BATCHES = 4

KINDS = ("phase", "local", "local_phase", "ortho", "local_independent")


def haar_unitary(dim: int, rng: np.random.Generator, special: bool = False) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-normalized, which makes the distribution exactly
    Haar.  With ``special=True`` the determinant is normalized to 1 (an SU(dim)
    sample).
    """
    return haar_unitaries(dim, 1, rng, special=special)[0]


def haar_unitaries(
    dim: int, count: int, rng: np.random.Generator, special: bool = False
) -> np.ndarray:
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, np.newaxis, :]
    if special:
        det = np.linalg.det(q)
        q = q / (det ** (1.0 / dim))[:, np.newaxis, np.newaxis]
    return q


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
        u = pair_conjugate_unitary(haar_unitaries(d, count, rng, special=True))
        if self.kind == "local_phase":
            u = u @ phase_unitary(rng.uniform(0.0, 2.0 * np.pi, size=count), d)
        return u

    def _blocks(self, count: int, rng: np.random.Generator) -> list[np.ndarray]:
        """``count`` samples of the action as Kronecker factors, left factor first.

        Each batch draws, in order: theta ~ U[0, 2 pi) for ``phase``; SU(d) for
        ``local``; SU(d) then theta for ``local_phase``; U(d^2 - 1) for
        ``ortho``; one SU(d) batch per copy for ``local_independent``.  The
        other kinds use their one factor batch on every copy.  Consecutive
        copies are merged while the block dimension stays <= ``_BLOCK_DIM``.
        """
        factor = self._factor(count, rng)
        blocks = [factor]
        for _ in range(self.copies - 1):
            if self.kind == "local_independent":
                factor = self._factor(count, rng)
            if blocks[-1].shape[-1] * factor.shape[-1] <= _BLOCK_DIM:
                blocks[-1] = _kron_batch(blocks[-1], factor)
            else:
                blocks.append(factor)
        return blocks

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` samples of the action, shape (count, dim, dim), drawn as ``_blocks``."""
        out, *rest = self._blocks(count, rng)
        for block in rest:
            out = _kron_batch(out, block)
        return out


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


def _ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _conjugates(mat: np.ndarray, action: GroupAction, samples: int, rng: np.random.Generator):
    """Batches of f(g) mat f(g)^dag over ``samples`` sampled group elements.

    f(g) is never formed: block b of dimension k, with ``lead`` dimensions
    before it and ``tail`` after, multiplies ``mat.reshape(batch, lead, k,
    tail * dim)`` from the left on the rows, and conj(b) acts on the column
    axes the same way; the last column block is ``x @ b^dag``.  With one
    block this is exactly ``(f @ mat) @ f^dag``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim = action.dim
    if mat.shape[0] != dim:
        raise ValueError(f"operator dim {mat.shape[0]} != action dim {dim}")
    per_sample = dim * dim * 16 * _LIVE_BATCHES
    need, ram = min(_CHUNK, samples) * per_sample, _ram_bytes()
    if need > ram:
        raise ValueError(
            f"{samples} samples at dim {dim} need about {need} bytes per batch, more than "
            f"the {ram} bytes of RAM; at most {ram // per_sample} samples fit"
        )
    for batch in _chunks(samples):
        x, lead = mat[np.newaxis], 1
        for block in action._blocks(batch, rng):
            k = block.shape[-1]
            tail = dim // (lead * k)
            x = block[:, np.newaxis] @ x.reshape(len(x), lead, k, tail * dim)
            if tail == 1:  # one wide product in place of dim * lead k x 1 ones
                x = x.reshape(batch, dim * lead, k) @ block.conj().transpose(0, 2, 1)
            else:
                x = block.conj()[:, np.newaxis] @ x.reshape(batch, dim * lead, k, tail)
            lead *= k
        yield x.reshape(batch, dim, dim)


def _mean_stderr(batches):
    """Mean and standard error over the leading axis of ``batches``; zero error for one sample.

    The mean is the running sum over the count.  Squared deviations are summed
    per batch about the batch mean and merged with Chan's update, so an entry
    every sample shares gets a standard error at rounding level, not the
    residue of a sum-of-squares cancellation.  Each batch is overwritten by
    its deviations, which saves a batch-sized temporary.
    """
    n = 0
    total = m2 = 0.0
    for x in batches:
        k = len(x)
        part = x.sum(axis=0)
        x -= part / k
        m2 = m2 + np.einsum("i...,i...->...", x.real, x.real)
        m2 = m2 + np.einsum("i...,i...->...", x.imag, x.imag)
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

    Accumulation is in sample order with a fixed internal batch size, so the
    result is a deterministic function of (seed, samples).  Each sample is
    conjugated block by block (see ``_conjugates``): ``16 dim^2 sum_b k_b``
    real flops instead of the dense ``16 dim^3``.  A batch whose conjugates
    would not fit in physical RAM raises ``ValueError`` before any draw.
    """
    mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    mean, stderr = _mean_stderr(_conjugates(mat, action, samples, rng))
    return TwirlEstimate(mean, stderr, samples)


@lru_cache(maxsize=None)
def _charge_projectors(d: int, copies: int) -> tuple[np.ndarray, ...]:
    p = proj(max_entangled_ket(d))
    q = np.eye(d * d) - p
    return tuple(mixed_tensor_sum(q, p, copies, k) for k in range(copies + 1))


def phase_twirl(op, d: int) -> np.ndarray:
    """Exact average over the n-fold phase action.

    The action has eigenvalue ``e^{i k theta}`` on the sector spanned by tensor
    products with exactly k factors along the maximally entangled vector, so
    the average keeps the diagonal sector blocks and zeroes the rest.  It is a
    projection, hence idempotent.
    """
    mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    dim = mat.shape[0]
    copies = round(math.log(dim, d * d))
    if (d * d) ** copies != dim:
        raise ValueError(f"dim {dim} is not a power of {d * d}")
    out = np.zeros_like(mat)
    for q in _charge_projectors(d, copies):
        out += q @ mat @ q
    return out


def check_invariance(
    op, action: GroupAction, samples: int, rng: np.random.Generator, tol: float = 1e-10
) -> tuple[bool, float]:
    """Max over sampled g of the entrywise deviation ||f(g) T f(g)^dag - T||."""
    mat = op.mat if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    worst = max(float(np.max(np.abs(c - mat))) for c in _conjugates(mat, action, samples, rng))
    return worst <= tol, worst
