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
cancels in ``g (x) conj(g)`` and in every ``g|i><i|g^dag``.  Every path draws
through ``GroupAction._draws``, so the kernels apply the same elements.

Every operator the library twirls is a rank-one seed d^k |v><v|, so
``mc_twirl`` takes it as the ``Ket`` sqrt(d^k) v and twirls the vectors f v,
batch last: a (dim, batch) array W.  For the phase and local actions each g
and conj(g) acts on its own d-axis of W (``_apply_columns``), so
g (x) conj(g) is never formed: ``16 copies d dim`` real flops per sample, the
first factor one matmul with the shared v, the rest multiply-adds over rows
that run over the batch, and Ph(theta) rank-one updates of v before any g.
``ortho``, and kets of two or more pairs at dim >= 256, apply pair factors
instead, ``8 copies d^2 dim`` flops per sample as per-sample products
(``_apply_factors``), which measured faster there.  Median ``mc_twirl`` times
at one BLAS thread, 8192 samples, against the pair-factor kernel with the
batch first: one-sample d=3 20 -> 8.5 ms, d=8 526 -> 119 ms, two-sample d=2
19 -> 11 ms, qubit-weights 23 -> 11 ms, three-source d=2 73 -> 53 ms.
Forcing either kernel on two-sample d=4 (dim 256) gave 354 ms batch last
against 324 ms in pair factors, and on three-source d=3 (dim 729,
512 samples) 139 against 111 ms; at dim 81 the two were even (73 against
75 ms).

The sum of ``|f v><f v|`` over a batch is one GEMM, ``W W^dag``, and the sum
of the squared moduli a second, ``|W|^2 (|W|^2)^T``: ``10 dim^2`` real flops
per sample, which dominate at large dim (5.3 MFLOP at dim 729).  Every dense
pass after the two GEMMs, turning S2 into M2 with its cancellation guard in
``_outer_moments`` and comparing the estimate with a target in
``TwirlEstimate``, runs in row blocks of ``states._ROW_BLOCK`` entries with
the elementwise operations of the full-size formulas, so the arrays a twirl
leaves are the ones it returns, the mean and the standard error, and every
bit is the full-size formulas'.  The twirl checks its batch's footprint with
``memory.check_fits`` and its sample count with ``memory.check_work`` before
any draw, naming the largest ``samples`` that fits, and merges per-batch
moments with Chan's pairwise update.

The draws of each batch run one batch ahead on one worker thread
(``_prefetch``): while a batch is twirled and accumulated, the next one's
``GroupAction._draws`` fill their arrays, and numpy's ``Generator`` releases
the GIL while it does.  Only the draws run there, never the pair factors
built from them.  The draws keep the same order, so every seeded result is
bit for bit the serial one; the worker is joined before ``mc_twirl``
returns, and a draw must not itself prefetch.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .memory import check_fits, check_work

# the Haar sampler lives in states, which random_rank_one_povm shares; its
# names stay importable from here as well
from .states import (
    Ket,
    _block_rows,
    _exponent,
    haar_columns,
    haar_unitaries,
    haar_unitary,
    max_entangled_ket,
    proj,
)

_CHUNK = 4096  # fixed batch size so results depend only on (seed, samples)
# a twirl budgets (dim, batch) vectors: the three rows of the work buffer of
# ``_apply_columns`` (or a product's input and output), then conj(W) or the
# two gathered rows of the cancellation guard.  Peak RSS growth (getrusage,
# one BLAS thread) over three 4096-sample batches, each drawn while the one
# before is twirled, in (dim, batch) batches with factors and accumulators
# included: 3.4-8.0 on random kets at dims 4-256 and 4.2-6.3 at dims 64-729
# with every entry on the guard (the maximally entangled vector on every
# pair), 0.39-0.88 of the whole budget below
_KET_BATCHES = 5
# a twirl also budgets arrays of one factor's size that the factor draws hold
# while they are built (ortho: g, b g and b g b^dag; U(d): the Ginibre draws)
# and the next batch's draws in flight, on top of the ones kept per copy:
# g (x) conj(g), or g and conj(g).  ortho at one copy, where U(d^2 - 1) draws
# are about factor-sized, holds 4.4, 5.4 and 5.9 factors at d = 2, 3 and 4
# (peak RSS growth over three 4096-sample batches, getrusage) ...
_FACTOR_TEMPS = 6
# ... and dim x dim float64 arrays alive while a batch is accumulated and
# merged, complex ones counting twice: the running sum and M2, a batch's sum
# and M2 (S2, the guard and the gathered indices are formed in M2's array or
# in row blocks), and a merge's running mean, 8 in all.  Peak RSS growth
# (getrusage, one BLAS thread, random kets on two pairs) over 2 and 10 merged
# 64-sample batches is 8.28-8.33 at dim 2401, 8.52-8.61 at dim 1296 and
# 9.12-9.33 at dim 625 (8.40-8.45, 9.51 and 10.1 with S2 and the guard
# full-size); tracemalloc, which sees no allocator slack, counts 8.01 at
# dim 256 (8.16 then)
_LIVE_ACCUMULATORS = 10
# a batch M2 = S2 - |sum|^2/k at or below this share of S2 has lost half its
# digits or more to cancellation, so it is recomputed from explicit deviations
_CANCELLATION = 1e-8
# a ket of two or more pairs at or above this dimension is twirled by pair
# factors g (x) conj(g), applied as per-sample products (``_apply_factors``)
_PAIR_PRODUCT_DIM = 256

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

    def _draws(self, count: int, rng: np.random.Generator):
        """The draws of ``count`` samples, the only ones a twirl makes, in order:
        the Haar unitary batches ``us``, batch last (``haar_columns``), U(d) or
        U(d^2 - 1) for ``ortho``, one per copy for ``local_independent``, one
        every copy shares for the other kinds and none for ``phase``; then
        ``theta`` ~ U[0, 2 pi) for ``phase`` and ``local_phase``, else None.
        """
        kind = self.kind
        batches = {"phase": 0, "local_independent": self.copies}.get(kind, 1)
        k = self.d * self.d - 1 if kind == "ortho" else self.d
        us = [haar_columns(k, count, rng) for _ in range(batches)]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count) if kind in ("phase", "local_phase") else None
        return us, theta

    def _factors(self, us: list[np.ndarray], theta) -> list[np.ndarray]:
        """The samples that ``_draws`` returned as ``(us, theta)``, as one
        batch-first pair-factor batch per copy, left first: g (x) conj(g) Ph(theta)."""
        d = self.d
        gs = [np.ascontiguousarray(u.transpose(2, 0, 1)) for u in us]  # haar_unitaries' layout
        if self.kind == "ortho":
            factors = [orthocomplement_unitary(gs[0], d)]
        else:
            factors = [pair_conjugate_unitary(g) for g in gs]
        if theta is not None:
            factors = [f @ phase_unitary(theta, d) for f in factors] or [phase_unitary(theta, d)]
        return factors if self.kind == "local_independent" else factors * self.copies

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` samples of the action, shape (count, dim, dim), drawn as ``_factors``."""
        return reduce(_kron_batch, self._factors(*self._draws(count, rng)))


@dataclass(frozen=True)
class TwirlEstimate:
    """Monte-Carlo group average with per-entry standard errors.

    ``deviation`` and ``within`` compare it with a target ``states._ROW_BLOCK``
    entries at a time (``_row_blocks``), with the one-shot formulas'
    elementwise operations, so they make no array of the mean's size and
    return what the one-shot formulas return, bit for bit: a NaN entry makes
    the deviation NaN and ``within`` False.
    """

    mean: np.ndarray
    stderr: np.ndarray
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if np.min(self.stderr) < 0:
            raise ValueError("standard errors must be nonnegative")

    def deviation(self, target: np.ndarray) -> float:
        """max |mean - target| over the entries."""
        # np.maximum, unlike the builtin max, keeps a NaN from any block
        return float(reduce(np.maximum, (np.max(np.abs(m - t))
                                         for m, t in _row_blocks(self.mean, target))))

    def within(self, target: np.ndarray, nsigma: float = 5.0, atol: float = 1e-9) -> bool:
        """Entrywise |mean - target| <= nsigma * stderr + atol."""
        return all(bool(np.all(np.abs(m - t) <= nsigma * s + atol))
                   for m, t, s in _row_blocks(self.mean, target, self.stderr))


def _row_blocks(*arrays):
    """Matching blocks of leading-axis rows of ``arrays`` broadcast together,
    about ``states._ROW_BLOCK`` entries each; a 0-d result is one row."""
    arrays = [np.atleast_1d(a) for a in np.broadcast_arrays(*arrays)]
    count = len(arrays[0])
    rows = _block_rows(arrays[0].size // max(count, 1))
    for start in range(0, count, rows):
        yield tuple(a[start : start + rows] for a in arrays)


def _chunks(total: int, size: int | None = None):
    """Batch sizes that split ``total`` items into runs of ``size`` in order;
    ``size`` defaults to ``_CHUNK`` as it stands when the run starts."""
    size = _CHUNK if size is None else size
    for start in range(0, total, size):
        yield min(size, total - start)


def _prefetch(draw, batches):
    """``draw(i, batch)`` for each batch size of ``batches`` in order, drawn one
    batch ahead: batch i + 1 is drawn on one worker thread while the caller
    consumes batch i.

    Each draw starts once the one before it has returned, so a generator that
    only the draws touch makes the same calls in the same order as a serial
    loop, and every seeded result is the same, bit for bit.  numpy's
    ``Generator`` releases the GIL while it fills an array, so a draw overlaps
    the caller's kernels.  A run of one batch draws inline and starts no
    thread.  The worker lives for one run and is joined before the run ends:
    when the caller closes it early, the draw in flight is waited for first,
    and a draw that raises re-raises in the caller.  So the caller must not
    touch the draws' generator while the run is open, must close a run it may
    leave mid-stream (``contextlib.closing``), and a draw must not itself
    prefetch.
    """
    batches = list(batches)
    if len(batches) < 2:
        yield from map(draw, range(len(batches)), batches)
        return
    from concurrent.futures import ThreadPoolExecutor  # at the first run that needs it

    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(draw, 0, batches[0])
        for i in range(1, len(batches)):
            drawn = ahead.result()
            ahead = worker.submit(draw, i, batches[i])
            yield drawn
        yield ahead.result()


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


def _kets(vec: np.ndarray, action: GroupAction, samples: int, rng: np.random.Generator):
    """Batches of f(g) vec, batch last: shape (dim, batch), over ``samples``
    sampled group elements.

    The draws of ``GroupAction._draws`` run one batch ahead (``_prefetch``);
    everything built from them is built here, as each batch is consumed.
    ``ortho``, and a vector of two or more pairs at dim >= ``_PAIR_PRODUCT_DIM``,
    build the pair factors of ``GroupAction._factors`` and apply them through
    ``_apply_factors``.  Every other vector is twirled in a buffer that every
    batch reuses, so each batch must be consumed before the next is asked
    for: Ph(theta), the rightmost factor, meets the shared vec first
    (``_phase_kets``); then each g and conj(g) acts on its own d-axis
    (``_apply_columns``).  A caller that may stop mid-stream closes the
    generator, which joins the draw worker.
    """
    dim, q, copies = action.dim, action.d * action.d, action.copies
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if vec.size != dim:
        raise ValueError(f"ket dim {vec.size} != action dim {dim}")
    pairwise = action.kind == "ortho" or (copies > 1 and dim >= _PAIR_PRODUCT_DIM)
    # complex factor entries a sample holds: q x q pair factors, or d x d ones
    factor_entries = ((copies + _FACTOR_TEMPS) * q if pairwise else 2 * copies + _FACTOR_TEMPS) * q
    per_sample, fixed = 16 * (_KET_BATCHES * dim + factor_entries), 8 * _LIVE_ACCUMULATORS * dim * dim
    check_fits(f"the batch of a {samples}-sample twirl at dim {dim}", "samples", samples, 1,
               lambda s: min(_CHUNK, s) * per_sample + fixed)
    check_work(f"a {samples}-sample twirl", "samples", samples)
    draws = _prefetch(lambda i, batch: action._draws(batch, rng), _chunks(samples))
    with closing(draws):
        if pairwise:
            for us, theta in draws:
                w = _apply_factors(vec, action._factors(us, theta)).T
                del us, theta  # released before the batch is consumed
                yield w
            return
        work = np.empty((3, dim * min(samples, _CHUNK)), dtype=complex)
        for us, theta in draws:
            factors = [f for g in us for f in (g, g.conj())]
            if action.kind != "local_independent":  # the same g on every copy
                factors *= copies
            w = vec if theta is None else _phase_kets(vec, action.d, copies, theta,
                                                      work[0, : dim * len(theta)])
            w = _apply_columns(w, factors, work)
            del us, theta, factors  # released before the batch is consumed
            yield w


def _phase_kets(
    vec: np.ndarray, d: int, copies: int, theta: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Ph(theta) on every pair of vec, one angle per sample, written to the
    flat buffer ``out`` as shape (dim, count).

    Ph(theta) = I + (e^{i theta} - 1) P with P = |phi><phi|, so the product
    over the pairs is the sum over m of (e^{i theta} - 1)^m y_m, where y_m sums
    P_S vec over the sets S of m pairs.  The y_m come from rank-one updates of
    the shared vec, pair by pair, and the batch from one
    ``(dim, copies + 1) x (copies + 1, count)`` product.
    """
    phi, q = max_entangled_ket(d).vec, d * d
    ys = [vec]
    for c in range(copies):
        projected = [(phi[:, None] * (phi.conj() @ y.reshape(q**c, q, -1))[:, None]).reshape(-1)
                     for y in ys]
        ys = [a + b for a, b in zip([*ys, 0], [0, *projected])]
    powers = np.vander(np.exp(1j * theta) - 1.0, copies + 1, increasing=True)
    return np.matmul(np.array(ys).T, powers.T, out=out.reshape(vec.size, len(theta)))


def _apply_columns(w: np.ndarray, factors: list[np.ndarray], work: np.ndarray) -> np.ndarray:
    """``(f_1 (x) ... (x) f_n) w`` per sample, batch last: shape (dim, batch).

    Each factor is a (k, k, batch) stack on its own k-axis of w, ``8 k``
    real flops per entry of w and sample.  A 1-D w is one vector every
    sample shares, so the first factor meets it as one matmul,
    ``(rest, k) x (k, k, batch)``.  Each later factor, with ``lead``
    dimensions before its axis and ``tail`` after, is k^2 multiply-adds of
    (lead, tail, batch) slices whose rows run over the batch.

    ``work`` is a (3, n) complex array with n >= dim batch.  Its rows 0 and 1
    hold w and its image in turn, and row 2 one term; a 2-D w must be row 0.
    The result is a view of row 0 or 1.
    """
    if not factors:
        return w
    dim, batch = w.shape[0], factors[0].shape[-1]
    w_buf, out, spare = (row[: dim * batch] for row in work)
    lead = 1
    if w.ndim == 1:
        f, factors = factors[0], factors[1:]
        lead = len(f)
        np.matmul(w.reshape(lead, -1).T, f, out=w_buf.reshape(lead, -1, batch))
    w = w_buf
    for f in factors:
        k = len(f)
        tail = dim // (lead * k)
        src, dst = w.reshape(lead, k, tail, batch), out.reshape(lead, k, tail, batch)
        term = spare[: dim * batch // k].reshape(lead, tail, batch)
        for i in range(k):
            row = dst[:, i]
            np.multiply(src[:, 0], f[i, 0], out=row)
            for j in range(1, k):
                np.add(row, np.multiply(src[:, j], f[i, j], out=term), out=row)
        w, out = out, w
        lead *= k
    return w.reshape(dim, batch)


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
    """``(count, sum, M2)`` of the outer products ``w_s w_s^dag`` of a batch-last
    (dim, count) batch of vectors.

    The sum is ``W W^dag`` and the sum of squared moduli is
    ``S2 = |W|^2 (|W|^2)^T``, so M2 = S2 - |sum|^2/k.  That difference cancels
    on an entry every sample shares (one the action fixes); where it is at or
    below ``_CANCELLATION * S2``, M2 is recomputed from the gathered products
    ``w_i conj(w_j)``, at most ``dim`` entries at a time.  The sum and M2 are
    the only dim x dim arrays: S2 is written into M2's array by one GEMM, and
    then, ``states._ROW_BLOCK`` entries at a time, each block of S2 is copied
    out and its rows of M2, of the guard and of the gathered products are
    formed, with the operations, in the order, of the formulas with full-size
    temporaries, so every bit is theirs.
    """
    dim, k = w.shape
    part = w @ w.conj().T
    a = np.square(w.real)
    a += np.square(w.imag)
    m2 = np.matmul(a, a.T)  # S2, turned into M2 block by block
    del a
    rows = _block_rows(dim)
    scratch = np.empty((min(rows, dim), dim))
    for start in range(0, dim, rows):
        block = slice(start, start + rows)
        m2_rows = m2[block]
        s2_rows = scratch[: len(m2_rows)]
        np.copyto(s2_rows, m2_rows)
        np.square(part.real[block], out=m2_rows)
        m2_rows += np.square(part.imag[block])
        m2_rows /= k
        np.subtract(s2_rows, m2_rows, out=m2_rows)
        guard = s2_rows > 0
        s2_rows *= _CANCELLATION
        guard &= m2_rows <= s2_rows
        gathered_rows, gathered_cols = np.nonzero(guard)
        gathered_rows += start
        for first in range(0, len(gathered_rows), dim):
            i, j = gathered_rows[first : first + dim], gathered_cols[first : first + dim]
            products = w[j]
            np.conjugate(products, out=products)
            products *= w[i]
            m2[i, j] = _batch_moments(products.T)[2]
    return k, part, m2


def _mean_stderr(moments):
    """Mean and standard error from per-batch ``(count, sum, M2)`` triples.

    Batches merge with Chan's pairwise update, so an entry every sample shares
    gets a standard error at rounding level, not the residue of a
    sum-of-squares cancellation.  One sample gives zero error.  Dividing by a
    count is written as multiplying by its reciprocal, which is what numpy's
    complex-by-real division computes, at half the cost.

    The triples are consumed: the first batch's sum and M2 become the running
    totals and then the results, and each later batch's sum and M2 hold its
    difference of means and that difference's squared modulus, so a merge
    makes one array, the running mean, and nothing outlives it but the
    totals.  The operations and their order are those of the update written
    with temporaries, so every bit is the same.
    """
    moments = iter(moments)
    n, total, m2 = next(moments)
    total, m2 = np.asarray(total), np.asarray(m2)  # 0-d for a batch of scalars
    for k, part, square in moments:
        part, square = np.asarray(part), np.asarray(square)
        m2 += square
        mean = total * (1.0 / n)
        total += part
        part *= 1.0 / k
        part -= mean
        np.square(part.real, out=square)
        if np.iscomplexobj(part):  # a real delta's imaginary term is +0, which moves no bit
            square += np.square(part.imag, out=part.imag)
        square *= n * k / (n + k)
        m2 += square
        n += k
        del mean, part, square  # freed before the next batch is drawn
    total *= 1.0 / n
    m2 /= max(n - 1, 1)
    m2 /= n
    return total, np.sqrt(m2, out=m2)


def mc_twirl(
    ket: Ket, action: GroupAction, samples: int, rng: np.random.Generator
) -> TwirlEstimate:
    """Average f(g) |v><v| f(g)^dag over ``samples`` group elements, where
    ``ket`` is the ``Ket`` v.

    v is twirled as vectors, batch last (see ``_kets``), ``16 copies d dim``
    real flops per sample for the phase and local actions, and accumulated by
    two GEMMs (see ``_outer_moments``), ``10 dim^2`` more; its memory is a few
    batches of vectors and a few dim x dim accumulators.  It accumulates in
    sample order with a fixed internal batch size, so the result is a
    deterministic function of (seed, samples).  Any input other than a
    ``Ket`` raises ``TypeError``, and a batch that would not fit in physical
    RAM or more than ``memory.MAX_DRAWS`` samples ``ValueError``, before any
    draw.
    """
    if not isinstance(ket, Ket):
        raise TypeError(f"mc_twirl twirls a Ket, got {type(ket).__name__}")
    with closing(_kets(ket.vec, action, samples, rng)) as kets:
        mean, stderr = _mean_stderr(map(_outer_moments, kets))
    return TwirlEstimate(mean, stderr, samples)


def phase_twirl(op: np.ndarray, d: int) -> np.ndarray:
    """Exact average over the n-fold phase action of the matrix ``op``.

    The action has eigenvalue ``e^{i k theta}`` on the charge sector spanned
    by tensor products with exactly k factors along the maximally entangled
    vector, so it multiplies the block between sectors k and k' by
    ``e^{i (k - k') theta}``.  Since |k - k'| <= n, the mean over the n + 1
    angles ``2 pi j / (n + 1)`` keeps the diagonal blocks and zeroes the rest;
    each angle conjugates ``vec(op)`` through ``_apply_factors``.  It is a
    projection, hence idempotent.
    """
    mat = np.asarray(op, dtype=complex)
    dim = mat.shape[0]
    copies = _exponent(dim, d * d, "dim")
    factors = [phase_unitary(2.0 * np.pi * np.arange(copies + 1) / (copies + 1), d)] * copies
    conj = _apply_factors(mat.reshape(-1), factors + [f.conj() for f in factors])
    return conj.mean(axis=0).reshape(dim, dim)
