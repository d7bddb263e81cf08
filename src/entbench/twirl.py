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

``doubled_twirl`` and ``mc_twirl`` are the Monte-Carlo group averages used as
the verification oracle for every covariant closed form; ``phase_twirl`` is the
exact average over the n-fold phase action, a mean over n + 1 equally spaced
angles.

Every sampled element is a tensor power ``u_1 (x) ... (x) u_copies`` of
single-pair unitaries, so the dim x dim unitary is never formed.  The local
actions are defined with g in SU(d).  At d = 2 a whole g is drawn in SU(2):
the unit quaternion [[a, -conj(b)], [b, conj(a)]] of one uniform column
(a, b) (``_su2``), four normals a sample and no Gram-Schmidt.  At d >= 3,
and wherever only leading columns are drawn, g comes from Haar U(d): a Haar
U(d) element is a Haar SU(d) element times a global phase, which cancels in
``g (x) conj(g)`` and in every ``g|i><i|g^dag``, so the twirl's law is the
same either way.  Every path draws through ``GroupAction._draws``, so the
kernels apply the same elements.

Every operator the library twirls is a doubled seed d^k |v><v| with
v = u (x) conj(u), pair-major, for a vector u on k sites, under ``local``,
``local_independent`` or ``local_phase``: the ``one-sample``, ``two-sample``,
``three-source`` and ``qubit-weights`` targets of ``twirl-verify`` and
``quantum.sequential_covariant_operator``.  ``doubled_twirl`` takes u and
twirls y = (g_1 (x) ... (x) g_k) u, d^k entries a sample with g alone
(``_apply_columns`` on (d, r, batch) columns), then writes the vectors
sqrt(d^k) y (x) conj(y), batch last, by one broadcast product, and applies
Ph(theta), which commutes with g (x) conj(g), as a rank-one update of each
pair's diagonal.  Only the r columns of each g that u's support reaches are
drawn (r = 1 + the largest basis index u uses on any site): any r columns of
a Haar unitary have the law of r orthonormalized Ginibre columns, and at
r = d the draws are ``mc_twirl``'s bit for bit.  ``one-sample`` (u = e_0)
draws one column of d, the sequential seed two; the others reach every
column, so their results are ``mc_twirl``'s on the doubled ``Ket`` to
rounding.

``mc_twirl`` twirls any ``Ket`` v, under every kind: the ``ortho`` and
``phase`` actions, and the tests' oracles; no command reaches it.  It twirls
the vectors f v, batch last, in ``doubled_twirl``'s kernel
(``_apply_columns``): g and conj(g) on the two d-axes of every pair,
``16 copies d dim`` real flops per sample, or the (d^2, d^2) ``ortho``
unitary on each pair's axis, ``8 copies d^2 dim``; then Ph(theta) on each
pair's diagonal (``_phase_pairs``).

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
the GIL while it does.  Only the draws run there, never the factors built
from them.  The draws keep the same order, so every seeded result is
bit for bit the serial one; the worker is joined before a twirl returns, and
a draw must not itself prefetch.  Both twirls accumulate their batches of
vectors alike (``_average``).
"""

from __future__ import annotations

import math
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
# ``_apply_columns``, then conj(W) and |W|^2, or the guard's gathered rows.
# tracemalloc peaks of ``mc_twirl`` over three 4096-sample batches, each
# drawn while the one before is twirled, less the accumulators' budget, are
# 3.6-5.1 vectors on random kets at dims 81, 256 and 729 where the factors
# are small (the ``phase`` kind, whose fixed entries go to the guard, at the
# top); peak RSS growth (getrusage, one BLAS thread) 3.0-4.6.  With every
# kind's factors, ortho's q x q ones too, the peaks are 0.48-0.92 of the
# whole budget below
_KET_BATCHES = 5
# a twirl also budgets arrays of one factor's size that the factor draws hold
# while they are built (ortho: g, b g and b g b^dag; U(d): the Ginibre draws)
# and the next batch's draws in flight, on top of the ones kept: g and conj(g)
# per copy, or the one ortho unitary.  ortho at one copy, where U(d^2 - 1)
# draws are about factor-sized, holds 3.5, 3.9 and 4.1 factors, the kept one
# included, beyond five vectors at d = 2, 3 and 4 (tracemalloc over three
# 4096-sample batches; getrusage 3.1, 3.8 and 4.1) ...
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
# a doubled twirl budgets (dim, batch) vectors: the doubled vectors, then
# conj(W) and |W|^2, or the guard's two gathered rows, in ``_outer_moments``;
# and three (d^k, batch) rows for y, and the drawn columns as a twirl's
# factors (``_doubled_footprint``)
_DOUBLED_BATCHES = 3

KINDS = ("phase", "local", "local_phase", "ortho", "local_independent")
# the kinds ``doubled_twirl`` takes: g (x) conj(g) on every pair, each with
# Ph(theta) for ``local_phase``
DOUBLED_KINDS = ("local", "local_phase", "local_independent")


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


def _su2(column: np.ndarray) -> np.ndarray:
    """The SU(2) elements [[a, -conj(b)], [b, conj(a)]] of a batch-last
    (2, 1, count) stack of unit columns (a, b), shape (2, 2, count).

    A unit quaternion is one uniform point of S^3, so a uniform column gives
    exactly a Haar SU(2) element: four normals a sample and no Gram-Schmidt
    (Mezzadri, Notices AMS 54, 2007).
    """
    a, b = column[:, 0]
    g = np.empty((2, 2, column.shape[-1]), dtype=complex)
    g[0, 0], g[1, 0] = a, b
    g[0, 1], g[1, 1] = -b.conj(), a.conj()
    return g


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

    def _draws(self, count: int, rng: np.random.Generator, columns: int | None = None):
        """The draws of ``count`` samples, the only ones a twirl makes, in order:
        the Haar unitary batches ``us``, batch last (``haar_columns``), U(d) or
        U(d^2 - 1) for ``ortho``, one per copy for ``local_independent``, one
        every copy shares for the other kinds and none for ``phase``; then
        ``theta`` ~ U[0, 2 pi) for ``phase`` and ``local_phase``, else None.
        With ``columns``, each batch holds only the first ``columns`` columns
        of its unitaries; the default, all of them, is the full draws' stream.

        A whole g of the ``DOUBLED_KINDS`` at d = 2 is drawn as a Haar SU(2)
        element (``_su2``): its first column is the one-column draw, so one
        and two columns consume the same stream, and the global phase a Haar
        U(2) element adds cancels in g (x) conj(g), so the twirl's law is the
        same.
        """
        kind, d = self.kind, self.d
        batches = {"phase": 0, "local_independent": self.copies}.get(kind, 1)
        if kind in DOUBLED_KINDS and d == 2 and columns in (None, 2):
            us = [_su2(haar_columns(2, count, rng, 1)) for _ in range(batches)]
        else:
            k = d * d - 1 if kind == "ortho" else d
            us = [haar_columns(k, count, rng, columns) for _ in range(batches)]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count) if kind in ("phase", "local_phase") else None
        return us, theta

    def _factors(self, us: list[np.ndarray], theta) -> list[np.ndarray]:
        """The samples that ``_draws`` returned as ``(us, theta)``, as one
        batch-first pair-factor batch per copy, left first: g (x) conj(g) Ph(theta)."""
        d = self.d
        gs = [np.ascontiguousarray(u.transpose(2, 0, 1)) for u in us]  # batch first
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


def _kets(vec: np.ndarray, action: GroupAction, samples: int, rng: np.random.Generator):
    """Batches of f(g) vec, batch last: shape (dim, batch), over ``samples``
    sampled group elements.

    The draws of ``GroupAction._draws`` run one batch ahead (``_prefetch``);
    everything built from them is built here, as each batch is consumed, in a
    buffer that every batch reuses, so each batch must be consumed before the
    next is asked for.  Each factor acts on its own axis of vec
    (``_apply_columns``): g and conj(g) on the two d-axes of every pair, or
    the ``ortho`` unitary, a (d^2, d^2, batch) stack, on every pair's axis;
    the ``phase`` kind copies vec into the buffer.  Ph(theta) commutes with
    g (x) conj(g), so it acts last (``_phase_pairs``).  A caller that may stop
    mid-stream closes the generator, which joins the draw worker.
    """
    d, dim, copies = action.d, action.dim, action.copies
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if vec.size != dim:
        raise ValueError(f"ket dim {vec.size} != action dim {dim}")
    # a sample's factors: g and conj(g) on every copy, or the one q x q ortho
    # unitary, each side x side, and the temporaries of their draws
    side, held = (d * d, 1) if action.kind == "ortho" else (d, 2 * copies)
    per_sample = 16 * (_KET_BATCHES * dim + (held + _FACTOR_TEMPS) * side * side)
    check_fits(f"the batch of a {samples}-sample twirl at dim {dim}", "samples", samples, 1,
               lambda s: min(_CHUNK, s) * per_sample + 8 * _LIVE_ACCUMULATORS * dim * dim)
    check_work(f"a {samples}-sample twirl", "samples", samples)
    draws = _prefetch(lambda i, batch: action._draws(batch, rng), _chunks(samples))
    with closing(draws):
        work = np.empty((3, dim * min(samples, _CHUNK)), dtype=complex)
        for us, theta in draws:
            if action.kind == "ortho":
                factors = [orthocomplement_unitary(us[0].transpose(2, 0, 1), d).transpose(1, 2, 0)]
            else:
                factors = [f for g in us for f in (g, g.conj())]
            if action.kind != "local_independent":  # the same g on every copy
                factors *= copies
            if factors:
                w = _apply_columns(vec, factors, work)
            else:  # phase
                w = work[0, : dim * len(theta)].reshape(dim, -1)
                w[...] = vec[:, np.newaxis]
            if theta is not None:
                _phase_pairs(w, d, copies, theta)
            del us, theta, factors  # released before the batch is consumed
            yield w


def _doubled_footprint(action: GroupAction, columns: int, samples: int) -> int:
    """Bytes a ``samples``-sample ``doubled_twirl`` holds at its peak, drawing
    ``columns`` columns of each g: its batch's vectors and drawn columns (see
    ``_DOUBLED_BATCHES`` and ``_FACTOR_TEMPS``) and the accumulators of
    ``_LIVE_ACCUMULATORS``."""
    d, q, dim = action.d, action.d**action.copies, action.dim
    batches = action.copies if action.kind == "local_independent" else 1
    per_sample = 16 * (3 * q + _DOUBLED_BATCHES * dim + (batches + _FACTOR_TEMPS) * d * columns)
    return min(_CHUNK, samples) * per_sample + 8 * _LIVE_ACCUMULATORS * dim * dim


def _doubled_kets(u, action: GroupAction, samples: int, rng: np.random.Generator):
    """Batches of the doubled seed sqrt(d^k) y (x) conj(y) with y = G u,
    pair-major and batch last: shape (dim, batch), over ``samples`` sampled
    group elements, times Ph(theta) on every pair for ``local_phase``.

    G is g (x) ... (x) g, or g_1 (x) ... (x) g_k for ``local_independent``.
    u's support reaches only the first r basis vectors of each site, so only
    those r columns of each g are drawn (``GroupAction._draws``) and u is cut
    to its (r, ..., r) block; at r = d the draws are ``mc_twirl``'s.  y comes
    from ``_apply_columns`` on (d, r, batch) factors, d^k entries a sample,
    and one broadcast product writes the doubled vectors into a buffer every
    batch reuses, so each batch must be consumed before the next is asked
    for.  Ph(theta) commutes with g (x) conj(g), so it acts last
    (``_phase_pairs``).  The guards run before any draw; a caller that may
    stop mid-stream closes the generator, which joins the draw worker.
    """
    if action.kind not in DOUBLED_KINDS:
        raise ValueError(f"a doubled twirl takes the kinds {DOUBLED_KINDS}, not {action.kind!r}")
    d, copies, dim, q = action.d, action.copies, action.dim, action.d**action.copies
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.size != q:
        raise ValueError(f"vector length {u.size} != d^copies = {q}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    support = np.argwhere(u.reshape((d,) * copies))
    if not len(support):
        raise ValueError("the zero vector has no doubled seed")
    columns = 1 + int(support.max())
    u = u.reshape((d,) * copies)[(slice(columns),) * copies].reshape(-1)
    check_fits(f"the batch of a {samples}-sample twirl at dim {dim}", "samples", samples, 1,
               lambda s: _doubled_footprint(action, columns, s))
    check_work(f"a {samples}-sample twirl", "samples", samples)
    draws = _prefetch(lambda i, batch: action._draws(batch, rng, columns), _chunks(samples))
    with closing(draws):
        most = min(samples, _CHUNK)
        work, doubled = np.empty((3, q * most), dtype=complex), np.empty(dim * most, dtype=complex)
        # y on the axes (a_1, 1, ..., a_k, 1) meets conj(y) on (1, b_1, ..., 1, b_k)
        alice, bob, pairs = (d, 1) * copies, (1, d) * copies, (d,) * (2 * copies)
        for us, theta in draws:
            batch = us[0].shape[-1]
            y = _apply_columns(u, us if action.kind == "local_independent" else us * copies, work)
            conj_y = np.conjugate(y, out=work[2, : q * batch].reshape(q, batch))
            y *= math.sqrt(q)
            w = doubled[: dim * batch].reshape(dim, batch)
            np.multiply(y.reshape(alice + (batch,)), conj_y.reshape(bob + (batch,)),
                        out=w.reshape(pairs + (batch,)))
            if theta is not None:
                _phase_pairs(w, d, copies, theta)
            del us, theta, y, conj_y  # released before the batch is consumed
            yield w


def _phase_pairs(w: np.ndarray, d: int, copies: int, theta: np.ndarray) -> None:
    """Ph(theta) on every pair of the batch-last (dim, batch) w, in place, one
    angle a sample.

    Ph(theta) = I + (e^{i theta} - 1) |phi><phi|, and <phi| on a pair is the
    sum of its d diagonal entries over sqrt(d), so each pair adds its sector
    trace, times (e^{i theta} - 1)/d, onto its diagonal.
    """
    scale = (np.exp(1j * theta) - 1.0) / d
    for c in range(copies):
        sectors = w.reshape(d ** (2 * c), d * d, d ** (2 * (copies - c - 1)), len(theta))
        diagonal = sectors[:, :: d + 1]
        trace = diagonal.sum(axis=1)
        trace *= scale
        diagonal += trace[:, np.newaxis]


def _apply_columns(w: np.ndarray, factors: list[np.ndarray], work: np.ndarray) -> np.ndarray:
    """``(f_1 (x) ... (x) f_n) w`` per sample, batch last: shape (size, batch).

    Each factor is an (m, k, batch) stack that maps its own k-axis of w to an
    m-axis, ``8 m`` real flops per entry of w and sample: g or its leading
    columns, conj(g), the (d^2, d^2) ortho unitary or Ph, one per sample.  A
    1-D w is one vector every sample shares, so the first factor meets it as
    one matmul, ``(rest, k) x (m, k, batch)``.  Each later factor, with
    ``lead`` dimensions before its axis and ``tail`` after, is m k
    multiply-adds of (lead, tail, batch) slices whose rows run over the batch.

    ``work`` is a (3, n) complex array with n >= size batch at every step.
    Its rows 0 and 1 hold w and its image in turn, and row 2 one term; a 2-D
    w must be row 0.  ``factors`` is not empty.  The result is a view of row
    0 or 1.
    """
    batch = factors[0].shape[-1]
    w_buf, out, spare = work
    size, lead = w.shape[0], 1
    if w.ndim == 1:
        f, factors = factors[0], factors[1:]
        m, k = f.shape[:2]
        lead, size = m, m * (size // k)
        np.matmul(w.reshape(k, -1).T, f, out=w_buf[: size * batch].reshape(m, -1, batch))
    w = w_buf
    for f in factors:
        m, k = f.shape[:2]
        tail = size // (lead * k)
        src = w[: size * batch].reshape(lead, k, tail, batch)
        dst = out[: lead * m * tail * batch].reshape(lead, m, tail, batch)
        term = spare[: lead * tail * batch].reshape(lead, tail, batch)
        for i in range(m):
            row = dst[:, i]
            np.multiply(src[:, 0], f[i, 0], out=row)
            for j in range(1, k):
                np.add(row, np.multiply(src[:, j], f[i, j], out=term), out=row)
        w, out = out, w
        lead *= m
        size = lead * tail
    return w[: size * batch].reshape(size, batch)


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
    real flops per sample for the local actions, and accumulated by
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
    return _average(_kets(ket.vec, action, samples, rng), samples)


def doubled_twirl(
    u, action: GroupAction, samples: int, rng: np.random.Generator
) -> TwirlEstimate:
    """Average f(g) |w><w| f(g)^dag over ``samples`` group elements, where w
    is the doubled seed sqrt(d^k) u (x) conj(u), pair-major (``doubled_ket``),
    of a vector u on k = ``action.copies`` sites, for the ``DOUBLED_KINDS``.

    It is the ``mc_twirl`` of that ``Ket`` in law, twirled as
    y = (g_1 (x) ... (x) g_k) u on d^k entries with g alone, never conj(g),
    drawing only the columns of each g that u's support reaches
    (``_doubled_kets``), and accumulated as ``mc_twirl`` accumulates.  Where
    that support reaches every basis vector of some site, the draws, the
    generator's final state and the group elements are ``mc_twirl``'s, and
    the result matches it to rounding.  A kind outside ``DOUBLED_KINDS``, a
    vector of the wrong length or the zero vector, a batch that would not fit
    in physical RAM, or more than ``memory.MAX_DRAWS`` samples raises
    ``ValueError`` before any draw.
    """
    return _average(_doubled_kets(u, action, samples, rng), samples)


def _average(kets, samples: int) -> TwirlEstimate:
    """The ``TwirlEstimate`` of the batches of vectors ``kets``: their outer
    products' mean and standard error (``_outer_moments``, ``_mean_stderr``);
    the generator is closed however the run ends."""
    with closing(kets):
        mean, stderr = _mean_stderr(map(_outer_moments, kets))
    return TwirlEstimate(mean, stderr, samples)


def phase_twirl(op: np.ndarray, d: int) -> np.ndarray:
    """Exact average over the n-fold phase action of the matrix ``op``.

    The action has eigenvalue ``e^{i k theta}`` on the charge sector spanned
    by tensor products with exactly k factors along the maximally entangled
    vector, so it multiplies the block between sectors k and k' by
    ``e^{i (k - k') theta}``.  Since |k - k'| <= n, the mean over the n + 1
    angles ``2 pi j / (n + 1)`` keeps the diagonal blocks and zeroes the rest.
    The n + 1 angles are the batch of one ``_apply_columns`` run on
    ``vec(op)``: Ph on each pair of the rows and conj(Ph) on each of the
    columns.  It is a projection, hence idempotent.
    """
    mat = np.asarray(op, dtype=complex)
    dim = mat.shape[0]
    copies = _exponent(dim, d * d, "dim")
    ph = phase_unitary(2.0 * np.pi * np.arange(copies + 1) / (copies + 1), d).transpose(1, 2, 0)
    work = np.empty((3, dim * dim * (copies + 1)), dtype=complex)
    conj = _apply_columns(mat.reshape(-1), [ph] * copies + [ph.conj()] * copies, work)
    return conj.mean(axis=1).reshape(dim, dim)
