"""Monte-Carlo simulation of the measurement protocols.

Each protocol samples actual measurement outcomes (Born rule).  The repeated
ones then share one decision path, ``_thresholded``: each trial's count of
failed rounds goes through the binomial UMP test at the null boundary mapped
per round by ``ROUNDS``, and the exact value is that test's acceptance at the
state's per-round failure.  The exact value is attached to the result for
comparison only, never used on the sampling path.  Runs are deterministic
functions of (config, seed): sampling uses a single PCG64 generator and fixed
batch order, the acceptance uniforms last.

No protocol forms an operator larger than its d^2 x d^2 states.  The Bell-pair
tables are expectations of vectors, contracted one source at a time, and
Alice's outcome per pair is the count of the table's boundaries its uniform
has passed (``_pick``).  A configuration whose states, batch arrays or
per-trial arrays would not fit in physical RAM, or that would draw more than
``memory.MAX_DRAWS`` rounds, is refused before any state is built.

The one-way protocol draws Alice's reported vector v from its law, not from a
Haar basis.  Measuring in the columns of Haar g, she sees i with probability
``<g_i|rho_A|g_i>``, ``rho_A = Tr_B sigma``, and reports g_i; Bob checks
conj(v) on his conditional state, so he accepts with
``<v conj(v)|sigma|v conj(v)> / <v|rho_A|v>``.  The reported v has density
``d <v|rho_A|v>`` with respect to the uniform measure:

1. each column g_i is uniform, so the d columns, each kept with probability
   ``<g_i|rho_A|g_i>``, add up to that density;
2. for ``rho_A = sum_k w_k f_k f_k^dag`` with unit f_k, let z be a complex
   normal vector, real and imaginary parts N(0, 1), so ``|c|^2`` of its
   component ``c = <f_k|z>`` is 2 Exp(1).  Tilted to ``|c|^2 + 2 E`` with c's
   phase, for one more E ~ Exp(1) (2 E is ``|w|^2`` of one more complex
   normal w), ``|c|^2`` is Gamma(2) with scale 2, so z has density
   ``|<f_k|z>|^2 e^{-|z|^2 / 2}`` up to a constant, radial but for
   ``|<f_k|v>|^2``, and ``v = z/|z|`` has density ``d |<f_k|v>|^2``;
3. picking k with probability w_k mixes these into ``d sum_k w_k |<f_k|v>|^2
   = d <v|rho_A|v>``.

The f_k and w_k are the columns of rho_A's Cholesky factor
(``_reporting_ensemble``), and k is picked by ``_pick``.  Bob's step is real:
``z (x) conj(z)`` is vec of the Hermitian ``z z^dag``, fixed by d^2 real
coordinates r, and his acceptance is a ratio of forms in r.  So a batch of
rounds holds the (d, batch) complex normals, three real rows and one real
(d^2, batch) array of r, batch last, and Bob's step is one real product with a
(d^2 + 2, d^2) kernel built once per run (``_bob_kernel``,
``_one_way_outcomes``).  Each batch draws, in this order, 2 d batch normals
for z, batch exponentials E, Alice's batch uniforms and the batch acceptance
uniforms (see ``_one_way_rounds``); the threshold uniforms of
``one_way_repeated`` follow the last batch.  The draws run one batch ahead on
one worker thread (``twirl._prefetch``) while the batch before is consumed.
They keep the same order, so every seeded run is bit for bit the serial one;
the worker is joined before the rounds return, and a draw must not itself
prefetch.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from . import classical, memory, quantum, states
from .states import DensityMatrix, fidelity_defect
from .twirl import _chunks, _prefetch

# protocol -> name of its runner in this module; run_experiment looks the
# runner up at call time, so a rebound run_* attribute is seen
_RUNNERS = {
    "global_projective": "run_global",
    "bell_pairs": "run_bell_pairs",
    "one_way_single": "run_one_way_single",
    "one_way_repeated": "run_one_way_repeated",
}
PROTOCOLS = tuple(_RUNNERS)

_ROUND_BATCH = 8192  # one-way rounds per batch, fixed so results depend only on the seed
# d^2 x d^2 complex arrays alive at once while the states are built and
# validated and the Bell tables contracted.  Peak RSS growth of a whole run
# (getrusage, one BLAS thread, scipy loaded before) is 4.0 for an isotropic
# state at d = 30 and 50, 5.5, 5.7 and 5.1 for one random state at d = 30, 40
# and 50, and 6.5 and 6.7 for bell_pairs' two random states at d = 30 and 40.
# Below d = 20 a few MB of fixed workspace lift the ratio past 8 (10.4 for
# bell_pairs' random states at d = 12), sizes far below any RAM limit
_STATE_ARRAYS = 8
# complex (d^2, batch) arrays alive at once in a one-way batch: the real
# coordinates of z z^dag and their product with Bob's kernel, one such array
# between them, budgeted twice for the margin at small d ...
_ROUND_ARRAYS = 2
# ... and complex (d + 1, batch) ones: the two sets of draws that take turns
# while the next batch is drawn, each d complex rows of normals and three real
# rows, Alice's gathered columns and their tilt, and Bob's per-round sums.
# Peak RSS growth over three batches (getrusage, one BLAS thread) is 18.3,
# 27.1, 38.0 and 50.1 complex entries a round at d = 2 to 5, at most 3.4
# (d + 1) vectors beyond the (d^2, batch) budget, and 99, 193, 312 and 597
# (1.55, 1.34, 1.22 and 1.04 (d^2, batch) arrays) at d = 8, 12, 16 and 24
_ROUND_VECTORS = 5
# a Cholesky pivot of rho_A at or below this is rounding, and its column is
# left zero; a kept column of rounding noise (~1e-16) weighs under 1e-17
_PIVOT_FLOOR = 1e-15
# protocol -> bytes its per-trial arrays hold (per trial, per round of a trial).
# Peak RSS growth over the trials (getrusage, d = 2 and 3, one BLAS thread):
# 33.98 a trial for the threshold test's counts, uniforms and weights
# (global_projective), 18.00 a Bell pair for its uniforms, outcomes and
# acceptances while ``_pick`` counts the outcomes into uint8 (19.59 at d = 17,
# 8e6 pairs, where the counts are uint16), and one byte a one-way round for
# the acceptance sequence, which one_way_repeated frees before its threshold
# test (34.1, 68.9 and 224.8 a trial of 10, 50 and 200 rounds at d = 2)
_TRIAL_BYTES = {"global_projective": (34, 0), "bell_pairs": (34, 20),
                "one_way_single": (0, 1), "one_way_repeated": (34, 1)}

# repeatable protocol -> (copies per round, failure probability of one round
# when every copy has defect x); the binomial test runs on the round count
ROUNDS = {
    "global_projective": (1, lambda d, x: x),
    "bell_pairs": (2, quantum.mapped_boundary),
    "one_way_repeated": (1, lambda d, x: d * x / (d + 1.0)),
}


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a test state: family name plus its parameters, ``PARAMS[family]``
    of them."""

    PARAMS = {"max_entangled": 0, "isotropic": 1, "bell_diagonal": 3, "random": 1}

    family: str
    d: int = 2
    params: tuple = ()

    def build(self) -> DensityMatrix:
        if self.family == "max_entangled":
            return states.isotropic_state(self.d, 0.0)  # |phi0><phi0|, bit for bit
        if self.family == "isotropic":
            (p,) = self.params
            return states.isotropic_state(self.d, float(p))
        if self.family == "bell_diagonal":
            from .qubit_pair import bell_diagonal_state

            if self.d != 2:
                raise ValueError("bell_diagonal states are d=2 only")
            c1, c2, c3 = self.params
            return bell_diagonal_state(float(c1), float(c2), float(c3))
        if self.family == "random":
            (seed,) = self.params
            return states.random_density((self.d, self.d), np.random.default_rng(int(seed)))
        raise ValueError(f"unknown state family {self.family!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    d: int
    n: int  # copies consumed per trial
    epsilon: float
    alpha: float
    trials: int
    seed: int
    state: StateSpec
    state2: StateSpec | None = None  # second source, for bell_pairs only

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 1:
            raise ValueError("need at least one copy")
        # checked here, before any draw, for every protocol
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if any(s.d != self.d for s in (self.state, self.state2) if s is not None):
            raise ValueError(f"every state must be a pair of dimension d={self.d}")
        if self.state2 is not None and self.protocol != "bell_pairs":
            raise ValueError(f"state2 is the second source of bell_pairs; {self.protocol} "
                             "has one source")
        copies, _ = ROUNDS.get(self.protocol, (1, None))
        if self.n % copies:
            raise ValueError(
                f"{self.protocol} consumes {copies} copies per round; "
                f"n must be a multiple of {copies}"
            )
        _check_fits(self)
        # rounds a trial draws; global_projective draws one binomial count a trial
        each = 1 if self.protocol in ("global_projective", "one_way_single") else self.n // copies
        memory.check_work(f"{self.protocol} with {self.trials} trials", "trials", self.trials, each)


def _check_fits(config: ExperimentConfig) -> None:
    """Refuse, before any state is built, a run whose d^2 x d^2 states and
    one-way batch arrays would not fit in physical RAM, naming the largest d
    that fits, or whose per-trial arrays would not fit beside them, naming the
    largest trials."""
    copies, _ = ROUNDS.get(config.protocol, (1, None))
    rounds = 1 if config.protocol == "one_way_single" else config.n // copies  # per trial
    per_trial, per_round = _TRIAL_BYTES[config.protocol]

    def fixed_bytes(d, trials):
        batch = min(_ROUND_BATCH, trials * rounds) if config.protocol.startswith("one_way") else 0
        per_round = _ROUND_ARRAYS * d * d + _ROUND_VECTORS * (d + 1)
        return 16 * (_STATE_ARRAYS * d**4 + batch * per_round)

    memory.check_fits(f"{config.protocol} at d={config.d}", "d", config.d, 2,
                      lambda d: fixed_bytes(d, config.trials))
    memory.check_fits(f"{config.protocol} at d={config.d} with {config.trials} trials",
                      "trials", config.trials, 1,
                      lambda t: fixed_bytes(config.d, t) + t * (per_trial + per_round * rounds))


@dataclass(frozen=True)
class ExperimentResult:
    protocol: str
    trials: int
    accepted: int
    rate: float
    ci95: float
    exact: float
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _result(protocol, trials, accepted, exact, counts=None, extra=None) -> ExperimentResult:
    rate = accepted / trials
    ci95 = 1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    return ExperimentResult(protocol=protocol, trials=trials, accepted=int(accepted), rate=rate,
                            ci95=ci95, exact=float(exact), counts=dict(counts or {}),
                            extra=dict(extra or {}))


def _thresholded(config: ExperimentConfig, rng, k: np.ndarray, failure: float,
                 extra: dict) -> ExperimentResult:
    """The decision every repeated protocol ends with.

    ``k`` holds each trial's count of failed rounds.  The binomial UMP test on
    ``n // copies`` rounds at the null boundary mapped per round,
    ``fail(d, epsilon)`` from ``ROUNDS``, accepts each trial with one uniform
    draw; ``exact`` is the test's acceptance at the per-round ``failure``.
    """
    copies, fail = ROUNDS[config.protocol]
    rounds, boundary = config.n // copies, fail(config.d, config.epsilon)
    test = classical.binomial_ump_test(rounds, boundary, config.alpha)
    accepted = (rng.random(k.shape) < test.accept_prob(k)).sum()
    exact = test.accepted_mass(failure)
    vals, freq = np.unique(k, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(vals, freq)}
    return _result(config.protocol, config.trials, accepted, exact, counts, extra)


def run_global(config: ExperimentConfig) -> ExperimentResult:
    """Projective {P, I-P} on each copy, then the binomial threshold test."""
    rng = np.random.default_rng(config.seed)
    p = fidelity_defect(config.state.build())
    k = rng.binomial(config.n, p, size=config.trials)
    return _thresholded(config, rng, k, p, {"per_copy_failure": p})


def _bell_tables(sigma1, sigma2, d):
    """Per-pair outcome probabilities, conditional Bob acceptance, and the
    per-pair acceptance Tr((sigma1 (x) sigma2) T_bell).

    Alice measures the Bell basis {b_i} on (A1, A2); Bob checks conj(b_i) on
    (B1, B2).  With b_i, i = (n, m), as the d x d matrix B = X^n Z^m / sqrt(d),
    Alice sees i with probability <b_i| rho_A1 (x) rho_A2 |b_i> =
    Tr(B^dag rho_A1 B rho_A2^T), and sees i and Bob accepts with the
    expectation of b_i (x) conj(b_i) in sigma1 (x) sigma2, Tr(M^dag sigma1 M
    sigma2^T) for M = B (x) conj(B) on the pair index (a, b).  Both are
    monomial: column c's one entry, phi(c), sits in row pi(c), with pi the
    shift by n (on a and on b) and phi a phase of m over sqrt(d) or d.  So
    ``Tr(M^dag s1 M s2^T) = phi^dag (s1[pi, pi] o s2) phi``: one gather of
    d^4 entries per shift n, shared by its d phases m, and no array exceeds
    d^2 x d^2.
    """
    s1, s2 = sigma1.mat, sigma2.mat
    rho1, rho2 = (np.trace(s.reshape(d, d, d, d), axis1=1, axis2=3) for s in (s1, s2))
    c = np.arange(d)
    waves = np.exp(2j * np.pi * np.outer(c, c) / d)  # [m, c] = w^(m c), Z^m's diagonal
    psi = waves / math.sqrt(d)
    phi = waves[:, (c[:, np.newaxis] - c).reshape(-1) % d] / d  # w^(m (a - b)) / d
    raw = np.empty((2, d, d))
    for n in range(d):
        row = (c + n) % d
        pi = (row[:, np.newaxis] * d + row).reshape(-1)
        alice = rho1[np.ix_(row, row)] * rho2
        joint = s1[np.ix_(pi, pi)] * s2
        raw[0, n] = np.einsum("mi,mi->m", psi.conj(), psi @ alice.T).real
        raw[1, n] = np.einsum("mi,mi->m", phi.conj(), phi @ joint.T).real
    p_alice, p_joint = np.clip(raw.reshape(2, d * d), 0.0, None)
    accept_given = np.divide(p_joint, p_alice, out=np.zeros_like(p_joint), where=p_alice > 0)
    # T_bell = sum_i |b_i (x) conj(b_i)><.|, so its trace is the sum of the joint table
    return p_alice / p_alice.sum(), np.clip(accept_given, 0.0, 1.0), float(raw[1].sum())


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights, scaled to end at exactly 1: a plain cumsum of
    weights that sum to 1 can end a rounding below it, and a uniform past
    that end would pick an outcome outside the table."""
    cum = np.cumsum(weights)
    return cum / cum[-1]


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcome each uniform u in [0, 1) picks from the cumulative weights
    ``cum`` (``_cumulative``): the number of entries of ``cum[:-1]`` at or
    below u, ``searchsorted(cum[:-1], u, side="right")``, so an outcome of
    zero weight is never picked, even at u = 0.

    The boundaries are counted, one compare-add each, into counts of the
    smallest unsigned type that holds the last outcome (uint8 up to 256
    outcomes, so d = 16).
    """
    out = np.zeros(u.shape, dtype=np.min_scalar_type(len(cum) - 1))
    passed = np.empty(u.shape, dtype=bool)
    for edge in cum[:-1]:
        out += np.greater_equal(u, edge, out=passed)
    return out


def run_bell_pairs(config: ExperimentConfig) -> ExperimentResult:
    """Bell measurement per pair of copies, then the binomial test at the
    two-sample boundary.  Dual-source runs pair one copy from each source."""
    rng = np.random.default_rng(config.seed)
    sigma1 = config.state.build()
    sigma2 = (config.state2 or config.state).build()
    p_alice, accept_given, per_pair = _bell_tables(sigma1, sigma2, config.d)
    shape = (config.trials, config.n // ROUNDS["bell_pairs"][0])
    outcome = _pick(_cumulative(p_alice), rng.random(shape))
    accept_pair = rng.random(shape) < accept_given[outcome]
    extra = {
        "per_pair_accept_exact": per_pair,
        "per_pair_accept_rate": float(accept_pair.mean()),
        "pair_trials": int(accept_pair.size),
    }
    return _thresholded(config, rng, (~accept_pair).sum(axis=1), 1.0 - per_pair, extra)


def _reporting_ensemble(rho_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative weights and unit columns of ``rho_A = sum_k w_k f_k f_k^dag``.

    The ensemble is the columns ``l_k = sqrt(w_k) f_k`` of rho_A's lower
    Cholesky factor, a unique and continuous function of rho_A, so seeded runs
    do not depend on how LAPACK rotates a degenerate eigenspace (every
    isotropic state has ``rho_A = I/d``, where the factor is ``I/sqrt(d)``).
    A pivot at or below ``_PIVOT_FLOOR`` leaves its column zero, so a singular
    rho_A (a pure product state) gets zero weights there.  Returns the
    cumulative weights (``_cumulative``), so that ``_pick`` never picks a zero
    weight, and the (d, d) unit columns f_k, zero where w_k is.
    """
    d = len(rho_a)
    factor = np.zeros((d, d), dtype=complex)
    for j in range(d):
        col = rho_a[j:, j] - factor[j:, :j] @ factor[j, :j].conj()
        if col[0].real > _PIVOT_FLOOR:
            factor[j:, j] = col / math.sqrt(col[0].real)
    weights = (factor.real**2 + factor.imag**2).sum(axis=0)
    units = np.divide(factor, np.sqrt(weights), out=np.zeros_like(factor), where=weights > 0)
    return _cumulative(weights), units


def _alice_vectors(cum: np.ndarray, units: np.ndarray, z: np.ndarray, e: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Alice's reported vectors, unnormalized, for one batch of rounds, batch last.

    ``z`` is a (d, batch) array of complex normals, real and imaginary parts
    N(0, 1), and ``e`` holds one standard exponential a round.  Round n picks
    k with probability w_k by its uniform ``u[n]`` (``_pick``) and tilts z's
    component ``c = <f_k|z>`` to squared modulus ``|c|^2 + 2 e[n]`` with c's
    phase, in place; the direction of the result has density
    ``d <v|rho_A|v>`` (see the module docstring).  c = 0 has probability
    zero.  Returns z.
    """
    fk = np.take(units.conj(), _pick(cum, u), axis=1)  # conj(f_k) per round
    c = np.einsum("an,an->n", fk, z)
    c *= np.sqrt(1.0 + 2.0 * e / (c.real**2 + c.imag**2)) - 1.0
    z += np.multiply(c, np.conjugate(fk, out=fk), out=fk)
    return z


def _hermitian_basis(d: int):
    """The real basis of d x d Hermitian matrices that Bob's coordinates use.

    Basis matrix k is ``c_k E_p + conj(c_k) E_q`` at the flat indices
    ``p_k``, ``q_k`` of vec(Z), row-major: ``E_aa / 2`` twice for Re Z_aa,
    ``E_ab + E_ba`` for Re Z_ab and ``i E_ab - i E_ba`` for Im Z_ab, a < b.
    They come in blocks, one per row a: Re Z_aa, then Re Z_ab and Im Z_ab for
    b > a, the order ``_hermitian_coordinates`` writes.  Returns the (2, d^2)
    flat indices ``[p, q]`` and coefficients ``[c, conj(c)]``.
    """
    p, q, c = [], [], []
    for a in range(d):
        b = np.arange(a + 1, d)
        p += [a * (d + 1), *(a * d + b), *(a * d + b)]
        q += [a * (d + 1), *(b * d + a), *(b * d + a)]
        c += [0.5, *[1.0] * len(b), *[1j] * len(b)]
    c = np.array(c)
    return np.array([p, q]), np.array([c, c.conj()])


def _bob_kernel(sigma_mat: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """The real (d^2 + 2, d^2) kernel of Bob's step on the coordinates r of
    ``Z = z z^dag = sum_k r_k B_k`` (``_hermitian_basis``).

    With V the matrix of columns vec(B_k), ``vec(Z) = V r``: rows 0 to
    d^2 - 1 are ``Re(V^dag sigma V)``, so ``<x|sigma|x> = r . (K r)`` for
    ``x = z (x) conj(z) = vec(Z)``; row d^2 is the linear form of
    ``Tr(rho_A Z) = <z|rho_A|z>`` and row d^2 + 1 that of ``Tr Z = |z|^2``.
    Each B_k has two entries, so every block is an index gather of sigma,
    rho_A or I, O(d^4) in all, and one d^2 x d^2 gather is alive at a time.
    """
    d = len(rho_a)
    idx, coef = _hermitian_basis(d)
    kernel = np.zeros((d * d + 2, d * d))
    for s in range(2):
        for t in range(2):
            block = sigma_mat[np.ix_(idx[s], idx[t])]
            block *= coef[s, :, np.newaxis].conj()
            block *= coef[t]
            kernel[: d * d] += block.real
    for row, form in ((d * d, rho_a), (d * d + 1, np.eye(d))):
        kernel[row] = (coef * form.T.reshape(-1)[idx]).real.sum(axis=0)
    return kernel


def _hermitian_coordinates(z: np.ndarray, r: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The coordinates of ``z z^dag`` per column of z (d, batch), written into
    r (d^2, batch) in ``_hermitian_basis`` order: for z = x + i y,
    ``Re Z_ab = x_a x_b + y_a y_b`` (a <= b) and ``Im Z_ab = y_a x_b - x_a y_b``
    (a < b).  ``tmp`` is a (d, batch) scratch array."""
    d = len(z)
    x, y = z.real, z.imag
    k = 0
    for a in range(d):
        re, im = r[k : k + d - a], r[k + d - a : k + 2 * (d - a) - 1]
        np.multiply(x[a], x[a:], out=re)
        re += np.multiply(y[a], y[a:], out=tmp[: d - a])
        np.multiply(y[a], x[a + 1 :], out=im)
        im -= np.multiply(x[a], y[a + 1 :], out=tmp[: d - a - 1])
        k += 2 * (d - a) - 1
    return r


def _one_way_outcomes(kernel: np.ndarray, z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Bob's acceptance probability for Alice's reported vectors, the columns
    of ``z`` (d, batch), which need not be normalized.

    Bob checks conj(v) on his conditional state, so for ``x = z (x) conj(z)`` he
    accepts with ``<x|sigma|x> / (|z|^2 <z|rho_A|z>)``, at most 1 because
    ``|conj z><conj z| <= |z|^2 I``.  All three are forms in the d^2 real
    coordinates r of the Hermitian ``z z^dag``, so the step is one real
    ``(d^2 + 2, d^2) x (d^2, batch)`` product with ``_bob_kernel``, t = K r:
    the numerator is ``r . t[:d^2]`` and the denominator ``t[d^2] t[d^2 + 1]``.
    ``work`` is a (2, n) real array with n >= (d^2 + 2) batch; its rows hold
    r and t, and t's row also serves as the scratch of the coordinates.
    """
    d, batch = z.shape
    q = d * d
    t = work[1, : (q + 2) * batch].reshape(q + 2, batch)
    r = _hermitian_coordinates(z, work[0, : q * batch].reshape(q, batch), t[:d])
    np.matmul(kernel, r, out=t)
    num = np.einsum("kn,kn->n", r, t[:q])
    return np.clip(num / (t[q] * t[q + 1]), 0.0, 1.0)


def _one_way_rounds(sigma_mat: np.ndarray, d: int, rounds: int, rng) -> np.ndarray:
    """Simulate independent rounds of the covariant one-way protocol; returns
    the boolean acceptance sequence.

    Alice's reported vector is drawn from its law (``_alice_vectors``) and Bob
    accepts with his conditional probability (``_one_way_outcomes``).  Each
    batch of ``_ROUND_BATCH`` rounds, the last one shorter, draws in this
    order: one ``standard_normal`` call for 2 d batch normals, written into a
    (d, batch) complex array z in memory order (component r of round n is
    ``N[r, 2n] + i N[r, 2n + 1]``); one ``standard_exponential`` call for the
    batch exponentials; then one ``random`` call for Alice's batch uniforms
    followed by the batch acceptance uniforms.  The draws run one batch ahead
    on one worker thread (``twirl._prefetch``), in the same order, into two
    sets of buffers that take turns, each d complex rows of normals and three
    real rows of exponentials and uniforms; the draw does not itself prefetch,
    and the worker is joined before this returns.  The buffers are allocated
    once and reused.
    """
    rho_a = np.trace(sigma_mat.reshape(d, d, d, d), axis1=1, axis2=3)
    cum, units = _reporting_ensemble(rho_a)
    kernel = _bob_kernel(sigma_mat, rho_a)
    size = min(rounds, _ROUND_BATCH)
    sets = 1 if rounds <= size else 2
    normals = np.empty((sets, d * size), dtype=complex)
    reals = np.empty((sets, 3 * size))
    work = np.empty((2, (d * d + 2) * size))
    out = np.empty(rounds, dtype=bool)

    def draw(i: int, batch: int):
        z = normals[i % sets, : d * batch].reshape(d, batch)
        rng.standard_normal(out=z.view(float))
        e, u = np.split(reals[i % sets, : 3 * batch], [batch])
        rng.standard_exponential(out=e)
        return z, e, rng.random(out=u.reshape(2, batch))

    done = 0
    with closing(_prefetch(draw, _chunks(rounds, _ROUND_BATCH))) as draws:
        for z, e, u in draws:
            batch = len(e)
            _alice_vectors(cum, units, z, e, u[0])
            np.less(u[1], _one_way_outcomes(kernel, z, work),
                    out=out[done : done + batch])
            done += batch
    return out


def run_one_way_single(config: ExperimentConfig) -> ExperimentResult:
    """One round of the covariant one-way protocol per trial; acceptance
    converges to 1 - d p/(d+1)."""
    rng = np.random.default_rng(config.seed)
    sigma = config.state.build()
    accepts = _one_way_rounds(sigma.mat, config.d, config.trials, rng)
    _, fail = ROUNDS["one_way_repeated"]
    exact = 1.0 - fail(config.d, fidelity_defect(sigma))
    return _result("one_way_single", config.trials, int(accepts.sum()), exact)


def run_one_way_repeated(config: ExperimentConfig) -> ExperimentResult:
    """n independent rounds of the one-way protocol per trial, then the
    binomial threshold test at the mapped boundary d eps/(d+1)."""
    rng = np.random.default_rng(config.seed)
    sigma = config.state.build()
    accepts = _one_way_rounds(sigma.mat, config.d, config.trials * config.n, rng)
    k = config.n - accepts.reshape(config.trials, config.n).sum(axis=1)
    extra = {"per_round_accept_rate": float(accepts.mean())}
    del accepts  # freed before the threshold test's per-trial arrays
    _, fail = ROUNDS["one_way_repeated"]
    return _thresholded(config, rng, k, fail(config.d, fidelity_defect(sigma)), extra)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return globals()[_RUNNERS[config.protocol]](config)


def asymptotic_sweep(
    delta: float,
    t_alt: float,
    alpha: float,
    n_list,
    protocol: str,
    d: int = 2,
    trials: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Exact (and optionally empirical) error of a protocol along eps = delta/n
    on states of defect t_alt/n, against the Poisson limit.

    ``boundary_accept`` is the acceptance when the defect sits exactly on the
    null boundary delta/n; the small-deviation limits of both columns are
    reported rather than asserted.
    """
    if not isinstance(protocol, str) or protocol not in ROUNDS:
        raise ValueError(f"sweep needs a repeatable protocol {tuple(ROUNDS)}, got {protocol!r}")
    if d < 2:
        raise ValueError(f"sweep needs d >= 2, got {d}")
    copies, fail = ROUNDS[protocol]
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("sweep needs at least one n in n_list")
    if any(n < 1 or n % copies for n in n_list):
        raise ValueError(
            f"{protocol} sweep needs every n >= 1 and a multiple of {copies}, got {n_list}"
        )
    limit = classical.beta_poisson(delta, alpha, t_alt)
    # every row's null boundary and alternative defect is a probability
    for n in n_list:
        for name, x in (("epsilon = delta/n", delta / n), ("defect = tprime/n", t_alt / n)):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {x} at n={n}")
    # every run is configured, and so size-checked, before the first one starts
    runs = {
        n: ExperimentConfig(protocol=protocol, d=d, n=n, epsilon=delta / n, alpha=alpha,
                            trials=trials, seed=seed + n,
                            state=StateSpec("isotropic", d, (t_alt / n,)))
        for n in n_list if trials and n <= 1000
    }
    rows = []
    for n in n_list:
        eps = delta / n
        p = t_alt / n
        rounds, eps_round = n // copies, fail(d, eps)
        test = classical.binomial_ump_test(rounds, eps_round, alpha)
        exact = test.accepted_mass(fail(d, p))
        row = {
            "n": n,
            "epsilon": eps,
            "exact": exact,
            "poisson_limit": limit,
            "gap": abs(exact - limit),
            "boundary_accept": test.accepted_mass(eps_round),
            "empirical": None,
            "ci95": None,
        }
        if n in runs:
            res = run_experiment(runs[n])
            row["empirical"] = res.rate
            row["ci95"] = res.ci95
        rows.append(row)
    return rows
