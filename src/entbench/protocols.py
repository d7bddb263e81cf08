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
tables are expectations of vectors, contracted one source at a time.  A
configuration whose states, batch arrays or per-trial arrays would not fit in
physical RAM is refused before any state is built.

The one-way protocol draws Alice's reported vector v from its law, not from a
Haar basis.  Measuring in the columns of Haar g, she sees i with probability
``<g_i|rho_A|g_i>``, ``rho_A = Tr_B sigma``, and reports g_i; Bob checks
conj(v) on his conditional state, so he accepts with
``<v conj(v)|sigma|v conj(v)> / <v|rho_A|v>``.  The reported v has density
``d <v|rho_A|v>`` with respect to the uniform measure:

1. each column g_i is uniform, so the d columns, each kept with probability
   ``<g_i|rho_A|g_i>``, add up to that density;
2. for ``rho_A = sum_k w_k f_k f_k^dag`` with unit f_k, z ~ CN(0, I) whose
   component ``c = <f_k|z>`` is tilted to ``|c|^2 + |w|^2`` (Gamma(2), for one
   more complex normal w) has density ``|<f_k|z>|^2 e^{-|z|^2}`` up to a
   constant, radial but for ``|<f_k|v>|^2``, so ``v = z/|z|`` has density
   ``d |<f_k|v>|^2``;
3. picking k with probability w_k mixes these into ``d sum_k w_k |<f_k|v>|^2
   = d <v|rho_A|v>``.

The f_k and w_k are the columns of rho_A's Cholesky factor
(``_reporting_ensemble``).  A batch of rounds holds the (d + 1, batch) normals
and two (d^2, batch) arrays, batch last, so Bob's step is one 2-D matrix
product.  Each batch draws 2 (d + 1) batch normals (z, then w, see
``_one_way_rounds``), then Alice's uniforms, then the acceptance uniforms;
the threshold uniforms of ``one_way_repeated`` follow the last batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classical, memory, quantum, states
from .states import DensityMatrix, fidelity_defect, max_entangled_ket, proj
from .twirl import _chunks

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
# validated and the Bell tables contracted (peak RSS measured at 5.0 for one
# state at d = 50, 6.7 for bell_pairs' two states at d = 20)
_STATE_ARRAYS = 8
# complex (d^2, batch) arrays alive at once in a one-way batch: x and sigma x,
# plus (d, batch) and (batch,) temporaries (peak RSS growth over one batch,
# getrusage, one BLAS thread: 2.15 at d = 12, 2.03 at d = 16, 1.88 at d = 24)
_ROUND_ARRAYS = 3
# a Cholesky pivot of rho_A at or below this is rounding, and its column is
# left zero; a kept column of rounding noise (~1e-16) weighs under 1e-17
_PIVOT_FLOOR = 1e-15
# protocol -> bytes its per-trial arrays hold (per trial, per round of a trial).
# Peak RSS growth over the trials (getrusage, d = 2 and 3, one BLAS thread):
# 33.98 a trial for the threshold test's counts, uniforms and weights
# (global_projective), 24.97 a Bell pair for its uniforms, outcomes and
# acceptances, and 0.93 a one-way round for the acceptance sequence, which
# one_way_repeated holds twice while it counts failures (108.9 a trial of 50)
_TRIAL_BYTES = {"global_projective": (34, 0), "bell_pairs": (34, 25),
                "one_way_single": (0, 1), "one_way_repeated": (34, 2)}

# repeatable protocol -> (copies per round, failure probability of one round
# when every copy has defect x); the binomial test runs on the round count
ROUNDS = {
    "global_projective": (1, lambda d, x: x),
    "bell_pairs": (2, quantum.mapped_boundary),
    "one_way_repeated": (1, lambda d, x: d * x / (d + 1.0)),
}


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a test state: family name plus its parameters."""

    family: str
    d: int = 2
    params: tuple = ()

    def build(self) -> DensityMatrix:
        if self.family == "max_entangled":
            return DensityMatrix(proj(max_entangled_ket(self.d)), (self.d, self.d))
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
        return 16 * (_STATE_ARRAYS * d**4 + _ROUND_ARRAYS * batch * d * d)

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


def run_bell_pairs(config: ExperimentConfig) -> ExperimentResult:
    """Bell measurement per pair of copies, then the binomial test at the
    two-sample boundary.  Dual-source runs pair one copy from each source."""
    rng = np.random.default_rng(config.seed)
    sigma1 = config.state.build()
    sigma2 = (config.state2 or config.state).build()
    p_alice, accept_given, per_pair = _bell_tables(sigma1, sigma2, config.d)
    shape = (config.trials, config.n // ROUNDS["bell_pairs"][0])
    outcome = np.searchsorted(np.cumsum(p_alice), rng.random(shape))
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
    cumulative weights, scaled to end at exactly 1 so that
    ``searchsorted(cum, u, side="right")`` of a uniform u in [0, 1) never picks
    a zero weight, and the (d, d) unit columns f_k, zero where w_k is.
    """
    d = len(rho_a)
    factor = np.zeros((d, d), dtype=complex)
    for j in range(d):
        col = rho_a[j:, j] - factor[j:, :j] @ factor[j, :j].conj()
        if col[0].real > _PIVOT_FLOOR:
            factor[j:, j] = col / math.sqrt(col[0].real)
    weights = (factor.real**2 + factor.imag**2).sum(axis=0)
    units = np.divide(factor, np.sqrt(weights), out=np.zeros_like(factor), where=weights > 0)
    cum = np.cumsum(weights)
    return cum / cum[-1], units


def _alice_vectors(cum: np.ndarray, units: np.ndarray, zw: np.ndarray, u: np.ndarray):
    """Alice's reported vectors, unnormalized, for one batch of rounds, batch last.

    ``zw`` is a (d + 1, batch) array of complex normals: rows 0 to d - 1 are
    z, row d is w.  Round n picks k with probability w_k by its uniform
    ``u[n]`` and tilts z's component ``c = <f_k|z>`` to squared modulus
    ``|c|^2 + |w|^2`` with c's phase, in place; the direction of the result
    has density ``d <v|rho_A|v>`` (see the module docstring).  c = 0 has
    probability zero.  Returns the tilted z, shape (d, batch).
    """
    d = len(units)
    z, w = zw[:d], zw[d]
    fk = units[:, np.searchsorted(cum, u, side="right")]
    c = np.einsum("an,an->n", fk.conj(), z)
    c2 = c.real**2 + c.imag**2
    c *= np.sqrt(1.0 + (w.real**2 + w.imag**2) / c2) - 1.0
    z += c * fk
    return z


def _one_way_outcomes(sigma_mat: np.ndarray, rho_a: np.ndarray, z: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """Bob's acceptance probability for Alice's reported vectors, the columns
    of ``z`` (d, batch), which need not be normalized.

    Bob checks conj(v) on his conditional state, so for ``x = z (x) conj(z)`` he
    accepts with ``<x|sigma|x> / (|z|^2 <z|rho_A|z>)``: one (d^2, d^2) x
    (d^2, batch) product, at most 1 because ``|conj z><conj z| <= |z|^2 I``.
    ``work`` is a (2, n) complex array with n >= d^2 batch; its rows hold x
    and sigma x.
    """
    d, batch = z.shape
    x = np.multiply(z[:, np.newaxis], z.conj(), out=work[0, : d * d * batch].reshape(d, d, batch))
    x = x.reshape(d * d, batch)
    sx = np.matmul(sigma_mat, x, out=work[1, : d * d * batch].reshape(d * d, batch))
    num = np.einsum("jn,jn->n", x.real, sx.real) + np.einsum("jn,jn->n", x.imag, sx.imag)
    rz = rho_a @ z
    den = (np.einsum("an,an->n", z.real, rz.real) + np.einsum("an,an->n", z.imag, rz.imag)) * (
        np.einsum("an,an->n", z.real, z.real) + np.einsum("an,an->n", z.imag, z.imag))
    return np.clip(num / den, 0.0, 1.0)


def _one_way_rounds(sigma_mat: np.ndarray, d: int, rounds: int, rng) -> np.ndarray:
    """Simulate independent rounds of the covariant one-way protocol; returns
    the boolean acceptance sequence.

    Alice's reported vector is drawn from its law (``_alice_vectors``) and Bob
    accepts with his conditional probability (``_one_way_outcomes``).  Each
    batch of ``_ROUND_BATCH`` rounds, the last one shorter, draws in this
    order: one ``standard_normal`` call for 2 (d + 1) batch normals, written
    into a (d + 1, batch) complex array in memory order (component r of
    round n is ``N[r, 2n] + i N[r, 2n + 1]``; rows 0 to d - 1 are z, row d is
    w); then Alice's batch uniforms; then the batch acceptance uniforms.  The
    batch arrays are allocated once and reused.
    """
    rho_a = np.trace(sigma_mat.reshape(d, d, d, d), axis1=1, axis2=3)
    cum, units = _reporting_ensemble(rho_a)
    size = min(rounds, _ROUND_BATCH)
    normals = np.empty((d + 1) * size, dtype=complex)
    uniforms = np.empty(2 * size)
    work = np.empty((2, d * d * size), dtype=complex)
    out = np.empty(rounds, dtype=bool)
    done = 0
    for batch in _chunks(rounds, _ROUND_BATCH):
        zw = normals[: (d + 1) * batch].reshape(d + 1, batch)
        rng.standard_normal(out=zw.view(float))
        u = rng.random(out=uniforms[: 2 * batch].reshape(2, batch))
        z = _alice_vectors(cum, units, zw, u[0])
        np.less(u[1], _one_way_outcomes(sigma_mat, rho_a, z, work), out=out[done : done + batch])
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
    k = (~accepts).reshape(config.trials, config.n).sum(axis=1)
    _, fail = ROUNDS["one_way_repeated"]
    extra = {"per_round_accept_rate": float(accepts.mean())}
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
    if protocol not in ROUNDS:
        raise ValueError(f"sweep needs a repeatable protocol {tuple(ROUNDS)}, got {protocol!r}")
    if d < 2:
        raise ValueError(f"sweep needs d >= 2, got {d}")
    copies, fail = ROUNDS[protocol]
    n_list = [int(n) for n in n_list]
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
