"""Monte-Carlo simulation of the measurement protocols.

Each protocol samples actual measurement outcomes (Born rule).  The repeated
ones then share one decision path, ``_thresholded``: each trial's count of
failed rounds goes through the binomial UMP test at the null boundary mapped
per round by ``ROUNDS``, and the exact value is that test's acceptance at the
state's per-round failure.  The exact value is attached to the result for
comparison only, never used on the sampling path.  Runs are deterministic
functions of (config, seed): sampling uses a single PCG64 generator and fixed
batch order, the acceptance uniforms last.

No protocol forms an operator larger than its d^2 x d^2 states.  In the
one-way protocol Alice's outcome probabilities are ``<g_i| rho_A |g_i>`` with
``rho_A = Tr_B sigma``, and Bob's acceptance needs only the picked outcome's
vector ``g_i (x) conj(g_i)``, so a batch of rounds holds a few (d^2, batch)
arrays, batch last so that each party's step is one 2-D matrix product.  The
Bell-pair tables are expectations of vectors, contracted one source at a
time.  A configuration whose states, batch arrays or per-trial arrays would
not fit in physical RAM is refused before any state is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classical, memory, quantum, states
from .states import DensityMatrix, fidelity_defect, haar_columns, max_entangled_ket, proj
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
# complex (d^2, batch) arrays alive at once in a one-way batch: the sampler's
# columns, rho_A's product with them (reused for sigma x) and x, plus smaller
# temporaries (peak RSS growth over one batch, getrusage, one BLAS thread:
# 3.50 at d = 12, 3.45 at d = 16, 2.91 at d = 24)
_ROUND_ARRAYS = 4
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

    def within_ci(self, value: float, nsigma: float = 3.0) -> bool:
        half = nsigma * math.sqrt(max(self.rate * (1.0 - self.rate), 0.0) / self.trials)
        return abs(self.rate - value) <= half + 1e-12


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
    exact = classical.beta_binomial(rounds, boundary, config.alpha, failure)
    vals, freq = np.unique(k, return_counts=True)
    counts = {int(v): int(c) for v, c in zip(vals, freq)}
    return _result(config.protocol, config.trials, accepted, exact, counts, extra)


def sample_povm_outcome(state, povm, rng: np.random.Generator) -> int:
    """Draw one outcome index with probability Tr(state E_i).

    Tiny negative probabilities (within -1e-12) are clamped before
    renormalizing.
    """
    mat = state.mat if isinstance(state, states.Operator) else np.asarray(state, dtype=complex)
    probs = []
    for e in povm:
        em = e.mat if isinstance(e, states.Operator) else np.asarray(e, dtype=complex)
        probs.append(float(np.trace(mat @ em).real))
    probs = np.array(probs)
    if probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("POVM probabilities are not a distribution")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


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


def _one_way_outcomes(sigma_mat: np.ndarray, rho_a: np.ndarray, q: np.ndarray, u: np.ndarray):
    """Alice's outcome probabilities, her outcome and Bob's acceptance probability
    for one batch of rounds, batch last: round n measures in the columns
    ``q[:, i, n]`` of a (d, d, batch) array and draws the uniform ``u[n]``.

    Alice measures {g|i><i|g^dag}, so outcome i has probability
    ``p[i, n] = <g_i| rho_A |g_i>`` with ``rho_A = Tr_B sigma``: one
    (d, d) x (d, d batch) product.  She reports the first i whose cumulative
    probability exceeds ``u[n]``.  Bob checks conj(g_i), so he accepts with
    probability ``<x|sigma|x> / p[i, n]`` for ``x = g_i (x) conj(g_i)``: one
    (d^2, d^2) x (d^2, batch) product.  Returns ``(p, pick, accept)``; ``p``,
    of shape (d, batch), is normalized.
    """
    d, _, batch = q.shape
    y = (rho_a @ q.reshape(d, d * batch)).reshape(q.shape)
    raw = np.einsum("ain,ain->in", q.real, y.real) + np.einsum("ain,ain->in", q.imag, y.imag)
    p = np.clip(raw, 0.0, None)
    p /= p.sum(axis=0)
    pick = (u > np.cumsum(p, axis=0)).sum(axis=0)
    cols = np.arange(batch)
    gi = q[:, pick, cols]
    x = (gi[:, np.newaxis] * gi.conj()).reshape(d * d, batch)
    sx = np.matmul(sigma_mat, x, out=y.reshape(x.shape))  # y is spent
    num = np.einsum("jn,jn->n", x.real, sx.real) + np.einsum("jn,jn->n", x.imag, sx.imag)
    return p, pick, np.clip(num / raw[pick, cols], 0.0, 1.0)


def _one_way_rounds(sigma_mat: np.ndarray, d: int, rounds: int, rng) -> np.ndarray:
    """Simulate independent rounds of the covariant one-way protocol.

    Per round, Alice draws Haar g and measures {g|i><i|g^dag}; Bob measures
    the conjugate of Alice's observed vector on his conditional state (see
    ``_one_way_outcomes``).  A batch draws its unitaries, then Alice's
    uniforms, then the acceptance uniforms.  Returns the boolean acceptance
    sequence.
    """
    rho_a = np.trace(sigma_mat.reshape(d, d, d, d), axis1=1, axis2=3)
    out = np.empty(rounds, dtype=bool)
    done = 0
    for batch in _chunks(rounds, _ROUND_BATCH):
        q = haar_columns(d, batch, rng)
        _, _, accept = _one_way_outcomes(sigma_mat, rho_a, q, rng.random(batch))
        out[done : done + batch] = rng.random(batch) < accept
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
        exact = classical.beta_binomial(rounds, eps_round, alpha, fail(d, p))
        row = {
            "n": n,
            "epsilon": eps,
            "exact": exact,
            "poisson_limit": limit,
            "gap": abs(exact - limit),
            "boundary_accept": classical.beta_binomial(rounds, eps_round, alpha, eps_round),
            "empirical": None,
            "ci95": None,
        }
        if n in runs:
            res = run_experiment(runs[n])
            row["empirical"] = res.rate
            row["ci95"] = res.ci95
        rows.append(row)
    return rows
