"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; tolerances
are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from entbench import multisource as ms
from entbench import protocols as pr
from entbench import qubit_pair as qp
from entbench.classical import (
    beta_binomial,
    beta_poisson,
    binomial_ump_test,
    poisson_limit_gap,
    relative_entropy,
)
from entbench.quantum import (
    bell_pair_test,
    one_sample_covariant_test,
    pooled_trace,
    separable_trace_bound,
    sequential_covariant_trace,
    two_sample_covariant_test,
    two_sample_trace,
)
from entbench.states import (
    bell_basis,
    fidelity_defect,
    max_entangled_ket,
    permute_systems,
    random_density,
    Ket,
)
from entbench.twirl import GroupAction, haar_unitary, mc_twirl
from helpers import binom_pmf, brute_force_min_beta, random_state_with_defect, within_ci


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def pair_seed_ket(u_vec: np.ndarray, d: int) -> Ket:
    """d u (x) conj(u) on two pairs, pair-major, for a vector on A1 A2: the ket
    of the seed d^2 |u (x) conj(u)><...|."""
    k = Ket(np.kron(u_vec, u_vec.conj()), (d,) * 4, ("A1", "A2", "B1", "B2"))
    k = permute_systems(k, ("A1", "B1", "A2", "B2"))
    return Ket(d * k.vec, k.dims, k.labels)


def test_criterion_01_one_sample_twirl():
    start = time.monotonic()
    ok = True
    details = []
    for d in (2, 3):
        rng = np.random.default_rng(1001 + d)
        u0 = np.zeros(d, dtype=complex)
        u0[0] = 1.0
        seed = Ket(math.sqrt(d) * np.kron(u0, u0.conj()), (d, d))  # d |u0 u0*><u0 u0*|
        est = mc_twirl(seed, GroupAction("local", d), 100000, rng)
        target = one_sample_covariant_test(d).mat
        within = est.within(target, nsigma=5.0)
        stderr_ok = est.stderr.max() <= 3e-3
        ok &= within and stderr_ok
        details.append(f"d={d} dev={est.deviation(target):.2e} stderr={est.stderr.max():.2e}")
    elapsed = time.monotonic() - start
    ok &= elapsed <= 60.0
    report(1, ok, f"one-sample covariant twirl (1e5 samples): {'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_02_two_sample_twirl_seed_independence():
    d = 2
    target = two_sample_covariant_test(d).mat
    seeds = [k.vec for k in bell_basis(d)]
    g1 = haar_unitary(d, np.random.default_rng(7))
    g2 = haar_unitary(d, np.random.default_rng(8))
    seeds.append(np.kron(g1, g2) @ max_entangled_ket(d).vec)  # fifth maximally entangled seed
    ok = True
    worst = 0.0
    for i, u in enumerate(seeds):
        rng = np.random.default_rng(2000 + i)
        est = mc_twirl(pair_seed_ket(u, d), GroupAction("local_independent", d, 2), 100000, rng)
        ok &= est.within(target, nsigma=5.0)
        worst = max(worst, est.deviation(target))
    report(2, ok, f"two-sample covariant twirl over 5 maximally entangled seeds; worst dev={worst:.2e}")


def test_criterion_03_classical_ump_grid():
    worst_gap = 0.0
    worst_size = 0.0
    q_grid = (0.2, 0.35, 0.5, 0.75, 0.9)
    for n in range(1, 9):
        ks = np.arange(n + 1)
        for eps in (0.0, 0.05, 0.1, 0.3):
            for alpha in (0.01, 0.05, 0.1, 0.25):
                t = binomial_ump_test(n, eps, alpha)
                size = 1.0 - float(binom_pmf(n, ks, eps) @ t.acceptance())
                worst_size = max(worst_size, abs(size - alpha))
                p0 = binom_pmf(n, ks, eps)
                for q in q_grid:
                    if q <= eps:
                        continue
                    p1 = binom_pmf(n, ks, q)
                    gap = abs(beta_binomial(n, eps, alpha, q) - brute_force_min_beta(p0, p1, alpha))
                    worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 1e-9 and worst_size <= 1e-12
    report(3, ok, f"UMP vs brute force on full grid: worst gap={worst_gap:.2e}, worst size dev={worst_size:.2e}")


def test_criterion_04_poisson_limit():
    delta, t_alt, alpha = 1.0, 3.0, 0.05
    gaps = {n: poisson_limit_gap(n, delta, t_alt, alpha) for n in (100, 1000, 10000)}
    ok = gaps[10000] <= 1e-2
    ok &= gaps[1000] <= gaps[100] + 1e-4 and gaps[10000] <= gaps[1000] + 1e-4
    report(4, ok, f"Poisson limit gaps n=1e2/1e3/1e4: {gaps[100]:.2e}/{gaps[1000]:.2e}/{gaps[10000]:.2e}")


def test_criterion_05_two_sample_identity():
    worst = 0.0
    for d in (2, 3):
        t2 = two_sample_covariant_test(d).mat
        rng = np.random.default_rng(500 + d)
        for _ in range(100):
            sigma = random_density((d, d), rng)
            p = fidelity_defect(sigma)
            val = float(np.real(np.trace(t2 @ np.kron(sigma.mat, sigma.mat))))
            worst = max(worst, abs(val - two_sample_trace(d, p)))
    ok = worst <= 1e-10
    report(5, ok, f"two-sample acceptance identity on 100 random states, d=2,3: worst dev={worst:.2e}")


def test_criterion_06_qubit_two_sample_suite():
    rng = np.random.default_rng(600)
    mc_rng = np.random.default_rng(601)
    pis = qp.irrep_projectors()
    teff = qp.optimal_two_sample_test().mat
    worst_blocks = worst_opt = worst_seq = 0.0
    mc_ok = ineq_ok = True
    for _ in range(100):
        sigma = random_state_with_defect(2, float(rng.uniform(0.0, 0.5)), rng)
        two = np.kron(sigma.mat, sigma.mat)
        direct = np.array([float(np.real(np.trace(two @ pi))) for pi in pis])
        worst_blocks = max(worst_blocks, float(np.max(np.abs(qp.block_traces(sigma) - direct))))
        worst_opt = max(
            worst_opt,
            abs(qp.beta_optimal_two_sample(sigma) - float(np.real(np.trace(two @ teff)))),
        )
        worst_seq = max(
            worst_seq, abs(qp.beta_sequential_two_sample(sigma) - qp.beta_sequential_expanded(sigma))
        )
        est = sequential_covariant_trace(sigma, 8000, mc_rng)
        mc_ok &= abs(est.value - qp.beta_sequential_two_sample(sigma)) <= 5 * est.stderr + 1e-9
        ineq_ok &= all(qp.block_trace_inequalities(sigma))
    ok = worst_blocks <= 1e-10 and worst_opt <= 1e-10 and worst_seq <= 1e-12 and mc_ok and ineq_ok
    report(
        6,
        ok,
        "qubit two-sample suite (100 states, defect <= 1/2): "
        f"blocks dev={worst_blocks:.2e}, optimal-vs-operator dev={worst_opt:.2e}, "
        f"sequential forms dev={worst_seq:.2e}, MC within 5 stderr={mc_ok}, inequalities={ineq_ok}",
    )


def test_criterion_07_multisource():
    worst_pair = 0.0
    rng = np.random.default_rng(700)
    grid = (0.0, 0.15, 0.3, 0.45)
    for d in (2, 3):
        t2 = two_sample_covariant_test(d).mat
        t1 = one_sample_covariant_test(d).mat
        local = np.kron(t1, t1)
        for p1 in grid:
            for p2 in grid:
                s1 = random_state_with_defect(d, p1, rng)
                s2 = random_state_with_defect(d, p2, rng)
                joint = np.kron(s1.mat, s2.mat)
                val, _ = ms.beta_two_source(d, p1, p2)
                worst_pair = max(worst_pair, abs(val - float(np.real(np.trace(t2 @ joint)))))
                worst_pair = max(
                    worst_pair,
                    abs(ms.beta_two_source_local(d, p1, p2) - float(np.real(np.trace(local @ joint)))),
                )
    worst_coeff = 0.0
    for d in (2, 3):
        co = ms.triple_overlap_coefficients(1 / d**2, 1 / d**2, 1 / d**2, 1.0, d)
        worst_coeff = max(worst_coeff, abs(co[(1, 1, 1)] - (d + 2) / ((d + 1) ** 3 * (d - 1))))
        for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            worst_coeff = max(worst_coeff, abs(co[idx]))
        for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            worst_coeff = max(worst_coeff, abs(co[idx] - 1 / ((d + 1) ** 2 * (d - 1))))
    t3 = ms.three_source_covariant_test(2).mat
    worst_triple = 0.0
    note_seen = False
    for _ in range(10):
        sigmas = [random_state_with_defect(2, float(p), rng) for p in rng.random(3) * 0.5]
        joint = np.kron(np.kron(sigmas[0].mat, sigmas[1].mat), sigmas[2].mat)
        with pytest.warns(ms.TripleTermNote):
            val, _ = ms.beta_three_source(2, *[fidelity_defect(s) for s in sigmas])
        note_seen = True
        worst_triple = max(worst_triple, abs(val - float(np.real(np.trace(t3 @ joint)))))
    ok = worst_pair <= 1e-10 and worst_coeff <= 1e-12 and worst_triple <= 1e-9 and note_seen
    report(
        7,
        ok,
        f"multisource: pair oracles dev={worst_pair:.2e} (d=2,3), GHZ-point coefficients "
        f"dev={worst_coeff:.2e}, triple trace oracle dev={worst_triple:.2e}, note emitted={note_seen}",
    )


def test_criterion_08_protocol_simulation():
    res = pr.run_one_way_single(
        pr.ExperimentConfig(
            protocol="one_way_single", d=2, n=1, epsilon=0.0, alpha=0.05,
            trials=100000, seed=800, state=pr.StateSpec("isotropic", 2, (0.3,)),
        )
    )
    one_way_ok = within_ci(res, 0.8, nsigma=3.0)

    sandwich_ok = True
    t_bell = bell_pair_test(2)
    state_rng = np.random.default_rng(801)
    for i in range(20):
        seed_state = int(state_rng.integers(0, 10**6))
        cfg = pr.ExperimentConfig(
            protocol="bell_pairs", d=2, n=8, epsilon=0.05, alpha=0.1, trials=2000,
            seed=802 + i, state=pr.StateSpec("random", 2, (seed_state,)),
        )
        out = pr.run_bell_pairs(cfg)
        p = fidelity_defect(pr.StateSpec("random", 2, (seed_state,)).build())
        rate = out.extra["per_pair_accept_rate"]
        half = 4 * math.sqrt(0.25 / out.extra["pair_trials"])
        sandwich_ok &= (1 - p) ** 2 - half <= rate <= (1 - p) ** 2 + p * p + half

    size_res = pr.run_global(
        pr.ExperimentConfig(
            protocol="global_projective", d=2, n=40, epsilon=0.05, alpha=0.1,
            trials=100000, seed=803, state=pr.StateSpec("isotropic", 2, (0.05,)),
        )
    )
    size_ok = within_ci(size_res, 0.9, nsigma=3.0)
    ok = one_way_ok and sandwich_ok and size_ok
    report(
        8,
        ok,
        f"protocols: one-way rate={res.rate:.4f} (target 0.8), bell per-pair sandwich on "
        f"20 random states={sandwich_ok}, global size rate={size_res.rate:.4f} (target 0.9)",
    )


def test_criterion_09_large_deviation():
    eps, p, alpha = 0.05, 0.3, 0.1
    target = relative_entropy(eps, p)
    exponents = {n: -math.log(beta_binomial(n, eps, alpha, p)) / n for n in (500, 1000, 2000)}
    rel_dev = abs(exponents[2000] - target) / target
    binom_ok = rel_dev <= 0.05

    d, p_pool, n_pool = 2, 0.3, 12  # 1 - p >= 1/d
    pooled_rate = -math.log(pooled_trace(d, n_pool, p_pool)) / n_pool
    pooled_target = -math.log(1 - p_pool)
    pooled_dev = abs(pooled_rate - pooled_target) / pooled_target
    pooled_ok = pooled_dev <= 0.05

    detail = (
        f"binomial exponent at n=2000: {exponents[2000]:.6f} vs d(eps||p)={target:.6f} "
        f"(rel dev {rel_dev:.2%}, sequence {exponents[500]:.4f} -> {exponents[1000]:.4f} -> "
        f"{exponents[2000]:.4f}); pooled exponent at n=12: {pooled_rate:.6f} vs "
        f"{pooled_target:.6f} (rel dev {pooled_dev:.2%})"
    )
    # Known-red: the UMP threshold sits an O(1/sqrt(n)) quantile offset from
    # the boundary, leaving a 5.43% relative deviation at n = 2000 (checked
    # against 60-digit arithmetic); the 5% band is first met near n = 2400.
    # Asserted as stated rather than widened.
    report(9, binom_ok and pooled_ok, detail)


def test_criterion_10_repeated_one_way_limit():
    t_alt, alpha, n = 3.0, 0.05, 10000
    d = 2
    r = d / (d + 1.0)
    exact = beta_binomial(n, 0.0, alpha, r * t_alt / n)
    target = (1 - alpha) * math.exp(-r * t_alt)
    bell_limit = beta_poisson(0.0, alpha, t_alt)
    ok = abs(exact - target) <= 1e-2
    ok &= target > bell_limit + 1e-6
    report(
        10,
        ok,
        f"repeated one-way: exact beta(n=1e4)={exact:.6f} vs (1-a)e^(-2t'/3)={target:.6f}; "
        f"strictly above bell-pair limit {bell_limit:.6f}",
    )


def test_criterion_11_separable_trace_bound():
    rng = np.random.default_rng(1100)
    ok = True
    for d in (2, 3):
        for _ in range(10000):
            k = int(rng.integers(1, 4))
            terms = []
            for _ in range(k):
                ga = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                gb = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                terms.append((float(rng.random()), ga @ ga.conj().T, gb @ gb.conj().T))
            res = separable_trace_bound(terms, d)
            ok &= res.holds
            if not ok:
                break
    report(11, ok, "separable trace bound on 10^4 random explicit decompositions, d=2 and d=3")


def test_criterion_12_simulation_determinism(tmp_path):
    from entbench.cli import main

    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(
        ["simulate", "--out", str(out1), "--seed", "12", "protocol=bell_pairs", "n=10",
         "epsilon=0.02", "alpha=0.1", "trials=3000", "state.family=isotropic",
         "state.params=[0.1]"]
    )
    rc2 = main(["simulate", "--out", str(out2), "--from-manifest", str(out1 / "manifest.json")])
    same = (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    same &= (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    report(12, ok, "rerun from manifest reproduces result.json and trace.csv byte for byte")
