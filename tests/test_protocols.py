import math
import threading
import tracemalloc

import numpy as np
import pytest

from entbench import protocols as pr
from entbench import memory
from entbench.classical import beta_binomial, beta_poisson
from entbench.quantum import bell_pair_test
from entbench.states import (
    Operator,
    fidelity_defect,
    isotropic_state,
    max_entangled_ket,
    proj,
    random_density,
    random_ket,
    tensor,
)
from entbench.qubit_pair import bell_diagonal_state
from helpers import (
    bell_tables_reference,
    exact_one_way_acceptance,
    one_way_acceptance_reference,
    one_way_reference,
    sample_povm_outcome,
    within_ci,
)


def iso_config(protocol, d, n, eps, alpha, trials, seed, p, **kw):
    return pr.ExperimentConfig(
        protocol=protocol,
        d=d,
        n=n,
        epsilon=eps,
        alpha=alpha,
        trials=trials,
        seed=seed,
        state=pr.StateSpec("isotropic", d, (p,)),
        **kw,
    )


class TestStateSpec:
    def test_families(self):
        assert fidelity_defect(pr.StateSpec("max_entangled", 3).build()) == 0.0
        assert abs(fidelity_defect(pr.StateSpec("isotropic", 2, (0.2,)).build()) - 0.2) < 1e-12
        s = pr.StateSpec("bell_diagonal", 2, (0.1, 0.1, 0.1)).build()
        assert abs(fidelity_defect(s) - 0.3) < 1e-12
        a = pr.StateSpec("random", 2, (5,)).build()
        b = pr.StateSpec("random", 2, (5,)).build()
        assert np.array_equal(a.mat, b.mat)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            pr.StateSpec("bogus", 2).build()


class TestSamplePovmOutcome:
    def test_projective_on_target(self):
        d = 2
        p = proj(max_entangled_ket(d))
        povm = [p, np.eye(d * d) - p]
        state = isotropic_state(d, 0.0)
        rng = np.random.default_rng(0)
        assert all(sample_povm_outcome(state, povm, rng) == 0 for _ in range(50))

    def test_isotropic_rate(self):
        d, p_def, n = 2, 0.3, 20000
        pmat = proj(max_entangled_ket(d))
        povm = [pmat, np.eye(d * d) - pmat]
        state = isotropic_state(d, p_def)
        rng = np.random.default_rng(1)
        hits = sum(sample_povm_outcome(state, povm, rng) == 0 for _ in range(n))
        rate = hits / n
        assert abs(rate - (1 - p_def)) < 3 * math.sqrt(p_def * (1 - p_def) / n)

    def test_seed_determinism(self):
        d = 2
        pmat = proj(max_entangled_ket(d))
        povm = [pmat, np.eye(d * d) - pmat]
        state = isotropic_state(d, 0.5)
        a = [sample_povm_outcome(state, povm, np.random.default_rng(7)) for _ in range(20)]
        b = [sample_povm_outcome(state, povm, np.random.default_rng(7)) for _ in range(20)]
        assert a == b

    def test_rejects_non_povm(self):
        state = isotropic_state(2, 0.1)
        with pytest.raises(ValueError):
            sample_povm_outcome(state, [np.eye(4), np.eye(4)], np.random.default_rng(0))


class TestRunGlobal:
    def test_size_at_null_boundary(self):
        cfg = iso_config("global_projective", 2, 40, 0.05, 0.1, 40000, 2, 0.05)
        res = pr.run_global(cfg)
        assert within_ci(res, 0.9)

    def test_alternative_matches_exact(self):
        cfg = iso_config("global_projective", 2, 50, 0.05, 0.1, 40000, 3, 0.2)
        res = pr.run_global(cfg)
        assert within_ci(res, res.exact)
        assert abs(res.exact - beta_binomial(50, 0.05, 0.1, 0.2)) < 1e-12

    def test_perfect_state_deterministic_path(self):
        from entbench.classical import binomial_ump_test

        cfg = iso_config("global_projective", 2, 10, 0.1, 0.2, 5000, 4, 0.0)
        res = pr.run_global(cfg)
        t = binomial_ump_test(10, 0.1, 0.2)
        # k = 0 always; acceptance probability is the k=0 acceptance weight
        expected = 1.0 if t.threshold > 0 else t.gamma
        assert res.counts == {0: 5000}
        assert within_ci(res, expected)


class TestRunBellPairs:
    def test_perfect_state_accepts_up_to_randomization(self):
        from entbench.classical import binomial_ump_test

        cfg = iso_config("bell_pairs", 2, 10, 0.0, 0.1, 4000, 5, 0.0)
        res = pr.run_bell_pairs(cfg)
        t = binomial_ump_test(5, 0.0, 0.1)
        expected = 1.0 if t.threshold > 0 else t.gamma
        assert within_ci(res, expected)
        assert res.extra["per_pair_accept_rate"] == 1.0

    def test_per_pair_rate_respects_sandwich(self):
        rng = np.random.default_rng(6)
        for i in range(5):
            sigma_seed = int(rng.integers(0, 10000))
            cfg = pr.ExperimentConfig(
                protocol="bell_pairs",
                d=2,
                n=8,
                epsilon=0.05,
                alpha=0.1,
                trials=3000,
                seed=7 + i,
                state=pr.StateSpec("random", 2, (sigma_seed,)),
            )
            res = pr.run_bell_pairs(cfg)
            p = fidelity_defect(pr.StateSpec("random", 2, (sigma_seed,)).build())
            rate = res.extra["per_pair_accept_rate"]
            n_pairs = res.extra["pair_trials"]
            slack = 4 * math.sqrt(0.25 / n_pairs)
            assert (1 - p) ** 2 - slack <= rate <= (1 - p) ** 2 + p * p + slack

    def test_end_to_end_matches_mapped_binomial(self):
        cfg = iso_config("bell_pairs", 2, 20, 0.02, 0.1, 20000, 8, 0.1)
        res = pr.run_bell_pairs(cfg)
        assert within_ci(res, res.exact)

    def test_dual_source_uses_trace_oracle(self):
        cfg = iso_config(
            "bell_pairs", 2, 12, 0.05, 0.1, 8000, 9, 0.15,
            state2=pr.StateSpec("isotropic", 2, (0.05,)),
        )
        res = pr.run_bell_pairs(cfg)
        s1 = isotropic_state(2, 0.15)
        s2 = isotropic_state(2, 0.05)
        joint = tensor(
            Operator(s1.mat, (2, 2), ("A1", "B1")), Operator(s2.mat, (2, 2), ("A2", "B2"))
        )
        t = bell_pair_test(2)
        per_pair = float(np.real(np.trace(joint.mat @ t.mat)))
        assert abs(res.extra["per_pair_accept_exact"] - per_pair) < 1e-12
        assert within_ci(res, res.exact)

    def test_odd_copies_rejected(self):
        with pytest.raises(ValueError):
            iso_config("bell_pairs", 2, 9, 0.0, 0.1, 10, 0, 0.1)

    def test_a_uniform_at_the_top_of_the_table_picks_the_last_outcome(self, monkeypatch):
        # at d = 9 Alice's table sums, by cumsum, to 1 - 7e-16
        d, state = 9, isotropic_state(9, 0.1)
        p_alice, accept_given, _ = pr._bell_tables(state, state, d)
        assert np.cumsum(p_alice)[-1] < np.nextafter(1.0, 0.0)
        top, make = np.nextafter(1.0, 0.0), np.random.default_rng

        class TopFirst:
            """Alice's uniforms all at the top of [0, 1); every later draw real."""

            def __init__(self, seed):
                self.rng, self.first = make(seed), True

            def random(self, size=None):
                if self.first:
                    self.first = False
                    return np.full(size, top)
                return self.rng.random(size)

        monkeypatch.setattr(pr.np.random, "default_rng", TopFirst)
        res = pr.run_bell_pairs(iso_config("bell_pairs", d, 4, 0.05, 0.1, 50, 0, 0.1))
        rate = res.extra["per_pair_accept_rate"]
        assert abs(rate - accept_given[-1]) <= 4.0 * math.sqrt(0.25 / res.extra["pair_trials"])

    @pytest.mark.parametrize("weights, u, want", [
        ([0.0, 0.5, 0.5], 0.0, 1),
        ([0.0, 0.0, 1.0, 0.0], 0.0, 2),
        ([0.25, 0.0, 0.75, 0.0], 0.25, 2),
        ([0.25, 0.0, 0.75, 0.0], np.nextafter(1.0, 0.0), 2),
        ([0.1] * 10, np.nextafter(1.0, 0.0), 9),
    ])
    def test_zero_weights_are_never_picked(self, weights, u, want):
        cum = pr._cumulative(np.array(weights))
        assert cum[-1] == 1.0
        assert pr._pick(cum, np.array([u])).tolist() == [want]

    @pytest.mark.parametrize("entries", [4, 9, 256, 257, 400])
    def test_pick_is_a_right_sided_search(self, entries):
        rng = np.random.default_rng(entries)
        weights = rng.random(entries) * (rng.random(entries) < 0.8)
        weights[-1] = 0.0
        cum = pr._cumulative(weights)
        edges = cum[cum < 1.0]  # every boundary a uniform can sit on, and just below it
        u = np.concatenate([rng.random(5000), edges, np.nextafter(edges, 0.0),
                            [0.0, np.nextafter(1.0, 0.0)]])[np.newaxis]
        got = pr._pick(cum, u)
        assert got.shape == u.shape
        assert got.dtype == (np.uint8 if entries <= 256 else np.uint16)
        assert np.array_equal(got, np.searchsorted(cum, u, side="right"))
        assert weights[got].min() > 0.0


class TestRunOneWay:
    def test_perfect_state(self):
        cfg = iso_config("one_way_single", 2, 1, 0.0, 0.05, 3000, 10, 0.0)
        res = pr.run_one_way_single(cfg)
        assert res.rate == 1.0

    def test_qubit_isotropic(self):
        cfg = iso_config("one_way_single", 2, 1, 0.0, 0.05, 50000, 11, 0.3)
        res = pr.run_one_way_single(cfg)
        assert abs(res.exact - 0.8) < 1e-12
        assert within_ci(res, 0.8)

    def test_qutrit_isotropic(self):
        cfg = iso_config("one_way_single", 3, 1, 0.0, 0.05, 50000, 12, 0.4)
        res = pr.run_one_way_single(cfg)
        assert abs(res.exact - 0.7) < 1e-12
        assert within_ci(res, 0.7)

    def test_generic_state(self):
        cfg = pr.ExperimentConfig(
            protocol="one_way_single", d=2, n=1, epsilon=0.0, alpha=0.05,
            trials=50000, seed=13, state=pr.StateSpec("random", 2, (3,)),
        )
        res = pr.run_one_way_single(cfg)
        assert within_ci(res, res.exact)

    def test_repeated_matches_exact(self):
        cfg = iso_config("one_way_repeated", 2, 60, 0.05, 0.1, 10000, 14, 0.12)
        res = pr.run_one_way_repeated(cfg)
        assert within_ci(res, res.exact)


class TestReducedStateTables:
    """The one-way and Bell-pair tables against the full-operator references."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_way_acceptance_matches_conditional_states(self, d):
        rng = np.random.default_rng(90 + d)
        sigma = random_density((d, d), rng).mat
        rho_a = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
        count = 2000
        z = (rng.standard_normal((d, count)) + 1j * rng.standard_normal((d, count))) * 3.0
        work = np.empty((2, (d * d + 2) * count))
        accept = pr._one_way_outcomes(pr._bob_kernel(sigma, rho_a), z.copy(), work)
        # a basis whose first column is z's direction; at u = 0 Alice reports it
        basis = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        basis[:, :, 0] = z.T
        g = np.linalg.qr(basis)[0]
        _, pick, accept_ref = one_way_reference(sigma, d, g, np.zeros((count, 1)))
        assert not pick.any()
        assert np.max(np.abs(accept - accept_ref)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bell_tables_match_dense_traces(self, d):
        rng = np.random.default_rng(100 + d)
        s1, s2 = random_density((d, d), rng), random_density((d, d), rng)
        p_alice, accept_given, per_pair = pr._bell_tables(s1, s2, d)
        pa, pj, per_pair_ref = bell_tables_reference(s1, s2, d)
        assert np.max(np.abs(p_alice - pa / pa.sum())) <= 1e-12
        assert np.max(np.abs(accept_given - pj / pa)) <= 1e-12
        assert abs(per_pair - per_pair_ref) <= 1e-12


class TestOneWaySampler:
    """Alice's reported vector against its law d<v|rho_A|v>, and the draw order."""

    ROUNDS = 200_000

    @pytest.mark.parametrize("kind", ["random", "product"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reported_vectors_follow_their_law(self, d, kind):
        rng = np.random.default_rng(70 + d)
        if kind == "product":
            sigma = proj(np.kron(random_ket((d,), rng).vec, random_ket((d,), rng).vec))
        else:
            sigma = random_density((d, d), rng).mat
        rho_a = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
        n = self.ROUNDS
        z = rng.standard_normal((d, 2 * n)).view(complex)
        cum, units = pr._reporting_ensemble(rho_a)
        z = pr._alice_vectors(cum, units, z, rng.standard_exponential(n), rng.random(n))
        v = z / np.linalg.norm(z, axis=0)
        q = np.real(np.einsum("an,ab,bn->n", v.conj(), rho_a, v))
        # E <v|rho_A|v> under the density d <v|rho_A|v> is (1 + Tr rho_A^2)/(d + 1)
        want = (1.0 + np.real(np.trace(rho_a @ rho_a))) / (d + 1)
        assert abs(q.mean() - want) <= 5.0 * q.std() / math.sqrt(n)
        # the acceptance is Tr(sigma T), T = P + (I - P)/(d + 1)
        phi = max_entangled_ket(d).vec
        exact = (1.0 + d * np.real(phi.conj() @ sigma @ phi)) / (d + 1)
        rate = pr._one_way_rounds(sigma, d, n, rng).mean()
        assert abs(rate - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / n)

    @pytest.mark.parametrize("kind", ["random", "product"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tilted_modulus_is_gamma_two_with_scale_two(self, d, kind):
        # |c|^2 of a complex normal with N(0, 1) parts is 2 Exp(1); the tilt
        # adds 2 E, so |<f_k|z>|^2 is Gamma(2) with scale 2: mean 4, variance 8.
        # An unscaled E would give mean 3, which the acceptance rate cannot
        # see on isotropic states
        rng = np.random.default_rng(80 + d)
        if kind == "product":
            sigma = proj(np.kron(random_ket((d,), rng).vec, random_ket((d,), rng).vec))
        else:
            sigma = random_density((d, d), rng).mat
        rho_a = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
        cum, units = pr._reporting_ensemble(rho_a)
        n = self.ROUNDS
        u = rng.random(n)
        z = pr._alice_vectors(cum, units, rng.standard_normal((d, 2 * n)).view(complex),
                              rng.standard_exponential(n), u)
        fk = units[:, np.searchsorted(cum, u, side="right")]
        m = np.abs(np.einsum("an,an->n", fk.conj(), z)) ** 2
        assert abs(m.mean() - 4.0) <= 5.0 * math.sqrt(8.0 / n)
        dev = (m - m.mean()) ** 2
        assert abs(dev.mean() - 8.0) <= 5.0 * dev.std() / math.sqrt(n)

    @pytest.mark.parametrize("u", [0.0, 0.5, np.nextafter(1.0, 0.0)])
    def test_zero_weight_column_is_never_picked(self, u):
        # rho_A = |1><1|: the Cholesky columns 0 and 2 have zero weight
        d = 3
        e1 = np.eye(d)[1]
        rho_a = np.outer(e1, e1).astype(complex)
        cum, units = pr._reporting_ensemble(rho_a)
        assert np.array_equal(cum, [0.0, 1.0, 1.0])
        assert np.array_equal(units, np.outer(e1, e1))
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((d, 2 * 50)).view(complex)
        e = rng.standard_exponential(50)
        c2 = np.abs(z0[1]) ** 2 + 2.0 * e
        z = pr._alice_vectors(cum, units, z0.copy(), e, np.full(50, u))
        assert np.isfinite(z).all()
        assert np.allclose(np.abs(z[1]) ** 2, c2, rtol=1e-12)
        assert np.array_equal(z[[0, 2]], z0[[0, 2]])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_draws_follow_the_documented_order(self, d):
        sigma = random_density((d, d), np.random.default_rng(95 + d)).mat
        rounds = pr._ROUND_BATCH + 300  # two batches
        rng = np.random.default_rng(7)
        got = pr._one_way_rounds(sigma, d, rounds, rng)
        ref = np.random.default_rng(7)
        assert np.array_equal(got, _serial_one_way_rounds(sigma, d, rounds, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


def _serial_one_way_rounds(sigma, d, rounds, rng):
    """The documented per-batch draws, made by hand in a serial loop with fresh
    arrays, and Bob's step in complex arithmetic (the helpers oracle)."""
    rho_a = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
    cum, units = pr._reporting_ensemble(rho_a)
    want = []
    for start in range(0, rounds, pr._ROUND_BATCH):
        batch = min(pr._ROUND_BATCH, rounds - start)
        z = rng.standard_normal(2 * d * batch).view(complex).reshape(d, batch)
        e = rng.standard_exponential(batch)
        z = pr._alice_vectors(cum, units, z, e, rng.random(batch))
        want.append(rng.random(batch) < one_way_acceptance_reference(sigma, rho_a, z))
    return np.concatenate(want)


def _one_way_state(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "isotropic":
        return isotropic_state(d, 0.3).mat
    if kind == "product":
        return proj(np.kron(random_ket((d,), rng).vec, random_ket((d,), rng).vec))
    if kind == "bell_diagonal":
        return bell_diagonal_state(0.5, 0.2, 0.1).mat
    return random_density((d, d), rng).mat


ONE_WAY_CASES = [(kind, d) for kind in ("isotropic", "random", "product") for d in (2, 3, 4, 5, 8)]
ONE_WAY_CASES.append(("bell_diagonal", 2))


class TestBobKernel:
    """Bob's step as one real product on the Hermitian coordinates of z z^dag,
    against its definition and the complex formula of the helpers oracle."""

    @staticmethod
    def _basis_columns(d):
        """vec of each Hermitian basis matrix, built from the documented order."""
        cols = []
        for a in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, a] = 1.0
            cols.append(e.reshape(-1))
            for part in (1.0, 1j):
                for b in range(a + 1, d):
                    e = np.zeros((d, d), dtype=complex)
                    e[a, b], e[b, a] = part, np.conj(part)
                    cols.append(e.reshape(-1))
        return np.array(cols).T

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_kernel_and_coordinates_match_their_definitions(self, d):
        rng = np.random.default_rng(200 + d)
        sigma = random_density((d, d), rng).mat
        rho_a = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
        v = self._basis_columns(d)
        basis = v.reshape(d, d, -1)  # [a, b, k]: entry (a, b) of basis matrix k
        kernel = pr._bob_kernel(sigma, rho_a)
        assert kernel.shape == (d * d + 2, d * d) and kernel.dtype == float
        assert np.max(np.abs(kernel[: d * d] - (v.conj().T @ sigma @ v).real)) <= 1e-15
        assert np.max(np.abs(kernel[d * d] - np.einsum("ab,bak->k", rho_a, basis).real)) <= 1e-15
        assert np.array_equal(kernel[d * d + 1], np.trace(basis).real)
        z = rng.standard_normal((d, 7)) + 1j * rng.standard_normal((d, 7))
        r = pr._hermitian_coordinates(z, np.empty((d * d, 7)), np.empty((d, 7)))
        x = (z[:, np.newaxis] * z.conj()).reshape(d * d, 7)
        assert np.max(np.abs(v @ r - x)) <= 1e-14

    # |kernel - exact| <= KAPPA_ROUNDINGS kappa eps a round, where kappa =
    # |z|^2 ||rho_A|| / <z|rho_A|z> is the conditioning of Bob's denominator:
    # 1e-15 at kappa = 1 and under 1e-14 wherever kappa <= 10.  Over 40 seeds
    # of every case the largest |kernel - exact| / (kappa eps) is 3.5
    # (isotropic, d = 4, at kappa = 1), and 2.3 on the product states
    KAPPA_ROUNDINGS = 4.5

    @pytest.mark.parametrize("kind, d", ONE_WAY_CASES)
    def test_acceptance_matches_the_complex_formula(self, kind, d):
        # on rounds drawn as _one_way_rounds draws them: every round against
        # the float64 complex formula, which errs by as much as the kernel,
        # and the first rounds of each scale against that formula in exact
        # arithmetic (exact_one_way_acceptance), whose cost grows as d^4
        sigma = _one_way_state(kind, d, 210 + d)
        rho_a = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
        cum, units = pr._reporting_ensemble(rho_a)
        rng = np.random.default_rng(220 + d)
        count, exact = 3000, min(1000, 2**17 // d**4)
        work = np.empty((2, (d * d + 2) * count))
        kernel = pr._bob_kernel(sigma, rho_a)
        norm = np.linalg.norm(rho_a, 2)
        for scale in (1.0, 1e-3, 40.0):  # z need not be normalized
            z = rng.standard_normal((d, 2 * count)).view(complex)
            z = pr._alice_vectors(cum, units, z, rng.standard_exponential(count),
                                  rng.random(count)) * scale
            got = pr._one_way_outcomes(kernel, z, work)
            square = np.einsum("an,an->n", z.real, z.real) + np.einsum("an,an->n", z.imag, z.imag)
            kappa = square * norm / np.einsum("an,ab,bn->n", z.conj(), rho_a, z).real
            bound = self.KAPPA_ROUNDINGS * kappa * np.finfo(float).eps
            err = np.abs(got - one_way_acceptance_reference(sigma, rho_a, z))
            assert np.all(err <= 2 * bound)
            assert np.all(err[kappa <= 10] <= 1e-14)
            want = exact_one_way_acceptance(sigma, rho_a, z[:, :exact])
            err = np.array([float(abs(w - g)) for g, w in zip(got, want)])
            assert np.all(err <= bound[:exact])

    @pytest.mark.parametrize("kind, d", ONE_WAY_CASES)
    def test_decisions_are_the_complex_formulas_bitwise(self, kind, d):
        sigma = _one_way_state(kind, d, 230 + d)
        rounds = 2 * pr._ROUND_BATCH + 300  # three batches, the last one short
        rng = np.random.default_rng(240 + d)
        got = pr._one_way_rounds(sigma, d, rounds, rng)
        ref = np.random.default_rng(240 + d)
        assert np.array_equal(got, _serial_one_way_rounds(sigma, d, rounds, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


class _Failed(Exception):
    pass


class TestOneWayDrawAhead:
    """The one-way draws run one batch ahead on a worker thread
    (``twirl._prefetch``) into two sets of buffers that take turns; the
    rounds and the generator's final state must be the serial loop's."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rounds_are_the_serial_loop_bitwise(self, d):
        sigma = random_density((d, d), np.random.default_rng(90 + d)).mat
        rounds = 3 * pr._ROUND_BATCH + 300  # four batches, the last one short
        rng = np.random.default_rng(91)
        got = pr._one_way_rounds(sigma, d, rounds, rng)
        ref = np.random.default_rng(91)
        assert np.array_equal(got, _serial_one_way_rounds(sigma, d, rounds, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_one_batch_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
        before = threading.active_count()
        rounds = pr._one_way_rounds(isotropic_state(2, 0.1).mat, 2, pr._ROUND_BATCH,
                                    np.random.default_rng(92))
        assert len(rounds) == pr._ROUND_BATCH and threading.active_count() == before

    def test_one_batch_holds_one_set_of_draw_buffers(self):
        # a second set, d complex and three real rows a round, is what a run of
        # two batches holds beyond a run of one
        d, sigma, peaks = 2, isotropic_state(2, 0.1).mat, []
        for rounds in (pr._ROUND_BATCH, pr._ROUND_BATCH + 1):
            tracemalloc.start()
            pr._one_way_rounds(sigma, d, rounds, np.random.default_rng(95))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        one_set = (16 * d + 8 * 3) * pr._ROUND_BATCH
        assert one_set <= peaks[1] - peaks[0] < 2 * one_set

    def test_a_draw_that_raises_reraises_its_type_in_the_caller(self):
        class FailingGenerator:
            """Fails on the second batch's normals, which the worker draws."""

            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls == 2:
                    raise _Failed("draw 1")
                return self.rng.standard_normal(out=out)

            def standard_exponential(self, out):
                return self.rng.standard_exponential(out=out)

            def random(self, out):
                return self.rng.random(out=out)

        before = threading.active_count()
        sigma = isotropic_state(2, 0.1).mat
        with pytest.raises(_Failed, match="draw 1"):
            pr._one_way_rounds(sigma, 2, 3 * pr._ROUND_BATCH,
                               FailingGenerator(np.random.default_rng(93)))
        assert threading.active_count() == before

    def test_a_consumer_that_raises_leaves_no_worker_and_a_quiet_generator(self, monkeypatch):
        outcomes, seen = pr._one_way_outcomes, []

        def failing(*args):
            seen.append(1)
            if len(seen) == 2:
                raise _Failed("consumer")
            return outcomes(*args)

        monkeypatch.setattr(pr, "_one_way_outcomes", failing)
        d, sigma, before = 3, isotropic_state(3, 0.1).mat, threading.active_count()
        rng = np.random.default_rng(94)
        try:
            pr._one_way_rounds(sigma, d, 5 * pr._ROUND_BATCH, rng)
        except _Failed as exc:
            # the traceback, which holds _one_way_rounds' frame, is alive here
            assert str(exc) == "consumer" and threading.active_count() == before
        else:
            pytest.fail("the consumer's exception did not reach the caller")
        # batch 2 was in flight while batch 1 was consumed; it was waited for,
        # and nothing drew after it
        ref = np.random.default_rng(94)
        for _ in range(3):
            ref.standard_normal(2 * d * pr._ROUND_BATCH)
            ref.standard_exponential(pr._ROUND_BATCH)
            ref.random(2 * pr._ROUND_BATCH)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestDispatchAndDeterminism:
    def test_dispatcher(self):
        cfg = iso_config("global_projective", 2, 5, 0.1, 0.1, 100, 15, 0.1)
        assert pr.run_experiment(cfg).protocol == "global_projective"

    def test_dispatch_sees_a_rebound_runner(self, monkeypatch):
        cfg = iso_config("one_way_single", 2, 1, 0.0, 0.1, 10, 0, 0.1)
        monkeypatch.setattr(pr, "run_one_way_single", lambda config: "rebound")
        assert pr.run_experiment(cfg) == "rebound"

    @pytest.mark.parametrize("protocol", pr.PROTOCOLS)
    def test_memory_check_names_the_largest_d(self, protocol, monkeypatch):
        monkeypatch.setattr(memory, "ram_bytes", lambda: 10**9)
        monkeypatch.setattr(pr.StateSpec, "build", lambda self: pytest.fail("state was built"))
        with pytest.raises(ValueError, match="the largest d that fits is") as err:
            iso_config(protocol, 1000, 2, 0.0, 0.1, 10**4, 0, 0.1)
        fits = int(str(err.value).rsplit(" ", 1)[1])
        iso_config(protocol, fits, 2, 0.0, 0.1, 10**4, 0, 0.1)  # no error
        with pytest.raises(ValueError, match="more than"):
            iso_config(protocol, fits + 1, 2, 0.0, 0.1, 10**4, 0, 0.1)

    def test_same_seed_same_result(self):
        cfg = iso_config("bell_pairs", 2, 10, 0.05, 0.1, 2000, 16, 0.2)
        a = pr.run_experiment(cfg)
        b = pr.run_experiment(cfg)
        assert a.accepted == b.accepted and a.counts == b.counts

    def test_different_seed_different_counts_same_exact(self):
        a = pr.run_experiment(iso_config("global_projective", 2, 30, 0.05, 0.1, 5000, 17, 0.2))
        b = pr.run_experiment(iso_config("global_projective", 2, 30, 0.05, 0.1, 5000, 18, 0.2))
        assert a.exact == b.exact and a.accepted != b.accepted

    def test_invalid_protocol(self):
        with pytest.raises(ValueError):
            iso_config("teleport", 2, 2, 0.0, 0.1, 10, 0, 0.0)

    @pytest.mark.parametrize("protocol", [p for p in pr.PROTOCOLS if p != "bell_pairs"])
    def test_state2_only_for_bell_pairs(self, protocol):
        other = pr.StateSpec("isotropic", 2, (0.5,))
        with pytest.raises(ValueError, match="state2 is the second source of bell_pairs"):
            iso_config(protocol, 2, 2, 0.0, 0.1, 10, 0, 0.1, state2=other)

    @pytest.mark.parametrize("protocol", pr.PROTOCOLS)
    def test_state_dimension_must_match(self, protocol):
        other = pr.StateSpec("isotropic", 3, (0.1,))
        with pytest.raises(ValueError, match="dimension d=2"):
            iso_config(protocol, 2, 2, 0.0, 0.1, 10, 0, 0.1, state2=other)


class TestDecisionPath:
    # (protocol, d, n, epsilon, alpha, trials, seed, defect, second source's
    # defect) -> (accepted, exact, counts), computed before the runners shared
    # one threshold tail (the one-way rows since the sampler draws |w|^2 of
    # Alice's tilt as one exponential); they pin the sampling stream and the
    # tail together
    PINNED = [
        (("global_projective", 2, 12, 0.1, 0.1, 200, 3, 0.2, None),
         (113, 0.5884720584252529, {0: 9, 1: 38, 2: 61, 3: 59, 4: 21, 5: 11, 8: 1})),
        (("bell_pairs", 2, 8, 0.05, 0.1, 200, 4, 0.1, 0.15),
         (133, 0.6965379271013101, {0: 79, 1: 68, 2: 45, 3: 8})),
        (("one_way_single", 3, 1, 0.0, 0.1, 300, 5, 0.2, None), (253, 0.8500000000000003, {})),
        (("one_way_repeated", 2, 6, 0.1, 0.1, 150, 6, 0.2, None),
         (120, 0.7537052412342393, {0: 71, 1: 57, 2: 18, 3: 4})),
    ]

    @pytest.mark.parametrize("case, pinned", PINNED, ids=[c[0][0] for c in PINNED])
    def test_seeded_result_is_pinned(self, case, pinned):
        *args, p2 = case
        state2 = pr.StateSpec("isotropic", args[1], (p2,)) if p2 is not None else None
        res = pr.run_experiment(iso_config(*args, state2=state2))
        accepted, exact, counts = pinned
        assert (res.accepted, res.counts) == (accepted, counts)
        assert res.exact == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("protocol", pr.PROTOCOLS)
    @pytest.mark.parametrize(
        "eps, alpha",
        [(-0.01, 0.1), (1.01, 0.1), (math.nan, 0.1), (0.1, 0.0), (0.1, 1.0), (0.1, math.nan)],
    )
    def test_out_of_range_level_refused_before_any_draw(self, protocol, eps, alpha, monkeypatch):
        monkeypatch.setattr(pr.StateSpec, "build", lambda self: pytest.fail("state was built"))
        monkeypatch.setattr(pr.np.random, "default_rng", lambda *a: pytest.fail("rng was made"))
        with pytest.raises(ValueError, match="epsilon must lie" if alpha == 0.1 else "alpha must lie"):
            pr.run_experiment(iso_config(protocol, 2, 2, eps, alpha, 10, 0, 0.1))

    @pytest.mark.parametrize("protocol", pr.PROTOCOLS)
    def test_memory_check_names_the_largest_trials(self, protocol, monkeypatch):
        # 10 MB holds the d = 2 states and a one-way batch but not 10^8 trials
        monkeypatch.setattr(memory, "ram_bytes", lambda: 10**7)
        monkeypatch.setattr(pr.StateSpec, "build", lambda self: pytest.fail("state was built"))
        with pytest.raises(ValueError, match="the largest trials that fits is") as err:
            iso_config(protocol, 2, 4, 0.0, 0.1, 10**8, 0, 0.1)
        fits = int(str(err.value).rsplit(" ", 1)[1])
        assert fits >= 1
        iso_config(protocol, 2, 4, 0.0, 0.1, fits, 0, 0.1)  # no error
        with pytest.raises(ValueError, match=f"with {fits + 1} trials needs"):
            iso_config(protocol, 2, 4, 0.0, 0.1, fits + 1, 0, 0.1)


class TestAsymptoticSweep:
    def test_bell_gap_shrinks_toward_poisson(self):
        rows = pr.asymptotic_sweep(1.0, 3.0, 0.05, [100, 1000, 10000], "bell_pairs")
        gaps = [r["gap"] for r in rows]
        assert gaps[2] <= gaps[1] + 1e-4 <= gaps[0] + 2e-4
        assert gaps[2] < 1e-2

    def test_repeated_limit(self):
        rows = pr.asymptotic_sweep(0.0, 3.0, 0.05, [10000], "one_way_repeated", d=2)
        target = 0.95 * math.exp(-2.0)
        assert abs(rows[0]["exact"] - target) < 1e-2

    def test_boundary_alternative_gives_level(self):
        rows = pr.asymptotic_sweep(1.0, 1.0, 0.05, [100, 1000], "global_projective")
        for r in rows:
            assert abs(r["exact"] - 0.95) < 1e-12
        assert abs(rows[0]["poisson_limit"] - beta_poisson(1.0, 0.05, 1.0)) < 1e-12

    def test_empirical_column_small_n(self):
        rows = pr.asymptotic_sweep(
            1.0, 3.0, 0.05, [50, 5000], "global_projective", trials=4000, seed=1
        )
        assert rows[0]["empirical"] is not None and rows[1]["empirical"] is None
        assert abs(rows[0]["empirical"] - rows[0]["exact"]) <= 3 * rows[0]["ci95"] / 1.96 + 1e-9

    @pytest.mark.parametrize("protocol", sorted(pr.ROUNDS))
    def test_boundary_accept_is_the_level(self, protocol):
        rows = pr.asymptotic_sweep(1.0, 3.0, 0.05, [100, 1000], protocol, d=3)
        for r in rows:
            assert abs(r["boundary_accept"] - 0.95) < 1e-12

    @pytest.mark.parametrize("protocol", sorted(pr.ROUNDS))
    def test_exact_matches_the_runner(self, protocol):
        # the sweep and the protocol runner share one per-round failure map
        (row,) = pr.asymptotic_sweep(1.0, 3.0, 0.05, [40], protocol, d=3)
        res = pr.run_experiment(iso_config(protocol, 3, 40, 1.0 / 40, 0.05, 10, 0, 3.0 / 40))
        assert abs(res.exact - row["exact"]) < 1e-12

    def test_rejects_single_shot_protocol(self):
        with pytest.raises(ValueError):
            pr.asymptotic_sweep(1.0, 3.0, 0.05, [10], "one_way_single")


class TestTypeOneErrorAtBoundary:
    def test_bell_pairs_level_at_mapped_boundary(self):
        # per-copy defect exactly eps: acceptance must sit at 1 - alpha
        cfg = iso_config("bell_pairs", 2, 16, 0.05, 0.1, 30000, 19, 0.05)
        res = pr.run_bell_pairs(cfg)
        assert abs(res.exact - 0.9) < 1e-12
        assert within_ci(res, 0.9)

    def test_repeated_one_way_level_at_boundary(self):
        cfg = iso_config("one_way_repeated", 2, 40, 0.08, 0.1, 20000, 20, 0.08)
        res = pr.run_one_way_repeated(cfg)
        assert abs(res.exact - 0.9) < 1e-12
        assert within_ci(res, 0.9)
