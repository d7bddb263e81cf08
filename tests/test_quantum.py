import math
import sys
import warnings

import numpy as np
import pytest

from entbench.classical import beta_binomial
from entbench.quantum import (
    bell_pair_test,
    beta_one_way,
    beta_pair_repeated,
    binomial_operator_test,
    is_max_entangled,
    level_adjust,
    mapped_boundary,
    one_sample_covariant_test,
    pooled_covariant_test,
    pooled_trace,
    separable_trace_bound,
    sequential_covariant_operator,
    sequential_covariant_trace,
    simplex_completion,
    to_group_major,
    two_sample_covariant_test,
    two_sample_trace,
)
from entbench import memory, quantum, states
from entbench.states import (
    Ket,
    RankOnePOVM,
    bell_basis,
    fidelity_defect,
    isotropic_state,
    max_entangled_ket,
    proj,
    random_density,
    random_rank_one_povm,
    tensor,
)

build_povm_test = quantum.test_from_povm  # avoid pytest collecting the raw name
from entbench.twirl import GroupAction, haar_unitary, mc_twirl, phase_twirl
from helpers import invariance_deviation, random_state_with_defect, singular_value_max_entangled


class TestTestFromPovm:
    def test_computational_basis(self):
        d = 3
        povm = RankOnePOVM(np.ones(d), np.eye(d, dtype=complex))
        t = build_povm_test(povm, d)
        expected = np.zeros((d * d, d * d))
        for i in range(d):
            expected[i * d + i, i * d + i] = 1.0
        assert np.allclose(t.mat, expected)
        phi = max_entangled_ket(d).vec
        assert abs(np.real(phi.conj() @ t.mat @ phi) - 1.0) < 1e-12
        assert abs(t.trace().real - d) < 1e-12

    def test_unit_overlap_and_trace_for_random_povms(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            phi = max_entangled_ket(d).vec
            for _ in range(25):
                t = build_povm_test(random_rank_one_povm(d, rng), d)
                assert abs(np.real(phi.conj() @ t.mat @ phi) - 1.0) < 1e-9
                assert abs(t.trace().real - d) < 1e-8

    def test_rejects_non_povm(self):
        with pytest.raises(ValueError):
            RankOnePOVM([0.5, 0.5], np.eye(2, dtype=complex))


class TestLevelAdjust:
    def test_eps_zero_scales(self):
        t = one_sample_covariant_test(2)
        out = level_adjust(t, 0.0, 0.2)
        assert np.allclose(out.mat, 0.8 * t.mat)

    def test_branch_continuity(self):
        t = one_sample_covariant_test(2)
        a = level_adjust(t, 0.1 - 1e-13, 0.1)
        b = level_adjust(t, 0.1 + 1e-13, 0.1)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-10

    def test_boundary_acceptance_is_level(self):
        # any state with Tr T sigma = 1 - eps is accepted with prob 1 - alpha
        d, alpha = 2, 0.2
        t = one_sample_covariant_test(d)
        for eps in (0.05, 0.5):
            p_match = eps * (d + 1) / d  # isotropic defect giving Tr = 1 - eps
            sigma = isotropic_state(d, p_match)
            out = level_adjust(t, eps, alpha)
            assert abs(np.real(np.trace(out.mat @ sigma.mat)) - (1 - alpha)) < 1e-12


class TestBinomialOperatorTest:
    def test_single_copy_threshold_form(self):
        t = one_sample_covariant_test(2)
        out = binomial_operator_test(t, 0.0, 0.1, 1)
        # l=0, gamma=0.9: acceptance operator 0.9 T
        assert np.max(np.abs(out.mat - 0.9 * t.mat)) < 1e-12

    def test_trace_matches_classical_formula(self):
        d, n, eps, alpha = 2, 3, 0.1, 0.05
        t = states.TestOperator(proj(max_entangled_ket(d)), (d, d))
        sigma = isotropic_state(d, 0.3)
        out = binomial_operator_test(t, eps, alpha, n)
        rho = sigma.mat
        for _ in range(n - 1):
            rho = np.kron(rho, sigma.mat)
        val = np.real(np.trace(out.mat @ rho))
        assert abs(val - beta_binomial(n, eps, alpha, 0.3)) < 1e-10

    def test_trace_formula_for_generic_test_operator(self):
        rng = np.random.default_rng(3)
        from entbench.states import random_test

        t = random_test((2, 2), rng)
        sigma = random_density((2, 2), rng)
        q = 1.0 - float(np.real(np.trace(t.mat @ sigma.mat)))
        out = binomial_operator_test(t, 0.2, 0.1, 2)
        val = np.real(np.trace(out.mat @ np.kron(sigma.mat, sigma.mat)))
        assert abs(val - beta_binomial(2, 0.2, 0.1, q)) < 1e-10

    def test_projector_count_decomposition_completeness(self):
        from entbench.states import mixed_tensor_sum

        p = proj(max_entangled_ket(2))
        comp = np.eye(4) - p
        total = mixed_tensor_sum(p, comp, [1.0] * 4)
        assert np.max(np.abs(total - np.eye(64))) < 1e-12
        # terms for distinct k are orthogonal when built from a projector
        a = mixed_tensor_sum(p, comp, [0.0, 1.0, 0.0, 0.0])
        b = mixed_tensor_sum(p, comp, [0.0, 0.0, 1.0, 0.0])
        assert np.max(np.abs(a @ b)) < 1e-12

    def test_memory_guard_names_the_largest_n(self, monkeypatch):
        # a 4-dim test on n copies builds 4^n x 4^n operators: n = 2 fits in
        # 100 kB, n = 3 does not
        t = one_sample_covariant_test(2)
        monkeypatch.setattr(memory, "ram_bytes", lambda: 10**5)
        assert binomial_operator_test(t, 0.1, 0.1, 2).dim == 16
        monkeypatch.setattr(quantum, "mixed_tensor_sum", lambda *a: pytest.fail("operator was built"))
        with pytest.raises(ValueError, match="the largest n that fits is 2$"):
            binomial_operator_test(t, 0.1, 0.1, 3)


class TestOneSampleCovariant:
    def test_spectrum(self):
        for d in (2, 3):
            evals = np.unique(np.round(np.linalg.eigvalsh(one_sample_covariant_test(d).mat), 12))
            assert np.allclose(evals, [1.0 / (d + 1), 1.0])
            assert abs(one_sample_covariant_test(d).trace().real - d) < 1e-12

    def test_isotropic_acceptance(self):
        for d, p in [(2, 0.3), (3, 0.4)]:
            t = one_sample_covariant_test(d)
            val = np.real(np.trace(t.mat @ isotropic_state(d, p).mat))
            assert abs(val - (1 - d * p / (d + 1))) < 1e-12

    def test_matches_covariant_twirl(self):
        d = 2
        rng = np.random.default_rng(4)
        u0 = np.zeros(d, dtype=complex)
        u0[0] = 1.0
        seed = Ket(math.sqrt(d) * np.kron(u0, u0.conj()), (d, d))  # d |u0 u0*><u0 u0*|
        est = mc_twirl(seed, GroupAction("local", d), 20000, rng)
        assert est.within(one_sample_covariant_test(d).mat)

    def test_invariant_under_orthocomplement_action(self):
        dev = invariance_deviation(
            one_sample_covariant_test(3), GroupAction("ortho", 3), 100, np.random.default_rng(5)
        )
        assert dev <= 1e-10, dev


class TestTwoSampleCovariant:
    def test_acceptance_identity_random_states(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            t = two_sample_covariant_test(d)
            for _ in range(20):
                sigma = random_density((d, d), rng)
                p = fidelity_defect(sigma)
                val = np.real(np.trace(t.mat @ np.kron(sigma.mat, sigma.mat)))
                assert abs(val - two_sample_trace(d, p)) < 1e-10

    def test_isotropic_value(self):
        val = np.real(
            np.trace(two_sample_covariant_test(2).mat @ np.kron(*[isotropic_state(2, 0.4).mat] * 2))
        )
        assert abs(val - (0.36 + 0.16 / 3)) < 1e-12

    def test_perfect_state(self):
        assert abs(two_sample_trace(3, 0.0) - 1.0) < 1e-15

    def test_invariant_under_independent_local_actions(self):
        dev = invariance_deviation(
            two_sample_covariant_test(2),
            GroupAction("local_independent", 2, 2),
            100,
            np.random.default_rng(7),
        )
        assert dev <= 1e-10, dev


class TestBellPairTest:
    def test_unit_overlap_on_double_target(self):
        for d in (2, 3):
            t = bell_pair_test(d)
            phi2 = tensor(
                max_entangled_ket(d, ("A1", "B1")), max_entangled_ket(d, ("A2", "B2"))
            ).vec
            assert abs(np.real(phi2.conj() @ t.mat @ phi2) - 1.0) < 1e-10

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            t = bell_pair_test(d)
            for _ in range(50):
                sigma = random_density((d, d), rng)
                p = fidelity_defect(sigma)
                val = np.real(np.trace(t.mat @ np.kron(sigma.mat, sigma.mat)))
                assert (1 - p) ** 2 - 1e-10 <= val <= (1 - p) ** 2 + p * p + 1e-10

    def test_cross_blocks_vanish(self):
        d = 2
        t = bell_pair_test(d).mat
        p = proj(max_entangled_ket(d))
        q = np.eye(d * d) - p
        phi2 = np.kron(max_entangled_ket(d).vec, max_entangled_ket(d).vec)
        block_form = proj(phi2) + np.kron(q, q) @ t @ np.kron(q, q)
        assert np.max(np.abs(t - block_form)) <= 1e-10

    def test_phase_invariance(self):
        t = bell_pair_test(2)
        assert np.max(np.abs(phase_twirl(t.mat, 2) - t.mat)) < 1e-12
        dev = invariance_deviation(t, GroupAction("phase", 2, 2), 50, np.random.default_rng(9))
        assert dev <= 1e-10, dev

    def test_all_outcome_vectors_maximally_entangled(self):
        for d in (2, 3):
            for k in bell_basis(d):
                assert is_max_entangled(k)


class TestPooled:
    def test_reduces_to_single_sample(self):
        a = pooled_covariant_test(2, 1)
        b = one_sample_covariant_test(2)
        assert np.allclose(a.mat, b.mat)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            pooled_covariant_test(2, 0)

    def test_memory_guard_names_the_largest_n(self, monkeypatch):
        # n pairs at d = 2 build 4^n x 4^n operators: n = 2 fits in 100 kB,
        # n = 3 does not
        monkeypatch.setattr(memory, "ram_bytes", lambda: 10**5)
        assert pooled_covariant_test(2, 2).dim == 16
        monkeypatch.setattr(quantum, "sector_operator", lambda *a: pytest.fail("operator was built"))
        with pytest.raises(ValueError, match="the largest n that fits is 2$"):
            pooled_covariant_test(2, 3)

    def test_trace_value_example(self):
        assert abs(pooled_trace(2, 2, 0.25) - 0.65) < 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_matches_high_precision_at_large_n(self, d):
        # d^n overflows a float from n = 1024 at d = 2 and n = 647 at d = 3
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            for n in (1, 2, 10, 100, 646, 647, 1023, 1024, 1100):
                for p in (0.0, 1e-3, 0.1, 0.5, 1.0 - 1.0 / d, 0.9, 1.0):
                    dn = mp.mpf(d) ** n
                    want = (dn * (1 - mp.mpf(p)) ** n + 1) / (dn + 1)
                    got = pooled_trace(d, n, p)
                    if want < sys.float_info.min:  # below the normal floats: no relative digits
                        assert got < sys.float_info.min, (d, n, p)
                    else:
                        assert abs(got - want) <= 1e-12 * want, (d, n, p)

    def test_trace_keeps_its_digits_at_tiny_defects(self):
        # (1-p)^n is exp(n log1p(-p)): rounding 1 - p first costs about n eps
        mp = pytest.importorskip("mpmath").mp
        eps = sys.float_info.epsilon
        with mp.workdps(50):
            for n in (10**3, 10**5, 10**7, 10**9, 10**12):
                for p in (1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3):
                    dn = mp.mpf(2) ** n
                    want = (dn * (1 - mp.mpf(p)) ** n + 1) / (dn + 1)
                    if want < 1e-300:
                        continue
                    got = pooled_trace(2, n, p)
                    bound = 4 * eps * (1 + abs(float(n * mp.log1p(-mp.mpf(p)))))
                    assert abs(got - want) <= bound * want, (n, p)
        # the cell ``exact formula=pooled d=2 n=1000000000 p=1e-9`` writes
        assert f"{pooled_trace(2, 10**9, 1e-9):.12g}" == "0.367879440988"

    @pytest.mark.parametrize("n", [0, -2])
    def test_trace_refuses_fewer_than_one_pair(self, n):
        with pytest.raises(ValueError, match=f"need n >= 1 pairs, got {n}"):
            pooled_trace(2, n, 0.1)

    def test_operator_trace_matches_formula(self):
        d, n = 2, 2
        t = pooled_covariant_test(d, n)
        rng = np.random.default_rng(10)
        sigma = random_density((d, d), rng)
        p = fidelity_defect(sigma)
        rho = np.kron(sigma.mat, sigma.mat)
        assert abs(np.real(np.trace(t.mat @ rho)) - pooled_trace(d, n, p)) < 1e-10

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (3, 3)])
    def test_operator_trace_matches_formula_where_d_to_the_n_is_not_dn(self, d, n):
        t = pooled_covariant_test(d, n)
        sigma = random_density((d, d), np.random.default_rng(10 + d * n))
        rho = sigma.mat
        for _ in range(n - 1):
            rho = np.kron(rho, sigma.mat)
        want = pooled_trace(d, n, fidelity_defect(sigma))
        assert abs(np.real(np.trace(t.mat @ rho)) - want) < 1e-10

    def test_refuses_more_than_4096_dimensions_before_building(self, monkeypatch):
        # (d^2)^n = 16384 at d = 2, n = 7
        monkeypatch.setattr(quantum, "sector_operator", lambda *a: pytest.fail("operator was built"))
        with pytest.raises(ValueError, match="too large"):
            pooled_covariant_test(2, 7)

    def test_invariant_under_pooled_orthocomplement_action(self):
        d, n = 2, 2
        t = to_group_major(pooled_covariant_test(d, n))
        # pooled pair = one d^n x d^n pair; its target vector is the permuted
        # tensor power, matching the pooled orthocomplement action
        merged = states.TestOperator(t.mat, (d**n, d**n), ("A", "B"))
        dev = invariance_deviation(merged, GroupAction("ortho", d**n), 60, np.random.default_rng(11))
        assert dev <= 1e-10, dev

    def test_exponent_approaches_log_fidelity(self):
        d, p = 2, 0.3  # 1 - p >= 1/d
        rate = -math.log(pooled_trace(d, 12, p)) / 12
        assert abs(rate - (-math.log(1 - p))) / (-math.log(1 - p)) < 0.05


class TestSimplexCompletion:
    def test_qubit_from_basis_vector(self):
        us = simplex_completion(np.array([1.0, 0.0], dtype=complex))
        gram = np.array([[u.vec.conj() @ v.vec for v in us] for u in us])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        for u in us:
            assert abs(u.vec[0] - 1 / math.sqrt(2)) < 1e-12

    def test_offset_vectors_form_simplex(self):
        d = 4
        rng = np.random.default_rng(12)
        from entbench.states import random_ket

        phi = random_ket((d,), rng)
        us = simplex_completion(phi)
        offsets = [u.vec - phi.vec / math.sqrt(d) for u in us]
        for i in range(d):
            for j in range(d):
                val = offsets[i].conj() @ offsets[j]
                expected = (d - 1) / d if i == j else -1 / d
                assert abs(val - expected) < 1e-12

    def test_gram_identity_various_d(self):
        from entbench.states import random_ket

        for d in (2, 3, 5):
            phi = random_ket((d,), np.random.default_rng(d))
            us = simplex_completion(phi)
            gram = np.array([[u.vec.conj() @ v.vec for v in us] for u in us])
            assert np.max(np.abs(gram - np.eye(d))) < 1e-12
            for u in us:
                assert abs(u.vec.conj() @ phi.vec - 1 / math.sqrt(d)) < 1e-12


class TestSequentialCovariant:
    def test_perfect_state_accepts(self):
        rng = np.random.default_rng(13)
        sigma = isotropic_state(2, 0.0)
        est = sequential_covariant_trace(sigma, 500, rng)
        assert abs(est.value - 1.0) < 1e-12

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            sequential_covariant_trace(isotropic_state(2, 0.1), 0, np.random.default_rng(0))

    def test_one_sample_has_zero_stderr(self):
        est = sequential_covariant_trace(isotropic_state(2, 0.1), 1, np.random.default_rng(0))
        assert est.samples == 1 and est.stderr == 0.0 and math.isfinite(est.value)

    @pytest.mark.parametrize("sigma, message", [
        (np.eye(1), "is not d\\^2 of a d x d pair"),  # d = 1: no second seed vector
        (np.eye(3), "is not d\\^2 of a d x d pair"),
        (np.ones((4, 2)) / 4, "must be a square matrix"),
        (np.ones(4) / 4, "must be a square matrix"),
    ])
    def test_state_off_a_pair_is_refused(self, sigma, message):
        # the refusal comes before any draw
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sequential_covariant_trace(sigma, 10, rng)
        assert rng.bit_generator.state == before

    def test_matches_qubit_closed_form(self):
        from entbench.qubit_pair import beta_sequential_two_sample

        rng = np.random.default_rng(14)
        for seed in range(3):
            sigma = random_state_with_defect(2, 0.2 + 0.1 * seed, np.random.default_rng(seed))
            est = sequential_covariant_trace(sigma, 40000, rng)
            exact = beta_sequential_two_sample(sigma)
            assert abs(est.value - exact) <= 5 * est.stderr + 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_is_the_operator_trace_on_the_same_draws(self, d):
        # both draw two columns of each g through GroupAction._draws, in
        # _chunks order, so they use the same group elements sample for sample
        from entbench.twirl import _CHUNK

        samples = _CHUNK + 5
        sigma = random_density((d, d), np.random.default_rng(d)).mat
        rng, rng_op = np.random.default_rng(22), np.random.default_rng(22)
        est = sequential_covariant_trace(sigma, samples, rng)
        mean = sequential_covariant_operator(d, samples, rng_op).mean
        assert abs(est.value - np.trace(np.kron(sigma, sigma) @ mean).real) <= 1e-14
        assert rng.bit_generator.state == rng_op.bit_generator.state

    def test_operator_is_phase_invariant_within_mc_error(self):
        rng = np.random.default_rng(15)
        est = sequential_covariant_operator(2, 30000, rng)
        twirled = phase_twirl(est.mean, 2)
        # phase twirl only removes MC noise on the cross-charge blocks
        assert np.max(np.abs(twirled - est.mean)) <= np.max(5 * est.stderr) + 1e-9


class TestSeparableBound:
    def test_covariant_test_achieves_equality(self):
        d = 2
        t = one_sample_covariant_test(d)
        # explicit separable decomposition from its twirl origin is not needed;
        # trace and overlap can be checked directly
        res = separable_trace_bound([(1.0, t.mat, np.eye(1))], d)
        assert res.holds and abs(res.trace - d * res.overlap) < 1e-10

    def test_random_separable_tests_satisfy_bound(self):
        rng = np.random.default_rng(16)
        for d in (2, 3):
            for _ in range(200):
                terms = []
                for _ in range(rng.integers(1, 4)):
                    ga = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    gb = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    terms.append((rng.random(), ga @ ga.conj().T, gb @ gb.conj().T))
                res = separable_trace_bound(terms, d)
                assert res.holds

    def test_entangled_projector_violates(self):
        d = 3
        phi = max_entangled_ket(d).vec
        res = separable_trace_bound([(1.0, proj(phi), np.eye(1))], d)
        assert not res.holds and res.trace < d * res.overlap


class TestIsMaxEntangled:
    def test_target_vector(self):
        assert is_max_entangled(max_entangled_ket(3))

    def test_product_vector(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert not is_max_entangled(v)

    def test_agrees_with_svd_oracle(self):
        rng = np.random.default_rng(17)
        d = 3
        from entbench.states import generalized_pauli

        x, z = generalized_pauli(d)
        phi = max_entangled_ket(d).vec
        for _ in range(100):
            n, m = rng.integers(0, d, size=2)
            u = np.kron(
                np.linalg.matrix_power(x.mat, n) @ np.linalg.matrix_power(z.mat, m), np.eye(d)
            ) @ phi
            g = haar_unitary(d, rng)
            rotated = np.kron(g, np.eye(d)) @ u
            for vec in (u, rotated):
                assert is_max_entangled(vec) == singular_value_max_entangled(vec)
        # and a generically non-maximally-entangled one
        from entbench.states import random_ket

        w = random_ket((d, d), rng).vec
        assert is_max_entangled(w) == singular_value_max_entangled(w) == False  # noqa: E712


class TestBetaFormulas:
    def test_one_way_branches(self):
        d, p = 2, 0.3
        assert abs(beta_one_way(d, 0.0, 0.05, p) - 0.95 * (1 - 2 * p / 3)) < 1e-14
        r = d / (d + 1)
        eps = 0.3  # r eps = 0.2 > alpha = 0.1
        assert abs(beta_one_way(d, eps, 0.1, 0.6) - (1 - 0.1 * 0.6 / eps)) < 1e-14

    def test_one_way_branch_continuity(self):
        d, alpha = 3, 0.12
        eps_star = alpha * (d + 1) / d
        lo = beta_one_way(d, eps_star - 1e-12, alpha, 0.5)
        hi = beta_one_way(d, eps_star + 1e-12, alpha, 0.5)
        assert abs(lo - hi) < 1e-9

    def test_one_way_matches_operator_trace(self):
        d, eps, alpha = 2, 0.2, 0.1
        t = level_adjust(one_sample_covariant_test(d), d * eps / (d + 1), alpha)
        rng = np.random.default_rng(18)
        for _ in range(10):
            sigma = random_density((d, d), rng)
            p = fidelity_defect(sigma)
            val = np.real(np.trace(t.mat @ sigma.mat))
            assert abs(val - beta_one_way(d, eps, alpha, p)) < 1e-10

    def test_pair_repeated_matches_operator_trace(self):
        d, n, eps, alpha, p = 2, 2, 0.0, 0.1, 0.3
        big = binomial_operator_test(two_sample_covariant_test(d), mapped_boundary(d, eps), alpha, n)
        sigma = isotropic_state(d, p).mat
        rho = sigma
        for _ in range(2 * n - 1):
            rho = np.kron(rho, sigma)
        # operator is a 2-pair block repeated n times pair-major already
        val = np.real(np.trace(big.mat @ rho))
        assert abs(val - beta_pair_repeated(d, n, eps, alpha, p)) < 1e-9

    def test_pair_repeated_level_at_zero_defect(self):
        val = beta_pair_repeated(2, 3, 0.05, 0.1, 0.0)
        assert val >= 1 - 0.1 - 1e-12

    def test_mapped_boundary_monotone(self):
        d = 2
        grid = np.linspace(0, (d * d - 1) / (d * d), 200)
        vals = [mapped_boundary(d, x) for x in grid]
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_pair_repeated_warns_outside_validity(self):
        with pytest.warns(UserWarning):
            beta_pair_repeated(2, 1, 0.9, 0.1, 0.95)

    @pytest.mark.parametrize("d, above", [(2, 0.76), (3, 0.9)])
    def test_pair_repeated_warns_only_past_the_cap(self, d, above):
        # the mapped boundary folds back only past eps = (d^2 - 1)/d^2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            beta_pair_repeated(d, 1, (d * d - 1) / (d * d), 0.1, 0.95)
            assert caught == []
            beta_pair_repeated(d, 1, above, 0.1, 0.95)
        assert len(caught) == 1 and "folds back" in str(caught[0].message)

    @pytest.mark.parametrize("eps,alpha", [(1.5, 2.0), (0.1, 7.0), (-0.1, 0.05), (0.1, 0.0),
                                           (math.nan, 0.05)])
    def test_one_way_refuses_level_outside_its_domain(self, eps, alpha):
        with pytest.raises(ValueError, match="must lie in"):
            beta_one_way(2, eps, alpha, 0.1)

    @pytest.mark.parametrize(
        "formula",
        [lambda p: two_sample_trace(2, p), lambda p: pooled_trace(2, 2, p),
         lambda p: beta_one_way(2, 0.1, 0.05, p), lambda p: beta_pair_repeated(2, 2, 0.1, 0.05, p)],
        ids=["two-sample", "pooled", "one-way", "pair-repeated"],
    )
    @pytest.mark.parametrize("p", [2.0, -0.5, math.nan])
    def test_one_source_formulas_refuse_defect_outside_unit_interval(self, formula, p):
        with pytest.raises(ValueError, match=r"defect .* outside \[0, 1\]"):
            formula(p)


class TestSampledAdversaryOptimality:
    def test_no_invariant_separable_test_beats_closed_form(self):
        # mixtures t0 P + t1 (I - P) with t1 >= t0/(d+1) are the invariant
        # separable tests; none below level alpha may undercut the closed form
        d, eps, alpha = 2, 0.1, 0.1
        rng = np.random.default_rng(19)
        t0 = rng.random(400000)
        t1 = rng.random(400000)
        sep = t1 >= t0 / (d + 1)
        level = np.minimum(t0, t0 * (1 - eps) + t1 * eps) >= 1 - alpha
        keep = sep & level
        assert keep.sum() >= 10000
        t0, t1 = t0[keep], t1[keep]
        for q in np.linspace(eps + 0.05, 0.95, 10):
            betas = t0 * (1 - d * q / (d + 1)) + t1 * d * q / (d + 1)
            assert betas.min() >= beta_one_way(d, eps, alpha, q) - 1e-12


class TestLevelAdjustedTwoSample:
    def test_closed_form_matches_operator_trace(self):
        # level-adjusted two-sample test: randomizing {T2, I-T2} at the mapped
        # boundary gives the piecewise closed form in the mapped parameters
        d, alpha = 2, 0.1
        rng = np.random.default_rng(20)
        for eps in (0.02, 0.3):
            eps2 = mapped_boundary(d, eps)
            t = level_adjust(two_sample_covariant_test(d), eps2, alpha)
            for _ in range(5):
                sigma = random_density((d, d), rng)
                p2 = mapped_boundary(d, fidelity_defect(sigma))
                val = np.real(np.trace(t.mat @ np.kron(sigma.mat, sigma.mat)))
                if eps2 <= alpha:
                    expected = (1 - alpha) * (1 - p2) / (1 - eps2)
                else:
                    expected = 1 - alpha * p2 / eps2
                assert abs(val - expected) < 1e-9

    def test_d5_covariant_forms(self):
        d = 5
        t1 = one_sample_covariant_test(d)
        assert abs(t1.trace().real - d) < 1e-10
        sigma = isotropic_state(d, 0.2)
        val = np.real(np.trace(two_sample_covariant_test(d).mat @ np.kron(sigma.mat, sigma.mat)))
        assert abs(val - two_sample_trace(d, 0.2)) < 1e-10


class TestRepeatedPairSectorOracle:
    def test_three_round_value_via_sector_enumeration(self):
        # independent oracle for 3 repetitions of the two-sample test on an
        # isotropic state: enumerate joint (target/complement) sectors of the
        # six pairs; each round's block acts diagonally with eigenvalues
        # 1, 0, 0, 1/(d^2-1), and the count threshold mixes the rounds
        from itertools import product

        from entbench.classical import binomial_ump_test

        d, n, eps, alpha, p = 2, 3, 0.04, 0.1, 0.22
        lam = {
            (0, 0): 1.0,
            (0, 1): 0.0,
            (1, 0): 0.0,
            (1, 1): 1.0 / (d * d - 1),
        }
        weight = {
            (0, 0): (1 - p) ** 2,
            (0, 1): (1 - p) * p,
            (1, 0): p * (1 - p),
            (1, 1): p * p,
        }
        ct = binomial_ump_test(n, mapped_boundary(d, eps), alpha)
        accept = [1.0 if k < ct.threshold else ct.gamma if k == ct.threshold else 0.0
                  for k in range(n + 1)]
        total = 0.0
        for sectors in product(lam.keys(), repeat=n):
            w = math.prod(weight[s] for s in sectors)
            lams = [lam[s] for s in sectors]
            # eigenvalue of the thresholded operator on this sector pattern
            val = 0.0
            for fails in product((0, 1), repeat=n):
                contrib = math.prod(l if f == 0 else 1 - l for l, f in zip(lams, fails))
                val += accept[sum(fails)] * contrib
            total += w * val
        assert abs(total - beta_pair_repeated(d, n, eps, alpha, p)) < 1e-9
