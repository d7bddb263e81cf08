import math

import numpy as np
import pytest

from entbench import multisource as ms
from entbench.quantum import one_sample_covariant_test, two_sample_covariant_test
from entbench.classical import beta_poisson
from entbench.states import (
    Ket,
    doubled_ket,
    fidelity_defect,
    isotropic_state,
    proj,
    random_density,
    random_ket,
)
from entbench.twirl import GroupAction, mc_twirl
from helpers import random_state_with_defect


class TestTwoSource:
    def test_perfect_sources(self):
        val, ok = ms.beta_two_source(3, 0.0, 0.0)
        assert val == pytest.approx(1.0) and ok

    def test_example_value(self):
        val, ok = ms.beta_two_source(2, 0.2, 0.3)
        assert abs(val - 0.58) < 1e-12 and ok

    def test_condition_fails_near_one(self):
        _, ok = ms.beta_two_source(2, 0.98, 0.5)
        assert not ok

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(0)
        t2 = {d: two_sample_covariant_test(d).mat for d in (2, 3)}
        for d in (2, 3):
            for _ in range(10):
                s1 = random_density((d, d), rng)
                s2 = random_density((d, d), rng)
                direct = np.real(np.trace(t2[d] @ np.kron(s1.mat, s2.mat)))
                val, _ = ms.beta_two_source(d, fidelity_defect(s1), fidelity_defect(s2))
                assert abs(val - direct) <= 1e-10


class TestTwoSourceLocal:
    def test_perfect_sources(self):
        assert ms.beta_two_source_local(2, 0.0, 0.0) == pytest.approx(1.0)

    def test_example_value(self):
        assert abs(ms.beta_two_source_local(2, 0.3, 0.3) - 0.64) < 1e-12

    def test_matches_product_trace_oracle(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            t1 = one_sample_covariant_test(d).mat
            prod = np.kron(t1, t1)
            for _ in range(10):
                s1 = random_density((d, d), rng)
                s2 = random_density((d, d), rng)
                direct = np.real(np.trace(prod @ np.kron(s1.mat, s2.mat)))
                val = ms.beta_two_source_local(d, fidelity_defect(s1), fidelity_defect(s2))
                assert abs(val - direct) <= 1e-10

    def test_weaker_than_joint_test_on_validity_region(self):
        for d in (2, 3):
            for p1 in np.linspace(0.0, 0.5, 6):
                for p2 in np.linspace(0.0, 0.5, 6):
                    val, ok = ms.beta_two_source(d, p1, p2)
                    if ok:
                        assert val <= ms.beta_two_source_local(d, p1, p2) + 1e-12


class TestTripleTest:
    def test_trace_is_d_cubed(self):
        for d in (2, 3):
            t3 = ms.three_source_covariant_test(d)
            assert abs(t3.trace().real - d**3) <= 1e-8

    def test_ghz_point_coefficients(self):
        for d in (2, 3):
            co = ms.triple_overlap_coefficients(1 / d**2, 1 / d**2, 1 / d**2, 1.0, d)
            assert abs(co[(1, 1, 1)] - (d + 2) / ((d + 1) ** 3 * (d - 1))) <= 1e-12
            for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
                assert abs(co[idx]) <= 1e-12
            for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                assert abs(co[idx] - 1 / ((d + 1) ** 2 * (d - 1))) <= 1e-12
            assert co[(0, 0, 0)] == 1.0

    def test_d2_coefficient_values(self):
        co = ms.triple_overlap_coefficients(0.25, 0.25, 0.25, 1.0, 2)
        assert abs(co[(1, 1, 1)] - 4 / 27) < 1e-14
        assert abs(co[(0, 1, 1)] - 1 / 9) < 1e-14

    def test_single_pair_boundary_zeroes_coefficient(self):
        d = 3
        co = ms.triple_overlap_coefficients(1 / d**2, 0.5, 0.5, 1.0, d)
        assert abs(co[(1, 0, 0)]) <= 1e-14

    def test_random_admissible_coefficients_stay_in_unit_interval(self):
        # seeds u_B = conj(u_A) with unit u_A satisfy the overlap constraint
        d = 2
        for i in range(100):
            u = random_ket((d, d, d), np.random.default_rng(100 + i)).vec
            betas = []
            for axis in range(3):
                t = np.moveaxis(u.reshape(d, d, d), axis, 0).reshape(d, d * d)
                m = t @ t.conj().T
                betas.append(float(np.real(np.trace(m @ m))) / d)
            co = ms.triple_overlap_coefficients(*betas, 1.0, d)
            vals = np.array(list(co.values()))
            assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12

    def test_matches_ghz_twirl(self):
        d = 2
        rng = np.random.default_rng(2)
        ket = doubled_ket(ms.ghz_ket(d), d)
        seed = Ket(math.sqrt(d**3) * ket.vec, ket.dims, ket.labels)
        assert np.max(np.abs(proj(seed) - ms.ghz_seed_operator(d))) <= 1e-15
        est = mc_twirl(seed, GroupAction("local_independent", d, 3), 10000, rng)
        assert est.within(ms.three_source_covariant_test(d).mat)

    def test_target_eigenvector(self):
        d = 2
        t3 = ms.three_source_covariant_test(d)
        from entbench.states import max_entangled_ket

        phi3 = np.kron(
            np.kron(max_entangled_ket(d).vec, max_entangled_ket(d).vec), max_entangled_ket(d).vec
        )
        assert abs(np.real(phi3.conj() @ t3.mat @ phi3) - 1.0) < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            ms.three_source_covariant_test(4)


class TestBetaThreeSource:
    def test_perfect_sources(self):
        with pytest.warns(ms.TripleTermNote):
            val, ok = ms.beta_three_source(2, 0.0, 0.0, 0.0)
        assert val == pytest.approx(1.0) and ok

    def test_matches_trace_oracle(self):
        # at d = 2, d - 1 = 1 cannot tell a product by (d - 1) from a quotient
        rng = np.random.default_rng(3)
        for d in (2, 3):
            t3 = ms.three_source_covariant_test(d).mat
            for _ in range(10):
                sigmas = [random_state_with_defect(d, float(p), rng) for p in rng.random(3) * 0.5]
                joint = np.kron(np.kron(sigmas[0].mat, sigmas[1].mat), sigmas[2].mat)
                direct = np.real(np.sum(t3 * joint.T))  # Tr(T joint)
                with pytest.warns(ms.TripleTermNote):
                    val, _ = ms.beta_three_source(d, *[fidelity_defect(s) for s in sigmas])
                assert abs(val - direct) <= 1e-9

    def test_symmetric_under_permutations(self):
        import itertools
        import warnings

        ps = (0.1, 0.25, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = {round(ms.beta_three_source(2, *perm).value, 14) for perm in itertools.permutations(ps)}
        assert len(vals) == 1

    def test_condition_flag(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, ok = ms.beta_three_source(2, 0.3, 0.2, 0.1)
            assert ok
            _, bad = ms.beta_three_source(2, 0.7, 0.2, 0.1)  # above (d-1)/d = 1/2
            assert not bad

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_condition_flag_at_its_edge(self, d):
        # p_i = (d-1)/d is optimal, and so is 1 - 1/d, one rounding above it
        # at d = 3; the flag's 1e-15 of slack ends at ``edge``
        import warnings

        edge = (d - 1.0) / d + 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for p, optimal in (((d - 1.0) / d, True), (1.0 - 1.0 / d, True), (edge, True),
                               (np.nextafter(edge, 1.0), False)):
                for ps in ((p, 0.1, 0.2), (0.1, 0.2, p)):
                    assert ms.beta_three_source(d, *ps).condition_holds is optimal, (p, ps)

    def test_emits_discrepancy_note(self):
        with pytest.warns(ms.TripleTermNote):
            ms.beta_three_source(2, 0.1, 0.1, 0.1)


class TestPoissonTwoSource:
    def test_single_source_reduction(self):
        assert ms.poisson_two_source(1.0, 0.05, 2.0, 0.0) == beta_poisson(1.0, 0.05, 2.0)

    def test_symmetry(self):
        assert ms.poisson_two_source(1.0, 0.05, 1.0, 2.0) == ms.poisson_two_source(1.0, 0.05, 2.0, 1.0)

    def test_collapses_to_summed_rate(self):
        assert ms.poisson_two_source(1.0, 0.05, 1.0, 2.0) == beta_poisson(1.0, 0.05, 3.0)


class TestIsotropicConsistency:
    def test_equal_defect_sources_match_single_state_formulas(self):
        # sigma1 = sigma2 isotropic: two-source value equals the two-sample one
        from entbench.quantum import two_sample_trace

        d, p = 3, 0.3
        val, _ = ms.beta_two_source(d, p, p)
        assert abs(val - two_sample_trace(d, p)) < 1e-12
        s = isotropic_state(d, p)
        assert abs(fidelity_defect(s) - p) < 1e-12


class TestThreeSourceLocal:
    def test_matches_triple_product_trace(self):
        rng = np.random.default_rng(50)
        d = 2
        t1 = one_sample_covariant_test(d).mat
        triple = np.kron(np.kron(t1, t1), t1)
        sigmas = [random_density((d, d), rng) for _ in range(3)]
        joint = np.kron(np.kron(sigmas[0].mat, sigmas[1].mat), sigmas[2].mat)
        direct = np.real(np.trace(triple @ joint))
        val = ms.beta_three_source_local(d, *[fidelity_defect(s) for s in sigmas])
        assert abs(val - direct) <= 1e-10

    def test_perfect_sources(self):
        assert ms.beta_three_source_local(3, 0.0, 0.0, 0.0) == pytest.approx(1.0)
