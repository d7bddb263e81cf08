import numpy as np
import pytest

from entbench import qubit_pair as qp
from entbench.quantum import sequential_covariant_trace, two_sample_covariant_test
from entbench.states import DensityMatrix, isotropic_state, random_density
from entbench.twirl import phase_unitary
from helpers import random_state_with_defect


def two_copies(sigma) -> np.ndarray:
    return np.kron(sigma.mat, sigma.mat)


class TestBellBlock:
    def test_pure_target(self):
        blk = qp.bell_block(isotropic_state(2, 0.0))
        assert blk.a == pytest.approx(1.0)
        assert np.allclose(blk.b, 0) and np.allclose(blk.c, 0)

    def test_isotropic(self):
        p = 0.3
        blk = qp.bell_block(isotropic_state(2, p))
        assert np.allclose(blk.c, (p / 3) * np.eye(3), atol=1e-12)
        assert abs(blk.defect - p) < 1e-12

    def test_bell_diagonal(self):
        sigma = qp.bell_diagonal_state(0.1, 0.2, 0.15)
        blk = qp.bell_block(sigma)
        assert np.allclose(blk.b, 0)
        assert np.allclose(blk.c, np.diag([0.1, 0.2, 0.15]), atol=1e-12)

    def test_trace_budget_enforced(self):
        blk = qp.bell_block(random_density((2, 2), np.random.default_rng(0)))
        assert abs(blk.a + np.trace(blk.c).real - 1.0) < 1e-12


class TestIrrepProjectors:
    def test_ranks(self):
        pis = qp.irrep_projectors()
        assert [int(round(np.trace(p).real)) for p in pis] == list(qp.BLOCK_DIMS)

    def test_mutually_orthogonal_and_complete(self):
        pis = qp.irrep_projectors()
        for i, a in enumerate(pis):
            assert np.max(np.abs(a @ a - a)) < 1e-12
            for b in pis[i + 1 :]:
                assert np.max(np.abs(a @ b)) < 1e-12
        assert np.max(np.abs(sum(pis) - np.eye(16))) <= 1e-10

    def test_phase_charges(self):
        theta = 0.7
        u = np.kron(phase_unitary(theta, 2), phase_unitary(theta, 2))
        charges = (0, 1, 2, 0, 0, 1)
        for pi, k in zip(qp.irrep_projectors(), charges):
            # the action multiplies the block by e^{i k theta}
            assert np.max(np.abs(u @ pi - np.exp(1j * k * theta) * pi)) < 1e-12

    def test_swap_signs(self):
        swap = np.eye(16).reshape(2, 2, 2, 2, 2, 2, 2, 2).transpose(2, 3, 0, 1, 4, 5, 6, 7)
        swap = swap.reshape(16, 16)
        signs = (1, 1, 1, 1, -1, -1)
        for pi, s in zip(qp.irrep_projectors(), signs):
            # every vector in the block is a swap eigenvector with this sign
            assert np.max(np.abs(swap @ pi - s * pi)) < 1e-12


class TestBlockTraces:
    def test_pure_target_concentrates(self):
        traces = qp.block_traces(isotropic_state(2, 0.0))
        expected = np.zeros(6)
        expected[2] = 1.0  # charge-2 block
        assert np.allclose(traces, expected, atol=1e-12)

    def test_formulas_match_projectors_isotropic(self):
        sigma = isotropic_state(2, 0.3)
        direct = np.array(
            [np.real(np.trace(two_copies(sigma) @ pi)) for pi in qp.irrep_projectors()]
        )
        assert np.max(np.abs(qp.block_traces(sigma) - direct)) <= 1e-10

    def test_formulas_match_projectors_random(self):
        rng = np.random.default_rng(1)
        pis = qp.irrep_projectors()
        for _ in range(100):
            sigma = random_density((2, 2), rng)
            direct = np.array([np.real(np.trace(two_copies(sigma) @ pi)) for pi in pis])
            assert np.max(np.abs(qp.block_traces(sigma) - direct)) <= 1e-10
            assert abs(qp.block_traces(sigma).sum() - 1.0) < 1e-10


class TestSeedVectors:
    def test_optimal_weights(self):
        w = qp.block_weights(qp.optimal_seed_vector())
        assert np.max(np.abs(w - np.array(qp.OPTIMAL_WEIGHTS))) <= 1e-12

    def test_sequential_weights(self):
        u1 = np.array([1.0, 0.0], dtype=complex)
        u2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        w = qp.block_weights(np.kron(u1, u2))
        assert np.max(np.abs(w - np.array(qp.SEQUENTIAL_WEIGHTS))) <= 1e-12

    def test_optimal_seed_is_unit(self):
        assert abs(np.linalg.norm(qp.optimal_seed_vector()) - 1.0) < 1e-14


class TestOptimalTwoSample:
    def test_matches_effective_operator(self):
        for test, beta in (
            (qp.optimal_two_sample_test, qp.beta_optimal_two_sample),
            (qp.sequential_two_sample_test, qp.beta_sequential_two_sample),
        ):
            teff = test().mat
            rng = np.random.default_rng(2)
            for i in range(50):
                sigma = random_state_with_defect(2, 0.05 + 0.009 * i, rng)
                val = np.real(np.trace(two_copies(sigma) @ teff))
                assert abs(beta(sigma) - val) <= 1e-10

    def test_bell_diagonal_closed_form(self):
        sigma = qp.bell_diagonal_state(0.12, 0.2, 0.05)
        c = np.diag([0.12, 0.2, 0.05])
        p = float(np.trace(c))
        var = np.trace(c @ c) / 3 - (p / 3) ** 2
        assert abs(qp.beta_optimal_two_sample(sigma) - ((1 - p) ** 2 + p * p / 3 - 0.6 * var)) < 1e-12

    def test_isotropic_matches_two_sample_covariant(self):
        p = 0.25
        sigma = isotropic_state(2, p)
        assert abs(qp.beta_optimal_two_sample(sigma) - ((1 - p) ** 2 + p * p / 3)) < 1e-12

    def test_perfect_state(self):
        assert abs(qp.beta_optimal_two_sample(isotropic_state(2, 0.0)) - 1.0) < 1e-14

    def test_warns_beyond_half(self):
        with pytest.warns(UserWarning):
            qp.beta_optimal_two_sample(isotropic_state(2, 0.7))

    def test_improves_on_symmetric_covariant_test(self):
        t2 = two_sample_covariant_test(2).mat
        rng = np.random.default_rng(3)
        for i in range(50):
            sigma = random_state_with_defect(2, 0.05 + 0.009 * i, rng)
            symmetric = np.real(np.trace(two_copies(sigma) @ t2))
            assert qp.beta_optimal_two_sample(sigma) <= symmetric + 1e-12


class TestSequentialTwoSample:
    def test_perfect_state(self):
        assert abs(qp.beta_sequential_two_sample(isotropic_state(2, 0.0)) - 1.0) < 1e-14

    def test_isotropic_zero_variance(self):
        p = 0.4
        val = qp.beta_sequential_two_sample(isotropic_state(2, p))
        assert abs(val - (1 - 2 * p / 3) ** 2) < 1e-12

    def test_two_closed_forms_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sigma = random_density((2, 2), rng)
            assert abs(qp.beta_sequential_two_sample(sigma) - qp.beta_sequential_expanded(sigma)) <= 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        sigma = random_state_with_defect(2, 0.3, np.random.default_rng(99))
        est = sequential_covariant_trace(sigma, 40000, rng)
        assert abs(qp.beta_sequential_two_sample(sigma) - est.value) <= 5 * est.stderr + 1e-9

    def test_gain_vanishes_iff_v_constant(self):
        # isotropic: V proportional to identity -> zero gain
        assert qp.communication_gain(isotropic_state(2, 0.3)) <= 1e-12
        # bell diagonal with spread eigenvalues -> strictly positive gain
        sigma = qp.bell_diagonal_state(0.3, 0.05, 0.05)
        blk = qp.bell_block(sigma)
        off = np.max(np.abs(blk.v - (np.trace(blk.v) / 3) * np.eye(3)))
        assert off > 1e-8 and qp.communication_gain(sigma) > 1e-12
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = random_density((2, 2), rng)
            blk = qp.bell_block(s)
            gain = qp.communication_gain(s)
            is_const = np.max(np.abs(blk.v - (np.trace(blk.v) / 3) * np.eye(3))) <= 1e-8
            assert (gain <= 1e-12) == is_const
            assert gain >= -1e-15


class TestInequalities:
    def test_isotropic_and_pure(self):
        assert all(qp.block_trace_inequalities(isotropic_state(2, 0.4)))
        assert all(qp.block_trace_inequalities(isotropic_state(2, 0.0)))

    def test_plain_bools_and_a_failing_case(self):
        # defect 0.8 is past the 1/2 where the inequalities are proved; the
        # first two fail there
        got = qp.block_trace_inequalities(isotropic_state(2, 0.8))
        assert got == (False, False, True)
        assert all(type(x) is bool for x in got)

    def test_random_low_defect_states(self):
        rng = np.random.default_rng(7)
        for i in range(10000):
            sigma = random_state_with_defect(2, 0.5 * (i + 0.5) / 10000, rng)
            assert all(qp.block_trace_inequalities(sigma))


class TestValidation:
    def test_block_decomposition_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            qp.BlockDecomposition(a=0.5, b=np.zeros(3), c=np.eye(3))

    QUBIT_FORMULAS = [qp.bell_block, qp.block_traces, qp.beta_optimal_two_sample,
                      qp.beta_sequential_two_sample, qp.beta_sequential_expanded,
                      qp.block_trace_inequalities, qp.communication_gain]

    @pytest.mark.parametrize("formula", QUBIT_FORMULAS)
    def test_trace_within_trace_tol_is_accepted(self, formula):
        # the Bell blocks are held to the DensityMatrix tolerances, so a state
        # that DensityMatrix certifies is one every qubit formula takes
        mat = qp.bell_diagonal_state(0.1, 0.05, 0.2).mat * (1.0 + 5e-11)
        sigma = DensityMatrix(mat, (2, 2))
        formula(sigma)
        formula(mat)

    @pytest.mark.parametrize("formula", QUBIT_FORMULAS)
    def test_trace_past_trace_tol_is_refused(self, formula):
        mat = qp.bell_diagonal_state(0.1, 0.05, 0.2).mat * (1.0 + 2e-10)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(mat, (2, 2))
        with pytest.raises(ValueError, match="unit trace"):
            formula(mat)

    def test_bell_block_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            qp.bell_block(np.eye(9) / 9)

    def test_bell_diagonal_validation(self):
        with pytest.raises(ValueError):
            qp.bell_diagonal_state(0.6, 0.5, 0.2)


class TestRefusals:
    """Each refusal raises its own type with its own message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: qp.BlockDecomposition(0.7, np.zeros(3), [[0.1, 0.05, 0.0], [0.0, 0.1, 0.0],
                                                                  [0.0, 0.0, 0.1]]),
                     ValueError, "C block must be Hermitian", id="non-hermitian"),
        pytest.param(lambda: qp.BlockDecomposition(1.1, np.zeros(3), np.diag([-0.1, 0.0, 0.0])),
                     ValueError, "diagonal blocks must be positive semidefinite", id="negative-c"),
        pytest.param(lambda: qp.BlockDecomposition(-0.1, np.zeros(3), np.diag([0.5, 0.3, 0.3])),
                     ValueError, "diagonal blocks must be positive semidefinite", id="negative-a"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message
