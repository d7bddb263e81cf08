import math
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from entbench import memory, quantum, qubit_pair, states, twirl
from entbench.cli import _twirl_case
from entbench.multisource import three_source_covariant_test
from entbench.states import (
    Ket,
    isotropic_state,
    max_entangled_ket,
    mixed_tensor_sum,
    proj,
    random_density,
    random_test,
)
from entbench.twirl import (
    KINDS,
    GroupAction,
    TwirlEstimate,
    doubled_twirl,
    haar_unitaries,
    haar_unitary,
    mc_twirl,
    orthocomplement_unitary,
    pair_conjugate_unitary,
    phase_twirl,
    phase_unitary,
)
from helpers import (
    haar_batch_first,
    invariance_deviation,
    local_twirl_exact,
    mean_stderr_reference,
    outer_moments_reference,
    placement_sum,
    reference_samples,
    reference_twirl,
)


class TestPhaseUnitary:
    def test_theta_zero_is_identity(self):
        assert np.allclose(phase_unitary(0.0, 3), np.eye(9))

    def test_phase_on_target_vector(self):
        d, theta = 2, 0.8
        phi = max_entangled_ket(d).vec
        assert np.allclose(phase_unitary(theta, d) @ phi, np.exp(1j * theta) * phi)

    def test_inverse(self):
        d, theta = 3, 1.3
        u = phase_unitary(theta, d) @ phase_unitary(-theta, d)
        assert np.max(np.abs(u - np.eye(d * d))) < 1e-12


class TestPairConjugateUnitary:
    def test_identity(self):
        assert np.allclose(pair_conjugate_unitary(np.eye(3)), np.eye(9))

    def test_fixes_target_for_haar_samples(self):
        d = 3
        rng = np.random.default_rng(0)
        phi = max_entangled_ket(d).vec
        for g in haar_unitaries(d, 100, rng):
            u = pair_conjugate_unitary(g)
            assert np.max(np.abs(u @ phi - phi)) < 1e-10

    def test_unitary(self):
        rng = np.random.default_rng(1)
        u = pair_conjugate_unitary(haar_unitary(2, rng))
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


class TestOrthocomplementUnitary:
    def test_identity_embeds_to_identity(self):
        d = 2
        u = orthocomplement_unitary(np.eye(d * d - 1), d)
        assert np.max(np.abs(u - np.eye(d * d))) < 1e-12

    def test_fixes_target(self):
        d = 3
        rng = np.random.default_rng(2)
        phi = max_entangled_ket(d).vec
        g = haar_unitary(d * d - 1, rng)
        v = orthocomplement_unitary(g, d)
        assert np.max(np.abs(v @ phi - phi)) < 1e-12

    def test_unitary(self):
        d = 2
        rng = np.random.default_rng(3)
        v = orthocomplement_unitary(haar_unitary(d * d - 1, rng), d)
        assert np.max(np.abs(v @ v.conj().T - np.eye(d * d))) < 1e-12


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 5):
            u = haar_unitary(dim, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12

    def test_first_moment_vanishes(self):
        d, n = 2, 100000
        rng = np.random.default_rng(6)
        us = haar_unitaries(d, n, rng)
        mean = us.mean(axis=0)
        stderr = np.sqrt(
            ((np.abs(us) ** 2).mean(axis=0) - np.abs(mean) ** 2) / (n - 1)
        )
        assert np.all(np.abs(mean) <= 5 * stderr + 1e-9)

    def test_second_moment_depolarizes(self):
        d, n = 2, 100000
        rng = np.random.default_rng(7)
        rho = random_density((d,), rng).mat
        us = haar_unitaries(d, n, rng)
        conj = (us @ rho) @ us.conj().transpose(0, 2, 1)
        mean = conj.mean(axis=0)
        var = (np.abs(conj) ** 2).mean(axis=0) - np.abs(mean) ** 2
        stderr = np.sqrt(var / (n - 1))
        assert np.all(np.abs(mean - np.eye(d) / d) <= 5 * stderr + 1e-9)


class TestOrthonormalColumns:
    """Batched Gram-Schmidt against LAPACK QR, on conditioning, and on Haar moments."""

    @staticmethod
    def _qr_reference(a):
        q, r = np.linalg.qr(a)
        diag = np.diagonal(r, axis1=1, axis2=2)
        return q * (diag / np.abs(diag))[:, np.newaxis, :]

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_phase_normalized_qr(self, dim):
        rng = np.random.default_rng(60 + dim)
        a = rng.standard_normal((500, dim, dim)) + 1j * rng.standard_normal((500, dim, dim))
        got = states._orthonormal_columns(a.transpose(1, 2, 0).copy()).transpose(2, 0, 1)
        assert np.max(np.abs(got - self._qr_reference(a))) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_unitary_on_ill_conditioned_input(self, dim):
        rng = np.random.default_rng(70 + dim)
        u, v = haar_unitaries(dim, 2, rng)
        a = (u * np.logspace(0, -10, dim)) @ v.conj().T
        assert 0.5e10 <= np.linalg.cond(a) <= 2e10
        q = states._orthonormal_columns(a[:, :, np.newaxis].copy())[:, :, 0]
        assert np.max(np.abs(q.conj().T @ q - np.eye(dim))) <= 1e-14

    @pytest.mark.parametrize("dim, count", [(2, 8192), (3, 5000), (4, 8192), (5, 7), (3, 1), (15, 40)])
    def test_batch_last_sampler_is_the_batch_first_stream(self, dim, count):
        rngs = [np.random.default_rng(dim * count) for _ in range(4)]
        q = states.haar_columns(dim, count, rngs[0])
        u = haar_unitaries(dim, count, rngs[1])
        assert q.shape == (dim, dim, count) and u.shape == (count, dim, dim)
        assert np.array_equal(q.transpose(2, 0, 1), u)
        assert np.array_equal(u, haar_batch_first(dim, count, rngs[2]))
        # every column asked for by name is the default draw
        assert np.array_equal(states.haar_columns(dim, count, rngs[3], columns=dim), q)
        assert rngs[0].random() == rngs[1].random() == rngs[2].random() == rngs[3].random()

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_one_unitary_is_the_one_sample_batch(self, dim):
        rngs = [np.random.default_rng(dim) for _ in range(2)]
        u = haar_unitary(dim, rngs[0])
        assert u.flags.c_contiguous
        assert np.array_equal(u, haar_unitaries(dim, 1, rngs[1])[0])
        assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (4, 2), (5, 3), (5, 5)])
    def test_leading_columns_are_orthonormal_with_haar_second_moment(self, d, r):
        # E|U_ij|^2 = 1/d for every entry of a Haar unitary
        n = 20000
        q = states.haar_columns(d, n, np.random.default_rng(90 + 10 * d + r), columns=r)
        assert q.shape == (d, r, n)
        gram = np.einsum("irn,isn->rsn", q.conj(), q)
        assert np.max(np.abs(gram - np.eye(r)[:, :, np.newaxis])) <= 1e-14
        x = np.abs(q) ** 2
        assert np.all(np.abs(x.mean(axis=2) - 1.0 / d) <= 5 * x.std(axis=2, ddof=1) / np.sqrt(n))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_haar_moments(self, d):
        # E|U_00|^2 = 1/d and E|U_00|^4 = 2/(d(d+1)) under the Haar measure
        n = 20000
        x = np.abs(haar_unitaries(d, n, np.random.default_rng(80 + d))[:, 0, 0]) ** 2
        for moment, want in ((x, 1.0 / d), (x**2, 2.0 / (d * (d + 1)))):
            assert abs(moment.mean() - want) <= 5 * moment.std(ddof=1) / np.sqrt(n)


class TestMcTwirl:
    def test_invariant_operator_fixed(self):
        d = 2
        rng = np.random.default_rng(8)
        est = mc_twirl(max_entangled_ket(d), GroupAction("local", d), 2000, rng)
        assert est.within(proj(max_entangled_ket(d)))

    def test_one_sample_covariant_identity(self):
        for d in (2, 3):
            rng = np.random.default_rng(9)
            u0 = np.zeros(d, dtype=complex)
            u0[0] = 1.0
            seed = Ket(np.sqrt(d) * np.kron(u0, u0.conj()), (d, d))  # d |u0 u0*><u0 u0*|
            est = mc_twirl(seed, GroupAction("local", d), 20000, rng)
            p = proj(max_entangled_ket(d))
            target = p + (np.eye(d * d) - p) / (d + 1)
            assert est.within(target)
            assert est.stderr.max() < 0.02

    def test_schur_form_for_generic_operator(self):
        d = 2
        rng = np.random.default_rng(10)
        op = random_test((d, d), rng).mat
        est = reference_twirl(op, GroupAction("local", d), 40000, rng)
        phi = max_entangled_ket(d).vec
        p = proj(phi)
        t0 = np.real(phi.conj() @ est.mean @ phi)
        t1 = (np.trace(est.mean).real - t0) / (d * d - 1)
        assert est.within(t0 * p + t1 * (np.eye(d * d) - p))

    def test_deterministic_for_fixed_seed(self):
        d = 2
        v = _random_ket(d, 1, 0)
        a = mc_twirl(v, GroupAction("local", d), 5000, np.random.default_rng(77))
        b = mc_twirl(v, GroupAction("local", d), 5000, np.random.default_rng(77))
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_twirl(max_entangled_ket(2), GroupAction("local", 2), 0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "op",
        [np.eye(4), proj(max_entangled_ket(2)), isotropic_state(2, 0.1), max_entangled_ket(2).vec],
        ids=["array", "projector", "operator", "vector"],
    )
    def test_refuses_anything_but_a_ket_before_any_draw(self, op):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TypeError, match="Ket"):
            mc_twirl(op, GroupAction("local", 2), 10, rng)
        assert rng.bit_generator.state == state


class TestPhaseTwirl:
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_matches_dense_mean_over_its_angles(self, copies):
        d, dim = 2, 4**copies
        g = np.random.default_rng(12).standard_normal((2, dim, dim))
        op = g[0] + 1j * g[1]  # neither Hermitian nor invariant
        want = np.zeros_like(op)
        for theta in 2.0 * np.pi * np.arange(copies + 1) / (copies + 1):
            f = reduce(np.kron, [phase_unitary(theta, d)] * copies)
            want += f @ op @ f.conj().T / (copies + 1)
        assert np.max(np.abs(phase_twirl(op, d) - want)) <= 1e-14

    def test_sector_diagonal_unchanged(self):
        d = 2
        p = proj(max_entangled_ket(d))
        op = 0.4 * p + 0.1 * (np.eye(d * d) - p)
        assert np.max(np.abs(phase_twirl(op, d) - op)) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        op = random_test((2, 2, 2, 2), rng).mat
        once = phase_twirl(op, 2)
        assert np.max(np.abs(phase_twirl(once, 2) - once)) < 1e-12

    @staticmethod
    def _reweighted(sigma, d, q):
        phi = max_entangled_ket(d).vec
        p_op = proj(phi)
        q_op = np.eye(d * d) - p_op
        p = 1.0 - np.real(phi.conj() @ sigma @ phi)
        scale = np.sqrt((1 - q) / (1 - p)) * p_op + np.sqrt(q / p) * q_op
        return scale @ sigma @ scale, p, p_op, q_op

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_sector_scaling_identity_any_state(self, d, n):
        # exact for every sigma: the twirl rescales each charge block of
        # sigma^{(x)n} by ((1-q)/(1-p))^k (q/p)^(n-k)
        rng = np.random.default_rng(12)
        sigma = random_density((d, d), rng).mat
        q = 0.55
        sigma_q, p, p_op, q_op = self._reweighted(sigma, d, q)
        rho = sigma_q.copy()
        sig_n = sigma.copy()
        for _ in range(n - 1):
            rho = np.kron(rho, sigma_q)
            sig_n = np.kron(sig_n, sigma)
        twirled = phase_twirl(rho, d)
        expected = np.zeros_like(twirled)
        for k in range(n + 1):
            q_proj = placement_sum(q_op, p_op, n, k)
            expected += ((1 - q) / (1 - p)) ** k * (q / p) ** (n - k) * (q_proj @ sig_n @ q_proj)
        assert np.max(np.abs(twirled - expected)) <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_binomial_mixture_identity_coherence_free(self, d, n):
        # when sigma has no coherence between the target vector and its
        # complement the twirl is the binomial mixture of placements
        rng = np.random.default_rng(13)
        raw = random_density((d, d), rng).mat
        phi = max_entangled_ket(d).vec
        p_op = proj(phi)
        q_op = np.eye(d * d) - p_op
        sigma = p_op @ raw @ p_op + q_op @ raw @ q_op
        sigma = sigma / np.trace(sigma).real
        q = 0.3
        sigma_q, p, _, _ = self._reweighted(sigma, d, q)
        sigma_prime = q_op @ sigma @ q_op / p
        rho = sigma_q.copy()
        for _ in range(n - 1):
            rho = np.kron(rho, sigma_q)
        twirled = phase_twirl(rho, d)
        weights = [q**k * (1 - q) ** (n - k) for k in range(n + 1)]
        expected = mixed_tensor_sum(p_op, sigma_prime, weights)
        assert np.max(np.abs(twirled - expected)) <= 1e-10

    def test_generic_state_residual_is_cross_placement(self):
        # with target coherence present the binomial-mixture form misses
        # exactly the same-charge cross-placement terms
        d, n, q = 2, 2, 0.55
        rng = np.random.default_rng(14)
        sigma = random_density((d, d), rng).mat
        sigma_q, p, p_op, q_op = self._reweighted(sigma, d, q)
        sigma_prime = q_op @ sigma @ q_op / p
        rho = np.kron(sigma_q, sigma_q)
        twirled = phase_twirl(rho, d)
        weights = [q**k * (1 - q) ** (n - k) for k in range(n + 1)]
        mixture = mixed_tensor_sum(p_op, sigma_prime, weights)
        pq = p_op @ sigma_q @ q_op
        qp = q_op @ sigma_q @ p_op
        cross = np.kron(pq, qp) + np.kron(qp, pq)
        assert np.max(np.abs(twirled - mixture - cross)) <= 1e-12
        assert np.max(np.abs(cross)) > 1e-3  # the residual is genuinely there

    def test_commutes_with_local_twirl(self):
        d = 2
        op = random_test((d, d), np.random.default_rng(13)).mat
        local = GroupAction("local", d)
        a = phase_twirl(reference_twirl(op, local, 3000, np.random.default_rng(1)).mean, d)
        b = reference_twirl(phase_twirl(op, d), local, 3000, np.random.default_rng(1)).mean
        assert np.max(np.abs(a - b)) < 1e-10


class TestInvarianceOracle:
    """``helpers.invariance_deviation``, the tests' check of invariance, finds
    invariant operators invariant and a generic one not."""

    def test_covariant_test_invariant_under_orthocomplement_action(self):
        d = 2
        p = proj(max_entangled_ket(d))
        op = p + (np.eye(d * d) - p) / (d + 1)
        dev = invariance_deviation(op, GroupAction("ortho", d), 200, np.random.default_rng(14))
        assert dev < 1e-10

    def test_generic_operator_fails(self):
        rng = np.random.default_rng(15)
        op = random_test((2, 2), rng)
        assert invariance_deviation(op, GroupAction("local", 2), 50, rng) > 1e-3

    def test_identity_invariant_under_everything(self):
        for kind in ("phase", "local", "local_phase", "ortho"):
            dev = invariance_deviation(np.eye(4), GroupAction(kind, 2), 50, np.random.default_rng(16))
            assert dev <= 1e-10, (kind, dev)


class TestIsotropicHaarInvariance:
    def test_twirl_preserves_isotropic(self):
        sigma = isotropic_state(3, 0.25).mat
        assert invariance_deviation(sigma, GroupAction("local", 3), 100, np.random.default_rng(17)) < 1e-10


class TestSampledActionUnitarity:
    def test_all_kinds_sample_unitaries(self):
        rng = np.random.default_rng(100)
        for kind in ("phase", "local", "local_phase", "ortho", "local_independent"):
            for copies in (1, 2):
                action = GroupAction(kind, 2, copies)
                f = action.sample_batch(8, rng)
                eye = np.eye(action.dim)
                dev = np.max(np.abs(f @ f.conj().transpose(0, 2, 1) - eye))
                assert dev <= 1e-10, (kind, copies, dev)


class TestSampledStream:
    """Pins the random stream: draw order per kind, per-copy reuse, and chunking."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,copies", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_sample_batch_matches_reference(self, kind, d, copies):
        action = GroupAction(kind, d, copies)
        f = action.sample_batch(5, np.random.default_rng(42))
        ref = reference_samples(action, 5, np.random.default_rng(42))
        assert f.shape == ref.shape == (5, action.dim, action.dim)
        assert np.max(np.abs(f - ref)) <= 1e-13

    @pytest.mark.parametrize("kind", KINDS)
    def test_mc_twirl_across_a_chunk_boundary(self, kind):
        action = GroupAction(kind, 2, 2)
        v = _random_ket(2, 2, 3)
        # seeded results depend on the batch size, 4096, so it is pinned here too
        samples = 4096 + 1
        est = mc_twirl(v, action, samples, np.random.default_rng(43))
        want = reference_twirl(v, action, samples, np.random.default_rng(43))
        assert np.max(np.abs(est.mean - want.mean)) <= 1e-13
        # also on the entries the action fixes, where the true stderr is 0
        assert np.max(np.abs(est.stderr - want.stderr)) <= 1e-15


class TestSu2Draws:
    """At d = 2 a whole g of the doubled kinds is a Haar SU(2) element built
    from one uniform column; ``ortho``, partial columns and d >= 3 keep the
    Ginibre and Gram-Schmidt stream of ``haar_columns``."""

    @pytest.mark.parametrize("kind", twirl.DOUBLED_KINDS)
    @pytest.mark.parametrize("columns", [None, 2])
    def test_special_unitary_from_the_one_column_draw(self, kind, columns):
        n = 5000
        rng, ref = np.random.default_rng(110), np.random.default_rng(110)
        us, theta = GroupAction(kind, 2, 2)._draws(n, rng, columns)
        assert len(us) == (2 if kind == "local_independent" else 1)
        for g in us:
            assert g.shape == (2, 2, n)
            q = g.transpose(2, 0, 1)
            assert np.max(np.abs(q @ q.conj().transpose(0, 2, 1) - np.eye(2))) <= 1e-15
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            assert np.max(np.abs(det - 1.0)) <= 1e-15
            assert np.array_equal(g[:, :1], states.haar_columns(2, n, ref, 1))
        if kind == "local_phase":
            assert np.array_equal(theta, ref.uniform(0.0, 2.0 * np.pi, size=n))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("kind", twirl.DOUBLED_KINDS)
    def test_one_column_is_the_first_column_of_the_whole_draw(self, kind):
        action = GroupAction(kind, 2, 1)
        rng, ref = np.random.default_rng(111), np.random.default_rng(111)
        one, whole = action._draws(300, rng, 1), action._draws(300, ref)
        assert np.array_equal(one[0][0], whole[0][0][:, :1])
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_haar_moments(self):
        # E|g_00|^2 = 1/2 and E|g_00|^4 = 1/3 under the Haar measure on U(2)
        # and on SU(2)
        n = 20000
        g = GroupAction("local", 2)._draws(n, np.random.default_rng(112))[0][0]
        x = np.abs(g[0, 0]) ** 2
        for moment, want in ((x, 0.5), (x**2, 1.0 / 3.0)):
            assert abs(moment.mean() - want) <= 5 * moment.std(ddof=1) / np.sqrt(n)

    @pytest.mark.parametrize("kind,d,columns,dim", [("ortho", 2, None, 3), ("ortho", 3, None, 8),
                                                    ("local", 3, None, 3), ("local", 3, 2, 3),
                                                    ("local_independent", 3, None, 3)])
    def test_other_draws_keep_the_ginibre_stream(self, kind, d, columns, dim):
        rng, ref = np.random.default_rng(113), np.random.default_rng(113)
        us, _ = GroupAction(kind, d)._draws(40, rng, columns)
        assert np.array_equal(us[0], states.haar_columns(dim, 40, ref, columns))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestBlockedConjugation:
    """Conjugation as the vector twirl of vec(T), one batch-last pair factor
    per axis (``_apply_columns``, as ``phase_twirl`` applies it), against the
    dense per-sample reference, and invariance at dim 729."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "d,copies",
        [(3, 2), (3, 3), (2, 2), (2, 3), (3, 1)],
        ids=["2", "3", "d2-2", "d2-3", "d3-1"],
    )
    def test_matches_dense_reference(self, kind, d, copies):
        action = GroupAction(kind, d, copies)
        g = np.random.default_rng(6).standard_normal((2, action.dim, action.dim))
        op = g[0] + 1j * g[1]  # any matrix; conjugation is linear
        samples = 3
        f = reference_samples(action, samples, np.random.default_rng(44))
        want = (f @ op) @ f.conj().transpose(0, 2, 1)
        draws = action._draws(samples, np.random.default_rng(44))
        factors = [factor.transpose(1, 2, 0) for factor in action._factors(*draws)]
        work = np.empty((3, op.size * samples), dtype=complex)
        got = twirl._apply_columns(op.reshape(-1), factors + [u.conj() for u in factors], work)
        assert np.max(np.abs(got.T.reshape(want.shape) - want)) <= 1e-12

    def test_three_source_test_invariant_at_dim_729(self):
        action = GroupAction("local_independent", 3, 3)
        dev = invariance_deviation(three_source_covariant_test(3), action, 8, np.random.default_rng(18))
        assert dev <= 1e-10


def _random_ket(d, copies, seed, norm=1.0):
    g = np.random.default_rng(seed).standard_normal((2, (d * d) ** copies))
    v = g[0] + 1j * g[1]
    return Ket(norm * v / np.linalg.norm(v), (d,) * (2 * copies))


class TestRankOneTwirl:
    """A Ket is twirled as vectors; it must agree on |v><v| with the per-sample
    ``np.kron`` reference."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,copies", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_reference(self, kind, d, copies):
        action = GroupAction(kind, d, copies)
        v = _random_ket(d, copies, 20)
        got = mc_twirl(v, action, 64, np.random.default_rng(45))
        want = reference_twirl(v, action, 64, np.random.default_rng(45))
        assert np.max(np.abs(got.mean - want.mean)) <= 1e-15
        assert np.max(np.abs(got.stderr - want.stderr)) <= 1e-15

    def test_across_a_chunk_boundary(self):
        action = GroupAction("local", 2, 2)
        v = _random_ket(2, 2, 21)
        got = mc_twirl(v, action, 4096 + 1, np.random.default_rng(46))
        want = reference_twirl(v, action, 4096 + 1, np.random.default_rng(46))
        assert np.max(np.abs(got.mean - want.mean)) <= 1e-15
        assert np.max(np.abs(got.stderr - want.stderr)) <= 1e-15

    @pytest.mark.parametrize("kind,d,copies", [("local", 4, 2), ("local_independent", 4, 2),
                                               ("ortho", 2, 4)])
    def test_matches_reference_at_dim_256(self, kind, d, copies):
        action = GroupAction(kind, d, copies)
        v = _random_ket(d, copies, 23)
        got = mc_twirl(v, action, 64, np.random.default_rng(49))
        want = reference_twirl(v, action, 64, np.random.default_rng(49))
        assert np.max(np.abs(got.mean - want.mean)) <= 1e-15
        assert np.max(np.abs(got.stderr - want.stderr)) <= 1e-15

    def test_matches_reference_at_dim_729(self):
        # norm^2 = d^3, the weight of the three-source seed
        action = GroupAction("local_independent", 3, 3)
        v = _random_ket(3, 3, 22, norm=np.sqrt(27.0))
        got = mc_twirl(v, action, 3, np.random.default_rng(47))
        want = reference_twirl(v, action, 3, np.random.default_rng(47))
        assert np.max(np.abs(got.mean - want.mean)) <= 1e-12
        assert np.max(np.abs(got.stderr - want.stderr)) <= 1e-12

    @pytest.mark.parametrize("kind", ["local", "local_phase", "local_independent"])
    @pytest.mark.parametrize("d,copies", [(2, 2), (3, 1)])
    def test_fixed_vector_has_rounding_level_stderr(self, kind, d, copies):
        # |phi><phi| on every pair is fixed by these actions, so every entry
        # of every sample is the same and the true standard error is 0
        phi = max_entangled_ket(d).vec
        vec = phi
        for _ in range(copies - 1):
            vec = np.kron(vec, phi)
        est = mc_twirl(Ket(vec, (d,) * (2 * copies)), GroupAction(kind, d, copies), 2000,
                       np.random.default_rng(48))
        assert np.max(est.stderr) <= 1e-15

    @pytest.mark.parametrize("d,copies", [(2, 2), (3, 1)])
    def test_phase_fixed_entries_have_rounding_level_stderr(self, d, copies):
        # the phase action is the identity off the maximally entangled vector,
        # so an entry whose row and column indices put no pair on its support
        # is fixed
        off = [a * d + b for a in range(d) for b in range(d) if a != b]
        idx = np.array([0])
        for _ in range(copies):
            idx = (idx[:, None] * d * d + np.array(off)[None, :]).ravel()
        est = mc_twirl(_random_ket(d, copies, 23), GroupAction("phase", d, copies), 2000,
                       np.random.default_rng(49))
        fixed = np.zeros(est.stderr.shape, dtype=bool)
        fixed[np.ix_(idx, idx)] = True
        assert np.max(est.stderr[fixed]) <= 1e-15
        assert np.min(est.stderr[~fixed]) > 0  # and no other entry is fixed

    def test_memory_guard_refuses_before_any_draw(self, monkeypatch):
        # dim 81 at 300 samples: the rank-one path needs under 4 MB
        action = GroupAction("local", 3, 2)
        v = _random_ket(3, 2, 24)
        monkeypatch.setattr(memory, "ram_bytes", lambda: 50 * 10**6)
        assert mc_twirl(v, action, 300, np.random.default_rng(50)).samples == 300
        monkeypatch.setattr(memory, "ram_bytes", lambda: 10**5)
        rng = np.random.default_rng(50)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="samples fit"):
            mc_twirl(v, action, 300, rng)
        assert rng.bit_generator.state == state

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            mc_twirl(_random_ket(2, 1, 25), GroupAction("local", 2, 2), 10, np.random.default_rng(0))


def _doubled_seed(u, d):
    """The ``Ket`` sqrt(d^k) u (x) conj(u), pair-major, that ``doubled_twirl``
    twirls from u."""
    ket = states.doubled_ket(np.reshape(u, -1), d)
    return Ket(np.sqrt(np.size(u)) * ket.vec, ket.dims, ket.labels)


def _library_case(target, d):
    """Alice's vector and the action of a twirl the library runs."""
    if target == "sequential":
        return np.kron(*quantum._sequential_seed_vectors(d)), GroupAction("local", d, 2)
    return _twirl_case(target, d)[:2]


class TestDoubledTwirl:
    """``doubled_twirl`` twirls a doubled seed from u: where u's support
    reaches every column of g it is ``mc_twirl`` on the doubled ``Ket`` to
    rounding, from the same draws; elsewhere it draws fewer columns, and its
    law is checked against exact averages."""

    @pytest.mark.parametrize("target,d", [("two-sample", 2), ("two-sample", 3), ("three-source", 2),
                                          ("qubit-weights", 2), ("sequential", 2)])
    def test_matches_mc_twirl_on_the_doubled_ket(self, target, d):
        u, action = _library_case(target, d)
        rng, ref = np.random.default_rng(93), np.random.default_rng(93)
        got = doubled_twirl(u, action, 4096 + 1, rng)
        want = mc_twirl(_doubled_seed(u, d), action, 4096 + 1, ref)
        top = np.max(np.abs(want.mean))
        assert np.max(np.abs(got.mean - want.mean)) <= 1e-15 * top
        assert np.max(np.abs(got.stderr - want.stderr)) <= 1e-15 * top
        assert rng.bit_generator.state == ref.bit_generator.state

    @staticmethod
    def _columns_drawn(monkeypatch):
        drawn, draws = [], GroupAction._draws
        monkeypatch.setattr(GroupAction, "_draws", lambda action, count, rng, columns=None:
                            drawn.append(columns) or draws(action, count, rng, columns))
        return drawn

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_sample_draws_one_column_and_meets_its_closed_form(self, monkeypatch, d):
        drawn = self._columns_drawn(monkeypatch)
        u, action, reference = _twirl_case("one-sample", d)
        est = doubled_twirl(u, action, 20000, np.random.default_rng(94 + d))
        assert set(drawn) == {1}
        assert np.max(est.stderr) <= 5e-3 and est.within(reference)

    @pytest.mark.parametrize("target,d", [("one-sample", d) for d in (2, 3, 4, 5)]
                             + [("sequential", 2)])
    def test_exact_average_oracle_meets_the_closed_forms(self, target, d):
        # the oracle of the law tests below, on closed forms it shares no code with
        u, action = _library_case(target, d)
        w = _doubled_seed(u, d).vec
        want = (quantum.one_sample_covariant_test(d) if target == "one-sample"
                else qubit_pair.sequential_two_sample_test()).mat
        got = local_twirl_exact(np.outer(w, w.conj()), d, action.copies)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("d", [3, 4])
    def test_sequential_draws_two_columns_and_meets_the_exact_average(self, monkeypatch, d):
        drawn = self._columns_drawn(monkeypatch)
        u, action = _library_case("sequential", d)
        w = _doubled_seed(u, d).vec
        est = quantum.sequential_covariant_operator(d, 20000, np.random.default_rng(98 + d))
        assert set(drawn) == {2}
        assert est.within(local_twirl_exact(np.outer(w, w.conj()), d, 2))

    def test_phase_on_two_columns_meets_the_exact_average(self):
        # the local and phase averages commute, so the exact local_phase
        # average is the phase twirl of the exact local one
        u = np.zeros((3, 3), dtype=complex)
        u[:2, :2] = _random_ket(2, 1, 32).vec.reshape(2, 2)
        w = _doubled_seed(u, 3).vec
        est = doubled_twirl(u, GroupAction("local_phase", 3, 2), 20000, np.random.default_rng(102))
        assert est.within(phase_twirl(local_twirl_exact(np.outer(w, w.conj()), 3, 2), 3))

    @pytest.mark.parametrize(
        "kind,d,copies,u,message",
        [("ortho", 2, 1, [1, 0], "takes the kinds"), ("phase", 2, 1, [1, 0], "takes the kinds"),
         ("local", 3, 2, [1, 0, 0], "vector length 3 != d\\^copies = 9"),
         ("local", 2, 1, [0, 0], "zero vector")],
    )
    def test_refuses_before_any_draw(self, kind, d, copies, u, message):
        rng = np.random.default_rng(103)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            doubled_twirl(np.array(u, dtype=complex), GroupAction(kind, d, copies), 10, rng)
        assert rng.bit_generator.state == state

    def test_one_sample_twirls_and_zero_is_refused(self):
        u, action, _ = _twirl_case("one-sample", 2)
        est = doubled_twirl(u, action, 1, np.random.default_rng(106))
        assert est.samples == 1 and np.max(est.stderr) == 0.0
        with pytest.raises(ValueError, match="samples must be >= 1"):
            doubled_twirl(u, action, 0, np.random.default_rng(106))

    @pytest.mark.parametrize("target,batches,columns", [("one-sample", 1, 1), ("two-sample", 2, 3),
                                                        ("sequential", 1, 2)])
    def test_memory_guard_budgets_the_drawn_columns(self, monkeypatch, target, batches, columns):
        # at d = 3, y has d^k entries a sample and the doubled vectors d^2k;
        # each of the batches of g holds d x columns entries
        u, action = _library_case(target, 3)
        q = 3**action.copies
        per_sample = 16 * (3 * q + twirl._DOUBLED_BATCHES * q * q
                           + (batches + twirl._FACTOR_TEMPS) * 3 * columns)
        monkeypatch.setattr(memory, "ram_bytes",
                            lambda: 300 * per_sample + 8 * twirl._LIVE_ACCUMULATORS * q**4)
        rng = np.random.default_rng(104)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="the largest samples that fits is 300$"):
            doubled_twirl(u, action, 301, rng)
        assert rng.bit_generator.state == state  # refused before any draw
        assert doubled_twirl(u, action, 300, rng).samples == 300

    def test_batch_footprint_within_its_budget(self):
        # tracemalloc sees numpy's buffers without allocator slack: three
        # batches at dim 81, each drawn while the one before is twirled, hold
        # 0.70 of the budget (getrusage: 0.84)
        u, action, _ = _twirl_case("two-sample", 3)
        samples = 2 * 4096 + 1
        doubled_twirl(u, action, 2, np.random.default_rng(105))  # caches filled
        tracemalloc.start()
        try:
            doubled_twirl(u, action, samples, np.random.default_rng(105))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = twirl._doubled_footprint(action, 3, samples)
        assert 0.5 * budget <= peak <= budget


def _ket_batches(v, action, samples, rng):
    """The batches of ``twirl._kets`` side by side, copied, since each is a view
    of a buffer that the next batch reuses."""
    return np.concatenate([w.copy() for w in twirl._kets(v, action, samples, rng)], axis=1)


class TestBatchLastKets:
    """The one vector path, batch last: g and conj(g) on their own d-axes, the
    ortho unitary on each pair's axis, then Ph(theta) on each pair's diagonal."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,copies", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_reference_across_a_chunk_boundary(self, kind, d, copies):
        action = GroupAction(kind, d, copies)
        v = _random_ket(d, copies, 26).vec
        got = _ket_batches(v, action, 4096 + 1, np.random.default_rng(51))
        assert got.shape == (action.dim, 4096 + 1)
        rng = np.random.default_rng(51)
        keep = [0, 1, 2048, 4095]
        f = np.concatenate([reference_samples(action, 4096, rng, keep),
                            reference_samples(action, 1, rng)])
        assert np.max(np.abs(got[:, keep + [4096]].T - f @ v)) <= 1e-13

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,copies", [(2, 2), (3, 1)])
    def test_generator_state_matches_factor_draws(self, kind, d, copies):
        action = GroupAction(kind, d, copies)
        rng = np.random.default_rng(52)
        mc_twirl(_random_ket(d, copies, 27), action, 4096 + 1, rng)
        ref = np.random.default_rng(52)
        for count in (4096, 1):
            action._draws(count, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        if kind in twirl.DOUBLED_KINDS:
            # u on the first two basis vectors of each site: two columns of
            # each g, all of them at d = 2
            u = np.zeros(d**copies, dtype=complex)
            u[[0, 1]] = 0.6, 0.8j
            doubled_twirl(u, action, 4096 + 1, rng)
            for count in (4096, 1):
                action._draws(count, ref, 2)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "kind,d,copies",
        [(kind, 2, 2) for kind in KINDS] + [("local", 4, 2), ("local_independent", 4, 2)],
    )
    def test_every_path_draws_through_draws_only(self, monkeypatch, kind, d, copies):
        # identity unitaries and theta = 0 in the shapes of the real draws,
        # made without the generator: a path that drew anywhere else would
        # move its state or its result away from the identity action's
        draws = GroupAction._draws

        def identity_draws(action, count, rng, columns=None):
            us, theta = draws(action, count, np.random.default_rng(0), columns)
            us = [np.repeat(np.eye(*u.shape[:2], dtype=complex)[:, :, None], count, axis=2)
                  for u in us]
            return us, None if theta is None else np.zeros(count)

        monkeypatch.setattr(GroupAction, "_draws", identity_draws)
        action = GroupAction(kind, d, copies)
        rng = np.random.default_rng(55)
        state = rng.bit_generator.state
        v = _random_ket(d, copies, 30)
        est = mc_twirl(v, action, 5, rng)
        assert np.max(np.abs(est.mean - np.outer(v.vec, v.vec.conj()))) <= 1e-14
        f = action.sample_batch(5, rng)
        assert np.max(np.abs(f - np.eye(action.dim))) <= 1e-14
        if kind in twirl.DOUBLED_KINDS:
            # u on the first two basis vectors of each site: two columns drawn
            u = np.zeros((d,) * copies, dtype=complex)
            u[:2, :2] = _random_ket(2, 1, 31).vec.reshape(2, 2)
            w = _doubled_seed(u, d).vec
            est = doubled_twirl(u, action, 5, rng)
            assert np.max(np.abs(est.mean - np.outer(w, w.conj()))) <= 1e-14
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", KINDS)
    def test_cancellation_guard_matches_explicit_moments(self, kind, monkeypatch):
        # every action fixes phi on every pair, so each entry of its outer
        # product is shared by every sample; the phase action also fixes the
        # entries of a random ket off the support of P
        phi = max_entangled_ket(2).vec
        v = _random_ket(2, 2, 28).vec if kind == "phase" else np.kron(phi, phi)
        guarded, batch_moments = [], twirl._batch_moments
        monkeypatch.setattr(twirl, "_batch_moments",
                            lambda x: guarded.append(x.shape) or batch_moments(x))
        action, samples = GroupAction(kind, 2, 2), 4096 + 1
        est = mc_twirl(Ket(v, (2,) * 4), action, samples, np.random.default_rng(53))
        assert guarded  # the guard ran
        want = reference_twirl(Ket(v, (2,) * 4), action, samples, np.random.default_rng(53))
        assert np.max(np.abs(est.mean - want.mean)) <= 1e-13
        assert np.max(np.abs(est.stderr - want.stderr)) <= 1e-15

    def test_memory_guard_budgets_d_by_d_factors(self, monkeypatch):
        # a one-pair ket at d = 16 holds g and conj(g), 2 d^2 entries a
        # sample, never g (x) conj(g) with d^4
        action, dim = GroupAction("local", 16), 256
        per_sample = 16 * (twirl._KET_BATCHES * dim + (2 + twirl._FACTOR_TEMPS) * dim)
        fixed = 8 * twirl._LIVE_ACCUMULATORS * dim * dim
        monkeypatch.setattr(memory, "ram_bytes", lambda: 300 * per_sample + fixed)
        v = _random_ket(16, 1, 29)
        rng = np.random.default_rng(54)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="the largest samples that fits is 300$"):
            mc_twirl(v, action, 301, rng)
        assert rng.bit_generator.state == state  # refused before any draw
        assert mc_twirl(v, action, 300, rng).samples == 300

    def test_memory_guard_budgets_the_ortho_unitary(self, monkeypatch):
        # ortho at d = 4 holds its (d^2, d^2) unitary, d^4 entries a sample
        action, dim = GroupAction("ortho", 4), 16
        per_sample = 16 * (twirl._KET_BATCHES * dim + (1 + twirl._FACTOR_TEMPS) * dim * dim)
        fixed = 8 * twirl._LIVE_ACCUMULATORS * dim * dim
        monkeypatch.setattr(memory, "ram_bytes", lambda: 300 * per_sample + fixed)
        v = _random_ket(4, 1, 33)
        rng = np.random.default_rng(57)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="the largest samples that fits is 300$"):
            mc_twirl(v, action, 301, rng)
        assert rng.bit_generator.state == state  # refused before any draw
        assert mc_twirl(v, action, 300, rng).samples == 300

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_sample_twirls(self, kind):
        est = mc_twirl(_random_ket(2, 2, 34), GroupAction(kind, 2, 2), 1, np.random.default_rng(58))
        assert est.samples == 1 and np.max(est.stderr) == 0.0

    def test_batch_footprint_within_its_budget(self):
        # tracemalloc sees numpy's buffers without allocator slack: two
        # batches at dim 729, the second drawn while the first is twirled,
        # hold 0.70 of the budget (getrusage: 0.60)
        action, dim = GroupAction("local_independent", 3, 3), 729
        v = _random_ket(3, 3, 32)
        mc_twirl(v, action, 2, np.random.default_rng(56))  # caches filled
        tracemalloc.start()
        try:
            mc_twirl(v, action, 4096 + 1, np.random.default_rng(56))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_sample = 16 * (twirl._KET_BATCHES * dim + (2 * 3 + twirl._FACTOR_TEMPS) * 9)
        budget = 4096 * per_sample + 8 * twirl._LIVE_ACCUMULATORS * dim * dim
        assert 0.5 * budget <= peak <= budget


def _bits(x):
    """The float64 entries of an array, real and imaginary parts side by side."""
    x = np.asarray(x)
    return x.view(float) if np.iscomplexobj(x) else x


class TestInPlaceAccumulators:
    """``_outer_moments`` and ``_mean_stderr`` build their arrays in place, with
    the operations of the reference with full-size temporaries in the same
    order, so every bit matches."""

    @pytest.mark.parametrize("samples", [300, 2 * 4096 + 300])
    @pytest.mark.parametrize(
        "kind,d,copies,guarded",
        [
            ("local", 2, 2, True),  # seed phi (x) phi: every entry is on the guard
            ("phase", 2, 2, True),  # entries off the support of P are fixed
            ("local_independent", 3, 1, False),
            ("local_phase", 2, 3, False),
            ("ortho", 2, 1, False),
        ],
    )
    def test_ket_batches_match_reference(self, monkeypatch, kind, d, copies, guarded, samples):
        phi = max_entangled_ket(d).vec
        v = np.kron(phi, phi) if kind == "local" else _random_ket(d, copies, 60).vec
        action = GroupAction(kind, d, copies)
        batches = [w.copy() for w in twirl._kets(v, action, samples, np.random.default_rng(61))]
        gathered, batch_moments = [], twirl._batch_moments
        monkeypatch.setattr(twirl, "_batch_moments",
                            lambda x: gathered.append(x.shape) or batch_moments(x))
        got = [twirl._outer_moments(w) for w in batches]
        assert bool(gathered) == guarded
        want = [outer_moments_reference(w) for w in batches]
        for (k, part, m2), (ref_k, ref_part, ref_m2) in zip(got, want):
            assert k == ref_k
            assert np.array_equal(_bits(part), _bits(ref_part))
            assert np.array_equal(m2, ref_m2)
        mean, stderr = twirl._mean_stderr(got)  # consumes got
        ref_mean, ref_stderr = mean_stderr_reference(want)
        assert np.array_equal(_bits(mean), _bits(ref_mean))
        assert np.array_equal(stderr, ref_stderr)

    @pytest.mark.parametrize("batches", [2, 6])
    def test_live_accumulators_within_budget(self, batches):
        # tracemalloc sees numpy's buffers without allocator slack, so its
        # peak is the live set: it stays inside the memory guard's budget
        # however many batches merge, a last batch of one sample (every
        # entry on the guard) included
        dim, k = 256, 16
        rng = np.random.default_rng(63)
        ws = [rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)) for _ in range(2)]
        for w in ws:
            w[:4] = 0.5  # a few entries on the guard in every batch
        stream = [ws[i % 2] for i in range(batches)] + [ws[0][:, :1]]
        tracemalloc.start()
        try:
            twirl._mean_stderr(map(twirl._outer_moments, stream))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * twirl._LIVE_ACCUMULATORS * dim * dim

    @pytest.mark.parametrize("shape", [(), (5, 5)])
    def test_scalar_and_dense_batches_match_reference(self, shape):
        # the scalar batches of quantum's estimates are real, the dense ones complex
        rng = np.random.default_rng(62)
        batches = [rng.standard_normal((k, *shape)) for k in (4096, 4096, 17)]
        if shape:
            batches = [x + 1j * rng.standard_normal(x.shape) for x in batches]
        want = mean_stderr_reference(twirl._batch_moments(x.copy()) for x in batches)
        got = twirl._mean_stderr(twirl._batch_moments(x.copy()) for x in batches)
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b)
            assert np.array_equal(_bits(a), _bits(b))


class TestBlockedPasses:
    """``_outer_moments`` forms M2, its guard and the gathered entries
    ``states._ROW_BLOCK`` entries at a time, and ``TwirlEstimate`` compares in row
    blocks: both give the bits of the formulas with full-size temporaries,
    whatever the block size, at dim 729 too."""

    BLOCKS = [states._ROW_BLOCK, 6 * 729 + 5, 1, 1 << 20]  # 22, 6 and 1 rows, and one block

    @staticmethod
    def _check(w):
        got, want = twirl._outer_moments(w), outer_moments_reference(w)
        assert got[0] == want[0]
        assert np.array_equal(_bits(got[1]), _bits(want[1]))
        assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("block", BLOCKS)
    def test_guard_across_block_edges(self, monkeypatch, block):
        # rows constant over the batch put their pairs on the guard, around
        # the edges of 22- and 6-row blocks and in the short last block
        monkeypatch.setattr(states, "_ROW_BLOCK", block)
        rng = np.random.default_rng(64)
        w = rng.standard_normal((729, 24)) + 1j * rng.standard_normal((729, 24))
        constant = [5, 6, 7, 20, 21, 22, 23, 43, 44, 725, 726, 727, 728]
        w[constant] = 0.5 - 0.25j
        w[100:130:3] = 0.0  # entries with S2 = 0 stay off the guard
        gathered, batch_moments = [], twirl._batch_moments
        monkeypatch.setattr(twirl, "_batch_moments",
                            lambda x: gathered.append(x.shape[1]) or batch_moments(x))
        self._check(w)
        assert sum(gathered) == len(constant) ** 2  # the constant pairs and no others

    @pytest.mark.parametrize("block", BLOCKS[:2])
    def test_every_entry_on_the_guard_at_dim_729(self, monkeypatch, block):
        # phi on every pair is fixed by the action: every entry is gathered
        monkeypatch.setattr(states, "_ROW_BLOCK", block)
        phi = max_entangled_ket(3).vec
        v = np.kron(np.kron(phi, phi), phi)
        action = GroupAction("local_independent", 3, 3)
        for w in twirl._kets(v, action, 12, np.random.default_rng(65)):
            self._check(w)

    @pytest.mark.parametrize("block", BLOCKS[:2])
    def test_three_source_batches_at_dim_729(self, monkeypatch, block):
        monkeypatch.setattr(states, "_ROW_BLOCK", block)
        u, action, _ = _twirl_case("three-source", 3)
        for w in twirl._doubled_kets(u, action, 40, np.random.default_rng(66)):
            self._check(w)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("shape", [(729, 729), (5, 7), (3,), ()])
    def test_comparisons_match_the_one_shot_formulas(self, monkeypatch, block, shape):
        monkeypatch.setattr(states, "_ROW_BLOCK", block)
        rng = np.random.default_rng(67)
        mean = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stderr = np.abs(rng.standard_normal(shape))
        est = TwirlEstimate(mean, stderr, 10)
        targets = [mean + 0.1 * rng.standard_normal(shape), np.zeros(shape), 0.0]
        for target in targets:
            dev = np.abs(mean - np.asarray(target))
            assert est.deviation(target) == float(np.max(dev))
            for nsigma, atol in ((5.0, 1e-9), (0.5, 0.0), (1e3, 0.0)):
                assert est.within(target, nsigma, atol) == bool(np.all(dev <= nsigma * stderr + atol))

    @pytest.mark.parametrize(
        "shape, rows", [((729, 729), 22), ((81, 81), 202), ((3, 50000), 1), ((40000,), 1 << 14), ((), 1)]
    )
    def test_blocks_hold_about_row_block_entries(self, shape, rows):
        # as many whole rows as fit in _ROW_BLOCK entries, at least one
        x = np.arange(np.prod(shape)).reshape(shape)
        blocks = [b for b, in twirl._row_blocks(x)]
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= rows
        assert np.array_equal(np.concatenate(blocks), np.atleast_1d(x))

    @pytest.mark.parametrize("block", BLOCKS[:3])
    @pytest.mark.parametrize("where", [(0, 3), (400, 9), (728, 728)])
    def test_a_nan_anywhere_fails(self, monkeypatch, block, where):
        # a large finite entry in the first block: a NaN in a later block must
        # still give NaN (the builtin max would keep the finite one)
        monkeypatch.setattr(states, "_ROW_BLOCK", block)
        rng = np.random.default_rng(68)
        mean = rng.standard_normal((729, 729)) + 0j
        mean[0, 0] = 1e9
        target = mean.copy()
        est = TwirlEstimate(mean, np.ones((729, 729)), 10)
        assert est.deviation(target) == 0.0 and est.within(target, 0.0, 0.0)
        target[where] = np.nan
        assert math.isnan(est.deviation(target))
        assert not est.within(target, 1e300)


def _serial(draw, batches):
    """``twirl._prefetch`` without the worker: the serial reference loop."""
    return (draw(i, batch) for i, batch in enumerate(batches))


class _Failed(Exception):
    pass


class TestDrawAhead:
    """Each batch's draws run one batch ahead on a worker thread
    (``twirl._prefetch``); every seeded output and the generator's final state
    must be those of the serial loop, bit for bit."""

    @staticmethod
    def _assert_serial(monkeypatch, v, action, samples, seed):
        rng = np.random.default_rng(seed)
        got = mc_twirl(v, action, samples, rng)
        monkeypatch.setattr(twirl, "_prefetch", _serial)
        ref = np.random.default_rng(seed)
        want = mc_twirl(v, action, samples, ref)
        assert np.array_equal(_bits(got.mean), _bits(want.mean))
        assert np.array_equal(got.stderr, want.stderr)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,copies", [(2, 1), (2, 2), (4, 2)])
    def test_mc_twirl_is_the_serial_loop_bitwise(self, monkeypatch, kind, d, copies):
        chunks = twirl._chunks
        monkeypatch.setattr(twirl, "_chunks", lambda total: chunks(total, 64))
        # four batches, the last one short
        self._assert_serial(monkeypatch, _random_ket(d, copies, 80), GroupAction(kind, d, copies),
                            3 * 64 + 5, 81)

    def test_batch_size_is_read_when_the_run_starts(self, monkeypatch):
        monkeypatch.setattr(twirl, "_CHUNK", 64)
        v, action = _random_ket(2, 1, 84), GroupAction("local", 2)
        kets = twirl._kets(v.vec, action, 3 * 64 + 5, np.random.default_rng(85))
        assert [w.shape for w in kets] == [(4, 64)] * 3 + [(4, 5)]
        self._assert_serial(monkeypatch, v, action, 3 * 64 + 5, 85)

    def test_at_the_real_batch_size(self, monkeypatch):
        self._assert_serial(monkeypatch, _random_ket(2, 1, 82), GroupAction("local", 2),
                            2 * 4096 + 5, 83)

    def test_draws_run_in_order_one_at_a_time_on_one_worker(self):
        log = []

        def draw(i, batch):
            log.append((i, batch, threading.get_ident()))
            return i

        assert list(twirl._prefetch(draw, [5, 5, 2])) == [0, 1, 2]
        assert [(i, b) for i, b, _ in log] == [(0, 5), (1, 5), (2, 2)]
        assert len({t for _, _, t in log}) == 1 and log[0][2] != threading.get_ident()

    def test_one_batch_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
        before = threading.active_count()
        est = mc_twirl(_random_ket(2, 1, 84), GroupAction("local", 2), 4096, np.random.default_rng(85))
        assert est.samples == 4096 and threading.active_count() == before

    def test_a_draw_that_raises_reraises_its_type_in_the_caller(self, monkeypatch):
        draws, calls = GroupAction._draws, []

        def failing(action, count, rng):
            calls.append(threading.get_ident())
            if len(calls) == 2:  # the first draw made on the worker
                raise _Failed("draw 1")
            return draws(action, count, rng)

        monkeypatch.setattr(GroupAction, "_draws", failing)
        before = threading.active_count()
        with pytest.raises(_Failed, match="draw 1"):
            mc_twirl(_random_ket(2, 1, 86), GroupAction("local", 2), 3 * 4096, np.random.default_rng(87))
        assert threading.active_count() == before
        assert len(calls) == 2 and calls[1] != threading.get_ident()

    def test_a_consumer_that_raises_leaves_no_worker_and_a_quiet_generator(self, monkeypatch):
        moments, seen = twirl._outer_moments, []

        def failing(w):
            seen.append(w.shape)
            if len(seen) == 2:
                raise _Failed("consumer")
            return moments(w)

        monkeypatch.setattr(twirl, "_outer_moments", failing)
        action, before = GroupAction("local", 2), threading.active_count()
        rng = np.random.default_rng(88)
        try:
            mc_twirl(_random_ket(2, 1, 89), action, 5 * 4096, rng)
        except _Failed as exc:
            # the traceback, which holds mc_twirl's frames, is alive here
            assert str(exc) == "consumer" and threading.active_count() == before
        else:
            pytest.fail("the consumer's exception did not reach the caller")
        # batch 2 was in flight while batch 1 was consumed; it was waited for,
        # and nothing drew after it
        ref = np.random.default_rng(88)
        for _ in range(3):
            action._draws(4096, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
