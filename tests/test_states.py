import math

import numpy as np
import pytest

from entbench import cli, multisource, protocols, quantum, states, twirl
from entbench.states import (
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    Ket,
    Operator,
    RankOnePOVM,
    bell_basis,
    doubled_ket,
    fidelity_defect,
    generalized_pauli,
    isotropic_state,
    max_entangled_ket,
    mixed_tensor_sum,
    partial_trace,
    permute_systems,
    proj,
    random_density,
    random_ket,
    random_rank_one_povm,
    random_test,
    sector_operator,
    tensor,
)
from entbench.twirl import haar_unitary, pair_conjugate_unitary
from helpers import kron_fold, placement_sum


class TestMaxEntangledKet:
    def test_d2_amplitudes(self):
        k = max_entangled_ket(2)
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(k.vec, expected, atol=1e-15)

    def test_unit_norm_range_of_d(self):
        for d in range(2, 7):
            assert abs(max_entangled_ket(d).norm - 1.0) < 1e-12

    def test_overlap_with_maximally_mixed(self):
        for d in (2, 3, 4):
            phi = max_entangled_ket(d).vec
            val = np.real(phi.conj() @ (np.eye(d * d) / d**2) @ phi)
            assert abs(val - 1.0 / d**2) < 1e-14

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            max_entangled_ket(1)


class TestFidelityDefect:
    def test_pure_target_is_zero(self):
        sigma = DensityMatrix(proj(max_entangled_ket(3)), (3, 3))
        assert fidelity_defect(sigma) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3):
            sigma = DensityMatrix(np.eye(d * d) / d**2, (d, d))
            assert abs(fidelity_defect(sigma) - (1 - 1 / d**2)) < 1e-12

    def test_isotropic_by_construction(self):
        assert abs(fidelity_defect(isotropic_state(2, 0.3)) - 0.3) < 1e-12
        assert abs(fidelity_defect(isotropic_state(4, 0.77)) - 0.77) < 1e-12

    def test_rejects_non_pair_shape(self):
        with pytest.raises(ValueError):
            fidelity_defect(np.eye(6))  # 6 is not a perfect square


class TestIsotropicState:
    def test_p_zero_is_projector(self):
        assert np.allclose(isotropic_state(2, 0.0).mat, proj(max_entangled_ket(2)))

    def test_special_p_gives_maximally_mixed(self):
        d = 3
        sigma = isotropic_state(d, 1 - 1 / d**2)
        assert np.max(np.abs(sigma.mat - np.eye(d * d) / d**2)) < 1e-14

    def test_spectrum(self):
        d, p = 3, 0.4
        evals = np.sort(np.linalg.eigvalsh(isotropic_state(d, p).mat))
        expected = np.sort([1 - p] + [p / (d * d - 1)] * (d * d - 1))
        assert np.allclose(evals, expected, atol=1e-12)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            isotropic_state(2, 1.2)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            isotropic_state(1, 0.1)

    def test_invariant_under_local_conjugate_action(self):
        d, p = 2, 0.35
        sigma = isotropic_state(d, p).mat
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            u = pair_conjugate_unitary(haar_unitary(d, rng))
            worst = max(worst, np.max(np.abs(u @ sigma @ u.conj().T - sigma)))
        assert worst < 1e-10


class TestMixedTensorSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_placement_sum(self, n):
        # a and b do not commute, so every placement order is checked
        rng = np.random.default_rng(40 + n)
        a, b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        assert np.max(np.abs(a @ b - b @ a)) > 1e-3
        coeffs = rng.standard_normal(n + 1)
        expected = sum(c * placement_sum(a, b, n, k) for k, c in enumerate(coeffs))
        assert np.max(np.abs(mixed_tensor_sum(a, b, coeffs) - expected)) <= 1e-12

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError):
            mixed_tensor_sum(np.eye(2), np.eye(2), [])

    @pytest.mark.parametrize("q,n", [(4, 3), (9, 2), (3, 4), (2, 1)])
    def test_bit_for_bit_the_kron_fold(self, q, n):
        # complex a, b and coefficients, then the real-valued sector operands
        rng = np.random.default_rng(44 + q)
        a, b = rng.standard_normal((2, q, q)) + 1j * rng.standard_normal((2, q, q))
        for coeffs in (rng.standard_normal(n + 1), rng.standard_normal(n + 1) + 1j,
                       [1.0] * n + [0.0]):
            got, want = mixed_tensor_sum(a, b, coeffs), kron_fold(a, b, coeffs)
            assert got.shape == want.shape
            assert np.array_equal(got.view(float), want.view(float))
        p = proj(max_entangled_ket(2))
        got, want = (f(p, np.eye(4) - p, [0.9, 0.3, 0.1]) for f in (mixed_tensor_sum, kron_fold))
        assert np.array_equal(got.view(float), want.view(float))


    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sector_operands_bit_for_bit_nested_kron(self, d, n):
        # the sector operator's own operands, P and I - P, and random ones
        p = proj(max_entangled_ket(d))
        rng = np.random.default_rng(10 * d + n)
        a, b = rng.standard_normal((2, d * d, d * d)) + 1j * rng.standard_normal((2, d * d, d * d))
        for x, y in ((p, np.eye(d * d) - p), (a, b)):
            coeffs = rng.standard_normal(n + 1)
            got = mixed_tensor_sum(x, y, coeffs)
            want = kron_fold(x, y, coeffs)
            assert np.array_equal(got.view(float), want.view(float))
            assert got.flags.owndata and got.flags.c_contiguous


class TestTensorAndPermute:
    def test_identity_tensor(self):
        eye2 = Operator(np.eye(2), (2,), ("A",))
        out = tensor(eye2, eye2)
        assert np.allclose(out.mat, np.eye(4))
        assert out.dims == (2, 2)

    def test_basis_ket_index(self):
        zero = Ket([1, 0], (2,), ("A",))
        one = Ket([0, 1], (2,), ("B",))
        v = tensor(zero, one)
        assert v.vec[1] == 1.0 and np.count_nonzero(v.vec) == 1

    def test_shift_on_bell_state(self):
        d = 3
        x, _ = generalized_pauli(d)
        basis = bell_basis(d)
        moved = np.kron(x.mat, np.eye(d)) @ basis[0].vec
        assert np.allclose(moved, basis[d].vec, atol=1e-12)  # (n, m) = (1, 0)

    def test_identity_permutation_is_noop(self):
        rng = np.random.default_rng(0)
        op = random_density((2, 3), rng)
        out = permute_systems(op, (0, 1))
        assert np.allclose(out.mat, op.mat)

    def test_swap_fixes_max_entangled_projector(self):
        d = 3
        op = Operator(proj(max_entangled_ket(d)), (d, d), ("A", "B"))
        swapped = permute_systems(op, ("B", "A"))
        assert np.max(np.abs(swapped.mat - op.mat)) < 1e-12

    def test_swap_is_involutive(self):
        rng = np.random.default_rng(1)
        op = random_density((2, 2), rng)
        twice = permute_systems(permute_systems(op, (1, 0)), (1, 0))
        assert np.allclose(twice.mat, op.mat)

    def test_tensor_certifies_the_product(self):
        # each factor's top eigenvalue is inside the band, their product is not
        edge = states.TestOperator(np.diag([0.5, 1.0 + 0.9 * PSD_TOL]), (2,))
        with pytest.raises(ValueError, match="leave"):
            tensor(edge, edge)


def _permute_reference(op, order):
    """The permuted matrix as ``permute_systems`` computed it before it adopted
    its array: one transpose of the factor axes, then a reshape."""
    n = len(op.dims)
    axes = list(order) + [n + i for i in order]
    return op.mat.reshape(op.dims + op.dims).transpose(axes).reshape(op.dim, op.dim)


class TestPermuteAdopts:
    """A permuted operator keeps its class and owns one frozen array, with no
    second certificate: a permutation keeps Hermiticity and the spectrum."""

    @pytest.mark.parametrize("make", [random_test, random_density], ids=["test", "state"])
    def test_keeps_class_owns_a_frozen_array_and_is_not_certified(self, monkeypatch, make):
        op = make((2, 3, 2, 3), np.random.default_rng(6))
        monkeypatch.setattr(states, "_certify", lambda *a, **k: pytest.fail("certified again"))
        cases = [((2, 0, 3, 1), permute_systems(op, (2, 0, 3, 1))),
                 ((0, 1, 2, 3), permute_systems(op, (0, 1, 2, 3))),
                 ((0, 2, 1, 3), quantum.to_pair_major(op))]
        for order, out in cases:
            assert type(out) is type(op)
            assert out.dims == tuple(op.dims[i] for i in order)
            assert out.labels == tuple(op.labels[i] for i in order)
            assert out.mat.tobytes() == _permute_reference(op, order).tobytes()
            assert out.mat.flags.owndata and out.mat.base is None
            assert out.mat.flags.c_contiguous and not out.mat.flags.writeable
            assert not np.shares_memory(out.mat, op.mat)


class TestDoubledKet:
    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_entries_pair_major(self, d, k):
        # entry (a1, b1, ..., ak, bk) is u[a1..ak] conj(u[b1..bk])
        u = random_ket((d,) * k, np.random.default_rng(10 * d + k)).vec
        w = doubled_ket(u, d)
        outer = np.outer(u, u.conj()).reshape((d,) * (2 * k))
        expected = outer.transpose([j for i in range(k) for j in (i, k + i)]).reshape(-1)
        assert np.array_equal(w.vec, expected)
        assert w.dims == (d,) * (2 * k)
        assert w.labels == tuple(x for i in range(1, k + 1) for x in (f"A{i}", f"B{i}"))

    def test_accepts_a_ket(self):
        phi = max_entangled_ket(3)
        assert np.array_equal(doubled_ket(phi, 3).vec, doubled_ket(phi.vec, 3).vec)

    @pytest.mark.parametrize("size,d", [(6, 2), (8, 4), (1, 2), (0, 2), (4, 1), (1, 0)])
    def test_length_must_be_a_power_of_d(self, size, d):
        with pytest.raises(ValueError):
            doubled_ket(np.ones(size), d)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bits_of_the_kron_and_permute_construction(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        u = rng.standard_normal(d**k) + 1j * rng.standard_normal(d**k)
        group_major = Ket(np.kron(u, u.conj()), (d,) * (2 * k))
        old = permute_systems(group_major, [j for i in range(k) for j in (i, k + i)])
        assert doubled_ket(u, d).vec.tobytes() == old.vec.tobytes()


def _power_entry_points(monkeypatch):
    """Each entry point that reads k from a size d^k, as a function of
    (size, d).  ``phase_twirl`` reads the copies of a (d^2)^k operator, and
    ``_twirl_case`` the length of its target's vector."""
    def twirl_case(size, d):
        monkeypatch.setitem(cli.TWIRL_TARGETS, "sized", (lambda _: np.ones(size), "local", None))
        return cli._twirl_case("sized", d)

    return {
        "doubled_ket": lambda size, d: doubled_ket(np.ones(size), d),
        "test_from_povm": lambda size, d: quantum.test_from_povm(
            RankOnePOVM(np.ones(size), np.eye(size)), d),
        "phase_twirl": lambda size, d: twirl.phase_twirl(np.eye(size), d),
        "_twirl_case": twirl_case,
    }


class TestExponent:
    """``states._exponent`` is the one reading of k >= 1 from a size d^k."""

    @pytest.mark.parametrize("size,base,k", [(2, 2, 1), (8, 2, 3), (9, 3, 2), (16, 4, 2),
                                             (3**20, 3, 20)])
    def test_exponent(self, size, base, k):
        assert states._exponent(size, base, "size") == k

    @pytest.mark.parametrize("size,base", [(1, 2), (0, 2), (6, 2), (4, 1), (1, 1), (4, 0),
                                           (3**20 + 1, 3)])
    def test_refusals_name_the_base(self, size, base):
        with pytest.raises(ValueError, match=f"size {size} is not a power of {base}"):
            states._exponent(size, base, "size")

    @pytest.mark.parametrize("entry", ["doubled_ket", "test_from_povm", "phase_twirl",
                                       "_twirl_case"])
    @pytest.mark.parametrize("size,d", [(1, 2), (8, 3), (4, 1)], ids=["k=0", "not-a-power", "d=1"])
    def test_every_entry_point_refuses(self, monkeypatch, entry, size, d):
        # before, test_from_povm and phase_twirl divided by log(1) at d = 1 and
        # accepted k = 0 copies from a size-one input
        call = _power_entry_points(monkeypatch)[entry]
        message = "needs d >= 2" if entry == "_twirl_case" and d < 2 else "is not a power of"
        with pytest.raises(ValueError, match=message):
            call(size, d)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        for d in (2, 3):
            op = Operator(proj(max_entangled_ket(d)), (d, d), ("A", "B"))
            red = partial_trace(op, ["A"])
            assert np.max(np.abs(red.mat - np.eye(d) / d)) < 1e-12

    def test_product_recovers_factor(self):
        rng = np.random.default_rng(2)
        s1 = random_density((2, 2), rng, labels=("A1", "B1"))
        s2 = random_density((2, 2), rng, labels=("A2", "B2"))
        joint = tensor(s1, s2)
        red = partial_trace(joint, ["A1", "B1"])
        assert np.max(np.abs(red.mat - s1.mat)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        op = random_test((2, 2, 2), rng)
        red = partial_trace(op, [0, 2])
        assert abs(red.trace() - op.trace()) < 1e-12

    def test_kept_factors_come_out_in_the_order_of_keep(self):
        rng = np.random.default_rng(5)
        s1 = random_density((2,), rng, labels=("A",))
        s2 = random_density((3,), rng, labels=("B",))
        s3 = random_density((2,), rng, labels=("C",))
        red = partial_trace(tensor(s1, s2, s3), ["C", "A"])
        assert red.dims == (2, 2) and red.labels == ("C", "A")
        assert np.max(np.abs(red.mat - np.kron(s3.mat, s1.mat))) < 1e-12

    def test_empty_keep_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            partial_trace(random_density((2, 2), rng), [])


class TestGeneralizedPauli:
    def test_qubit_case(self):
        x, z = generalized_pauli(2)
        assert np.allclose(x.mat, [[0, 1], [1, 0]])
        assert np.allclose(z.mat, [[1, 0], [0, -1]])

    def test_order_d(self):
        for d in (2, 3, 5):
            x, z = generalized_pauli(d)
            assert np.max(np.abs(np.linalg.matrix_power(x.mat, d) - np.eye(d))) < 1e-12
            assert np.max(np.abs(np.linalg.matrix_power(z.mat, d) - np.eye(d))) < 1e-12

    def test_commutation_phase(self):
        for d in (2, 3, 4):
            x, z = generalized_pauli(d)
            lhs = z.mat @ x.mat
            rhs = np.exp(2j * np.pi / d) * x.mat @ z.mat
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestBellBasis:
    def test_first_vector_is_target(self):
        for d in (2, 3):
            assert np.allclose(bell_basis(d)[0].vec, max_entangled_ket(d).vec)

    def test_orthonormal(self):
        for d in (2, 3):
            vecs = np.array([k.vec for k in bell_basis(d)])
            gram = vecs.conj() @ vecs.T
            assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12

    def test_completeness(self):
        for d in (2, 3, 4, 5):
            total = sum(proj(k) for k in bell_basis(d))
            assert np.max(np.abs(total - np.eye(d * d))) <= 1e-10

    def test_qubit_bell_states_explicit(self):
        b = bell_basis(2)
        s = 1 / math.sqrt(2)
        assert np.allclose(b[0].vec, [s, 0, 0, s])
        assert np.allclose(b[1].vec, [s, 0, 0, -s])  # (n, m) = (0, 1)
        assert np.allclose(b[2].vec, [0, s, s, 0])  # (1, 0)
        assert np.allclose(b[3].vec, [0, -s, s, 0])  # (1, 1)


class TestRandomInstances:
    def test_density_invariants(self):
        rng = np.random.default_rng(6)
        for dims in ((2, 2), (3, 3), (2, 2, 2)):
            sigma = random_density(dims, rng)
            assert abs(sigma.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(sigma.mat).min() > -1e-12

    def test_test_operator_invariants(self):
        rng = np.random.default_rng(7)
        t = random_test((2, 2), rng)
        evals = np.linalg.eigvalsh(t.mat)
        assert evals.min() >= -1e-12 and evals.max() <= 1 + 1e-12

    def test_seed_reproducibility(self):
        a = random_density((2, 2), np.random.default_rng(42))
        b = random_density((2, 2), np.random.default_rng(42))
        assert np.array_equal(a.mat, b.mat)
        ka = random_ket((3,), np.random.default_rng(9))
        kb = random_ket((3,), np.random.default_rng(9))
        assert np.array_equal(ka.vec, kb.vec)

    def test_povm_completeness(self):
        rng = np.random.default_rng(8)
        povm = random_rank_one_povm(3, rng)
        gram = (povm.vectors.conj().T * povm.weights) @ povm.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-9

    def test_povm_bases_come_from_the_haar_sampler(self):
        # after the mixture weights, one Haar unitary per basis, its columns in order
        d, parts = 3, 3
        povm = random_rank_one_povm(d, np.random.default_rng(10), parts)
        rng = np.random.default_rng(10)
        mix = rng.dirichlet(np.ones(parts))
        bases = [haar_unitary(d, rng).T for _ in range(parts)]
        assert np.array_equal(povm.weights, np.repeat(mix, d))
        assert np.array_equal(povm.vectors, np.concatenate(bases))

    def test_povm_validation_rejects_incomplete(self):
        with pytest.raises(ValueError):
            RankOnePOVM([1.0], np.array([[1.0, 0.0]]))


class TestFactorBookkeeping:
    def test_dim_consistency(self):
        k = Ket(np.ones(6) / math.sqrt(6), (2, 3))
        assert k.dim == 6

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            Ket(np.ones(5), (2, 3))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4), (2, 2))  # trace 4
        with pytest.raises(ValueError):
            TestMatrix = np.diag([1.5, 0, 0, 0])
            from entbench.states import TestOperator

            TestOperator(TestMatrix, (2, 2))

    def test_factors_of_dimension_one_are_kept(self):
        k = Ket([0.6, 0.8], (1, 2))
        op = Operator(np.eye(2), (2, 1), ("A", "B"))
        assert (k.dims, k.labels) == ((1, 2), ("s0", "s1"))
        assert (op.dims, op.labels) == ((2, 1), ("A", "B"))
        for dims in ((0, 2), (2, -1)):
            with pytest.raises(ValueError, match="must be positive"):
                Ket([0.6, 0.8], dims)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_group_major_labels_reorder_to_pair_major(self, k):
        group = states._group_labels(k)
        assert tuple(group[j] for j in states._pair_order(k)) == states._pair_labels(k)


def _hermitian_with_spectrum(evals, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((evals.size,) * 2)
                        + 1j * rng.standard_normal((evals.size,) * 2))
    m = (q * evals) @ q.conj().T
    return (m + m.conj().T) / 2.0


def _symmetric_with_spectrum(evals, rng) -> np.ndarray:
    """A real symmetric matrix with the given spectrum, from a real orthogonal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((evals.size,) * 2))
    m = (q * evals) @ q.T
    return (m + m.T) / 2.0


class TestValidityCertificate:
    """0 <= T <= I and rho >= 0 are certified by Cholesky factorizations; the
    verdict must be the eigenvalue test's away from the band edges."""

    @pytest.mark.parametrize("cls", [states.TestOperator, DensityMatrix])
    def test_verdict_matches_eigvalsh(self, cls):
        rng = np.random.default_rng(21)
        verdicts = set()
        for _ in range(60):
            n = int(rng.integers(2, 33))
            evals = rng.uniform(0.1, 0.9, n)
            # the extreme eigenvalue sits 1e-9 to 1e-8 inside or outside a band edge
            edge = -PSD_TOL if cls is DensityMatrix or rng.random() < 0.5 else 1.0 + PSD_TOL
            evals[0] = edge + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-9, -8)
            if cls is DensityMatrix:
                evals[1:] *= (1.0 - evals[0]) / evals[1:].sum()
            m = _hermitian_with_spectrum(evals, rng)
            e = np.linalg.eigvalsh(m)
            want = e.min() >= -PSD_TOL and (cls is DensityMatrix or e.max() <= 1.0 + PSD_TOL)
            try:
                cls(m, (n,))
                got = True
            except ValueError:
                got = False
            assert got == want, (n, evals[0])
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("cls", [states.TestOperator, DensityMatrix])
    def test_real_verdict_matches_eigvalsh(self, cls):
        # the twin of the complex test above on real orthogonal bases, which
        # takes the real path (dpotrf) of the certificate
        rng = np.random.default_rng(25)
        verdicts = set()
        for _ in range(60):
            n = int(rng.integers(2, 33))
            evals = rng.uniform(0.1, 0.9, n)
            edge = -PSD_TOL if cls is DensityMatrix or rng.random() < 0.5 else 1.0 + PSD_TOL
            evals[0] = edge + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-9, -8)
            if cls is DensityMatrix:
                evals[1:] *= (1.0 - evals[0]) / evals[1:].sum()
            m = _symmetric_with_spectrum(evals, rng)
            e = np.linalg.eigvalsh(m)
            want = e.min() >= -PSD_TOL and (cls is DensityMatrix or e.max() <= 1.0 + PSD_TOL)
            try:
                cls(m, (n,))
                got = True
            except ValueError:
                got = False
            assert got == want, (n, evals[0])
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_real_operators_never_run_zpotrf(self, monkeypatch):
        from scipy.linalg import lapack

        calls, dpotrf = [], lapack.dpotrf
        monkeypatch.setattr(lapack, "zpotrf", lambda *a, **k: pytest.fail("zpotrf ran"))
        monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: calls.append(1) or dpotrf(*a, **k))
        rng = np.random.default_rng(26)
        real = _symmetric_with_spectrum(np.array([0.2, 0.5, 0.9]), rng)
        states.TestOperator(real, (3,))  # complex dtype, zero imaginary part
        negative_zero = real.astype(complex)
        negative_zero.imag = -0.0
        states.TestOperator(negative_zero, (3,))
        states._certify(real, "test operator", upper=True)  # real dtype
        DensityMatrix(_symmetric_with_spectrum(np.array([0.2, 0.3, 0.5]), rng), (3,))
        with pytest.raises(ValueError, match="leave"):
            states.TestOperator(np.diag([0.5, 1.5]), (2,))
        assert len(calls) == 9  # two per test operator (the rejected one too), one for the state

    @pytest.mark.parametrize("cls", [states.TestOperator, DensityMatrix])
    def test_nan_imaginary_part_is_rejected(self, cls):
        for i, j in ((0, 0), (0, 1)):
            m = np.diag([0.5, 0.5]).astype(complex)
            m[i, j] += 1j * np.nan
            with pytest.raises(ValueError, match="not finite and Hermitian"):
                cls(m, (2,))

    def test_real_matrix_that_is_not_symmetric_is_rejected(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        message = "test operator is not finite and Hermitian within tolerance"
        with pytest.raises(ValueError, match=message):
            states._certify(m, "test operator", upper=True)
        with pytest.raises(ValueError, match=message):
            states.TestOperator(m, (2,))

    def test_valid_operators_compute_no_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(22)
        m = random_test((3, 3), rng).mat
        rho = random_density((3, 3), rng).mat
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigvalsh ran"))
        states.TestOperator(m, (3, 3))
        DensityMatrix(rho, (3, 3))

    def test_rejections_name_the_eigenvalues(self):
        with pytest.raises(ValueError, match=r"eigenvalues \[-0\.25, 1\.5\] leave \[0, 1\]"):
            states.TestOperator(np.diag([-0.25, 1.5]), (2,))
        with pytest.raises(ValueError, match=r"eigenvalues \[0\.0, 1\.5\] leave \[0, 1\]"):
            states.TestOperator(np.diag([0.0, 1.5]), (2,))
        with pytest.raises(ValueError, match=r"negative eigenvalue -0\.25$"):
            DensityMatrix(np.diag([1.25, -0.25]), (2,))
        # real-dtype matrices name the same eigenvalues
        with pytest.raises(ValueError, match=r"eigenvalues \[-0\.25, 1\.5\] leave \[0, 1\]"):
            states._certify(np.diag([-0.25, 1.5]), "test operator", upper=True)
        with pytest.raises(ValueError, match=r"negative eigenvalue -0\.25$"):
            states._certify(np.diag([1.25, -0.25]), "density matrix", upper=False)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_callers_matrix_is_unchanged(self, order):
        rng = np.random.default_rng(23)
        m = np.array(_hermitian_with_spectrum(np.array([0.2, 0.5, 0.9]), rng), order=order)
        before = m.copy()
        assert np.array_equal(states.TestOperator(m, (3,)).mat, before)
        assert np.array_equal(m, before)
        # fails the upper bound, after the workspace was refilled with -m
        m = np.array(_hermitian_with_spectrum(np.array([0.2, 0.5, 1.5]), rng), order=order)
        before = m.copy()
        with pytest.raises(ValueError):
            states.TestOperator(m, (3,))
        assert np.array_equal(m, before)
        # a real-dtype matrix reaches the certificate itself, valid then not
        for evals, valid in (([0.2, 0.5, 0.9], True), ([0.2, 0.5, 1.5], False)):
            m = np.array(_symmetric_with_spectrum(np.array(evals), rng), order=order)
            before = m.copy()
            if valid:
                states._certify(m, "test operator", upper=True)
            else:
                with pytest.raises(ValueError, match="leave"):
                    states._certify(m, "test operator", upper=True)
            assert np.array_equal(m, before)

    @pytest.mark.parametrize("bad", [1e-9, np.nan, np.inf])
    def test_blockwise_hermitian_check_sees_every_entry(self, monkeypatch, bad):
        # two rows per block over a 5 x 5 matrix, so the last block is short
        monkeypatch.setattr(states, "_ROW_BLOCK", 10)
        m = np.diag([0.1, 0.2, 0.3, 0.4, 0.5]).astype(complex)
        m[0, 4] = m[4, 0] = 0.05
        states.TestOperator(m, (5,))
        for i in range(5):
            for j in range(5):
                e = m.copy()
                e[i, j] += 1j * bad
                with pytest.raises(ValueError, match="not finite and Hermitian"):
                    states.TestOperator(e, (5,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cls", [states.TestOperator, DensityMatrix])
    def test_rejects_non_finite(self, cls, bad):
        for m in ([[bad, 0.0], [0.0, 0.5]], [[0.5, bad], [bad, 0.5]]):
            with pytest.raises(ValueError, match="not finite and Hermitian"):
                cls(m, (2,))


def _sector_built(kind: str, d: int, x):
    """A sector-built operator or state, and the recipe ``(cls, coeffs, dims,
    labels)`` of the dense construction it replaces, ``cls(sector_operator(d,
    coeffs), dims, labels)``, which ``_certify`` certifies."""
    pairs = states._pair_labels
    if kind == "one-sample":
        return (quantum.one_sample_covariant_test(d),
                (states.TestOperator, [1.0, 1.0 / (d + 1)], (d, d), ("A", "B")))
    if kind == "two-sample":
        return (quantum.two_sample_covariant_test(d),
                (states.TestOperator, [1.0, 0.0, 1.0 / (d * d - 1)], (d,) * 4, pairs(2)))
    if kind == "pooled":
        return (quantum.pooled_covariant_test(d, x),
                (states.TestOperator, [1.0] + [1.0 / (d**x + 1)] * x, (d, d) * x, pairs(x)))
    if kind == "three-source":
        coeffs = [1.0, 0.0, 1.0 / ((d + 1.0) ** 2 * (d - 1.0)),
                  (d + 2.0) / ((d + 1.0) ** 3 * (d - 1.0))]
        return (multisource.three_source_covariant_test(d),
                (states.TestOperator, coeffs, (d, d) * 3, pairs(3)))
    return (isotropic_state(d, x),
            (DensityMatrix, [1.0 - x, x / (d * d - 1)], (d, d), ("A", "B")))


SECTOR_CASES = (
    [("one-sample", d, None) for d in (2, 3, 4, 5)]
    + [("two-sample", d, None) for d in (2, 3, 4, 5)]
    + [("pooled", d, n) for d in (2, 3) for n in (1, 2, 3)]
    + [("three-source", d, None) for d in (2, 3)]
    + [("isotropic", d, p) for d in (2, 3, 4, 5) for p in (0.0, 0.3, 1.0)]
)


def _sector_fold(d: int, coeffs) -> np.ndarray:
    p = proj(max_entangled_ket(d))
    return mixed_tensor_sum(p, np.eye(d * d) - p, coeffs)


def _random_sector_coeffs():
    """Seeded coefficient sets at d = 2..5 and n = 1..3 (dims up to 729), the
    band edges -PSD_TOL and 1 + PSD_TOL and zeros among them, and two more."""
    rng = np.random.default_rng(31)
    cases = []
    for d in (2, 3, 4, 5):
        for n in (1, 2, 3):
            if (d * d) ** n > 729:
                continue
            for _ in range(3):
                coeffs = rng.uniform(0.0, 1.0, n + 1)
                coeffs[rng.integers(0, n + 1)] = rng.choice([-PSD_TOL, 1.0 + PSD_TOL, 0.0])
                cases.append((d, list(coeffs)))
            cases.append((d, [-PSD_TOL] + [1.0 + PSD_TOL] * n))
    return cases + [(2, [1, 0, 1]), (3, [0.25])]  # integers; no pair, a 1 x 1 scalar


class TestSectorOperator:
    """``sector_operator`` writes only the pattern's entries, each the fold's
    ``mixed_tensor_sum(P, I - P, coeffs)`` bit for bit."""

    @staticmethod
    def _assert_the_fold(d, coeffs):
        got, want = sector_operator(d, coeffs), _sector_fold(d, coeffs)
        assert got.shape == want.shape and np.array_equal(got, want)
        # on the pattern, which holds every nonzero entry, each bit is the
        # fold's, zeros included; off it, +0
        n = len(coeffs) - 1
        pos = states._sector_pattern(d, n)[0]
        assert np.array_equal(got.reshape(-1)[pos].view(np.uint64), want.reshape(-1)[pos].view(np.uint64))
        off = np.ones(got.size, dtype=bool)
        off[pos] = False
        assert not got.reshape(-1)[off].view(np.uint64).any()
        assert np.array_equal(got, got.conj().T)  # exactly Hermitian
        assert got.flags.owndata and got.base is None and got.flags.c_contiguous

    @pytest.mark.parametrize("kind, d, x", SECTOR_CASES, ids=lambda v: str(v))
    def test_the_library_coefficients_give_the_fold(self, kind, d, x):
        _, (_, coeffs, _, _) = _sector_built(kind, d, x)
        self._assert_the_fold(d, coeffs)

    @pytest.mark.parametrize("d, coeffs", _random_sector_coeffs())
    def test_random_coefficients_give_the_fold(self, d, coeffs):
        self._assert_the_fold(d, coeffs)

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)])
    def test_writes_exactly_the_pattern(self, d, n):
        # at generic coefficients no pattern entry cancels to zero
        got = sector_operator(d, np.random.default_rng(10 * d + n).uniform(0.1, 0.9, n + 1))
        assert np.count_nonzero(got) == len(states._sector_pattern(d, n)[0]) == (2 * d * d - d) ** n

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            sector_operator(2, [])


class TestSectorCertificate:
    """``_from_sectors`` certifies the covariant tests and isotropic states
    from their sector coefficients, with ``_certify``'s verdicts."""

    @pytest.mark.parametrize("kind, d, x", SECTOR_CASES, ids=lambda v: str(v))
    def test_same_bits_as_the_dense_construction(self, kind, d, x):
        op, (cls, coeffs, dims, labels) = _sector_built(kind, d, x)
        dense = cls(sector_operator(d, coeffs), dims, labels)  # certified by _certify
        assert type(op) is type(dense)
        assert (op.dims, op.labels) == (dense.dims, dense.labels)
        assert op.mat.tobytes() == dense.mat.tobytes() and not op.mat.flags.writeable
        assert np.array_equal(op.mat, op.mat.conj().T)  # exactly Hermitian

    @pytest.mark.parametrize("kind, d, x", SECTOR_CASES, ids=lambda v: str(v))
    def test_matrix_is_frozen_and_owns_its_data(self, kind, d, x):
        op, _ = _sector_built(kind, d, x)
        assert op.mat.flags.owndata and op.mat.base is None
        assert not op.mat.flags.writeable
        with pytest.raises(ValueError):
            op.mat[0, 0] = 2.0

    def test_public_constructors_still_copy(self):
        built = sector_operator(2, [1.0, 1.0 / 3.0])
        built.setflags(write=False)
        for cls in (Operator, states.TestOperator):
            op = cls(built, (2, 2))
            assert op.mat is not built and not np.shares_memory(op.mat, built)

    def test_max_entangled_spec_is_the_projector_bit_for_bit(self):
        for d in (2, 3, 4, 5, 7, 10):
            rho = protocols.StateSpec("max_entangled", d).build()
            assert rho.mat.tobytes() == proj(max_entangled_ket(d)).tobytes()

    def test_runs_no_cholesky_factorization(self, monkeypatch):
        from scipy.linalg import lapack

        for name in ("dpotrf", "zpotrf"):
            monkeypatch.setattr(lapack, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
        for kind, d, x in SECTOR_CASES:
            if d <= 3:
                _sector_built(kind, d, x)
        protocols.StateSpec("max_entangled", 3).build()
        protocols.StateSpec("isotropic", 3, (0.2,)).build()

    @pytest.mark.parametrize(
        "cls, coeffs, message",
        [
            (states.TestOperator, [1.0, 1.5], r"test operator eigenvalues \[1\.0, 1\.5\] leave \[0, 1\]$"),
            (states.TestOperator, [0.5, -0.25, 0.0],
             r"test operator eigenvalues \[-0\.25, 0\.5\] leave \[0, 1\]$"),
            (states.TestOperator, [0.5, np.nan], "test operator is not finite and Hermitian"),
            (states.TestOperator, [np.inf, 0.5], "test operator is not finite and Hermitian"),
            (states.TestOperator, [0.5, 0.5 + 0.1j], "test operator is not finite and Hermitian"),
            (DensityMatrix, [1.25, -0.25 / 3], r"density matrix has negative eigenvalue -0\.0833+$"),
            (DensityMatrix, [1.0, -np.inf], "density matrix is not finite and Hermitian"),
            (DensityMatrix, [0.5, 0.1], r"density matrix trace 0\.8\d* is not 1$"),
        ],
        ids=["above", "below", "nan", "inf", "complex", "negative", "state-inf", "trace"],
    )
    def test_refuses_before_building(self, monkeypatch, cls, coeffs, message):
        monkeypatch.setattr(states, "sector_operator", lambda *a: pytest.fail("operator was built"))
        with pytest.raises(ValueError, match=message):
            states._from_sectors(cls, 2, coeffs, (2, 2) * (len(coeffs) - 1), ())

    def test_band_and_trace_edges(self):
        # the band is closed: its edges pass and the next floats out do not
        build = states._from_sectors
        for edge, out in ((-PSD_TOL, -1.0), (1.0 + PSD_TOL, 2.0)):
            build(states.TestOperator, 2, [0.5, edge], (2, 2), ())
            with pytest.raises(ValueError, match="leave"):
                build(states.TestOperator, 2, [0.5, np.nextafter(edge, out)], (2, 2), ())
        build(DensityMatrix, 2, [-PSD_TOL, (1.0 + PSD_TOL) / 3], (2, 2), ())
        with pytest.raises(ValueError, match="negative eigenvalue"):
            build(DensityMatrix, 2, [np.nextafter(-PSD_TOL, -1.0), (1.0 + PSD_TOL) / 3], (2, 2), ())
        build(DensityMatrix, 2, [1.0 + 0.9 * TRACE_TOL, 0.0], (2, 2), ())
        build(DensityMatrix, 2, [1.0 - 0.9 * TRACE_TOL, 0.0], (2, 2), ())
        for off in (1.1 * TRACE_TOL, -1.1 * TRACE_TOL):
            with pytest.raises(ValueError, match="is not 1"):
                build(DensityMatrix, 2, [1.0 + off, 0.0], (2, 2), ())

    @pytest.mark.parametrize("cls", [states.TestOperator, DensityMatrix])
    def test_verdict_matches_eigvalsh_at_the_band_edges(self, cls):
        rng = np.random.default_rng(27)
        verdicts = set()
        for _ in range(40):
            d, n = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            coeffs = rng.uniform(0.1, 0.9, n + 1)
            edge = -PSD_TOL if cls is DensityMatrix or rng.random() < 0.5 else 1.0 + PSD_TOL
            k = int(rng.integers(0, n + 1))
            coeffs[k] = edge + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-9, -8)
            sizes = np.array([math.comb(n, j) * (d * d - 1) ** j for j in range(n + 1)])
            if cls is DensityMatrix:  # the other sectors take the rest of the trace
                rest = np.arange(n + 1) != k
                coeffs[rest] *= (1.0 - coeffs[k] * sizes[k]) / (coeffs[rest] @ sizes[rest])
            m = sector_operator(d, coeffs)
            e = np.linalg.eigvalsh(m)
            want = e.min() >= -PSD_TOL and (cls is DensityMatrix or e.max() <= 1.0 + PSD_TOL)
            if cls is DensityMatrix:
                assert abs(np.trace(m).real - 1.0) <= TRACE_TOL
            try:
                states._from_sectors(cls, d, coeffs, (d, d) * n, ())
                got = True
            except ValueError:
                got = False
            assert got == want, (d, n, k, coeffs[k])
            verdicts.add(got)
        assert verdicts == {True, False}


class TestRefusals:
    """Each refusal raises its own type with its own message."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: Operator(np.eye(4), (2, 2), ("A",)),
                     ValueError, "one label per factor required", id="label-count"),
        pytest.param(lambda: Operator(np.eye(4), (2, 2), ("A", "A")),
                     ValueError, "factor labels must be unique, got ('A', 'A')",
                     id="duplicate-labels"),
        pytest.param(lambda: Operator(np.zeros((2, 4)), (2,)),
                     ValueError, "operator must be square, got shape (2, 4)", id="non-square"),
        pytest.param(lambda: RankOnePOVM([1.0], np.eye(2)),
                     ValueError, "need one weight per vector", id="povm-weight-count"),
        pytest.param(lambda: RankOnePOVM([1.0, 1.0], np.ones(2)),
                     ValueError, "need one weight per vector", id="povm-flat-vectors"),
        pytest.param(lambda: RankOnePOVM([2.0, -1.0], np.eye(2)),
                     ValueError, "POVM weights must be nonnegative", id="povm-negative-weight"),
        pytest.param(lambda: RankOnePOVM([0.25, 0.25], 2.0 * np.eye(2)),
                     ValueError, "POVM vectors must be unit", id="povm-non-unit"),
        pytest.param(lambda: tensor(),
                     ValueError, "tensor of nothing", id="tensor-of-nothing"),
        pytest.param(lambda: tensor(max_entangled_ket(2), isotropic_state(2, 0.1)),
                     TypeError, "cannot mix Kets and Operators in one tensor product",
                     id="tensor-mixed"),
        pytest.param(lambda: permute_systems(isotropic_state(2, 0.1), ["B", "C"]),
                     ValueError, "unknown factor label 'C'; have ['A', 'B']", id="unknown-label"),
        pytest.param(lambda: permute_systems(isotropic_state(2, 0.1), [0, 0]),
                     ValueError, "order (0, 0) is not a permutation of 2 factors",
                     id="non-permutation"),
        pytest.param(lambda: partial_trace(isotropic_state(2, 0.1), ["A", 0]),
                     ValueError, "duplicate factors in keep set", id="duplicate-keep"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message
