"""Exact two-sample analysis for qubit pairs (d = 2).

Everything in this module works in the Bell basis of a single pair,

    phi0 = (|00> + |11>)/sqrt(2)      phi1 = (|01> + |10>)/sqrt(2)
    phi2 = (-i|01> + i|10>)/sqrt(2)   phi3 = (|00> - |11>)/sqrt(2)

and in the 16-dimensional two-pair space stored pair-major (A1, B1, A2, B2).
The two-pair space splits into six blocks that are irreducible under the
simultaneous local action together with the phase action; each block is
labeled by its dimension, its phase charge (how many pair factors sit on
phi0), and its sign under swapping the two samples.  Acceptance probabilities
of every swap-even covariant test reduce to weighted sums of the six block
traces, which in turn are short polynomials in the Bell-basis matrix elements
of the single-pair state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import (HERMITIAN_TOL, PSD_TOL, TRACE_TOL, DensityMatrix, Operator, TestOperator,
                     _pair_labels, doubled_ket)

_SQ2 = math.sqrt(2.0)

# single-pair Bell basis; the phase of phi2 is fixed so that the block-trace
# formulas below hold verbatim
BELL_VECTORS = np.array(
    [
        [1.0 / _SQ2, 0.0, 0.0, 1.0 / _SQ2],
        [0.0, 1.0 / _SQ2, 1.0 / _SQ2, 0.0],
        [0.0, -1j / _SQ2, 1j / _SQ2, 0.0],
        [1.0 / _SQ2, 0.0, 0.0, -1.0 / _SQ2],
    ],
    dtype=complex,
)

BLOCK_NAMES = ("sym5_c0", "sym3_c1", "sym1_c2", "sym1_c0", "anti3_c0", "anti3_c1")
BLOCK_DIMS = (5, 3, 1, 1, 3, 3)

# block weights <u (x) conj(u)| Pi_k |u (x) conj(u)> of the two optimal seed
# vectors, in BLOCK_NAMES order
OPTIMAL_WEIGHTS = (3.0 / 8.0, 0.0, 1.0 / 4.0, 0.0, 3.0 / 8.0, 0.0)
SEQUENTIAL_WEIGHTS = (1.0 / 8.0, 1.0 / 4.0, 1.0 / 4.0, 0.0, 1.0 / 8.0, 1.0 / 4.0)


@dataclass(frozen=True)
class BlockDecomposition:
    """Bell-basis matrix elements of a single-pair state: (a, b; b, C), held
    to the tolerances of a ``DensityMatrix``."""

    a: float
    b: np.ndarray  # 3-vector, <phi_i| sigma |phi_0>
    c: np.ndarray  # 3x3 Hermitian, <phi_i| sigma |phi_j>, i, j >= 1

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex).reshape(3)
        c = np.asarray(self.c, dtype=complex).reshape(3, 3)
        if abs(self.a + np.trace(c).real - 1.0) > TRACE_TOL:
            raise ValueError("a + Tr C must equal the unit trace of the state")
        if np.max(np.abs(c - c.conj().T)) > HERMITIAN_TOL:
            raise ValueError("C block must be Hermitian")
        if np.linalg.eigvalsh(c).min() < -PSD_TOL or self.a < -PSD_TOL:
            raise ValueError("diagonal blocks must be positive semidefinite")
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def v(self) -> np.ndarray:
        """Real part of C; the symmetric matrix entering the variance terms."""
        return self.c.real

    @property
    def defect(self) -> float:
        return float(np.trace(self.c).real)


def bell_block(sigma) -> BlockDecomposition:
    """Project a two-qubit state onto the Bell basis."""
    mat = sigma.mat if isinstance(sigma, Operator) else np.asarray(sigma, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError("qubit-pair analysis needs a 4 x 4 state")
    x = BELL_VECTORS.conj() @ mat @ BELL_VECTORS.T
    return BlockDecomposition(a=float(x[0, 0].real), b=x[1:, 0], c=x[1:, 1:])


@lru_cache(maxsize=1)
def irrep_projectors() -> tuple[np.ndarray, ...]:
    """The six orthogonal block projectors on the pair-major two-pair space,
    in ``BLOCK_NAMES`` order.

    With P = |phi0><phi0| and Q = I - P on one pair, the charge projectors are
    Q (x) Q, P (x) Q + Q (x) P and P (x) P, and the swap parities of the two
    pairs (I +- S)/2; each block is a charge times a parity, but the even
    charge-0 sector splits into s = (phi1 phi1 + phi2 phi2 + phi3 phi3)/sqrt(3)
    and its 5-dimensional complement.
    """
    p = np.outer(BELL_VECTORS[0], BELL_VECTORS[0].conj())
    q = np.eye(4) - p
    c0, c1, c2 = np.kron(q, q), np.kron(p, q) + np.kron(q, p), np.kron(p, p)
    swap = np.eye(16).reshape(4, 4, 4, 4).transpose(0, 1, 3, 2).reshape(16, 16)
    even, odd = (np.eye(16) + swap) / 2.0, (np.eye(16) - swap) / 2.0
    s = sum(np.kron(v, v) for v in BELL_VECTORS[1:]) / math.sqrt(3.0)
    singlet = np.outer(s, s.conj())
    blocks = (even @ c0 - singlet, even @ c1, c2, singlet, odd @ c0, odd @ c1)
    for pi in blocks:
        pi.setflags(write=False)
    return blocks


def block_traces(sigma) -> np.ndarray:
    """Tr(sigma^{(x)2} Pi_k) for the six blocks, from the closed forms.

    In terms of the Bell-basis blocks (a, b, C) of the single-pair state:

        sym5_c0 : (Tr C^2 + (Tr C)^2)/2 - Tr(C conj(C))/3
        sym3_c1 : a Tr C + |b|^2
        sym1_c2 : a^2
        sym1_c0 : Tr(C conj(C))/3
        anti3_c0: ((Tr C)^2 - Tr C^2)/2
        anti3_c1: a Tr C - |b|^2

    They sum to 1.  Swap-odd intertwiner components of sigma^{(x)2} vanish, so
    these six numbers determine the acceptance of every swap-even covariant
    test.
    """
    blk = bell_block(sigma)
    a, b, c = blk.a, blk.b, blk.c
    tr_c = float(np.trace(c).real)
    tr_c2 = float(np.trace(c @ c).real)
    tr_ccbar = float(np.trace(c @ c.conj()).real)
    bb = float(np.real(b.conj() @ b))
    return np.array(
        [
            0.5 * (tr_c2 + tr_c**2) - tr_ccbar / 3.0,
            a * tr_c + bb,
            a * a,
            tr_ccbar / 3.0,
            0.5 * (tr_c**2 - tr_c2),
            a * tr_c - bb,
        ]
    )


def block_weights(u: np.ndarray) -> np.ndarray:
    """<u (x) conj(u)| Pi_k |u (x) conj(u)> for a unit vector u on A1 (x) A2."""
    w = doubled_ket(u, 2).vec
    return np.array([float(np.real(w.conj() @ pi @ w)) for pi in irrep_projectors()])


def optimal_seed_vector() -> np.ndarray:
    """Unit seed vector of the optimal covariant two-sample POVM on A1 (x) A2.

    Equal weight on the pair-singlet and on (|00> + |11>)/sqrt(2), scaled up
    by sqrt(3) on the latter; its block weights are (3/8, 0, 1/4, 0, 3/8, 0).
    """
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQ2
    triplet = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQ2
    return 0.5 * singlet + math.sqrt(3.0) / 2.0 * triplet


def _effective_test(weights) -> TestOperator:
    mat = np.zeros((16, 16), dtype=complex)
    for w, dim, pi in zip(weights, BLOCK_DIMS, irrep_projectors()):
        mat += (4.0 * w / dim) * pi
    return TestOperator(mat, (2, 2, 2, 2), _pair_labels(2))


def optimal_two_sample_test() -> TestOperator:
    """Effective acceptance operator of the optimal covariant two-sample test.

    Valid against swap-invariant product states sigma^{(x)2}; its trace
    against them equals the optimal type-2 error whenever the defect is at
    most 1/2.
    """
    return _effective_test(OPTIMAL_WEIGHTS)


def sequential_two_sample_test() -> TestOperator:
    """Effective operator of the sequential (one-way A1 -> A2) covariant test."""
    return _effective_test(SEQUENTIAL_WEIGHTS)


def _variance_term(v: np.ndarray) -> float:
    tr = float(np.trace(v)) / 3.0
    return float(np.trace(v @ v)) / 3.0 - tr * tr


def beta_optimal_two_sample(sigma) -> float:
    """Optimal two-sample type-2 error at level 0 for defect <= 1/2:

        (1-p)^2 + p^2/3 - (3/5) (Tr V^2/3 - (Tr V/3)^2),  V = Re C.
    """
    blk = bell_block(sigma)
    p = blk.defect
    if p > 0.5:
        warnings.warn(
            f"defect {p} exceeds 1/2; the closed form is outside its "
            "optimality region",
            stacklevel=2,
        )
    return (1.0 - p) ** 2 + p * p / 3.0 - 0.6 * _variance_term(blk.v)


def beta_sequential_two_sample(sigma) -> float:
    """Type-2 error of the sequential covariant test at level 0:

        (1 - 2p/3)^2 - (1/5) (Tr V^2/3 - (Tr V/3)^2).
    """
    blk = bell_block(sigma)
    p = blk.defect
    return (1.0 - 2.0 * p / 3.0) ** 2 - 0.2 * _variance_term(blk.v)


def beta_sequential_expanded(sigma) -> float:
    """Same quantity written directly in the C block:

        (1 - Tr C)^2 + (2/3) Tr C - (8/15)(Tr C)^2 - (1/15) Tr (Re C)^2.
    """
    blk = bell_block(sigma)
    tr_c = blk.defect
    tr_v2 = float(np.trace(blk.v @ blk.v))
    return (1.0 - tr_c) ** 2 + 2.0 / 3.0 * tr_c - 8.0 / 15.0 * tr_c**2 - tr_v2 / 15.0


def block_trace_inequalities(sigma) -> tuple[bool, bool, bool]:
    """Three trace inequalities that hold whenever the defect is at most 1/2:

        anti3_c1 >= anti3_c0
        5 sym3_c1 >= 3 sym5_c0
        10 sym1_c0 + sym5_c0 >= 5 anti3_c0
    """
    s5, s3, _s1c2, s1c0, a0, a1 = block_traces(sigma)
    tol = 1e-12
    return (bool(a1 - a0 >= -tol), bool(5.0 * s3 - 3.0 * s5 >= -tol),
            bool(10.0 * s1c0 + s5 - 5.0 * a0 >= -tol))


def communication_gain(sigma) -> float:
    """Improvement of the sequential test over two independent single-pair tests."""
    blk = bell_block(sigma)
    return 0.2 * _variance_term(blk.v)


def bell_diagonal_state(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Bell-diagonal qubit-pair state with weights (1 - sum c, c1, c2, c3)."""
    c = (c1, c2, c3)
    if min(c) < 0 or sum(c) > 1:
        raise ValueError("need c_i >= 0 with c1 + c2 + c3 <= 1")
    mat = (1.0 - sum(c)) * np.outer(BELL_VECTORS[0], BELL_VECTORS[0].conj())
    for ci, vec in zip(c, BELL_VECTORS[1:]):
        mat = mat + ci * np.outer(vec, vec.conj())
    return DensityMatrix(mat, (2, 2), ("A", "B"))
