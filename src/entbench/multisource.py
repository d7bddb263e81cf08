"""Tests for two and three independently sourced pairs.

Each source i contributes one d x d pair with its own defect p_i; the null
hypothesis bounds the sum of the defects.  The optimal covariant acceptance
operators are eigenoperators of the projectors P_i onto the maximally
entangled vector of each pair, so the exact type-2 errors are short
polynomials in the p_i.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .classical import beta_poisson, check_defects
from .states import Ket, TestOperator, _from_sectors, _pair_labels, doubled_ket, proj


class TripleTermNote(UserWarning):
    """Emitted when the three-source error is evaluated.

    Values come from the acceptance operator, whose all-sources-failed
    coefficient is (d+2)/((d+1)^3 (d-1)); a commonly quoted closed form for
    this error instead puts that term over (d+1)^2 (d-1).  The operator form
    is the one confirmed independently by its coefficient formulas at the GHZ
    point and by Monte-Carlo twirling, so the quoted form appears to drop one
    power of (d+1).
    """


class ConditionedValue(NamedTuple):
    value: float
    condition_holds: bool


def beta_two_source(d: int, p1: float, p2: float) -> ConditionedValue:
    """Optimal level-0 error for two sources under the A-B locality class:

        (1-p1)(1-p2) + p1 p2 / (d^2 - 1),

    optimal when p1 p2/(d^2-1) <= (1-p1) p2 and <= p1 (1-p2).
    """
    check_defects(p1, p2)
    value = (1.0 - p1) * (1.0 - p2) + p1 * p2 / (d * d - 1)
    cross = p1 * p2 / (d * d - 1)
    cond = cross <= (1.0 - p1) * p2 + 1e-15 and cross <= p1 * (1.0 - p2) + 1e-15
    return ConditionedValue(value, bool(cond))


def beta_two_source_local(d: int, p1: float, p2: float) -> float:
    """Optimal level-0 error under per-sample locality: the product of the
    one-sample covariant values, (1 - d p1/(d+1)) (1 - d p2/(d+1))."""
    check_defects(p1, p2)
    r = d / (d + 1.0)
    return (1.0 - r * p1) * (1.0 - r * p2)


def check_triple_dimension(d: int) -> None:
    """Refuse a d whose triple-pair operators (dimension d^6) are not built."""
    if d not in (2, 3):
        raise ValueError("triple-pair operators are capped at d in {2, 3}")


def three_source_covariant_test(d: int) -> TestOperator:
    """Acceptance operator of the GHZ-seeded covariant test, pair-major.

    Eigenvalues on the 2^3 joint eigenspaces of (P_1, P_2, P_3): 1 on
    P (x) P (x) P, (d+2)/((d+1)^3 (d-1)) on the triple complement,
    1/((d+1)^2 (d-1)) when exactly one factor is on P, and 0 otherwise.
    """
    check_triple_dimension(d)
    # coefficient per number of pairs off the maximally entangled vector
    coeffs = [1.0, 0.0, 1.0 / ((d + 1.0) ** 2 * (d - 1.0)), (d + 2.0) / ((d + 1.0) ** 3 * (d - 1.0))]
    return _from_sectors(TestOperator, d, coeffs, (d, d) * 3, _pair_labels(3))


def ghz_ket(d: int) -> Ket:
    """(1/sqrt(d)) sum_i |i>|i>|i>."""
    vec = np.zeros(d**3, dtype=complex)
    step = d * d + d + 1
    vec[np.arange(d) * step] = 1.0 / math.sqrt(d)
    return Ket(vec, (d, d, d), ("A1", "A2", "A3"))


def ghz_seed_operator(d: int) -> np.ndarray:
    """d^3 |GHZ (x) conj(GHZ)><...| arranged pair-major; its independent-local
    twirl is the three-source covariant test."""
    return d**3 * proj(doubled_ket(ghz_ket(d), d))


def triple_overlap_coefficients(
    beta1: float, beta2: float, beta3: float, gamma: float, d: int
) -> dict[tuple[int, int, int], float]:
    """Eigenvalues of the twirled triple test for a general seed vector pair.

    beta_i is the squared norm of the pair-i overlap of the seed, gamma the
    product of the squared seed norms; index bit 1 marks the complement on
    that pair.  At the GHZ point (beta_i = 1/d^2, gamma = 1) these reduce to
    the four coefficient values of the covariant test.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    d2m1 = d * d - 1.0
    d3 = float(d) ** 3
    betas = (beta1, beta2, beta3)

    def single(bi: float) -> float:
        return d3 / d2m1 * (bi / d - 1.0 / d3)

    def double(bi: float, bj: float, bk: float) -> float:
        return d3 / d2m1**2 * (bi - (bj + bk) / d + 1.0 / d3)

    out = {
        (0, 0, 0): 1.0,
        (0, 0, 1): single(beta3),
        (0, 1, 0): single(beta2),
        (1, 0, 0): single(beta1),
        (0, 1, 1): double(beta1, beta2, beta3),
        (1, 0, 1): double(beta2, beta1, beta3),
        (1, 1, 0): double(beta3, beta2, beta1),
        (1, 1, 1): d3 / d2m1**3 * (gamma - (d - 1.0) / d * sum(betas) - 1.0 / d3),
    }
    return out


def beta_three_source(d: int, p1: float, p2: float, p3: float) -> ConditionedValue:
    """Level-0 error of the GHZ-seeded covariant test, from its operator:

        prod(1-p_i) + (d+2) p1 p2 p3 / ((d+1)^3 (d-1))
                    + [one-pass terms] / ((d+1)^2 (d-1)),

    flagged optimal when every p_i <= (d-1)/d, within 1e-15, which takes in
    inputs rounded above it such as 1 - 1/d at d = 3.
    """
    check_defects(p1, p2, p3)
    warnings.warn(
        "three-source value uses the operator coefficient "
        "(d+2)/((d+1)^3 (d-1)) on the triple term; the commonly quoted closed "
        "form differs by one power of (d+1) there",
        TripleTermNote,
        stacklevel=2,
    )
    ps = (p1, p2, p3)
    value = (1.0 - p1) * (1.0 - p2) * (1.0 - p3)
    value += (d + 2.0) * p1 * p2 * p3 / ((d + 1.0) ** 3 * (d - 1.0))
    one_pass = (
        p1 * p2 * (1.0 - p3) + p1 * (1.0 - p2) * p3 + (1.0 - p1) * p2 * p3
    )
    value += one_pass / ((d + 1.0) ** 2 * (d - 1.0))
    cond = all(p <= (d - 1.0) / d + 1e-15 for p in ps)
    return ConditionedValue(value, bool(cond))


def beta_three_source_local(d: int, p1: float, p2: float, p3: float) -> float:
    """Product of the three one-sample covariant values (per-sample locality)."""
    check_defects(p1, p2, p3)
    r = d / (d + 1.0)
    return (1.0 - r * p1) * (1.0 - r * p2) * (1.0 - r * p3)


def poisson_two_source(delta: float, alpha: float, t1: float, t2: float) -> float:
    """Asymptotic two-source error: counting failures from both sources
    collapses to a single Poisson test at rate t1 + t2."""
    if t1 < 0 or t2 < 0:
        raise ValueError("rates must be nonnegative")
    return beta_poisson(delta, alpha, t1 + t2)
