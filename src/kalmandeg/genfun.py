"""Rational generating function for the degree factors, built two independent ways.

With the codimension concentrated in the first factor, the degree factors
d(n, delta) are the coefficients of x^n y^delta in

    [ prod_i x_i / (1 - x_i) ] / H(x, y),

where the generating polynomial is

    H(x, y) = -y x_1 prod_{i>=2} (1 + x_i)
              + prod_i (1 + x_i)
              - sum_j omega_j x_j prod_{i != j} (1 + x_i).

Expanding each product over the subsets S of {1..k} gives H term by term:
x^S has coefficient 1 - sum_{j in S} omega_j, and y x^S has coefficient -1
when 1 is in S.  H is also det(I - T A) for the bordered matrix A whose
top-left k x k block has entries omega_j - [i == j], last column all ones,
and last row (1, 0..0), with T = diag(x_1..x_k, y).  Both constructions (the
subset expansion and the determinant) are implemented and must agree exactly;
series coefficients must agree with direct extraction.

Series expansion is exact power-series division.  For a denominator D with
constant term 1, the coefficients of N/D within a cap box satisfy

    s_e = N_e - sum_{d != 0, d <= e} D_d * s_(e - d),

so one pass over the box in lexicographic order yields every coefficient
from ones already computed, in integer arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product as iter_product
from operator import sub
from typing import Sequence

from .polycore import ExponentVec, TPoly, det, poly_mul


def _xy_ring(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k)) + ("y",)


def _check_omega(omega: Sequence[int]) -> tuple[int, ...]:
    omega = tuple(omega)
    if len(omega) < 1:
        raise ValueError("at least one factor is required")
    if any(w < 1 for w in omega):
        raise ValueError("all weights omega_i must be >= 1")
    return omega


def build_H(omega: Sequence[int]) -> TPoly:
    """The generating polynomial H in the ring (x_1..x_k, y); constant term 1.

    H is multilinear, so its terms are read off the subset expansion of the
    closed form: x^S has coefficient 1 - sum_{j in S} omega_j, and y x^S has
    coefficient -1 when S contains 1.
    """
    omega = _check_omega(omega)
    terms: dict[ExponentVec, int] = {}
    for s in iter_product((0, 1), repeat=len(omega)):
        terms[s + (0,)] = 1 - sum(compress(omega, s))
        if s[0]:
            terms[s + (1,)] = -1
    return TPoly(_xy_ring(len(omega)), terms)


def _identity_minus_ta(a: Sequence[Sequence[int]], ring: tuple[str, ...]) -> list[list[TPoly]]:
    """Rows of I - T A over ``ring`` for an integer matrix A, T = diag(ring)."""
    units = [tuple(int(t == i) for t in range(len(ring))) for i in range(len(ring))]
    zero = (0,) * len(ring)
    return [
        [TPoly(ring, {zero: int(i == j), units[i]: -a_ij}) for j, a_ij in enumerate(a_row)]
        for i, a_row in enumerate(a)
    ]


def _bordered_matrix(omega: tuple[int, ...]) -> list[list[TPoly]]:
    """I - T A over (x_1..x_k, y) for the bordered matrix A described above."""
    k = len(omega)
    a = [[w - (i == j) for j, w in enumerate(omega)] + [1] for i in range(k)]
    a.append([1] + [0] * k)
    return _identity_minus_ta(a, _xy_ring(k))


def build_H_via_determinant(omega: Sequence[int]) -> TPoly:
    """H computed as det(I - TA); must equal build_H exactly."""
    return det(_bordered_matrix(_check_omega(omega)))


def last_row_minors(omega: Sequence[int]) -> tuple[tuple[tuple[TPoly, ...], ...], tuple[tuple[TPoly, ...], ...]]:
    """The two k x k minors from expanding det(I - TA) along its bottom row.

    First: drop the bottom row and first column; second: drop the bottom row
    and last column, each as a tuple of rows.  Their determinants have
    product-form closed expressions checked in the test suite.
    """
    top = _bordered_matrix(_check_omega(omega))[:-1]
    first = tuple(tuple(row[1:]) for row in top)
    second = tuple(tuple(row[:-1]) for row in top)
    return first, second


def split_H(omega: Sequence[int]) -> tuple[TPoly, TPoly]:
    """Write H = -y*H1 + H2 and return (H1, H2) over the x-ring only.

    H is multilinear in y, so the split is exact; H1 carries no weight
    dependence while H2 is the y = 0 restriction.
    """
    h = build_H(omega)
    by_y_power: tuple[dict[ExponentVec, int], dict[ExponentVec, int]] = ({}, {})
    for e, c in h.terms.items():
        if e[-1] > 1:
            raise ArithmeticError("generating polynomial is not multilinear in y")
        by_y_power[e[-1]][e[:-1]] = c
    x_ring = h.vars[:-1]
    return -TPoly(x_ring, by_y_power[1]), TPoly(x_ring, by_y_power[0])


@dataclass(frozen=True)
class RationalSeries:
    """numerator/denominator pair expandable as an exact power series within caps.

    The denominator must have constant term exactly 1, so the series
    coefficients follow from the division recurrence in the module docstring.
    """

    numerator: TPoly
    denominator: TPoly
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(self.caps))
        if self.numerator.vars != self.denominator.vars:
            raise ValueError("numerator and denominator live in different rings")
        if len(self.caps) != len(self.numerator.vars):
            raise ValueError("caps length does not match variable count")
        if any(c < 0 for c in self.caps):
            raise ValueError("caps must be nonnegative")
        if self.denominator.constant_term != 1:
            raise ValueError("denominator must have constant term 1")

    def expand(self) -> dict[ExponentVec, int]:
        """All nonzero series coefficients with exponents within the caps.

        Keys appear in lexicographic order of their exponent vectors.
        """
        caps = self.caps
        numerator = self.numerator.terms
        tail = [
            (d, c)
            for d, c in self.denominator.terms.items()
            if any(d) and all(x <= m for x, m in zip(d, caps))
        ]
        series: dict[ExponentVec, int] = {}
        for e in iter_product(*(range(c + 1) for c in caps)):
            s = numerator.get(e, 0)
            for d, c in tail:
                # e - d has a negative entry unless d <= e; no key has one.
                s -= c * series.get(tuple(map(sub, e, d)), 0)
            if s:
                series[e] = s
        return series


def expand_series(
    omega: Sequence[int], caps: Sequence[int], y_cap: int
) -> dict[tuple[tuple[int, ...], int], int]:
    """Nonzero coefficients d(n, delta) for n within ``caps`` and delta <= ``y_cap``.

    Keys are (n-vector, delta); absent keys mean coefficient 0.  Every value
    equals the direct extraction at codimension vector (delta, 0, ..., 0).
    """
    omega = _check_omega(omega)
    k = len(omega)
    caps = tuple(caps)
    if len(caps) != k:
        raise ValueError("caps length does not match the number of factors")
    if any(c < 0 for c in caps) or y_cap < 0:
        raise ValueError("caps must be nonnegative")
    ring = _xy_ring(k)
    full_caps = caps + (y_cap,)
    denominator = build_H(omega)
    for i in range(k):
        denominator = denominator * (TPoly.one(ring) - TPoly.variable(ring, ring[i]))
    numerator = TPoly.monomial(ring, {ring[i]: 1 for i in range(k)}, 1, full_caps)
    series = RationalSeries(numerator, denominator, full_caps).expand()
    return {(exps[:k], exps[k]): c for exps, c in series.items()}


def macmahon_check(a: Sequence[Sequence[int]], cap: Sequence[int] | int) -> bool:
    """Coefficient identity between products of linear forms and 1/det(I - TA).

    For every exponent vector p within ``cap``, compares the coefficient of
    z^p in prod_i (a_i1 z_1 + ... + a_im z_m)^(p_i) against the series
    coefficient of w^p in 1/det(I_m - TA), T = diag(w).  Both sides are exact;
    returns True iff they agree everywhere.
    """
    m = len(a)
    if m == 0 or any(len(row) != m for row in a):
        raise ValueError("matrix must be square and nonempty")
    caps = (cap,) * m if isinstance(cap, int) else tuple(cap)
    if len(caps) != m:
        raise ValueError("cap length does not match matrix size")
    ring = tuple(f"z{i + 1}" for i in range(m))
    denominator = det(_identity_minus_ta(a, ring))
    rhs = RationalSeries(TPoly.one(ring), denominator, caps).expand()

    linear_forms = [
        TPoly(ring, {tuple(1 if t == j else 0 for t in range(m)): a[i][j] for j in range(m) if a[i][j]})
        for i in range(m)
    ]
    for p in iter_product(*(range(c + 1) for c in caps)):
        lhs_poly = TPoly.one(ring, p)
        for i in range(m):
            for _ in range(p[i]):
                lhs_poly = poly_mul(lhs_poly, linear_forms[i])
        if lhs_poly.coefficient(p) != rhs.get(p, 0):
            return False
    return True
