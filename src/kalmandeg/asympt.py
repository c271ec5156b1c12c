"""Hypercubical asymptotics of the degree factors and the critical-point constants.

In the hypercubical format n^k with all weights equal to omega, the degree
factor grows like

    d(n, delta, omega) ~ C * (1/delta!) * (k / (omega*k - 1))^delta
                           * (omega*k - 1)^(k*n) / n^((k-1)/2 - delta),

    C = (omega*k - 1)^(k-1)
        / [ (2*pi)^((k-1)/2) * sqrt(omega)
            * (omega*k)^((k-2)/2) * (omega*k - 2)^((3k-1)/2) ],

valid for k >= 3, or k = 2 with omega >= 2 (omega*k = 2 makes the constant
blow up).  The constant comes from a smooth strictly minimal critical point
c = (1/(omega*k-1), ..., 1/(omega*k-1)) of the reduced series denominator
F_D(x) = H2(x) * prod_i (1 - x_i); this module evaluates F_D and its partial
derivative at c with exact rational arithmetic to confirm the two identities
feeding the constant.  Neither H2's 2^k terms nor any polynomial product is
formed: on the diagonal every monomial x^S with |S| = j has coefficient
1 - j*omega and value c^j, so H2(c) and dH2/dx_k (c) are sums over the k + 1
weight classes j, in integers over the common denominator (omega*k - 1)^k,
and the product rule with the factors 1 - c gives F_D(c) and dF_D/dx_k (c):

    F_D(c) = 0,
    -c_k * dF_D/dx_k (c) = omega * (omega*k)^(k-2) (omega*k - 2)^k
                                 / (omega*k - 1)^(2k-1).

The slope identity follows from dH2/dx_k evaluated on the diagonal:
(1+c)^(k-2) * [(1-omega)(1+c) - omega(k-1)c] = -omega (omega*k)^(k-2)
/ (omega*k-1)^(k-2); the test suite confirms the full constant empirically by
driving exact-over-estimate ratios to 1 across formats and codimensions.

Estimates themselves are carried in log10 space: exact degrees overflow any
float almost immediately, so ratios against big integers go through digit
counts rather than float conversion.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .degrees import CodimVec, TensorFormat, _check_extraction_work, _ring_work, extract_degree
from .genfun import InputError, _num, _refuse_over

_FLOAT_LOG10_MAX = math.log10(sys.float_info.max)
_LOG10_2 = math.log10(2)


def _check_regime(k: int, omega: int) -> int:
    if k < 2 or omega < 1:
        raise InputError("need k >= 2 and omega >= 1")
    if omega * k < 3:
        raise InputError("need k >= 3, or k = 2 with omega >= 2 (omega*k - 2 must be positive)")
    return omega * k


class CriticalConstants(namedtuple("CriticalConstants", "c det_hessian l0 minus_ck_dk")):
    """Exact rational constants attached to the critical point, all ``Fraction``s.

    c is the common coordinate of the critical point, det_hessian the
    determinant of the rescaled phase Hessian at the origin, l0 the leading
    amplitude and minus_ck_dk -c_k * dF_D/dx_k at the critical point.
    """

    __slots__ = ()


def critical_constants(k: int, omega: int, delta: int) -> CriticalConstants:
    """Closed-form constants; denominators are nonzero whenever omega*k >= 3.

    The leading amplitude satisfies l0 = F_N(c) / minus_ck_dk^(delta+1) with
    F_N the reduced series numerator; the test suite checks that relation
    symbolically.  Its budget check is also ``verify_critical_point``'s.
    """
    wk = _check_regime(k, omega)
    if delta < 0:
        raise InputError("delta must be >= 0")
    # About the most bits the four numerators and denominators hold before
    # cancelling.  Normalizing them (gcds) and writing them in decimal are
    # quadratic in their words W, about W^2 word products in all.
    bits = (7 * k + 2 * abs(k - delta) + 2) * wk.bit_length() + (delta + 3) * omega.bit_length()
    what = "normalizing and writing the critical-point constants of up to about {} bits"
    _refuse_over((bits // 64) ** 2, what, "use smaller k, omega or delta", bits)
    from fractions import Fraction  # here, not at import: most callers never need it

    def power_product(*factors: tuple[int, int]) -> Fraction:
        # The product of base^exp over positive integer bases, normalized by one gcd:
        # a negative exponent puts its base in the denominator.
        num = den = 1
        for base, exp in factors:
            if exp >= 0:
                num *= base**exp
            else:
                den *= base**-exp
        return Fraction(num, den)

    return CriticalConstants(
        c=Fraction(1, wk - 1),
        det_hessian=power_product((wk - 2, k - 1), (omega, -1), (wk, 2 - k)),
        l0=power_product((wk - 1, k - delta - 1), (omega, -delta - 1), (wk, delta + 2 - k), (wk - 2, -k)),
        minus_ck_dk=power_product((omega, 1), (wk, k - 2), (wk - 2, k), (wk - 1, 1 - 2 * k)),
    )


class CriticalPointReport(
    namedtuple("CriticalPointReport", "k omega f_d_at_c slope_product expected_slope_product ok")
):
    """Exact check that the symbolic denominator matches the closed-form constants.

    slope_product is -c_k * dF_D/dx_k evaluated symbolically at c and
    expected_slope_product its closed form; both and f_d_at_c are ``Fraction``s.
    """

    __slots__ = ()


def verify_critical_point(k: int, omega: int) -> CriticalPointReport:
    """Evaluate F_D and its x_k-slope at c from H2's weight classes; confirm both identities."""
    from fractions import Fraction

    # The constants' budget check is this path's only one, and it runs before any
    # sum.  With b = bitlen(omega k) it charges about 81 k^2 b^2 / 64^2 word
    # products; the class sums, the powers of p and q and the two gcds below work
    # on ints of up to 2k b bits and add about 10 k^2 b^2 / 64^2, an eighth as much.
    expected = critical_constants(k, omega, 0).minus_ck_dk
    q = omega * k - 1
    # At the diagonal point c = 1/q each of the C(k, j) monomials x^S with |S| = j
    # has coefficient 1 - j omega and value q^-j, and C(k-1, j-1) = C(k, j) j / k
    # of them contain x_k, whose derivative there is q^(1-j).  Horner's rule in q
    # sums the classes over the common denominator q^k: h = q^k H2(c) and
    # d = q^k dH2/dx_k (c).
    h = d = 0
    binom = 1  # C(k, j)
    for j in range(k + 1):
        coeff = 1 - j * omega
        h = h * q + binom * coeff
        d = d * q + binom * j // k * coeff
        binom = binom * (k - j) // (j + 1)
    d *= q

    # Product rule on F_D = H2 * prod_i (1 - x_i), whose factors all equal 1 - c = p/q at c.
    p = q - 1
    p_k1, q_2k = p ** (k - 1), q ** (2 * k)
    value = Fraction(h * p_k1 * p, q_2k)
    slope = Fraction(-p_k1 * (d * p - h * q), q_2k * q)
    return CriticalPointReport(
        k=k,
        omega=omega,
        f_d_at_c=value,
        slope_product=slope,
        expected_slope_product=expected,
        ok=(h == 0 and slope == expected),
    )


class AsymptoticEstimate(namedtuple("AsymptoticEstimate", "log10_value value_if_representable")):
    """log10 of the estimate, and the estimate itself as a float when it is one, else None."""

    __slots__ = ()

    def __new__(cls, log10_value: float, value_if_representable: float | None):
        if not math.isfinite(log10_value):
            raise ValueError("log10_value must be finite")
        return super().__new__(cls, log10_value, value_if_representable)


def _log10_factorial(delta: int) -> float:
    # The exact factorial while delta! is a float (delta <= 170), so those
    # estimates stay bit-identical; past that its cost grows with delta
    # (seconds at 10^6), and lgamma gives the same log to float precision.
    if delta <= 170:
        return math.log10(math.factorial(delta))
    return math.lgamma(delta + 1) / math.log(10)


def asymptotic_degree(k: int, omega: int, delta: int, n: int) -> AsymptoticEstimate:
    """Leading-order estimate of the hypercubical degree factor, in log10 space."""
    wk = _check_regime(k, omega)
    if delta < 0:
        raise InputError("delta must be >= 0")
    if n < 1:
        raise InputError("n must be >= 1")
    if delta > n - 1:  # outside the hypercubical format's codimension range, as extract_degree says
        raise InputError(f"delta_1 = {_num(delta)} exceeds n_1 - 1 = {_num(n - 1)}")
    try:
        log10_c = (
            (k - 1) * math.log10(wk - 1)
            - (k - 1) / 2 * math.log10(2 * math.pi)
            - 0.5 * math.log10(omega)
            - (k - 2) / 2 * math.log10(wk)
            - (3 * k - 1) / 2 * math.log10(wk - 2)
        )
        log10_value = (
            log10_c
            + delta * (math.log10(k) - math.log10(wk - 1))
            - _log10_factorial(delta)
            + k * n * math.log10(wk - 1)
            - ((k - 1) / 2 - delta) * math.log10(n)
        )
    except OverflowError:  # int * float and lgamma() raise it for values beyond float range
        log10_value = math.inf
    if not math.isfinite(log10_value):  # float products overflow to inf silently
        raise InputError("k, n or delta is too large for the estimate (beyond float range)")
    value = 10.0**log10_value if abs(log10_value) < _FLOAT_LOG10_MAX else None
    return AsymptoticEstimate(log10_value=log10_value, value_if_representable=value)


def _log10_bigint(v: int) -> float:
    if v <= 0:
        raise ValueError("need a positive integer")
    # Digit count from the bit length, not str(v): the interpreter refuses
    # str() beyond its int-to-str digit limit.  The float estimate can be off
    # by one either way; one comparison each way makes it exact.
    digits = int((v.bit_length() - 1) * _LOG10_2) + 1
    if v >= 10**digits:
        digits += 1
    elif v < 10 ** (digits - 1):
        digits -= 1
    # The leading 17 digits, as str(v)[:17] would give them.
    shift = max(digits - 17, 0)
    return math.log10(v // 10**shift) + shift


def ratio_to_exact(estimate: AsymptoticEstimate, exact: int) -> float:
    """estimate / exact as a float, safe for exact values far beyond float range."""
    return 10.0 ** (estimate.log10_value - _log10_bigint(exact))


class ComparisonRow(namedtuple("ComparisonRow", "n exact log10_estimate ratio")):
    """One n: the exact degree factor, log10 of the estimate and estimate / exact."""

    __slots__ = ()


def compare_exact_asymptotic(
    k: int, omega: int, delta: int, n_range: Sequence[int]
) -> list[ComparisonRow]:
    """Exact degree factor (by extraction) next to the estimate for each n."""
    _check_regime(k, omega)
    _refuse_over(_ring_work(k), "extracting with k = {} factors", "use smaller k", k)  # before any k-tuple exists
    cv = CodimVec((delta,) + (0,) * (k - 1))
    _check_extraction_work((TensorFormat((n,) * k, (omega,) * k), cv) for n in n_range)
    rows = []
    for n in n_range:
        exact = extract_degree(TensorFormat((n,) * k, (omega,) * k), cv)
        est = asymptotic_degree(k, omega, delta, n)
        ratio = ratio_to_exact(est, exact)
        rows.append(ComparisonRow(n=n, exact=exact, log10_estimate=est.log10_value, ratio=ratio))
    return rows
