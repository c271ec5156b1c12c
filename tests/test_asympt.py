import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy

from kalmandeg.asympt import (
    AsymptoticEstimate,
    _check_evaluation_work,
    _log10_bigint,
    asymptotic_degree,
    compare_exact_asymptotic,
    critical_constants,
    ratio_to_exact,
    verify_critical_point,
)
from kalmandeg import genfun
from kalmandeg.genfun import InputError, split_H
from kalmandeg.polycore import TPoly, poly_mul
from test_polycore import evaluate, partial

VALID_GRID = [(k, w) for k in range(2, 6) for w in range(1, 4) if w * k >= 3]


def test_constant_spot_values():
    cc = critical_constants(3, 1, 0)
    assert cc.c == Fraction(1, 2)
    assert cc.l0 == Fraction(4, 3)
    assert cc.det_hessian == Fraction(1, 3)
    cc = critical_constants(2, 2, 0)
    # slope carries a factor omega (module docstring has the derivation)
    assert cc.minus_ck_dk == Fraction(8, 27)


def test_denominators_never_vanish_on_grid():
    for k, w in VALID_GRID:
        for d in range(4):
            cc = critical_constants(k, w, d)
            assert cc.c > 0 and cc.det_hessian > 0 and cc.l0 > 0 and cc.minus_ck_dk > 0


def _chained_constants(k, w, delta):
    """The constants as a chain of Fraction operations, the reference for the one-gcd build."""
    wk = w * k
    return (
        Fraction(1, wk - 1),
        Fraction((wk - 2) ** (k - 1), w) / Fraction(wk) ** (k - 2),
        Fraction(wk - 1) ** (k - delta - 1) / (Fraction(w) ** (delta + 1) * Fraction(wk) ** (k - delta - 2) * (wk - 2) ** k),
        w * Fraction(wk) ** (k - 2) * (wk - 2) ** k / Fraction(wk - 1) ** (2 * k - 1),
    )


def test_constants_match_the_fraction_chain():
    # 4,675 triples; l0's exponents turn negative once delta > k - 2.
    grid = [(k, w, d) for k in range(2, 41) for w in range(1, 6) if w * k >= 3 for d in range(k + 3)]
    assert len(grid) == 4675
    for k, w, d in grid:
        assert tuple(critical_constants(k, w, d)) == _chained_constants(k, w, d), (k, w, d)


def test_amplitude_consistent_with_numerator_over_slope():
    # l0 must equal F_N(c) / slope^(delta+1) with F_N evaluated symbolically
    for k, w in VALID_GRID:
        h1, _ = split_H((w,) * k)
        ring = h1.vars
        c = Fraction(1, w * k - 1)
        point = {name: c for name in ring}
        h1_at_c = Fraction(evaluate(h1, point))
        for delta in range(3):
            f_n_at_c = h1_at_c**delta * c**k * (1 - c) ** (delta * k)
            cc = critical_constants(k, w, delta)
            assert cc.l0 == f_n_at_c / cc.minus_ck_dk ** (delta + 1), (k, w, delta)


def test_verify_critical_point_grid():
    for k, w in VALID_GRID:
        report = verify_critical_point(k, w)
        assert report.f_d_at_c == 0
        assert report.slope_product == report.expected_slope_product
        assert report.ok, (k, w)


def test_verify_rejects_degenerate_regime():
    with pytest.raises(ValueError):
        verify_critical_point(2, 1)
    with pytest.raises(ValueError):
        asymptotic_degree(2, 1, 0, 5)


def test_f_d_vanishes_at_critical_point():
    # F_D built as a product of polynomials and differentiated term by term:
    # the report, read off H2's term map, must give the same exact values.
    for k, w in VALID_GRID:
        _, h2 = split_H((w,) * k)
        ring = h2.vars
        f_d = h2
        for name in ring:
            f_d = poly_mul(f_d, TPoly.one(ring) - TPoly.variable(ring, name))
        c = Fraction(1, w * k - 1)
        point = {name: c for name in ring}
        assert evaluate(f_d, point) == 0
        report = verify_critical_point(k, w)
        assert report.f_d_at_c == Fraction(evaluate(f_d, point)), (k, w)
        assert report.slope_product == -c * Fraction(evaluate(partial(f_d, ring[-1]), point)), (k, w)


def _phase_v(k, w):
    """lam = c dF_D/dx_k (c) and V_ij = c^2 d^2F_D/dx_i dx_j (c) / lam, by sympy from split_H's H2."""
    _, h2 = split_H((w,) * k)
    xs = sympy.symbols(f"x1:{k + 1}")
    f_d = sympy.Poly.from_dict(h2.terms, *xs) * sympy.prod([sympy.Poly(1 - x, *xs) for x in xs])
    c = sympy.Rational(1, w * k - 1)
    point = [c] * k
    lam = c * f_d.diff(xs[-1]).eval(point)
    return [[c * c * f_d.diff(xi).diff(xj).eval(point) / lam for xj in xs] for xi in xs]


def _phase_hessian_det(v, sign=1, diagonal=1, first=lambda v, i, j: v[i][j]):
    """det of the (k-1) x (k-1) phase Hessian 1 + [i = j] + V_ij - V_id - V_jd + V_dd, d the last index."""
    d = len(v) - 1

    def entry(i, j):
        return 1 + diagonal * (i == j) + sign * (first(v, i, j) - v[i][d] - v[j][d] + v[d][d])

    return sympy.Matrix(d, d, entry).det()


def test_det_hessian_matches_phase_hessian_of_f_d():
    # Smooth-point diagonal asymptotics (Pemantle & Wilson 2013; Melczer 2021,
    # ch. 5): the phase Hessian of F_D at c must have determinant det_hessian.
    for k, w in ((3, 1), (4, 1), (3, 2), (2, 2), (2, 3), (5, 1), (4, 3), (6, 2)):
        v = _phase_v(k, w)
        expected = critical_constants(k, w, 0).det_hessian
        assert _phase_hessian_det(v) == expected, (k, w)
        # Each mutation of the formula must change the determinant.
        assert _phase_hessian_det(v, sign=-1) != expected, (k, w)
        assert _phase_hessian_det(v, diagonal=0) != expected, (k, w)
        assert _phase_hessian_det(v, first=lambda v, i, j: v[i][-1]) != expected, (k, w)
        # F_D is symmetric at the diagonal point, so V_id = V_jd there, and
        # using one for the other cannot change the determinant.
        assert len({v[i][-1] for i in range(k - 1)}) == 1, (k, w)


def test_verify_critical_point_beyond_product_reach():
    # The product route took seconds here; the closed-form slope is
    # omega (omega k)^(k-2) (omega k - 2)^k / (omega k - 1)^(2k-1).
    for k, w in ((10, 2), (12, 1)):
        report = verify_critical_point(k, w)
        wk = w * k
        assert report.ok
        assert report.f_d_at_c == 0
        assert report.slope_product == Fraction(w * wk ** (k - 2) * (wk - 2) ** k, (wk - 1) ** (2 * k - 1))


def test_verify_critical_point_refuses_too_many_subsets():
    for k in (15, 10**20):  # checked before (omega,) * k is built
        with pytest.raises(InputError, match="subsets, over the limit"):
            verify_critical_point(k, 1)


def test_verify_budget_counts_evaluation_words(monkeypatch):
    # k = 3, omega = 2^200: 2^3 terms of 1 + 202 // 64 = 4 words times powers of
    # q = 3 * 2^200 - 1 of 1 + 4 * 202 // 64 = 13 words, three times, plus 13^2
    # for the gcds: 1417.  The constants hold (7 * 3 + 2 * 3 + 2) * 202 + 3 * 201
    # = 6461 bits, 100 words, so 100^2 more: 11417.
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 11417)
    assert verify_critical_point(3, 2**200).ok
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 11416)
    with pytest.raises(InputError, match="the critical point and normalizing the constants takes about 11417 products"):
        verify_critical_point(3, 2**200)


def test_verify_budget_charges_evaluation_and_constants_once():
    # At k = 7 the two parts used to be checked one at a time against the same
    # limit, so a 29,760-bit omega passed both and the CLI ran 2.10 s.  Their
    # sum now binds where 7 omega - 1 reaches 2^22974; the edge ran in 1.0 s
    # as a CLI process (CPython 3.11, shared 2-core machine).
    edge = 2**22974 // 7
    _check_evaluation_work(7, edge, 7 * edge - 1)
    start = time.perf_counter()
    with pytest.raises(InputError, match="evaluating H2's 128 terms .* takes about 1000018916 products"):
        verify_critical_point(7, edge + 1)
    assert time.perf_counter() - start < 0.1
    # Alone, the constants there are still accepted: about 24410^2 of the sum.
    assert critical_constants(7, edge + 1, 0).c == Fraction(1, 7 * edge + 6)


def test_verify_budget_edge():
    # On CPython 3.11 (shared 2-core machine) (14, 10^600) ran in 1.3 s and stays
    # accepted; (14, 10^1000) ran 3.2 s and (14, 10^2000) 8.2 s, and both are now
    # refused before H2 is built.
    _check_evaluation_work(14, 10**600, 14 * 10**600 - 1)
    for omega in (10**1000, 10**2000):
        start = time.perf_counter()
        with pytest.raises(InputError, match="evaluating H2's 16384 terms"):
            verify_critical_point(14, omega)
        assert time.perf_counter() - start < 0.1


def test_constants_budget_counts_bits_before_any_fraction(monkeypatch):
    # k = 100, omega = 1: (7 * 100 + 2 * 100 + 2) * bitlen(100) + 3 * bitlen(1) = 6317 bits, 98 words.
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 98 * 98)
    assert critical_constants(100, 1, 0).c == Fraction(1, 99)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 98 * 98 - 1)
    with pytest.raises(InputError, match="up to about 6317 bits, and normalizing and writing them takes about 9604"):
        critical_constants(100, 1, 0)
    monkeypatch.undo()
    start = time.perf_counter()
    for k, delta in ((10**20, 0), (3, 10**20), (30000, 0), (3, 10**6)):  # 10 s and more, or never done
        with pytest.raises(InputError, match="over the limit of 1000000000"):
            critical_constants(k, 1, delta)
    assert time.perf_counter() - start < 0.1


def test_estimate_matches_closed_constants():
    est = asymptotic_degree(3, 1, 0, 10)
    assert est.value_if_representable == pytest.approx(2 / (math.sqrt(3) * math.pi) * 8**10 / 10, rel=1e-12)
    est = asymptotic_degree(4, 1, 0, 5)
    assert est.value_if_representable == pytest.approx(
        27 / (2**9 * math.pi * math.sqrt(math.pi)) * 81**5 * 5**-1.5, rel=1e-12
    )


def test_estimate_monotone_in_n():
    for k, w in VALID_GRID:
        values = [asymptotic_degree(k, w, 0, n).log10_value for n in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:])), (k, w)


def test_huge_estimates_drop_float_payload():
    est = asymptotic_degree(3, 1, 0, 500)
    assert est.value_if_representable is None
    assert est.log10_value > 400  # ~ 1500 log10(2), far beyond float range


def test_estimate_inputs_beyond_float_range():
    # log10 of the estimate is still a float at n = 10^300; past float range
    # the inputs are refused as invalid rather than failing in arithmetic.
    assert asymptotic_degree(3, 1, 0, 10**300).log10_value == pytest.approx(3 * 10**300 * math.log10(2))
    # delta = 10^306 is a float, but log(delta!) is not.
    for delta, n in ((0, 10**400), (10**400, 10**400 + 1), (10**306, 10**306 + 1)):
        with pytest.raises(ValueError, match="beyond float range"):
            asymptotic_degree(3, 1, delta, n)


def test_estimate_refuses_delta_beyond_codim_range():
    start = time.perf_counter()
    for delta, n in ((1, 1), (5, 5), (10**6, 5), (10**400, 5)):
        with pytest.raises(ValueError, match=f"delta_1 = {delta} exceeds n_1 - 1 = {n - 1}"):
            asymptotic_degree(3, 1, delta, n)
    assert time.perf_counter() - start < 0.1
    assert math.isfinite(asymptotic_degree(3, 1, 4, 5).log10_value)  # delta = n - 1 is in range


def test_estimate_large_delta_takes_lgamma():
    # delta! leaves float range past 170; the estimate then takes log(delta!)
    # from lgamma, which must agree with the exact factorial.
    for delta in (170, 171, 1000):
        n = delta + 1
        exact = (
            asymptotic_degree(3, 1, 0, n).log10_value
            + delta * (math.log10(3) - math.log10(2) + math.log10(n))
            - math.log10(math.factorial(delta))
        )
        assert asymptotic_degree(3, 1, delta, n).log10_value == pytest.approx(exact, rel=1e-13), delta
    start = time.perf_counter()
    assert math.isfinite(asymptotic_degree(3, 1, 10**6, 10**7).log10_value)
    assert time.perf_counter() - start < 0.1


def test_ratio_handles_huge_exact_values():
    est = AsymptoticEstimate(log10_value=400.0, value_if_representable=None)
    assert ratio_to_exact(est, 10**400) == pytest.approx(1.0, rel=1e-9)


def test_ratio_beyond_int_str_digit_limit():
    # Under the interpreter's default int-to-str limit (4300 digits, where the
    # limit exists) the ratio must still come out for exact values far past it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        [row] = compare_exact_asymptotic(2, 10**50, 0, [50])
        assert row.exact.bit_length() > 16000  # 4929 digits
        assert row.ratio == 0.9924780549816193
        est = AsymptoticEstimate(log10_value=5000.0, value_if_representable=None)
        assert ratio_to_exact(est, 10**5000) == 1.0
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_log10_bigint_matches_leading_digits():
    # Reference: log10 of the leading 17 decimal digits plus the count of the
    # rest, read off str(v).  The digit-count route must agree bit for bit.
    rng = random.Random(5)
    values = [v for d in range(1, 400) for v in (10 ** (d - 1), 10**d - 1, rng.randrange(10 ** (d - 1), 10**d))]
    # The bit length suggests 17 digits here; an 18-digit head rounds differently.
    values.append(114182759323492347)
    for v in values:
        s = str(v)
        assert _log10_bigint(v) == math.log10(int(s[:17])) + max(len(s) - 17, 0), v


def test_ratio_trend_primary_regime():
    rows = compare_exact_asymptotic(3, 1, 0, [6, 12])
    assert abs(rows[1].ratio - 1) < abs(rows[0].ratio - 1)


def test_ratio_trend_symmetric_weights():
    rows = compare_exact_asymptotic(2, 2, 0, [10, 20])
    assert abs(rows[1].ratio - 1) < abs(rows[0].ratio - 1)
    assert rows[1].ratio == pytest.approx(1.0, abs=0.05)


def test_ratio_trend_positive_codimension():
    rows = compare_exact_asymptotic(2, 2, 2, [12, 24])
    assert abs(rows[1].ratio - 1) < abs(rows[0].ratio - 1)


def test_compare_table_shape():
    assert compare_exact_asymptotic(3, 1, 0, []) == []
    rows = compare_exact_asymptotic(2, 2, 0, [3, 4, 5])
    assert [r.n for r in rows] == [3, 4, 5]
    assert all(r.exact > 0 and r.ratio > 0 for r in rows)
