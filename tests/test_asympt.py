import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from kalmandeg.asympt import (
    AsymptoticEstimate,
    CriticalPointReport,
    _log10_bigint,
    asymptotic_degree,
    compare_exact_asymptotic,
    critical_constants,
    ratio_to_exact,
    verify_critical_point,
)
from kalmandeg import asympt, genfun
from kalmandeg.degrees import CodimVec, TensorFormat
from kalmandeg.genfun import InputError
from kalmandeg.polycore import TPoly, poly_mul
from edges import EDGE, flag
from oracles import oracle_extract, split_h
from test_degrees import closed_form_degree
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
        h1, _ = split_h((w,) * k)
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
    # the report, summed over H2's weight classes, must give the same exact values.
    for k, w in VALID_GRID:
        _, h2 = split_h((w,) * k)
        ring = h2.vars
        f_d = h2
        zero = (0,) * len(ring)
        for i in range(len(ring)):
            f_d = poly_mul(f_d, TPoly(ring, {zero: 1, zero[:i] + (1,) + zero[i + 1 :]: -1}))
        c = Fraction(1, w * k - 1)
        point = {name: c for name in ring}
        assert evaluate(f_d, point) == 0
        report = verify_critical_point(k, w)
        assert report.f_d_at_c == Fraction(evaluate(f_d, point)), (k, w)
        assert report.slope_product == -c * Fraction(evaluate(partial(f_d, ring[-1]), point)), (k, w)


def _sympy_f_d(k, w):
    """F_D = H2 prod_i (1 - x_i) as a sympy polynomial from split_h's H2, its variables and c = 1/(wk - 1)."""
    _, h2 = split_h((w,) * k)
    xs = sympy.symbols(f"x1:{k + 1}")
    f_d = sympy.Poly.from_dict(h2.terms, *xs) * sympy.prod([sympy.Poly(1 - x, *xs) for x in xs])
    return f_d, xs, sympy.Rational(1, w * k - 1)


def test_verify_critical_point_against_sympy():
    # The report sums F_D and its slope over H2's weight classes; sympy multiplies out and differentiates.
    for k, w in VALID_GRID:
        f_d, xs, c = _sympy_f_d(k, w)
        report = verify_critical_point(k, w)
        value, slope = f_d.eval([c] * k), -c * f_d.diff(xs[-1]).eval([c] * k)
        assert report.f_d_at_c == Fraction(int(value.p), int(value.q)), (k, w)
        assert report.slope_product == Fraction(int(slope.p), int(slope.q)), (k, w)


def _term_map_report(k, w):
    """The report from H2's 2^k-term map, one monomial at a time, in Fractions.

    At c = 1/q a monomial x^e is q^-|e| and its x_k derivative e_k q^(1-|e|);
    the product rule with the factors 1 - c gives F_D(c) and its slope.  The
    expected slope is the chained closed form, not ``critical_constants``.
    """
    _, h2 = split_h((w,) * k)
    q = w * k - 1
    c = Fraction(1, q)
    h2_at_c = sum(a * c ** sum(e) for e, a in h2.terms.items())
    dh2_at_c = sum(a * e[-1] * c ** (sum(e) - 1) for e, a in h2.terms.items() if e[-1])
    value = h2_at_c * (1 - c) ** k
    slope = -c * (dh2_at_c * (1 - c) ** k - h2_at_c * (1 - c) ** (k - 1))
    expected = _chained_constants(k, w, 0)[3]
    return CriticalPointReport(k, w, value, slope, expected, value == 0 and slope == expected)


_NEAR_2_200 = st.integers(-3, 3).map(lambda d: 2**200 + d)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.tuples(st.integers(2, 12), st.one_of(st.integers(1, 5), _NEAR_2_200)))
@example((2, 1))
@example((3, 1))
@example((12, 5))
@example((12, 2**200))
def test_verify_critical_point_matches_the_term_map(kw):
    # Every field of the report, summed over H2's k + 1 weight classes, equals
    # the one read off H2's 2^k terms.
    k, w = kw
    if w * k < 3:
        with pytest.raises(InputError):
            verify_critical_point(k, w)
        return
    report = _term_map_report(k, w)
    assert report.ok and report.f_d_at_c == 0
    assert verify_critical_point(k, w) == report, (k, w)


def _phase_v(k, w):
    """lam = c dF_D/dx_k (c) and V_ij = c^2 d^2F_D/dx_i dx_j (c) / lam, by sympy from split_h's H2."""
    f_d, xs, c = _sympy_f_d(k, w)
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
    # The product route took seconds at k = 10 and 12, and the term map is out
    # of reach at k = 1000; the closed-form slope is
    # omega (omega k)^(k-2) (omega k - 2)^k / (omega k - 1)^(2k-1).
    for k, w in ((10, 2), (12, 1), (1000, 1)):
        report = verify_critical_point(k, w)
        wk = w * k
        assert report.ok
        assert report.f_d_at_c == 0
        assert report.slope_product == Fraction(w * wk ** (k - 2) * (wk - 2) ** k, (wk - 1) ** (2 * k - 1))
    # The term map's 2^14 terms took about 33 ms at k = 14; the k + 1 classes take microseconds.
    start = time.perf_counter()
    assert verify_critical_point(14, 1).ok
    assert time.perf_counter() - start < 0.01


def test_verify_critical_point_refuses_too_many_subsets():
    # k = 15, the first k whose 2^(k+1) subsets the term map could not visit, now
    # takes k + 1 weight classes; the constants' budget refuses the verify-k row's k,
    # and k = 10^20, before any sum and before (omega,) * k could exist.
    assert verify_critical_point(15, 1).ok
    start = time.perf_counter()
    for k, bits in ((flag(EDGE["verify-k"].refused, "--k"), 2023969), (10**20, 60300000000000000000137)):
        with pytest.raises(InputError, match=f"constants of up to about {bits} bits takes about"):
            verify_critical_point(k, 1)
    assert time.perf_counter() - start < 0.1


class _Accepted(Exception):
    """Raised in place of the work once a budget check has passed."""


def _stop_after_the_budget(monkeypatch):
    """Make asympt's budget check raise _Accepted where it would let the work start."""
    check = asympt._refuse_over

    def check_then_stop(*args):
        check(*args)
        raise _Accepted

    monkeypatch.setattr(asympt, "_refuse_over", check_then_stop)


def test_verify_budget_counts_evaluation_words(monkeypatch):
    # The evaluation is charged as the constants it compares against (delta = 0).
    # k = 3, omega = 2^200: they hold (7 * 3 + 2 * 3 + 2) * 202 + 3 * 201 = 6461
    # bits (omega k = 3 * 2^200 has 202 bits), 100 words, so 100^2 = 10000.
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 10000)
    assert verify_critical_point(3, 2**200).ok
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 9999)
    with pytest.raises(InputError, match="constants of up to about 6461 bits takes about 10000 products"):
        verify_critical_point(3, 2**200)


def test_verify_budget_charges_evaluation_and_constants_once(monkeypatch):
    # One check charges the whole path, so verify and the constants refuse at the same
    # omega.  At k = 7, the constants-k7-weight row's accepted omega ran in 1.0-1.3 s as a
    # CLI process with --verify (CPython 3.11, shared 2-core machine); the refused one is
    # refused before any sum.
    edge = EDGE["constants-k7-weight"]
    start = time.perf_counter()
    for check in (verify_critical_point, lambda k, omega: critical_constants(k, omega, 0)):
        with pytest.raises(InputError, match="constants of up to about 2023878 bits takes about 1000014129 products"):
            check(*edge.refused.args[:2])
    assert time.perf_counter() - start < 0.1
    _stop_after_the_budget(monkeypatch)
    with pytest.raises(_Accepted):
        verify_critical_point(*edge.accepted.args[:2])


def test_verify_budget_edge(monkeypatch):
    # On CPython 3.11 (shared 2-core machine), as CLI processes, the verify-weight row's
    # accepted input ran in 1.1-1.3 s and the verify-k row's in 1.5-2.1 s; their refused
    # inputs and (14, 10^8000) are refused before any sum.
    edges = [EDGE["verify-weight"], EDGE["verify-k"]]
    for k, omega in [(flag(e.refused, "--k"), flag(e.refused, "--omega")) for e in edges] + [(14, 10**8000)]:
        start = time.perf_counter()
        with pytest.raises(InputError, match="critical-point constants of up to about"):
            verify_critical_point(k, omega)
        assert time.perf_counter() - start < 0.1
    _stop_after_the_budget(monkeypatch)
    for edge in edges:
        with pytest.raises(_Accepted):
            verify_critical_point(flag(edge.accepted, "--k"), flag(edge.accepted, "--omega"))


def _residue_fraction(factors, p):
    """The product of base^exp modulo p, as (N, D) with the negative exponents in D."""
    num = den = 1
    for base, exp in factors:
        if exp >= 0:
            num = num * pow(base, exp, p) % p
        else:
            den = den * pow(base, -exp, p) % p
    return num, den


def test_constants_at_the_largest_accepted_k_match_their_closed_forms_mod_p():
    # The constants-k row's accepted input, the last k its budget accepts at omega = 1,
    # modulo two primes: each normalized fraction num/den must satisfy num D = N den for
    # its closed form N/D.  From the module docstring, c = 1/(omega k - 1),
    # -c_k dF_D/dx_k = omega (omega k)^(k-2) (omega k - 2)^k / (omega k - 1)^(2k-1), and
    # C = l0 / sqrt((2 pi)^(k-1) det_hessian) splits into
    # det_hessian = (omega k - 2)^(k-1) / [omega (omega k)^(k-2)] and
    # l0 = (omega k - 1)^(k-1) / [omega (omega k)^(k-2) (omega k - 2)^k] at delta = 0.
    argv = EDGE["constants-k"].accepted
    k = flag(argv, "--k")
    assert flag(argv, "--omega") == 1  # so omega k = k, and omega drops out of the products
    cc = critical_constants(k, 1, 0)
    closed = [
        (cc.c, [(k - 1, -1)]),
        (cc.minus_ck_dk, [(k, k - 2), (k - 2, k), (k - 1, 1 - 2 * k)]),
        (cc.det_hessian, [(k - 2, k - 1), (k, 2 - k)]),
        (cc.l0, [(k - 1, k - 1), (k, 2 - k), (k - 2, -k)]),
    ]
    for p in (2**61 - 1, 10**9 + 7):
        for value, factors in closed:
            n, d = _residue_fraction(factors, p)
            assert value.numerator * d % p == n * value.denominator % p, (p, factors)


def _product_form_slope_mod(k, omega, p):
    """-c dF_D/dx_k (c) modulo p, from H2 on the diagonal in product form.

    H2 = prod_i (1 + x_i) - omega sum_j x_j prod_{i != j} (1 + x_i) is
    (1 + c)^k - k omega c (1 + c)^(k-1) at x = c, and its x_k-derivative is
    (1 + c)^(k-1) - omega (1 + c)^(k-1) - (k - 1) omega c (1 + c)^(k-2).
    Where H2(c) = 0, dF_D/dx_k (c) = dH2/dx_k (c) (1 - c)^k.  Returns that
    slope and H2(c), both mod p.
    """
    c = pow(omega * k - 1, -1, p)
    a = (1 + c) % p
    h2 = (pow(a, k, p) - k * omega * c * pow(a, k - 1, p)) % p
    dh2 = ((1 - omega) * pow(a, k - 1, p) - (k - 1) * omega * c * pow(a, k - 2, p)) % p
    return -c * dh2 * pow(1 - c, k, p) % p, h2


def test_verify_at_the_largest_accepted_k_matches_the_product_form_mod_p():
    # The verify-k row's accepted input, the last k its budget accepts: F_D vanishes at c,
    # and the slope product is the product form's, modulo two primes.  The term-map sum
    # would have 2^k terms.
    argv = EDGE["verify-k"].accepted
    k, omega = flag(argv, "--k"), flag(argv, "--omega")
    report = verify_critical_point(k, omega)
    assert report.f_d_at_c == 0
    slope = report.slope_product
    for p in (2**61 - 1, 10**9 + 7):
        expected, h2 = _product_form_slope_mod(k, omega, p)
        assert h2 == 0 and slope.numerator % p == expected * slope.denominator % p, p


def test_constants_budget_counts_bits_before_any_fraction(monkeypatch):
    # k = 100, omega = 1: (7 * 100 + 2 * 100 + 2) * bitlen(100) + 3 * bitlen(1) = 6317 bits, 98 words.
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 98 * 98)
    assert critical_constants(100, 1, 0).c == Fraction(1, 99)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 98 * 98 - 1)
    with pytest.raises(InputError, match="constants of up to about 6317 bits takes about 9604 products"):
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


def test_log10_bigint_matches_leading_digits(monkeypatch):
    # Reference: log10 of the leading 17 decimal digits plus the count of the
    # rest, read off str(v).  The digit-count route must agree bit for bit.
    rng = random.Random(5)
    values = [v for d in range(1, 400) for v in (10 ** (d - 1), 10**d - 1, rng.randrange(10 ** (d - 1), 10**d))]
    # The bit length suggests 17 digits here; an 18-digit head rounds differently.
    values.append(114182759323492347)
    expected = [math.log10(int(str(v)[:17])) + max(len(str(v)) - 17, 0) for v in values]
    assert [_log10_bigint(v) for v in values] == expected
    # A log10(2) a little off puts the digit estimate one above or below the true
    # count for many of these values (within one up to 1329 bits); each correction
    # must bring it back.
    for scale in (1 + 1e-3, 1 - 1e-3):
        monkeypatch.setattr(asympt, "_LOG10_2", math.log10(2) * scale)
        assert [_log10_bigint(v) for v in values] == expected, scale
    for v in (0, -1, -(10**400)):
        with pytest.raises(ValueError, match="need a positive integer"):
            _log10_bigint(v)


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


@pytest.mark.parametrize("k, omega, delta", [(3, 1, 0), (3, 1, 1), (4, 1, 0), (5, 1, 0), (4, 2, 2), (3, 2, 1), (2, 2, 0)])
def test_richardson_limit_of_the_ratio_is_one(k, omega, delta):
    # Richardson extrapolation: r(n) = R + a_1/n + ... + a_5/n^5 through the
    # estimate/exact ratios at n = 20, 40, ..., 120, fitted exactly in
    # Fractions; R is the fit's value at 1/n = 0 (Lagrange's formula).  The
    # estimate's constant, its delta factor and its n exponent must all be
    # right for R to be 1; a wrong exponent sends R to 0 or to infinity.
    ns = range(20, 121, 20)
    fmt, cv = lambda n: TensorFormat((n,) * k, (omega,) * k), CodimVec((delta,) + (0,) * (k - 1))
    ratios = [Fraction(ratio_to_exact(asymptotic_degree(k, omega, delta, n), closed_form_degree(fmt(n), cv))) for n in ns]
    h = [Fraction(1, n) for n in ns]
    limit = sum(r * math.prod(hj / (hj - hi) for hj in h if hj != hi) for hi, r in zip(h, ratios))
    assert abs(limit - 1) < 1e-4, float(limit - 1)


def test_compare_rows_carry_exact_degrees():
    for k, omega, delta, ns in ((3, 1, 0, [2, 3, 4]), (2, 2, 1, [2, 3, 5]), (2, 3, 0, [1, 2, 3]), (3, 1, 2, [3])):
        exact = [row.exact for row in compare_exact_asymptotic(k, omega, delta, ns)]
        cv = CodimVec((delta,) + (0,) * (k - 1))
        assert exact == [closed_form_degree(TensorFormat((n,) * k, (omega,) * k), cv) for n in ns], (k, omega, delta)
        assert exact == [oracle_extract((n,) * k, cv.delta, (omega,) * k) for n in ns], (k, omega, delta)


def test_compare_at_the_largest_accepted_n_max_is_the_closed_form():
    # The largest accepted table --kind hypercubical-compare (the edge table's
    # hypercubical-n-max row) prints these rows, n = 2 and up at omega = 1, delta = 0, its
    # defaults; the exact column is the closed form's.
    argv = EDGE["hypercubical-n-max"].accepted
    k, sizes = flag(argv, "--k"), range(2, flag(argv, "--n-max") + 1)
    cv = CodimVec((0,) * k)
    rows = compare_exact_asymptotic(k, 1, 0, sizes)
    assert [row.exact for row in rows] == [closed_form_degree(TensorFormat((n,) * k, (1,) * k), cv) for n in sizes]


def test_compare_table_shape():
    assert compare_exact_asymptotic(3, 1, 0, []) == []
    rows = compare_exact_asymptotic(2, 2, 0, [3, 4, 5])
    assert [r.n for r in rows] == [3, 4, 5]
    assert all(r.exact > 0 and r.ratio > 0 for r in rows)


def _nullspace(rows, width):
    """A basis of the rational nullspace of the integer ``rows``, by Gauss-Jordan elimination in Fractions."""
    rows = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for col in range(width):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                factor = row[col]
                rows[i] = [x - factor * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            vector[col] = -row[free]
        basis.append(vector)
    return basis


def _guess_recurrence(terms, n0):
    """(r, d, P) with sum_{i<=r} P_i(n) a(n + i) = 0 for every a(n) = terms[n - n0] it reaches.

    P_i has degree at most d, and P[i][e] is its n^e coefficient.  The
    smallest order + degree (then the smallest order) whose coefficients
    have a one-dimensional nullspace over ``terms`` wins.
    """
    for size in range(1, 12):
        for r in range(1, size + 1):
            d = size - r
            rows = [[n**e * terms[n - n0 + i] for i in range(r + 1) for e in range(d + 1)]
                    for n in range(n0, n0 + len(terms) - r)]
            basis = _nullspace(rows, (r + 1) * (d + 1))
            if len(basis) == 1:
                return r, d, [basis[0][i * (d + 1) : (i + 1) * (d + 1)] for i in range(r + 1)]
    raise AssertionError("no recurrence of order + degree below 12")


@pytest.mark.parametrize(
    "omega, delta, order, degree, roots",
    [(2, 0, 3, 1, (1, 1, 9)), (2, 1, 3, 2, (1, 1, 9)), (3, 0, 4, 1, (1, 1, -7, 25))],
)
def test_k2_recurrence_gives_growth_rate_and_exponent(omega, delta, order, degree, roots):
    # The degree factors d((n, n), (delta, 0), (omega, omega)) are a diagonal of a
    # rational function, so they satisfy a linear recurrence with polynomial
    # coefficients (Lipshitz, J. Algebra 1989), guessed here from exact terms
    # (Kauers & Paule, The Concrete Tetrahedron, 2011).  With a_i and b_i the
    # top two coefficients of P_i, a(n) ~ C rho^n n^alpha needs sum_i a_i rho^i = 0
    # and alpha = -sum_i b_i rho^i / sum_i i a_i rho^i.  That checks the
    # estimate's growth rate (omega k - 1)^k and exponent -((k - 1)/2 - delta)
    # without the critical point.
    k, n0 = 2, delta + 1
    terms = [closed_form_degree(TensorFormat((n, n), (omega, omega)), CodimVec((delta, 0))) for n in range(n0, n0 + 60)]
    r, d, p = _guess_recurrence(terms[:45], n0)
    assert (r, d) == (order, degree)
    for n in range(n0, n0 + len(terms) - r):  # also on the 15 terms the guess did not see
        assert sum(sum(c * n**e for e, c in enumerate(p_i)) * terms[n - n0 + i] for i, p_i in enumerate(p)) == 0, n
    top = [p_i[d] for p_i in p]
    second = [p_i[d - 1] for p_i in p]
    expected = [Fraction(1)]  # prod (z - root), lowest coefficient first
    for root in roots:
        expected = [a - root * b for a, b in zip([Fraction(0)] + expected, expected + [Fraction(0)])]
    assert [c / top[-1] for c in top] == expected
    rho = (omega * k - 1) ** k
    # Horner's rule at rho gives the quotient by z - rho, highest coefficient first, and the remainder last.
    horner = [top[-1]]
    for c in reversed(top[:-1]):
        horner.append(horner[-1] * rho + c)
    *quotient, remainder = horner
    assert remainder == 0
    value = 0
    for c in quotient:
        value = value * rho + c
    assert value != 0  # rho is a simple root
    assert 1 + max((abs(c / quotient[0]) for c in quotient[1:]), default=0) < rho  # Cauchy: every other root is smaller
    alpha = -sum(b * rho**i for i, b in enumerate(second)) / sum(i * a * rho**i for i, a in enumerate(top))
    assert alpha == -(Fraction(k - 1, 2) - delta)
