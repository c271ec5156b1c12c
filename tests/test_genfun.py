import random
import re
import sys
import time
from collections import Counter
from itertools import combinations, compress, product
from operator import le, mul

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import kalmandeg.genfun as genfun
from kalmandeg.asympt import asymptotic_degree, critical_constants, verify_critical_point
from kalmandeg.degrees import CodimVec, TensorFormat, extract_degree
from kalmandeg.genfun import (
    RationalSeries,
    build_H,
    build_H_via_determinant,
    expand_series,
    macmahon_check,
    split_H,
    _bordered_a,
    _det_identity_minus_ta,
    _principal_minors,
    _xy_ring,
)
from kalmandeg.isotropic import isotropic_degree, isotropic_degree_symmetric
from kalmandeg.polycore import TPoly, det, poly_mul


# Every budget's refusal: what, the estimated work (written as ~2^x past 14,000 bits), the limit and a hint.
REFUSAL = re.compile(r"(.+) takes about (\d+|~2\^[\d.]+) products of 64-bit words, over the limit of (\d+); (.+)")


def estimate(call, *args):
    """The work the first budget on ``call(*args)``'s path charges, read from its refusal at a zero limit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genfun, "MAX_WORD_PRODUCTS", 0)
        with pytest.raises(genfun.InputError) as refused:
            call(*args)
    return int(REFUSAL.fullmatch(str(refused.value))[2])


def _xvars(k):
    return tuple(f"x{i + 1}" for i in range(k))


def _identity_minus_ta(a, ring):
    """Rows of I - T A over ``ring`` for an integer matrix A, T = diag(ring)."""
    zero = (0,) * len(ring)
    return [
        [TPoly(ring, {zero: int(i == j), zero[:i] + (1,) + zero[i + 1 :]: -a_ij}) for j, a_ij in enumerate(row)]
        for i, row in enumerate(a)
    ]


def last_row_minors(omega):
    """The two k x k minors of det(I - TA) along its bottom row: without the first, then the last column."""
    top = _identity_minus_ta(_bordered_a(tuple(omega)), _xy_ring(len(omega)))[:-1]
    return [row[1:] for row in top], [row[:-1] for row in top]


def elementary_symmetric(vars, subset, i):
    """e_i over a subset of the ring variables, built from its definition.

    e_0 is the constant 1; e_i for i > len(subset) is rejected.
    """
    vars = tuple(vars)
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset contains repeated variables")
    missing = set(subset) - set(vars)
    if missing:
        raise ValueError(f"subset variables {sorted(missing)} not in ring")
    if i < 0 or i > len(subset):
        raise ValueError(f"index {i} out of range for {len(subset)} variables")
    idx = [vars.index(v) for v in subset]
    return TPoly(vars, {tuple(int(t in combo) for t in range(len(vars))): 1 for combo in combinations(idx, i)})


def test_elementary_symmetric():
    ring = ("x1", "x2", "x3")
    assert elementary_symmetric(ring, ring, 0) == TPoly.one(ring)
    e2 = elementary_symmetric(ring, ring, 2)
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    with pytest.raises(ValueError):
        elementary_symmetric(ring, ("x1", "x2"), 3)


def test_build_H_two_factor_example():
    assert str(build_H((1, 1))) == "1 - x1*y - x1*x2 - x1*x2*y"


def test_H_constant_term_is_one():
    rng = random.Random(2718)
    for _ in range(12):
        k = rng.randint(1, 5)
        omega = tuple(rng.randint(1, 4) for _ in range(k))
        assert build_H(omega).constant_term == 1


def test_single_factor_determinant_by_hand():
    for w in range(1, 5):
        expected = TPoly(("x1", "y"), {(0, 0): 1, (1, 0): 1 - w, (1, 1): -1})
        assert build_H_via_determinant((w,)) == expected
        assert build_H((w,)) == expected


def test_H_equals_determinant_route():
    rng = random.Random(1618)
    for k in range(1, 9):
        for _ in range(20 if k <= 5 else 4):
            omega = tuple(rng.randint(1, 4) for _ in range(k))
            assert build_H(omega) == build_H_via_determinant(omega), omega
            if k <= 5:
                assert build_H_via_determinant(omega) == _cofactor_H(omega), omega
    omega = tuple(rng.randint(1, 4) for _ in range(14))  # 2^15 subsets: the largest accepted
    assert build_H(omega) == build_H_via_determinant(omega), omega


def _cofactor_H(omega):
    """det(I - TA) for the bordered matrix A, by cofactor expansion of the polynomial matrix."""
    omega = tuple(omega)
    return det(_identity_minus_ta(_bordered_a(omega), _xy_ring(len(omega))))


def _cofactor_minors(a):
    """det(A[S, S]) for every subset S in product((0, 1), ...) order, by cofactor expansion."""
    ring = ("z",)
    minors = []
    for s in product((0, 1), repeat=len(a)):
        rows = [[TPoly(ring, {(0,): x}) for x in compress(row, s)] for row in compress(a, s)]
        minors.append(det(rows).constant_term if rows else 1)
    return minors


def test_principal_minors_structured_matrices():
    rng = random.Random(4242)
    cases = [[[7]], [[0]], [[-10**40]]]  # m = 1
    cases += [[[int(i != j) for j in range(m)] for i in range(m)] for m in range(1, 7)]  # J - I: zero diagonal
    for m in range(2, 6):
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        a[0][0] = -sum(map(abs, a[0][1:])) - 1
        cases.append(a)
        # |a_00| is the largest row sum, so b_00 = 0 if the shift drops its + 1
        cases.append([[-3 * m] + [0] * (m - 1)] + [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m - 1)])
        b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        b[1] = [2 * x for x in b[0]]
        b[0][0] = b[1][0] = 0  # b_00 = 0 and row 1 = 2 * row 0: every leading block is singular
        cases.append(b)
        cases.append([[rng.choice((-1, 1)) * rng.randint(10**39, 10**40) for _ in range(m)] for _ in range(m)])
    # Index 0 is decided last, so b_00 never divides; the last index is decided first and
    # its pivot divides every later update, so there a shift without its + 1 divides by 0.
    for m in range(3, 6):
        cases.append([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m - 1)] + [[0] * (m - 1) + [-3 * m]])
    for a in cases:
        assert _principal_minors(a) == _cofactor_minors(a), a


def test_principal_minors_against_cofactor_det():
    # det(I - TA) summed over integer principal minors against the cofactor
    # expansion of the polynomial matrix.  Every third matrix has a zero
    # leading entry and every fifth a zero first column, so leading blocks of
    # A are singular; the elimination runs on A shifted to be diagonally
    # dominant and must still recover their minors exactly.
    rng = random.Random(5150)
    for trial in range(60):
        m = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        if trial % 3 == 0:
            a[0][0] = 0
        if trial % 5 == 0:
            for row in a:
                row[0] = 0
        ring = tuple(f"z{i + 1}" for i in range(m))
        assert _det_identity_minus_ta(a) == det(_identity_minus_ta(a, ring)).terms, (trial, a)


_entries = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.data())
def test_principal_minors_and_subset_sums_property(data):
    m = data.draw(st.integers(1, 7))
    a = data.draw(st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=m, max_size=m))
    if data.draw(st.booleans()):
        for i in range(m):
            a[i][i] = 0
    if m > 1 and data.draw(st.booleans()):  # two equal rows: every block holding both is singular
        i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        a[j] = list(a[i])
    assert _principal_minors(a) == _cofactor_minors(a), a

    omega = data.draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**40)), min_size=1, max_size=12))
    expected = []
    for s in product((0, 1), repeat=len(omega)):
        c = 1 - sum(compress(omega, s))
        if c:
            expected.append((s + (0,), c))
        if s[0]:
            expected.append((s + (1,), -1))
    assert list(build_H(omega).terms.items()) == expected, omega


def test_determinant_route_reads_only_a(monkeypatch):
    expected = {omega: build_H(omega) for omega in ((1,), (2, 1, 3), (1, 1, 1, 1))}

    def refuse(*args):
        raise AssertionError("the determinant route read H's subset expansion")

    monkeypatch.setattr(genfun, "build_H", refuse)
    monkeypatch.setattr(genfun, "split_H", refuse)
    for omega, h in expected.items():
        assert build_H_via_determinant(omega) == h, omega


def test_subset_budget_refuses_before_work():
    # 30517 word products a subset: 2^16 of them are over the limit, 2^15 are not.
    with pytest.raises(ValueError, match="the 2\\^16 subsets of 16 variables takes about 1999962112 products"):
        build_H((1,) * 15)
    with pytest.raises(ValueError, match="subsets of 16 variables takes about"):
        build_H_via_determinant((1,) * 15)
    with pytest.raises(ValueError, match="subsets of 16 variables takes about"):
        expand_series((1,) * 15, (0,) * 15, 0)
    with pytest.raises(ValueError, match="2\\^16 subsets"):
        macmahon_check([[int(i == j) for j in range(16)] for i in range(16)], 0)
    assert build_H((1,) * 14).constant_term == 1  # 2^15 subsets: at the limit, accepted
    assert estimate(build_H, (1,) * 14) == 30517 << 15


def test_principal_minors_budget_counts_entry_words(monkeypatch):
    # omega = (1,): A = [[0, 1], [1, 0]], c = 2; deciding the first index
    # updates one list of one entry of one word, at 5 word products.  The
    # subsets, checked on their own, are charged nothing here.
    monkeypatch.setattr(genfun, "SUBSET_WORDS", 0)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 5)
    assert build_H_via_determinant((1,)) == build_H((1,))
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 4)
    with pytest.raises(genfun.InputError, match="2 x 2 matrix with entries of up to 2 bits takes about 5 products"):
        build_H_via_determinant((1,))
    monkeypatch.undo()
    # Eight weights of 10^3000 took 5 s, eleven over 35 s; refused before the elimination.
    start = time.perf_counter()
    for k in (8, 11):
        with pytest.raises(genfun.InputError, match="over the limit of 1000000000"):
            build_H_via_determinant((10**3000,) * k)
    assert time.perf_counter() - start < 0.1
    assert build_H_via_determinant((1,) * 14) == build_H((1,) * 14)


def test_series_budget_counts_padded_cells_times_terms(monkeypatch):
    # H = 1 - x1*y for omega = (1,); each axis gets one pad cell, so the box
    # (3 + 2) * (1 + 2) = 15 cells times 2 terms is 30 series steps, at 2500
    # word products each.  H's subsets, checked on their own, are charged nothing here.
    monkeypatch.setattr(genfun, "SUBSET_WORDS", 0)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 2500 * 30)
    assert expand_series((1,), (3,), 1) == {((1,), 0): 1, ((2,), 0): 1, ((2,), 1): 1, ((3,), 0): 1, ((3,), 1): 1}
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 2500 * 30 - 1)
    with pytest.raises(ValueError, match="15 cells with padding by 2 denominator terms .* takes about 75000 products"):
        expand_series((1,), (3,), 1)


def test_series_budget_counts_coefficient_bits(monkeypatch):
    # omega = 10^30: the tail of H = 1 + (1 - omega) x1 - x1*y sums to omega in
    # absolute value, 100 bits per unit of degree; degree 3 + 1 bounds the
    # coefficients by 1 + 400 bits, 6 words, so 15 cells cost 15 * (3 + 6) series steps.
    omega = 10**30
    monkeypatch.setattr(genfun, "SUBSET_WORDS", 0)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 2500 * 135)
    series = expand_series((omega,), (3,), 1)
    assert max(abs(c).bit_length() for c in series.values()) <= 401
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 2500 * 135 - 1)
    with pytest.raises(ValueError, match="15 cells .* 3 denominator terms .* 6 words of coefficients of up to about 401 bits"):
        expand_series((omega,), (3,), 1)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="lower the caps"):  # accepted by cells and terms alone
        expand_series((10**100,), (850,), 350)


def test_series_budget_counts_decimal_conversion(monkeypatch):
    # The omega = 10^30 box above: 4 * 2 cells, each charged 6 words squared.
    # The subsets and the series steps, checked on their own, are charged nothing here.
    monkeypatch.setattr(genfun, "SUBSET_WORDS", 0)
    monkeypatch.setattr(genfun, "STEP_WORDS", 0)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 288)
    expand_series((10**30,), (3,), 1)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 287)
    with pytest.raises(ValueError, match="about 401 bits in decimal takes about 288 products of 64-bit words, over the limit of 287"):
        expand_series((10**30,), (3,), 1)
    monkeypatch.undo()
    # Passes the series work with coefficients of up to 170,000 digits, whose
    # decimal form took seconds; refused before any arithmetic.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="in decimal takes about 1658541331 products"):
        expand_series((10**10000,), (18,), 0)
    assert time.perf_counter() - start < 0.1
    # The largest boxes of weight 10^1000 along either axis stay accepted.
    assert len(expand_series((10**1000,), (61,), 0)) == 61
    assert expand_series((10**1000,), (1,), 49) == {((1,), 0): 1}


def test_series_budget_refuses_huge_boxes():
    # These would allocate ~10^10 cells; the refusal comes before any allocation.
    with pytest.raises(ValueError, match="lower the caps"):
        expand_series((1, 1), (100000, 100000), 0)
    ring = ("z1", "z2")
    denominator = TPoly(ring, {(0, 0): 1, (1, 0): -1})
    with pytest.raises(ValueError, match="over the limit of 1000000000"):
        RationalSeries(TPoly.one(ring), denominator, (10**5, 10**5)).expand()


def _claim_products(k, ring):
    x1 = TPoly.variable(ring, "x1")
    prod_tail = TPoly.one(ring)
    for i in range(1, k):
        prod_tail = poly_mul(prod_tail, TPoly.one(ring) + TPoly.variable(ring, ring[i]))
    return x1, prod_tail


def test_budgets_write_huge_estimates_without_decimal_conversion():
    # Outside the CLI the interpreter refuses str() of ints past 4300 digits
    # (where the limit exists); a budget message must still raise InputError.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    huge = 10**5000
    cases = [
        (expand_series, ((1,), (huge,), 0), "a series box of ~2^16610.6 cells"),
        (isotropic_degree_symmetric, (huge, 3), "of up to ~2^16604.6 64-bit words takes about ~2^"),
        (isotropic_degree, (TensorFormat((huge,), (1,)),), "the polar-class sum takes about ~2^"),
        (macmahon_check, ([[1]], huge), "side's up to ~2^"),
        (extract_degree, (TensorFormat((huge,), (1,)), CodimVec((0,))), "coefficient extraction takes about ~2^"),
        (extract_degree, (TensorFormat((2,), (1,)), CodimVec((huge,))), "delta_1 = ~2^16609.6 exceeds n_1 - 1 = 1"),
        (critical_constants, (3, 1, huge), "up to about ~2^"),
        (verify_critical_point, (huge, 1), "~2^16609.6 weight classes at the critical point"),
        (asymptotic_degree, (3, 1, huge, 2), "delta_1 = ~2^16609.6 exceeds"),
    ]
    try:
        for fn, args, message in cases:
            with pytest.raises(genfun.InputError, match=re.escape(message)):
                fn(*args)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert genfun._num(10**400) == str(10**400) and genfun._num(-(2**20000)) == "-~2^20000.0"


def test_minor_determinant_identities():
    # det of the first minor: (-1)^k x1 prod_{i>=2} (1+x_i)
    # det of the second:      prod (1+x_i) - sum_j omega_j x_j prod_{i!=j} (1+x_i)
    rng = random.Random(988)
    for k in range(1, 6):
        for _ in range(20):
            omega = tuple(rng.randint(1, 4) for _ in range(k))
            ring = _xvars(k) + ("y",)
            zero = (0,) * (k + 1)
            first, second = last_row_minors(omega)
            x1, tail = _claim_products(k, ring)
            assert det(first) == poly_mul(TPoly(ring, {zero: (-1) ** k}), poly_mul(x1, tail)), omega
            expected = TPoly.one(ring)
            for i in range(k):
                expected = poly_mul(expected, TPoly.one(ring) + TPoly.variable(ring, ring[i]))
            for j in range(k):
                others = TPoly.one(ring)
                for i in range(k):
                    if i != j:
                        others = poly_mul(others, TPoly.one(ring) + TPoly.variable(ring, ring[i]))
                minus_wx = TPoly(ring, {zero[:j] + (1,) + zero[j + 1 :]: -omega[j]})
                expected = expected + poly_mul(minus_wx, others)
            assert det(second) == expected, omega


def test_equal_weight_symmetric_rewrite():
    # for equal weights: H = -y x1 sum_i e_i(x-hat-1) + sum_i (1 - w*i) e_i(x)
    for k, w in ((2, 1), (3, 2), (4, 3)):
        ring = _xvars(k) + ("y",)
        zero = (0,) * (k + 1)
        tail_vars = ring[1:k]
        h1 = TPoly(ring)
        for i in range(k):
            h1 = h1 + elementary_symmetric(ring, tail_vars, i)
        h1 = poly_mul(TPoly.variable(ring, "x1"), h1)
        h2 = TPoly(ring)
        for i in range(k + 1):
            h2 = h2 + poly_mul(TPoly(ring, {zero: 1 - w * i}), elementary_symmetric(ring, ring[:k], i))
        expected = h2 + poly_mul(TPoly(ring, {zero[:-1] + (1,): -1}), h1)
        assert build_H((w,) * k) == expected
        # H = -y H1 + H2, with both halves over the x-ring
        split = split_H((w,) * k)
        assert tuple(TPoly(ring, {e + (0,): c for e, c in half.terms.items()}) for half in split) == (h1, h2)


def test_split_H_roundtrip():
    for omega in ((1, 1), (2, 1, 3), (2,)):
        k = len(omega)
        ring = _xvars(k) + ("y",)
        h1, h2 = split_H(omega)
        assert h1.vars == _xvars(k) and h2.vars == _xvars(k)
        lift1 = TPoly(ring, {e + (0,): c for e, c in h1.terms.items()})
        lift2 = TPoly(ring, {e + (0,): c for e, c in h2.terms.items()})
        minus_y = TPoly(ring, {(0,) * k + (1,): -1})
        assert build_H(omega) == lift2 + poly_mul(minus_y, lift1)


def test_series_reproduces_worked_example():
    coeffs = expand_series((1, 1), (3, 3), 2)
    assert coeffs[((2, 2), 1)] == 2
    assert coeffs[((3, 2), 2)] == 3
    # numerator divisible by every x_i: nothing at n with a zero component
    assert all(all(ni >= 1 for ni in n) for n, _ in coeffs)


def test_series_empty_caps():
    assert expand_series((1, 1), (0, 0), 2) == {}


def test_series_keys_come_in_sorted_order():
    # The genfun subcommand prints the coefficients in the order expand_series returns them.
    rng = random.Random(6060)
    for _ in range(60):
        k = rng.randint(1, 3)
        omega = tuple(rng.randint(1, 4) for _ in range(k))
        coeffs = expand_series(omega, tuple(rng.randint(0, 5) for _ in range(k)), rng.randint(0, 3))
        assert list(coeffs) == sorted(coeffs), omega


def test_series_matches_extraction_mixed_weights():
    for omega in ((2, 1), (1, 2)):
        coeffs = expand_series(omega, (3, 3), 2)
        for n in product(range(1, 4), repeat=2):
            for d in range(3):
                expected = 0
                if d <= n[0] - 1:
                    expected = extract_degree(TensorFormat(n, omega), CodimVec((d, 0)))
                assert coeffs.get((n, d), 0) == expected, (omega, n, d)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_series_matches_extraction_property(data):
    # Every series coefficient is the extraction at codimension (delta, 0, ..., 0).
    k = data.draw(st.integers(1, 3))
    omega = data.draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**20)), min_size=k, max_size=k))
    caps = data.draw(st.lists(st.integers(0, (6, 4, 3)[k - 1]), min_size=k, max_size=k))
    y_cap = data.draw(st.integers(0, 3))
    coeffs = expand_series(omega, caps, y_cap)
    for n in product(*(range(c + 1) for c in caps)):
        for d in range(y_cap + 1):
            expected = 0
            if min(n) >= 1 and d <= n[0] - 1:
                expected = extract_degree(TensorFormat(n, omega), CodimVec((d,) + (0,) * (k - 1)))
            assert coeffs.get((n, d), 0) == expected, (omega, n, d)


def test_single_factor_series_matches_closed_form():
    # third route for k = 1: series vs the binomial closed form
    from kalmandeg.degrees import symmetric_degree

    # for w = 1, cap 1 with y-cap 0 leaves no term of H but 1 within the
    # caps, so the running sum alone must keep n = 0 empty
    for w in (1, 2, 3):
        for cap, y_cap in ((6, 5), (1, 0)):
            coeffs = expand_series((w,), (cap,), y_cap)
            for n in range(cap + 1):
                for d in range(y_cap + 1):
                    expected = symmetric_degree(n, d, w) if d <= n - 1 else 0
                    assert coeffs.get(((n,), d), 0) == expected, (w, n, d)


def test_rational_series_validation_and_geometric():
    ring = ("z1",)
    z = TPoly.variable(ring, "z1")
    with pytest.raises(ValueError):
        RationalSeries(TPoly.one(ring), z, (3,))  # constant term 0
    series = RationalSeries(TPoly.one(ring), TPoly(ring, {(0,): 1, (1,): -3}), (5,))
    assert series.expand() == {(e,): 3**e for e in range(6)}


def test_negative_caps_rejected():
    # an empty cap box would make macmahon_check true without comparing anything
    ring = ("z1",)
    denominator = TPoly(ring, {(0,): 1, (1,): -1})
    with pytest.raises(ValueError, match="caps must be nonnegative"):
        RationalSeries(TPoly.one(ring), denominator, (-2,))
    with pytest.raises(ValueError, match="caps must be nonnegative"):
        macmahon_check([[1]], -1)
    with pytest.raises(ValueError, match="caps must be nonnegative"):
        macmahon_check([[1, 0], [0, 1]], (2, -1))


def test_series_times_denominator_is_numerator():
    # checks the division recurrence by multiplying back, not by dividing again
    rng = random.Random(31337)

    def random_terms(ring):
        return {tuple(rng.randint(0, 3) for _ in ring): rng.randint(-4, 4) for _ in range(rng.randint(1, 5))}

    for trial in range(40):
        ring = _xvars(rng.randint(1, 3))
        caps = tuple(rng.randint(0, 3) for _ in ring)
        numerator = TPoly(ring, random_terms(ring))
        denominator = TPoly(ring, {**random_terms(ring), (0,) * len(ring): 1})
        series = RationalSeries(numerator, denominator, caps).expand()
        assert poly_mul(TPoly(ring, series, caps), denominator) == TPoly(ring, numerator.terms, caps), trial


def _leading_pad_division(numerator, denominator, caps):
    """N/D within ``caps`` by the gather recurrence on leading pads: the oracle for ``genfun._divide``.

    s_e = N_e - sum_d D_d s_(e - d) with every axis padded in front as wide as
    the largest tail exponent on it, and at least 1, so e - d and the cell
    before e on any axis land on a zero pad cell when they leave the box.
    Returns the flat array, the box cells in lexicographic order and the strides.
    """
    tail = [(d, c) for d, c in denominator.items() if any(d) and all(map(le, d, caps))]
    pads = [max([1] + [d[i] for d, _ in tail]) for i in range(len(caps))]
    strides = []
    size = 1
    for pad, m in zip(reversed(pads), reversed(caps)):
        strides.append(size)
        size *= pad + m + 1
    strides.reverse()
    cells = [sum(map(mul, pads, strides))]
    for m, stride in zip(caps, strides):
        cells = [i + j * stride for i in cells for j in range(m + 1)]
    coeffs = [0] * size
    for e, c in numerator.items():
        if all(map(le, e, caps)):
            coeffs[cells[0] + sum(map(mul, e, strides))] = c
    offsets = [(sum(map(mul, d, strides)), c) for d, c in tail]
    for i in cells:
        coeffs[i] -= sum(c * coeffs[i - o] for o, c in offsets)
    return coeffs, cells, strides


def _leading_pad_series(omega, caps, y_cap):
    """``expand_series`` by the oracle division, then running sums read backwards."""
    k, full_caps = len(omega), tuple(caps) + (y_cap,)
    coeffs, cells, strides = _leading_pad_division({(1,) * k + (0,): 1}, build_H(omega).terms, full_caps)
    for stride in strides[:k]:
        for i in cells:
            coeffs[i] += coeffs[i - stride]
    return {(e[:k], e[k]): coeffs[i] for e, i in zip(product(*(range(m + 1) for m in full_caps)), cells) if coeffs[i]}


def test_scatter_division_matches_leading_pad_oracle():
    # Every denominator has a tail term whose exponent equals the cap on one
    # axis, so that axis needs its full pad width: a pad one cell too narrow
    # sends the scatter from the cap cell into the next row.
    rng = random.Random(8128)
    for trial in range(150):
        ring = _xvars(rng.randint(1, 3))
        caps = tuple(rng.randint(1, 5) for _ in ring)
        axis = rng.randrange(len(ring))
        at_cap = tuple(caps[i] if i == axis else rng.randint(0, caps[i]) for i in range(len(ring)))
        tail = {tuple(rng.randint(0, 3) for _ in ring): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
        denominator = TPoly(ring, {**tail, at_cap: rng.choice((-2, -1, 1, 3)), (0,) * len(ring): 1})
        numerator = TPoly(ring, {tuple(rng.randint(0, 3) for _ in ring): rng.randint(-4, 4) for _ in range(3)})
        coeffs, cells, _ = _leading_pad_division(numerator.terms, denominator.terms, caps)
        expected = {e: coeffs[i] for e, i in zip(product(*(range(m + 1) for m in caps)), cells) if coeffs[i]}
        got = RationalSeries(numerator, denominator, caps).expand()
        assert list(got.items()) == list(expected.items()), (trial, numerator, denominator, caps)


def test_expand_series_matches_leading_pad_oracle():
    # Weights of 1 leave most of the box zero; weights of 2 or more fill it.
    rng = random.Random(6174)
    for trial in range(60):
        k = rng.randint(1, 3)
        omega = (1,) * k if trial % 2 else tuple(rng.randint(2, 5) for _ in range(k))
        caps = tuple(rng.randint(0, 12 // k) for _ in range(k))
        y_cap = rng.randint(0, 4)
        got = expand_series(omega, caps, y_cap)
        assert list(got.items()) == list(_leading_pad_series(omega, caps, y_cap).items()), (omega, caps, y_cap)


def _substitution_series(omega, caps, y_cap):
    """``expand_series`` by the substitution u_j = x_j/(1 + x_j), with neither construction of H.

    With P = prod_i (1 + x_i), H = P (1 - sum_j omega_j u_j - y u_1), so the
    series is G / prod_i (1 - x_i^2) with G = x_1...x_k / (1 - sum_j omega_j u_j - y u_1).
    In lexicographic order w_j = u_j G has w_j[e] = G[e - 1_j] - w_j[e - 1_j], and
    G[e] = [e = (1, ..., 1; 0)] + sum_j omega_j w_j[e] + w_1[e - 1_y]; one running
    sum with step 2 per x-axis then divides by prod_i (1 - x_i^2).
    """
    k = len(omega)
    box = list(product(*(range(c + 1) for c in caps), range(y_cap + 1)))
    one = (1,) * k + (0,)

    def back(e, axis, step=1):  # a cell off the box is absent, so reads as 0
        return e[:axis] + (e[axis] - step,) + e[axis + 1 :]

    g, w = {}, [{} for _ in omega]
    for e in box:
        for j in range(k):
            w[j][e] = g.get(back(e, j), 0) - w[j].get(back(e, j), 0)
        g[e] = (e == one) + sum(wj * w[j][e] for j, wj in enumerate(omega)) + w[0].get(back(e, k), 0)
    for axis in range(k):
        for e in box:
            g[e] += g.get(back(e, axis, 2), 0)
    return {(e[:k], e[k]): c for e, c in g.items() if c}


def test_expand_series_matches_substitution_route():
    rng = random.Random(2626)
    for trial in range(300):
        k = rng.randint(1, 4)
        omega = tuple(rng.randint(1, 4) for _ in range(k))
        caps = tuple(rng.randint(0, 6) for _ in range(k))
        y_cap = rng.randint(0, 4)
        got = expand_series(omega, caps, y_cap)
        assert list(got.items()) == list(_substitution_series(omega, caps, y_cap).items()), (trial, omega, caps, y_cap)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.data())
def test_series_times_denominator_property(data):
    m = data.draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * m)
    ring = _xvars(m)
    caps = data.draw(exponents)
    numerator = TPoly(ring, data.draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=5)))
    tail = data.draw(st.dictionaries(exponents.filter(any), st.integers(-5, 5), max_size=5))
    denominator = TPoly(ring, {**tail, (0,) * m: 1})
    series = RationalSeries(numerator, denominator, caps).expand()
    assert poly_mul(TPoly(ring, series, caps), denominator) == TPoly(ring, numerator.terms, caps)


def test_macmahon_small_cases():
    assert macmahon_check([[1, 0], [0, 1]], 2)
    assert macmahon_check([[5]], (4,))
    assert macmahon_check([[-3]], 4)
    assert macmahon_check([[1, 2], [3, 4]], (3, 3))
    with pytest.raises(ValueError):
        macmahon_check([[1, 2]], 2)


def test_macmahon_product_budget(monkeypatch):
    # Each p != 0 walks the live terms of one degree slice, at most 12 // 4 = 3
    # of the box's 12 cells, at 1 + m steps a term: 108 term pairs over the box.
    caps, pairs, work = (3, 2), 3 * 12 * 3, 2500 * 108
    assert (pairs, work) == (108, 270_000)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", work)
    assert macmahon_check([[1, 2], [3, 4]], caps)
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", work - 1)
    with pytest.raises(ValueError, match=f"up to {pairs} term pairs takes about {work} products .*; lower the cap"):
        macmahon_check([[1, 2], [3, 4]], caps)
    monkeypatch.undo()
    assert macmahon_check([[1, 1], [1, 1]], 50)  # 2500 * 3 * 51^2 * 51 <= 10^9
    # A 1 x 1 box's slices hold one cell, so its walk is charged 2 (cap + 1) pairs, exactly
    # the limit at cap 199,999; there the series division's own budget refuses first.
    for a, cap, refusal in (([[1, 1], [1, 1]], 51, "MacMahon product side"), ([[1]], 199_999, "expanding a series box")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{refusal}.*; lower the cap"):
            macmahon_check(a, cap)
        assert time.perf_counter() - start < 0.1
    assert macmahon_check([[1, 1], [1, 1]], 4) and macmahon_check([[1, 1, 1]] * 3, 2)  # the benchmark's sizes


def test_macmahon_walk_keeps_to_live_terms():
    # A 1 x 1 box at cap 29,220 does about 58,000 term pairs; with a padded array
    # per p it took about 2.4 s.  On a 2 x 2 box capped at 0 on one axis every
    # slice holds one cell, and only dropping the terms past that cap keeps the
    # walk from carrying p_1 + 1 terms at step p, about 4.5 million in all.
    for a, caps in (([[1]], 29_220), ([[1, 1], [1, 1]], (3000, 0))):
        start = time.perf_counter()
        assert macmahon_check(a, caps)
        assert time.perf_counter() - start < 0.5, (a, caps)


def test_macmahon_check_builds_no_tpoly(monkeypatch):
    # The check runs on term maps and flat arrays; no step builds a polynomial object.
    def refuse(*args, **kwargs):
        raise AssertionError("macmahon_check built a TPoly")

    monkeypatch.setattr(TPoly, "__init__", refuse)
    monkeypatch.setattr(TPoly, "_raw", refuse)
    for a, caps in (([[1, 2], [3, 4]], (3, 3)), ([[-2]], 4), ([[1, 2, 0], [3, 1, 1], [0, 2, 3]], (2, 1, 2))):
        assert macmahon_check(a, caps), a
    with pytest.raises(genfun.InputError, match="MacMahon product side"):
        macmahon_check([[1, 1], [1, 1]], 51)


def test_macmahon_walk_compares_every_p(monkeypatch):
    # The product side is shared along prefixes of p; a wrong right-hand
    # coefficient at any one p must still be caught.  Cases: m = 3, m = 1,
    # and an axis capped at 0.
    divide = genfun._divide
    for a, caps in (([[1, 2, 0], [3, 1, 1], [0, 2, 3]], (2, 1, 2)), ([[-2]], (4,)), ([[1, 2], [-1, 3]], (3, 0))):
        assert macmahon_check(a, caps)
        for n, p in enumerate(product(*(range(c + 1) for c in caps))):

            def off_by_one(*args, n=n):
                coeffs, cells, strides = divide(*args)
                coeffs[cells[n]] += 1
                return coeffs, cells, strides

            monkeypatch.setattr(genfun, "_divide", off_by_one)
            assert not macmahon_check(a, caps), (a, caps, p)
            monkeypatch.undo()


def test_macmahon_estimate_covers_the_slice_walk(monkeypatch):
    # Each p != 0 walks the live terms of degree sum(p) - 1, at one membership
    # test and up to m products a term.  At a limit one step below that work the
    # product side's estimate must refuse, so the estimate is at least the work.
    monkeypatch.setattr(genfun, "SUBSET_WORDS", 0)
    rng = random.Random(1915)
    for _ in range(100):
        m = rng.randint(1, 4)
        caps = [rng.randint(1, 5)] + [rng.randint(0, 5) for _ in range(m - 1)]
        rng.shuffle(caps)
        box = list(product(*(range(c + 1) for c in caps)))
        by_degree = Counter(map(sum, box))
        scanned = sum(by_degree[sum(p) - 1] for p in box if any(p))
        monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", genfun.STEP_WORDS * scanned * (1 + m) - 1)
        with pytest.raises(genfun.InputError, match="MacMahon product side"):
            macmahon_check([[1] * m] * m, caps)


def test_macmahon_random_matrices():
    rng = random.Random(66)
    for trial in range(20):
        m = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        assert macmahon_check(a, (3,) * m), (trial, a)


def _macmahon_product_side(a, caps):
    """The coefficient of z^p in prod_i (a_i1 z_1 + ... + a_im z_m)^(p_i) for every p within caps, by poly_mul."""
    ring = _xvars(len(a))
    units = [tuple(int(i == l) for i in range(len(a))) for l in range(len(a))]
    powers = []
    for row, cap in zip(a, caps):
        form = TPoly(ring, {e: x for e, x in zip(units, row) if x}, caps)
        powers.append([TPoly.one(ring, caps)])
        for _ in range(cap):
            powers[-1].append(poly_mul(powers[-1][-1], form))
    side = {}
    for p in product(*(range(c + 1) for c in caps)):
        term = TPoly.one(ring, caps)
        for power, e in zip(powers, p):
            term = poly_mul(term, power[e])
        side[p] = term.coefficient(p)
    return side


def _macmahon_series_side(a, caps):
    """The coefficient of w^p in 1/det(I - TA) for every p within caps, by a sympy series of ``det``'s determinant.

    Every w_l is scaled by s, so the series in s to order sum(caps) holds
    every p within the box.
    """
    ring = _xvars(len(a))
    w, s = sympy.symbols(ring), sympy.Symbol("s")

    def monomial(e):
        return sympy.prod([x**k for x, k in zip(w, e)]) * s ** sum(e)

    determinant = sum(c * monomial(e) for e, c in det(_identity_minus_ta(a, ring)).terms.items())
    series = sympy.Poly(sympy.series(1 / determinant, s, 0, sum(caps) + 1).removeO(), *w, s)
    return {p: int(series.coeff_monomial(monomial(p))) for p in product(*(range(c + 1) for c in caps))}


def test_macmahon_sides_by_independent_routes(monkeypatch):
    # Both sides of the identity without _divide or the walk agree at every p.
    # Fed the sympy series on the division's real layout, the walk accepts it,
    # and rejects it once one coefficient is off by one.
    divide = genfun._divide
    rng = random.Random(2727)
    for trial in range(20):
        m = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        caps = tuple(rng.randint(0, 3) for _ in range(m))
        series = _macmahon_series_side(a, caps)
        assert _macmahon_product_side(a, caps) == series, (trial, a, caps)
        wrong = rng.choice(sorted(series))
        for off in (0, 1):

            def fed(*args, off=off):
                coeffs, cells, strides = divide(*args)
                coeffs = [0] * len(coeffs)
                for p, i in zip(product(*(range(c + 1) for c in caps)), cells):
                    coeffs[i] = series[p] + off * (p == wrong)
                return coeffs, cells, strides

            monkeypatch.setattr(genfun, "_divide", fed)
            assert macmahon_check(a, caps) is (off == 0), (trial, a, caps, wrong)
            monkeypatch.undo()


def test_box_summation_identity():
    # with d(m) = sum_{j < m componentwise} f(j), the series of d is
    # prod_i x_i/(1-x_i) times the series of f, coefficientwise within caps
    rng = random.Random(9001)
    k, cap = 2, 4
    ring = _xvars(k)
    caps = (cap,) * k
    f = {j: rng.randint(-4, 4) for j in product(range(cap), repeat=k)}
    f_poly = TPoly(ring, dict(f), caps)
    geom = TPoly.one(ring, caps)
    for i in range(k):
        geom = poly_mul(geom, TPoly(ring, {tuple(e if t == i else 0 for t in range(k)): 1 for e in range(1, cap + 1)}))
    rhs = poly_mul(geom, f_poly)
    for m in product(range(cap + 1), repeat=k):
        lhs = sum(f.get(j, 0) for j in product(*(range(mi) for mi in m)))
        assert rhs.coefficient(m) == lhs, m
