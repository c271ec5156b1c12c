import random
import time
from functools import reduce
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from kalmandeg import degrees, genfun
from kalmandeg.asympt import compare_exact_asymptotic
from kalmandeg.degrees import (
    CodimVec,
    TensorFormat,
    _extraction_work,
    _ring,
    extract_degree,
    kalman_degree,
    symmetric_degree,
)
from kalmandeg.polycore import TPoly, poly_mul
from edges import EDGE, flag
from oracles import oracle_binary, oracle_extract
from test_genfun import estimate


def full_product_degree(fmt, d):
    """The coefficient at the caps of the whole capped product of the k factors.

    Each factor is built by its definition, sum_{j<n_i} (that_i + h)^(n_i-1-j) t_i^j
    under the caps, power by power.
    """
    k = fmt.k
    ring = _ring(k)
    caps = tuple(n - di - 1 for n, di in zip(fmt.n, d.delta)) + (d.total,)
    one, zero = TPoly.one(ring, caps), TPoly(ring, {}, caps)
    variables = [TPoly.variable(ring, v, caps) for v in ring]
    units = [tuple(int(j == i) for j in range(k + 1)) for i in range(k + 1)]
    factors = []
    for i, n in enumerate(fmt.n):
        # that_i + h = sum_j (omega_j - [j == i]) t_j + h; the constructor drops terms past the caps.
        base = TPoly(ring, {u: w - (j == i) for j, (w, u) in enumerate(zip(fmt.omega + (1,), units))}, caps)
        powers = [reduce(poly_mul, [base] * (n - 1 - j) + [variables[i]] * j, one) for j in range(n)]
        factors.append(sum(powers, zero))
    return reduce(poly_mul, factors).coefficient(caps)


def closed_form_degree(fmt, d):
    """The degree factor by one integer convolution, with no polynomial arithmetic.

    With u = sum_j omega_j t_j + h, factor i is sum_b g_i(b) u^(n_i-1-b) t_i^b,
    where g_i(b) = 2 g_i(b-1) + (-1)^b C(n_i, b) and g_i(-1) = 0.  Expanding
    u^M by the multinomial theorem, with c_i = n_i - delta_i - 1, gives
    d = sum_s (delta+1)...(delta+s) C_s / prod_i c_i!, where C is the
    convolution of the lists L_i[a] = g_i(c_i - a) omega_i^a c_i!/a!, a = 0..c_i.
    """
    conv = [1]
    for n, di, w in zip(fmt.n, d.delta, fmt.omega):
        c = n - di - 1
        g = [1]
        for b in range(1, c + 1):
            g.append(2 * g[-1] + (-1) ** b * comb(n, b))
        factor = [g[c - a] * w**a * factorial(c) // factorial(a) for a in range(c + 1)]
        out = [0] * (len(conv) + c)
        for i, x in enumerate(conv):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        conv = out
    total, rising = 0, 1
    for s, cs in enumerate(conv):
        total += rising * cs
        rising *= d.total + s + 1
    quotient, remainder = divmod(total, prod(factorial(n - di - 1) for n, di in zip(fmt.n, d.delta)))
    assert remainder == 0, (fmt, d)
    return quotient


def test_reference_degree_values():
    fmt = TensorFormat((4, 4), (1, 1))
    assert extract_degree(fmt, CodimVec((2, 1))) == 20
    assert kalman_degree(fmt, CodimVec((2, 1)), (3, 2)) == 120
    assert extract_degree(TensorFormat((2, 2), (1, 1)), CodimVec((1, 0))) == 2
    assert extract_degree(TensorFormat((3, 2), (1, 1)), CodimVec((2, 0))) == 3
    assert extract_degree(TensorFormat((2, 2), (1, 1)), CodimVec((0, 0))) == 2


def test_neutral_deg_z():
    fmt = TensorFormat((3, 3), (2, 1))
    cv = CodimVec((1, 1))
    assert kalman_degree(fmt, cv, (1, 1)) == extract_degree(fmt, cv)
    assert kalman_degree(TensorFormat((2, 2), (1, 1)), CodimVec((0, 0)), (1, 1)) == 2


def test_kalman_degree_against_oracles():
    rng = random.Random(1207)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = tuple(rng.randint(1, 4) for _ in range(k))
        omega = tuple(rng.randint(1, 3) for _ in range(k))
        delta = tuple(rng.randint(0, ni - 1) for ni in n)
        deg_z = tuple(rng.randint(1, 5) for _ in range(k))
        fmt, d = TensorFormat(n, omega), CodimVec(delta)
        got = kalman_degree(fmt, d, deg_z)
        assert got == prod(deg_z) * oracle_extract(n, delta, omega), (n, delta, omega, deg_z)
        assert got == prod(deg_z) * closed_form_degree(fmt, d), (n, delta, omega, deg_z)


def test_extraction_matches_sympy_oracle_on_grid():
    for k, n_max, w_max in ((1, 4, 3), (2, 3, 2), (3, 2, 2)):
        for n in product(range(1, n_max + 1), repeat=k):
            for omega in product(range(1, w_max + 1), repeat=k):
                for delta in product(*(range(ni) for ni in n)):
                    got = extract_degree(TensorFormat(n, omega), CodimVec(delta))
                    assert got == oracle_extract(n, delta, omega), (n, delta, omega)


def test_validation_errors():
    with pytest.raises(ValueError):
        extract_degree(TensorFormat((2, 2), (1, 1)), CodimVec((2, 0)))
    with pytest.raises(ValueError):
        extract_degree(TensorFormat((2, 2), (1, 1)), CodimVec((0, 0, 0)))
    with pytest.raises(ValueError):
        TensorFormat((2, 0), (1, 1))
    with pytest.raises(ValueError):
        TensorFormat((2, 2), (1, 0))
    with pytest.raises(ValueError):
        CodimVec((-1, 0))
    with pytest.raises(ValueError):
        kalman_degree(TensorFormat((2, 2), (1, 1)), CodimVec((0, 0)), (1, 0))


def test_symmetric_closed_form_values():
    assert symmetric_degree(3, 0, 2) == 3
    assert symmetric_degree(5, 2, 3) == 1 + 3 * 2 + 6 * 4 == 31
    for n in range(1, 7):
        for w in range(1, 5):
            assert symmetric_degree(n, n - 1, w) == 1
    with pytest.raises(ValueError):
        symmetric_degree(3, 3, 1)


def test_symmetric_equals_extraction():
    for n in range(1, 9):
        for w in range(1, 5):
            for d in range(n):
                assert symmetric_degree(n, d, w) == extract_degree(
                    TensorFormat((n,), (w,)), CodimVec((d,))
                )


def test_symmetric_degree_budget():
    # The term recurrence against the sum as defined, binomials and powers apart.
    for n in range(1, 31):
        for w in (1, 2, 3, 7, 10**25):
            for d in range(n):
                assert symmetric_degree(n, d, w) == sum(comb(d + j, j) * (w - 1) ** j for j in range(n - d))
    # Inputs far past the limit go at once.  The edge of the family (n, n // 2, 3) is the
    # symmetric-degree-n row of tests/edges.py, which test_edges checks.
    start = time.perf_counter()
    refusal = "the single-factor closed form takes about .* over the limit of 1000000000"
    for n, d, w in ((10**100, 0, 3), (20000, 0, 10**1000)):
        with pytest.raises(genfun.InputError, match=refusal):
            symmetric_degree(n, d, w)
    assert time.perf_counter() - start < 0.2
    # Every input of the tests, the README and the benchmark is accepted, and (8000, 4000, 3)
    # with room to spare; few or zero terms stay cheap at any n.
    assert max(estimate(symmetric_degree, 40, d, 10) for d in range(40)) < 10**6  # the estimate grows with n and omega
    assert estimate(symmetric_degree, 8000, 4000, 3) <= genfun.MAX_WORD_PRODUCTS // 50
    big = 10**100
    assert symmetric_degree(big, 0, 1) == 1
    assert symmetric_degree(big, big - 3, 2) == 1 + (big - 2) + (big - 2) * (big - 1) // 2


def _binomial_sum_mod(n, delta, omega, p):
    """sum_{j < n - delta} C(delta + j, j) (omega - 1)^j modulo the prime p > n, each
    binomial read off tables of factorials and inverse factorials mod p."""
    fact = [1] * n
    for i in range(1, n):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * n
    inv[-1] = pow(fact[-1], p - 2, p)
    for i in range(n - 1, 0, -1):
        inv[i - 1] = inv[i] * i % p
    total, power = 0, 1
    for j in range(n - delta):
        total += fact[delta + j] * inv[delta] % p * inv[j] % p * power
        power = power * (omega - 1) % p
    return total % p


def test_symmetric_degree_at_the_largest_accepted_n_matches_its_sum_mod_p():
    # The last input of the family (n, n // 2, 3) that the budget accepts: its value, of
    # 138,338 bits, against the sum as defined, modulo two primes, with no term-to-term division.
    args = EDGE["symmetric-degree-n"].accepted.args
    value = symmetric_degree(*args)
    for p in (2**61 - 1, 10**9 + 7):
        assert value % p == _binomial_sum_mod(*args, p), p


def test_matrix_ed_degrees_are_min():
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            got = extract_degree(TensorFormat((n1, n2), (1, 1)), CodimVec((0, 0)))
            assert got == min(n1, n2)


def test_delta_zero_is_positive():
    rng = random.Random(555)
    for _ in range(25):
        k = rng.randint(1, 3)
        n = tuple(rng.randint(1, 4) for _ in range(k))
        omega = tuple(rng.randint(1, 3) for _ in range(k))
        assert extract_degree(TensorFormat(n, omega), CodimVec((0,) * k)) >= 1


def test_permutation_equivariance():
    rng = random.Random(808)
    for _ in range(15):
        k = rng.randint(2, 3)
        n = tuple(rng.randint(1, 4) for _ in range(k))
        omega = tuple(rng.randint(1, 3) for _ in range(k))
        delta = tuple(rng.randint(0, ni - 1) for ni in n)
        base = extract_degree(TensorFormat(n, omega), CodimVec(delta))
        for perm in permutations(range(k)):
            permuted = extract_degree(
                TensorFormat(tuple(n[p] for p in perm), tuple(omega[p] for p in perm)),
                CodimVec(tuple(delta[p] for p in perm)),
            )
            assert permuted == base


def test_binary_degree_values_and_oracle():
    assert extract_degree(TensorFormat((2, 2), (1, 1)), CodimVec((1, 0))) == 2
    assert extract_degree(TensorFormat((2, 2, 2), (1, 1, 1)), CodimVec((0, 0, 0))) == 6
    assert extract_degree(TensorFormat((2, 2, 2), (1, 1, 1)), CodimVec((1, 0, 0))) == 6
    rng = random.Random(31337)
    for _ in range(20):
        k = rng.randint(1, 4)
        delta = tuple(rng.randint(0, 1) for _ in range(k))
        omega = tuple(rng.randint(1, 3) for _ in range(k))
        assert extract_degree(TensorFormat((2,) * k, omega), CodimVec(delta)) == oracle_binary(delta, omega)


def test_binary_shorthand_binomial_undercounts():
    # A tempting closed form C(k, delta) * prod_{delta_i=0} omega_i undercounts:
    # the multinomial coefficient of h^delta prod t_i^(1-delta_i) in
    # (sum omega_j t_j + h)^k is k!/delta! * prod_{delta_i=0} omega_i, which is
    # what extraction produces.  First divergence: k=3, delta=(1,0,0).
    got = extract_degree(TensorFormat((2, 2, 2), (1, 1, 1)), CodimVec((1, 0, 0)))
    assert got == 6
    assert comb(3, 1) * 1 == 3
    assert got != comb(3, 1) * 1


def probed_degrees(fmt, d, i, probes):
    """extract_degree at n_i, n_i + 1, ..., n_i + probes, every other entry of ``fmt`` held."""
    return [extract_degree(TensorFormat(fmt.n[:i] + (m,) + fmt.n[i + 1 :], fmt.omega), d)
            for m in range(fmt.n[i], fmt.n[i] + probes + 1)]


# With omega_i = 1 the degree factor stops changing in n_i once
# n_i - 1 >= sum_{j != i} (n_j - 1) + delta_i, that is from n_i = threshold on.


def test_stabilization_from_above_threshold():
    fmt, d = TensorFormat((3, 2), (1, 1)), CodimVec((0, 0))
    threshold = sum(nj - 1 for nj in fmt.n[1:]) + d.delta[0] + 1
    assert fmt.n[0] > threshold  # every probe lies above it
    assert probed_degrees(fmt, d, 0, 3) == [2, 2, 2, 2]  # n_1 = 3, 4, 5, 6


def test_stabilization_at_threshold_three_factors():
    fmt, d = TensorFormat((4, 2, 2), (1, 1, 1)), CodimVec((1, 0, 0))
    threshold = sum(nj - 1 for nj in fmt.n[1:]) + d.delta[0] + 1
    assert fmt.n[0] == threshold  # the first probe sits on it
    assert probed_degrees(fmt, d, 0, 2) == [24, 24, 24]


def test_symmetric_factor_does_not_stabilize():
    # Why stabilization needs omega_i = 1: with omega = 2 the factor grows with n, already for k = 1.
    assert [symmetric_degree(n, 0, 2) for n in range(1, 12)] == list(range(1, 12))
    assert probed_degrees(TensorFormat((3, 2), (2, 1)), CodimVec((0, 0)), 0, 2) == [9, 16, 25]


def test_stabilization_grid_small_formats():
    # every format with the growing index at threshold stays constant
    for n_rest, delta_i in product(product(range(1, 5), repeat=2), range(3)):
        n1 = sum(nj - 1 for nj in n_rest) + delta_i + 1
        n = (n1,) + n_rest
        delta = (min(delta_i, n1 - 1),) + (0,) * 2
        if delta[0] != delta_i:
            continue
        values = probed_degrees(TensorFormat(n, (1, 1, 1)), CodimVec(delta), 0, 3)
        assert len(set(values)) == 1, (n, delta, values)


def test_below_threshold_probe_is_honest():
    # (2,3) grows toward the matrix ED limit min(m,3): values change below threshold
    fmt, d = TensorFormat((2, 3), (1, 1)), CodimVec((0, 0))
    threshold = sum(nj - 1 for nj in fmt.n[1:]) + d.delta[0] + 1
    values = probed_degrees(fmt, d, 0, 3)
    at = threshold - fmt.n[0]  # index of the probe n_1 = threshold
    assert at > 0 and len(set(values[at:])) == 1
    assert len(set(values[:at + 1])) > 1
    assert values == [2, 3, 3, 3]


def geometric_factor(n, omega):
    """The one-factor degree at delta = 0, sum_{j<n} (omega - 1)^j, as a geometric series in closed form."""
    r = omega - 1
    return n if r == 1 else (r**n - 1) // (r - 1)


def test_extraction_at_the_largest_accepted_n_is_a_geometric_sum():
    # The slowest accepted extraction, the edge table's degree-n row.  With k = 1 and
    # delta = 0 the factor is sum_{j<n} (omega - 1)^j, here 2^n - 1.
    argv = EDGE["degree-n"].accepted
    n, omega = flag(argv, "--n"), flag(argv, "--omega")
    assert (flag(argv, "--delta"), omega) == (0, 3) and geometric_factor(n, omega) == 2**n - 1
    assert extract_degree(TensorFormat((n,), (omega,)), CodimVec((0,))) == geometric_factor(n, omega)
    for n in range(1, 60):
        for w in (1, 2, 3, 5):
            assert extract_degree(TensorFormat((n,), (w,)), CodimVec((0,))) == geometric_factor(n, w), (n, w)


def test_series_at_the_largest_accepted_weight_is_a_geometric_sum():
    # The largest accepted weight at its cap, the edge table's genfun-weight row.  With
    # k = 1 and delta = 0 the coefficient at n is sum_{j<n} (omega - 1)^j, compared as
    # ints, with no decimal conversion.
    argv = EDGE["genfun-weight"].accepted
    omega, cap = flag(argv, "--omega"), flag(argv, "--caps")
    series = genfun.expand_series((omega,), (cap,), 0)
    assert series == {((n,), 0): geometric_factor(n, omega) for n in range(1, cap + 1)}


def test_extraction_equals_full_product_on_random_formats():
    rng = random.Random(2024)
    for _ in range(2000):
        k = rng.randint(1, 5)
        n = tuple(rng.randint(1, (9, 7, 5, 4, 3)[k - 1]) for _ in range(k))
        omega = tuple(rng.randint(1, 4) for _ in range(k))
        fmt, d = TensorFormat(n, omega), CodimVec(tuple(rng.randint(0, ni - 1) for ni in n))
        assert extract_degree(fmt, d) == full_product_degree(fmt, d), (n, d.delta, omega)


@st.composite
def _format_and_codim(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    omega = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    delta = [draw(st.one_of(st.just(0), st.just(ni - 1), st.integers(0, ni - 1))) for ni in n]
    return TensorFormat(n, omega), CodimVec(delta)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_format_and_codim())
@example((TensorFormat((1,), (3,)), CodimVec((0,))))
@example((TensorFormat((1, 4, 3), (2, 1, 3)), CodimVec((0, 3, 2))))
@example((TensorFormat((5, 1, 2, 6), (1, 4, 2, 3)), CodimVec((0, 0, 0, 0))))
def test_extraction_routes_agree_property(case):
    fmt, d = case
    got = extract_degree(fmt, d)
    assert got == full_product_degree(fmt, d) == closed_form_degree(fmt, d), case
    if fmt.k == 1:
        assert got == symmetric_degree(fmt.n[0], d.total, fmt.omega[0])
    # The all-binary format with delta_i cut to 0 or 1: the multinomial of (sum omega_j t_j + h)^k.
    binary = CodimVec(min(di, 1) for di in d.delta)
    omega_free = prod(w for w, di in zip(fmt.omega, binary.delta) if not di)
    multinomial = factorial(fmt.k) // factorial(binary.total) * omega_free
    binary_fmt = TensorFormat((2,) * fmt.k, fmt.omega)
    assert extract_degree(binary_fmt, binary) == closed_form_degree(binary_fmt, binary) == multinomial, case


def test_extraction_work_counts(monkeypatch):
    # poly_mul calls and term pairs (|a| * |b| per call) of the Horner steps:
    # per step, one product of the running total by that_i + h, so n_i - 1
    # calls per factor.  The running power is shifted by t_i instead, one
    # shift and one term visited per term of the power per step.
    pairs, shifted = [], []

    def counting(a, b):
        pairs.append(len(a.terms) * len(b.terms))
        return poly_mul(a, b)

    def counting_shift(terms, i, cap):
        shifted.append(len(terms))
        return shift(terms, i, cap)

    shift = degrees._shift
    monkeypatch.setattr(degrees, "poly_mul", counting)
    monkeypatch.setattr(degrees, "_shift", counting_shift)
    assert extract_degree(TensorFormat((8, 8, 8, 8), (1, 1, 1, 1)), CodimVec((1, 0, 0, 0))) == 6660147853056
    assert (len(pairs), sum(pairs)) == (28, 26208)
    assert (len(shifted), sum(shifted)) == (28, 2464)
    pairs.clear()
    assert extract_degree(TensorFormat((40, 40), (1, 1)), CodimVec((1, 0))) == 1560
    assert len(pairs) == 2 * 39


def test_extraction_work_estimate_bounds_the_count(monkeypatch):
    # Term pairs, shifted power terms and calls, counted, never exceed the estimate.
    counted = []

    def counting(a, b):
        counted.append(len(a.terms) * len(b.terms) + 1)
        return poly_mul(a, b)

    def counting_shift(terms, i, cap):
        counted.append(len(terms) + 1)
        return shift(terms, i, cap)

    shift = degrees._shift
    monkeypatch.setattr(degrees, "poly_mul", counting)
    monkeypatch.setattr(degrees, "_shift", counting_shift)
    rng = random.Random(4242)
    for _ in range(300):
        k = rng.randint(1, 5)
        n = tuple(rng.randint(1, (30, 12, 7, 5, 4)[k - 1]) for _ in range(k))
        fmt = TensorFormat(n, tuple(rng.randint(1, 4) for _ in range(k)))
        d = CodimVec(tuple(rng.randint(0, ni - 1) for ni in n))
        counted.clear()
        extract_degree(fmt, d)
        assert sum(counted) * genfun.STEP_WORDS <= _extraction_work(fmt, d), (n, d.delta, fmt.omega)


def test_extraction_budget_refuses_before_building(monkeypatch):
    monkeypatch.setattr(degrees, "TPoly", None)  # any polynomial built would fail
    start = time.perf_counter()
    for fmt, d in (
        (TensorFormat((60, 60, 60), (1, 1, 1)), CodimVec((0, 0, 0))),
        (TensorFormat((10**12, 10**12), (2, 2)), CodimVec((0, 0))),
        (TensorFormat((50, 50), (10**500, 10**500)), CodimVec((0, 0))),  # the coefficient-size term
        (TensorFormat((100000,), (1,)), CodimVec((0,))),  # the Horner calls
        (TensorFormat((1,) * 300, (1,) * 300), CodimVec((0,) * 300)),  # the ring setup
    ):
        with pytest.raises(ValueError, match="coefficient extraction takes about .* over the limit of 1000000000"):
            extract_degree(fmt, d)
    # A comparison's cells are summed before the first one runs, and stop at the limit.
    with pytest.raises(ValueError, match="coefficient extraction takes about .* over the limit of 1000000000"):
        compare_exact_asymptotic(2, 2, 0, range(1, 10**9))
    assert time.perf_counter() - start < 0.1
