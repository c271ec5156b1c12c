import random
import time
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial, perm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kalmandeg import genfun, isotropic
from kalmandeg.degrees import TensorFormat
from kalmandeg.genfun import InputError
from kalmandeg.isotropic import (
    isotropic_degree,
    isotropic_degree_symmetric,
    partition_tuple_codim,
    symmetric_tuple_codim,
)
from edges import EDGE, flag
from oracles import oracle_isotropic, oracle_isotropic_chow
from test_genfun import estimate

# Codimension and degree of the square-matrix repeated-singular-pair varieties
# for n = 2..6.  No general degree formula is known; these values are
# literature reference data, kept here so that edits get noticed.
SYMMETRIC_PAIR_TABLE = {
    2: (1, 1),
    3: (2, 7),
    4: (3, 24),
    5: (4, 86),
    6: (5, 314),
}

# Frozen from the naive full-box summation oracle in oracles.py.
FROZEN_ISO = {
    ((3,), (2,)): 6,
    ((4,), (3,)): 34,
    ((2, 2), (1, 1)): 4,
    ((2, 3), (1, 1)): 4,
    ((2, 3), (2, 2)): 12,
    ((2, 4), (1, 1)): 4,
    ((2, 5), (1, 1)): 4,
    ((3, 3), (1, 1)): 12,
    ((3, 3), (2, 1)): 28,
    ((3, 4), (1, 1)): 12,
    ((4, 4), (1, 1)): 24,
    ((5, 3), (2, 1)): 200,
    ((2, 2, 2), (1, 1, 1)): 8,
    ((3, 3, 3), (1, 1, 1)): 88,
    # too big for the live oracle in a test run; copied from
    # perfbench/reference.json, where the same oracle checked them
    ((20, 18), (2, 3)): 1235144223797177783592,
    ((9, 8, 7), (1, 2, 2)): 38956731552,
}


def test_printed_examples():
    res = isotropic_degree(TensorFormat((3,), (2,)))
    assert (res.degree, res.components) == (6, 1)
    res = isotropic_degree(TensorFormat((2, 2), (1, 1)))
    assert (res.degree, res.components) == (4, 4)
    assert res.ambient_dim == 0


def test_two_by_n_matrix_hypersurfaces():
    # 2 x n matrices with an isotropic singular pair: a quartic hypersurface
    # with two components (sum and difference of the row Gram data)
    for n2 in (3, 4, 5):
        res = isotropic_degree(TensorFormat((2, n2), (1, 1)))
        assert (res.degree, res.components) == (4, 2)


def test_frozen_oracle_values():
    for (n, omega), expected in FROZEN_ISO.items():
        res = isotropic_degree(TensorFormat(n, omega))
        assert res.degree == expected, (n, omega)
        assert res.ambient_dim == sum(n) - 2 * len(n)


def test_against_live_oracle_grid():
    for k, n_max, w_max in ((1, 6, 3), (2, 4, 2), (3, 3, 2)):
        for n in product(range(2, n_max + 1), repeat=k):
            for omega in product(range(1, w_max + 1), repeat=k):
                got = isotropic_degree(TensorFormat(n, omega)).degree
                assert got == oracle_isotropic(n, omega), (n, omega)


def test_against_live_oracle_random():
    rng = random.Random(4242)
    for trial in range(100):
        k = rng.randint(1, 4)
        n_max = 4 if k >= 3 else 6
        n = tuple(rng.randint(2, n_max) for _ in range(k))
        omega = tuple(rng.randint(1, 5) for _ in range(k))
        res = isotropic_degree(TensorFormat(n, omega))
        assert res.degree == oracle_isotropic(n, omega), (trial, n, omega)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_against_live_oracle_property(data):
    # The integer product form against the naive full-box Fraction summation.
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.tuples(*[st.integers(2, 7 if k <= 2 else 4)] * k), label="n")
    omega = data.draw(st.tuples(*[st.integers(1, 12)] * k), label="omega")
    res = isotropic_degree(TensorFormat(n, omega))
    assert res.degree == oracle_isotropic(n, omega)
    assert res.components == 2 ** n.count(2)
    assert res.ambient_dim == sum(n) - 2 * k


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_against_class_formula_property(data):
    # The polar-class sum against a second derivation: the Katz-Kleiman class
    # formula for the dual of the product of quadrics, in its Chow ring.
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.tuples(*[st.integers(2, 7)] * k), label="n")
    omega = data.draw(st.tuples(*[st.integers(1, 5)] * k), label="omega")
    assert isotropic_degree(TensorFormat(n, omega)).degree == oracle_isotropic_chow(n, omega)


def _convolved_degree(n, omega):
    """The polar-class sum as the convolution of every factor's list, the reference for the Horner route."""
    coeffs, scale = [1], 1
    for ni, wi in zip(n, omega):
        m = ni - 2
        beta = list(accumulate((comb(ni, a) for a in range(m + 1)), lambda s, c: -2 * s + c))
        out = [0] * (len(coeffs) + m)
        for i, c in enumerate(coeffs):
            for a in range(m + 1):
                out[i + a] += c * perm(m, a) * wi ** (m - a) * beta[a]
        coeffs = out
        scale *= factorial(m)
    n_dim = len(coeffs) - 1
    total = 2 ** len(n) * sum((-1) ** j * factorial(n_dim + 1 - j) * c for j, c in enumerate(coeffs))
    degree, rest = divmod(total, scale)
    assert rest == 0
    return degree


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_horner_route_matches_the_convolved_sum(data):
    # Beyond the oracles' n <= 7: the last factor by Horner's rule against the full convolution.
    k = data.draw(st.integers(1, 3), label="k")
    n = data.draw(st.tuples(*[st.integers(2, 60)] * k), label="n")
    omega = data.draw(st.tuples(*[st.one_of(st.integers(1, 5), st.integers(1, 10**30))] * k), label="omega")
    assert isotropic_degree(TensorFormat(n, omega)).degree == _convolved_degree(n, omega)


def test_integrality_and_positivity_guards(monkeypatch):
    # The true sum always passes both checks, so fake the list of the factor that is convolved;
    # in (6, 6) either factor may go last, and the other's scale is 4! = 24.
    monkeypatch.setattr(isotropic, "_factor_poly", lambda ni, wi: [1])
    with pytest.raises(ArithmeticError, match="not integral: 4/24"):
        isotropic_degree(TensorFormat((6, 6), (1, 1)))
    monkeypatch.setattr(isotropic, "_factor_poly", lambda ni, wi: [-6])
    with pytest.raises(ArithmeticError, match="not positive: -1"):
        isotropic_degree(TensorFormat((6, 6), (1, 1)))


def test_work_budget_counts_word_products(monkeypatch):
    # n = 4, omega = 3: m = 2, the one factor goes by Horner's rule and every
    # integer fits one word.  C' = [1] has M' + 1 = 1 entry of 1 word, and acc
    # adds 1 factor of bitlen(N + 1) = 2 bits: A = 1.  t has S = 1 word, and
    # total ends at A + S + 2 * 2 // 64 = 2.  Each of the 3 steps costs
    # (1 + 1) * 1 for acc's step and t * acc, 9 * 1 for the binomial and 2 * 1
    # for t; total * omega costs 3 * (1 + 1) + 2 * 3 // 64 over the steps.  With
    # 4 * 2^2 for the digits the work is 3 * 13 + 6 + 16 = 61.
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 61)
    assert isotropic_degree(TensorFormat((4,), (3,))).degree == FROZEN_ISO[((4,), (3,))]
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 60)
    with pytest.raises(ValueError, match="about 61 products of 64-bit words, over the limit of 60; use smaller n"):
        isotropic_degree(TensorFormat((4,), (3,)))


def test_work_budget_ranks_inputs_by_cost():
    # In process (CPython 3.11, shared 2-core Linux machine): (4660,), omega = 3
    # took 9.9 ms, (3000,) about 3 ms and (309, 309), omega = (1000, 1000), 37 ms;
    # (3000, 3000), omega = (3, 3), took 17.9 s.  Charging the Horner factor its
    # list's build and convolution refused (4660,) and accepted (3000, 3000) at
    # 5 * 10^12; its Horner steps put them in order.
    fast, slow = ((3000,), (3,)), ((309, 309), (1000, 1000))
    assert estimate(isotropic._check_work, *fast) < estimate(isotropic._check_work, *slow)
    assert estimate(isotropic._check_work, (4660,), (3,)) < estimate(isotropic._check_work, *slow)
    for n, omega in (fast, slow, ((4660,), (3,))):
        isotropic._check_work(n, omega)  # accepted
    with pytest.raises(InputError, match="the polar-class sum takes about"):
        isotropic._check_work((3000, 3000), (3, 3))


def test_work_budget_refuses_before_work():
    huge = 10**400000
    start = time.perf_counter()
    for n, omega in (((200000,), (3,)), ((3000, 3000), (3, 3)), ((400, 400, 400), (3, 3, 3)), ((3,), (huge,))):
        with pytest.raises(ValueError, match="over the limit of 1000000000"):
            isotropic_degree(TensorFormat(n, omega))
    assert time.perf_counter() - start < 0.1
    # Large inputs of the benchmark's query pool and of test_cli stay accepted.  The budget's
    # edges take about 1 s each, so test_cli checks them against the budget alone.
    for n, omega in (((450,), (10**10,)), ((46,), (10**100,)), ((200,), (1000,)), ((20, 18), (2, 3))):
        assert isotropic_degree(TensorFormat(n, omega)).degree > 0


def test_symmetric_closed_form():
    assert isotropic_degree_symmetric(3, 2) == 6
    assert isotropic_degree_symmetric(3, 3) == 2 * (1 + 2 * 2) == 10
    for w in range(1, 6):
        assert isotropic_degree_symmetric(2, w) == 2
    with pytest.raises(ValueError):
        isotropic_degree_symmetric(1, 2)


def _symmetric_sum(n, w):
    """2 * sum_{j <= n - 2} (j + 1) (w - 1)^j: the sum the closed form replaced."""
    return 2 * sum((j + 1) * (w - 1) ** j for j in range(n - 1))


def test_symmetric_closed_form_matches_the_sum():
    # The sum the closed form replaced, kept as its second route.
    for n in range(2, 60):
        for w in (*range(1, 12), 10**10, 3**41):
            assert isotropic_degree_symmetric(n, w) == _symmetric_sum(n, w), (n, w)


def test_symmetric_budget_counts_cells_and_words(monkeypatch):
    # (3, 2): a one-word value, 3000 for the row and 5 * 1^2 for the value.
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 3005)
    assert isotropic_degree_symmetric(3, 2) == 6
    monkeypatch.setattr(genfun, "MAX_WORD_PRODUCTS", 3004)
    with pytest.raises(InputError, match="1 single-factor isotropic degrees of up to 1 64-bit words takes about 3005"):
        isotropic_degree_symmetric(3, 2)
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(InputError, match="over the limit of 1000000000"):
        isotropic_degree_symmetric(10**9, 3)
    assert time.perf_counter() - start < 0.1


def test_single_factor_specializes_to_closed_form():
    for n in (*range(2, 9), 30, 120, 450):
        for w in (*range(1, 5), 7, 10**10):
            res = isotropic_degree(TensorFormat((n,), (w,)))
            assert res.degree == isotropic_degree_symmetric(n, w)
            assert res.components == (2 if n == 2 else 1)


def test_single_factor_at_the_largest_accepted_n_is_the_closed_form():
    # The last n the polar-class budget accepts at omega = 3 (the edge table's isotropic-n
    # row), by the polar-class sum's Horner route and by the single-factor closed form.
    argv = EDGE["isotropic-n"].accepted
    n, omega = flag(argv, "--n"), flag(argv, "--omega")
    assert isotropic_degree(TensorFormat((n,), (omega,))).degree == isotropic_degree_symmetric(n, omega)


def test_all_binary_component_count():
    for k in range(1, 5):
        res = isotropic_degree(TensorFormat((2,) * k, (1,) * k))
        assert res.components == 2**k


def test_permutation_equivariance():
    for n, omega in (((2, 3, 4), (1, 2, 1)), ((3, 5), (2, 3))):
        base = isotropic_degree(TensorFormat(n, omega))
        for perm in permutations(range(len(n))):
            res = isotropic_degree(
                TensorFormat(tuple(n[p] for p in perm), tuple(omega[p] for p in perm))
            )
            assert (res.degree, res.components) == (base.degree, base.components)


def test_rejects_projective_line_factor():
    with pytest.raises(ValueError):
        isotropic_degree(TensorFormat((1, 3), (1, 1)))


def test_symmetric_tuple_codim():
    assert symmetric_tuple_codim(3, 2) == 2
    assert symmetric_tuple_codim(2, 2) == 1
    for n in range(2, 7):
        assert symmetric_tuple_codim(n, 1) == 0


def _partition_diagonal_codim(n, parts, rng):
    """k(n - 1) minus the exact rank of the Jacobian of the partition-diagonal map, k = len(parts).

    The map (P^(n-1))^t -> (P^(n-1))^k sends (x_0, ..., x_(t-1)) to
    (x_parts[0], ..., x_parts[k-1]), where ``parts`` maps onto range(t).  Each
    source factor is read in the chart x_0 = 1 and each target factor in the
    chart of a seeded coordinate c, so a target coordinate is x_l / x_c.  sympy
    takes the Jacobian at a seeded rational point and its rank.
    """
    xs = [(1, *sympy.symbols(f"x{j}_1:{n}")) for j in range(max(parts) + 1)]
    point = {x: sympy.Rational(rng.randint(1, 9), rng.randint(1, 9)) for x_j in xs for x in x_j[1:]}
    jacobian = sympy.zeros(len(parts) * (n - 1), len(xs) * (n - 1))
    for i, j in enumerate(parts):  # target factor i depends on source factor j's coordinates only
        c = rng.randrange(n)
        image = [xs[j][l] / xs[j][c] for l in range(n) if l != c]
        for r, v in product(range(n - 1), repeat=2):
            jacobian[i * (n - 1) + r, j * (n - 1) + v] = image[r].diff(xs[j][v + 1]).xreplace(point)
    return len(parts) * (n - 1) - jacobian.rank()


def test_tuple_codims_are_jacobian_coranks():
    # Over n <= 6, k <= 5 and every number of parts t, on a seeded partition.
    rng = random.Random(2706)
    for n, k in product(range(1, 7), range(1, 6)):
        for t in range(1, k + 1):
            parts = list(range(t)) + [rng.randrange(t) for _ in range(k - t)]
            rng.shuffle(parts)
            assert partition_tuple_codim(n, k, t) == _partition_diagonal_codim(n, parts, rng), (n, parts)
        if n >= 2:
            assert symmetric_tuple_codim(n, k) == _partition_diagonal_codim(n, [0] * k, rng), (n, k)


def test_partition_codim_sums_the_symmetric_codims_of_its_parts():
    # A partition-diagonal is the product of one diagonal per part, so its
    # codimension is the sum of theirs; one part is the symmetric case.
    for n, k in product(range(2, 7), range(1, 6)):
        assert symmetric_tuple_codim(n, k) == partition_tuple_codim(n, k, 1)
        for t in range(1, k + 1):
            for cuts in combinations(range(1, k), t - 1):
                sizes = [b - a for a, b in zip((0, *cuts), (*cuts, k))]
                assert partition_tuple_codim(n, k, t) == sum(symmetric_tuple_codim(n, s) for s in sizes), (n, sizes)


def test_reference_table_codims_and_degrees():
    assert [SYMMETRIC_PAIR_TABLE[n][0] for n in range(2, 7)] == [1, 2, 3, 4, 5]
    for n, (codim, _degree) in SYMMETRIC_PAIR_TABLE.items():
        assert codim == symmetric_tuple_codim(n, 2)
    # degrees are reference data with no formula; pinned so edits get noticed
    assert [SYMMETRIC_PAIR_TABLE[n][1] for n in range(2, 7)] == [1, 7, 24, 86, 314]


def test_partition_tuple_codim():
    assert partition_tuple_codim(2, 3, 2) == 1
    assert partition_tuple_codim(2, 4, 2) == 2
    for k in range(1, 6):
        assert partition_tuple_codim(3, k, k) == 0
    with pytest.raises(ValueError):
        partition_tuple_codim(2, 3, 4)
    with pytest.raises(ValueError):
        partition_tuple_codim(2, 3, 0)
