import importlib
import pkgutil
import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import kalmandeg
from kalmandeg import polycore
from kalmandeg.polycore import TPoly, det, poly_mul


def partial(p, name):
    """Partial derivative of ``p`` with respect to one of its ring variables."""
    idx = p.vars.index(name)
    out = {}
    for e, c in p.terms.items():
        if e[idx]:
            lowered = e[:idx] + (e[idx] - 1,) + e[idx + 1 :]
            out[lowered] = out.get(lowered, 0) + c * e[idx]
    return TPoly(p.vars, out)


def evaluate(p, point):
    """Exact value of ``p`` at ``point``, a map from variable names to ints or Fractions."""
    return sum(c * prod(point[v] ** x for v, x in zip(p.vars, e) if x) for e, c in p.terms.items())


def _random_poly(rng, vars, max_terms=4, max_exp=2, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in vars)
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    return TPoly(vars, terms)


def test_capped_binomial_truncation():
    ring = ("t1",)
    p = TPoly.one(ring, (1,)) + TPoly.variable(ring, "t1")
    out = poly_mul(p, p)
    assert out.terms == {(0,): 1, (1,): 2}


def test_square_expansion_no_caps():
    ring = ("t1", "t2", "h")
    s = TPoly.variable(ring, "t1") + TPoly.variable(ring, "t2") + TPoly.variable(ring, "h")
    sq = poly_mul(s, s)
    assert sq.terms == {
        (2, 0, 0): 1,
        (0, 2, 0): 1,
        (0, 0, 2): 1,
        (1, 1, 0): 2,
        (1, 0, 1): 2,
        (0, 1, 1): 2,
    }


def test_factor_product_2x2_collapses_to_square():
    # [(t2+h) + t1] * [(t1+h) + t2] for the 2x2 format is (t1+t2+h)^2
    ring = ("t1", "t2", "h")
    t1, t2, h = (TPoly.variable(ring, v) for v in ring)
    s = t1 + t2 + h
    assert poly_mul(t2 + h + t1, t1 + h + t2) == poly_mul(s, s)
    assert poly_mul(s, s).coefficient((1, 1, 0)) == 2


def test_coefficient_queries():
    ring = ("t1", "t2", "h")
    s = TPoly.variable(ring, "t1") + TPoly.variable(ring, "t2") + TPoly.variable(ring, "h")
    sq = poly_mul(s, s)
    assert sq.coefficient((1, 1, 0)) == 2
    assert TPoly(ring, {(0, 0, 0): 7}).coefficient((0, 0, 0)) == 7
    assert sq.coefficient((2, 2, 2)) == 0
    with pytest.raises(ValueError):
        sq.coefficient((1, 1))


def test_det_identity():
    ring = ("x1", "x2", "y")
    one, zero = TPoly.one(ring), TPoly(ring)
    assert det([[one, zero, zero], [zero, one, zero], [zero, zero, one]]) == one


def test_det_bordered_2x2_example():
    # | 1    -x1   -x1 |
    # | -x2   1    -x2 |  ->  1 - x1*y - x1*x2 - x1*x2*y
    # | -y    0     1  |
    ring = ("x1", "x2", "y")
    one, zero = TPoly.one(ring), TPoly(ring)
    minus = TPoly(ring, {(0, 0, 0): -1})
    x1, x2, y = (poly_mul(minus, TPoly.variable(ring, v)) for v in ring)
    assert str(det([[one, x1, x1], [x2, one, x2], [y, zero, one]])) == "1 - x1*y - x1*x2 - x1*x2*y"


def test_det_rejects_non_square():
    ring = ("x1",)
    one = TPoly.one(ring)
    with pytest.raises(ValueError, match="non-square"):
        det([[one, one]])
    with pytest.raises(ValueError, match="ragged"):
        det([[one, one], [one]])
    with pytest.raises(ValueError, match="different rings"):
        det([[one, one], [one, TPoly.one(("x2",))]])
    with pytest.raises(ValueError, match="at least one row"):
        det([])


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        poly_mul(TPoly.one(("a",)), TPoly.one(("b",)))


def test_ring_laws_on_random_triples():
    rng = random.Random(90210)
    vars = ("x1", "x2", "x3")
    for _ in range(40):
        a, b, c = (_random_poly(rng, vars) for _ in range(3))
        assert a + b == b + a
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, b + c) == poly_mul(a, b) + poly_mul(a, c)


def test_truncation_soundness_within_caps():
    # For any sign pattern, every coefficient the capped product keeps equals
    # the untruncated product's coefficient.
    rng = random.Random(777)
    vars = ("x1", "x2")
    for _ in range(30):
        a, b = _random_poly(rng, vars), _random_poly(rng, vars)
        caps = (rng.randint(0, 3), rng.randint(0, 3))
        full = poly_mul(a, b)
        capped = poly_mul(TPoly(vars, a.terms, caps), b)
        for e1 in range(caps[0] + 1):
            for e2 in range(caps[1] + 1):
                assert capped.coefficient((e1, e2)) == full.coefficient((e1, e2))
        assert all(e[0] <= caps[0] and e[1] <= caps[1] for e in capped.terms)


def test_det_row_scaling():
    rng = random.Random(4242)
    vars = ("x1", "x2")
    for _ in range(10):
        rows = [[_random_poly(rng, vars, max_terms=2, max_exp=1) for _ in range(3)] for _ in range(3)]
        base = det(rows)
        three = TPoly(vars, {(0, 0): 3})
        scaled = [list(r) for r in rows]
        scaled[1] = [poly_mul(three, p) for p in scaled[1]]
        assert det(scaled) == poly_mul(three, base)


def test_det_against_sympy():
    rng = random.Random(1234)
    names = ("x1", "x2", "y")
    syms = sympy.symbols(names)
    for _ in range(6):
        size = rng.choice((2, 3, 4))
        rows = [[_random_poly(rng, names, max_terms=2, max_exp=1, max_coeff=3) for _ in range(size)] for _ in range(size)]
        mine = det(rows)
        sym_rows = [
            [
                sum(c * sympy.prod([s**e for s, e in zip(syms, exps)]) for exps, c in p.terms.items())
                for p in row
            ]
            for row in rows
        ]
        expected = sympy.expand(sympy.Matrix(sym_rows).det())
        got = sum(c * sympy.prod([s**e for s, e in zip(syms, exps)]) for exps, c in mine.terms.items())
        assert sympy.expand(got - expected) == 0


def test_text_serialization_is_deterministic():
    ring = ("x1", "x2", "y")
    p = TPoly(ring, {(0, 0, 0): -3, (2, 0, 1): 5, (0, 1, 0): -1})
    assert str(p) == "-3 - x2 + 5*x1^2*y"
    assert repr(p) == "TPoly('-3 - x2 + 5*x1^2*y')"
    assert str(TPoly(ring)) == "0"
    assert str(p) == str(TPoly(ring, dict(reversed(list(p.terms.items())))))


def test_power_and_partial_and_evaluate():
    ring = ("x1", "x2")
    x1, x2 = TPoly.variable(ring, "x1"), TPoly.variable(ring, "x2")
    s = x1 + x2
    square = poly_mul(s, s)
    p = poly_mul(square, s)
    assert p.coefficient((2, 1)) == 3
    dp = partial(p, "x1")
    assert dp == poly_mul(TPoly(ring, {(0, 0): 3}), square)
    assert evaluate(p, {"x1": 2, "x2": -1}) == 1
    assert evaluate(p, {"x1": Fraction(1, 2), "x2": Fraction(1, 2)}) == 1


def test_constructor_invariants():
    with pytest.raises(ValueError):
        TPoly(("x", "x"))
    with pytest.raises(ValueError):
        TPoly(("x",), {(-1,): 1})
    with pytest.raises(ValueError):
        TPoly(("x",), {(1, 2): 1})
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        TPoly.variable(("x",), "y")
    with pytest.raises(ValueError, match="caps length does not match variable count"):
        TPoly(("x", "y"), caps=(2,))
    with pytest.raises(ValueError, match="caps must be nonnegative"):
        TPoly(("x",), caps=(-1,))
    # a non-TPoly is left to the other operand, so a polynomial never equals a number
    assert TPoly.one(("x",)).__eq__(1) is NotImplemented and TPoly.one(("x",)) != 1
    # zero coefficients and over-cap monomials are dropped, not stored
    p = TPoly(("x",), {(0,): 0, (5,): 3, (1,): 2}, caps=(2,))
    assert p.terms == {(1,): 2}


def _pairwise(a, b):
    """The capped product by its definition: every pair, every cap, zero sums dropped."""
    caps = [c for c in (a.caps, b.caps) if c is not None]
    caps = tuple(map(min, *caps)) if len(caps) == 2 else (caps[0] if caps else None)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if caps is None or all(x <= c for x, c in zip(e, caps)):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}, caps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_poly_mul_matches_pairwise_product_property(data):
    # Operands of 0 to 16 terms, empty and one-term ones included; caps
    # absent, equal or different; terms of one operand beyond the merged caps;
    # and sums that cancel.
    k = data.draw(st.integers(1, 5), label="k")
    ring = tuple(f"x{i + 1}" for i in range(k))
    top = (4, 4, 2, 1, 1)[k - 1]  # dense enough for sums to collide and cancel
    exps = st.tuples(*[st.integers(0, top)] * k)
    coeffs = st.sampled_from((-1, 1, -1, 1, -2, 3 * 10**30))
    sizes = [data.draw(st.integers(0, 16), label=f"size {name}") for name in "ab"]
    # a's own caps keep all its terms; b's may cut them.
    caps_a = st.tuples(*[st.integers(top, 6)] * k)
    caps_b = st.tuples(*[st.integers(0, 6)] * k)
    mode = data.draw(st.sampled_from(("none", "a", "b", "equal", "different")), label="caps")
    ca = data.draw(caps_a) if mode in ("a", "equal", "different") else None
    cb = ca if mode == "equal" else data.draw(caps_b) if mode in ("b", "different") else None
    a, b = (
        TPoly(ring, data.draw(st.dictionaries(exps, coeffs, min_size=min(size, (top + 1) ** k), max_size=size)), c)
        for size, c in zip(sizes, (ca, cb))
    )
    for x, y in ((a, b), (b, a)):
        terms, merged = _pairwise(x, y)
        got = poly_mul(x, y)
        assert got.terms == terms and got.caps == merged and got.vars == ring
        assert 0 not in got.terms.values()


def test_poly_mul_column_path_cases():
    ring = ("x", "y", "z")
    box = {(i, j, 0): 1 for i in range(4) for j in range(4)}
    diff = {(1, 0, 0): 1, (0, 1, 0): -1}
    for caps_a, caps_b in ((None, None), ((3, 3, 1), None), ((4, 3, 0), (4, 3, 0)), ((5, 5, 5), (2, 4, 1))):
        a, b = TPoly(ring, box, caps_a), TPoly(ring, diff, caps_b)
        assert len(a.terms) == len(box)
        # (x - y) times the box: the inner x^i y^j cancel to zero.
        terms, merged = _pairwise(a, b)
        assert poly_mul(a, b).terms == terms and poly_mul(b, a).terms == terms
        assert poly_mul(a, b).caps == merged
    rim = {(4, j, 0): 1 for j in range(4)} | {(i, 0, 0): 1 for i in range(1, 4)}
    rim |= {(0, j, 0): -1 for j in range(1, 5)} | {(i, 4, 0): -1 for i in range(1, 4)}
    assert poly_mul(TPoly(ring, box), TPoly(ring, diff)).terms == rim
    # The larger operand's own caps exceed the merged ones: terms past them go, unmoved columns included.
    wide = TPoly(ring, box, (3, 3, 0))
    narrow = TPoly(ring, {(0, 0, 0): 1}, (1, 3, 0))
    assert poly_mul(wide, narrow).terms == {e: 1 for e in box if e[0] <= 1}
    # A term past a cap everywhere contributes nothing; an empty operand gives zero.
    assert poly_mul(wide, TPoly(ring, {(0, 0, 5): 2})).terms == {}
    assert poly_mul(wide, TPoly(ring)).terms == {}
    # One term by one term, and a ring without variables, which has no columns to shift.
    assert poly_mul(TPoly(ring, {(1, 0, 2): 3}), TPoly(ring, {(0, 4, 1): -2})).terms == {(1, 4, 3): -6}
    assert poly_mul(narrow, TPoly(ring, {(1, 0, 0): 5})).terms == {(1, 0, 0): 5}
    assert poly_mul(narrow, TPoly(ring, {(2, 0, 0): 5})).terms == {}
    with pytest.raises(ValueError, match="at least one variable"):
        poly_mul(TPoly((), {(): 2}), TPoly((), {(): 3}))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_add_matches_validating_constructor_property(data):
    # TPoly.__add__ filters every sum by the merged caps; when those equal both
    # operands' own, every term stays.  Against the constructor, which checks
    # every term: the five cap modes of the poly_mul property test, terms of
    # one operand beyond the other's caps, and sums that cancel.
    k = data.draw(st.integers(1, 4), label="k")
    ring = tuple(f"x{i + 1}" for i in range(k))
    exps = st.tuples(*[st.integers(0, 3)] * k)
    coeffs = st.sampled_from((-1, 1, 2, -3 * 10**30))
    caps = st.tuples(*[st.integers(0, 3)] * k)
    mode = data.draw(st.sampled_from(("none", "a", "b", "equal", "different")), label="caps")
    ca = data.draw(caps) if mode in ("a", "equal", "different") else None
    cb = ca if mode == "equal" else data.draw(caps) if mode in ("b", "different") else None
    a = TPoly(ring, data.draw(st.dictionaries(exps, coeffs, max_size=12)), ca)
    b_terms = data.draw(st.dictionaries(exps, coeffs, max_size=12))
    # Some of a's terms cancel exactly in the sum.
    for e in data.draw(st.lists(st.sampled_from(sorted(a.terms)), max_size=4) if a.terms else st.just([])):
        b_terms[e] = -a.terms[e]
    b = TPoly(ring, b_terms, cb)
    merged = tuple(map(min, ca, cb)) if ca and cb else ca or cb
    for x, y in ((a, b), (b, a)):
        summed = {e: x.terms.get(e, 0) + y.terms.get(e, 0) for e in x.terms | y.terms}
        got = x + y
        assert got.terms == TPoly(ring, summed, merged).terms
        assert got.caps == merged and got.vars == ring
        assert 0 not in got.terms.values()


def test_tpoly_keeps_only_the_arithmetic_the_package_calls(monkeypatch, capsys):
    # Products go through poly_mul's one path, and only det adds; the
    # forwarding operators and the root exports of the engine stay out.
    for name in ("zero", "__neg__", "__sub__", "__mul__", "__rmul__", "scaled"):
        assert not hasattr(TPoly, name), name
    assert not [name for name in vars(polycore) if name.isupper()]  # no tuned cutoff picks a product path
    assert not {"poly_mul", "det", "ExponentVec"} & set(kalmandeg.__all__)
    assert not any(hasattr(kalmandeg, name) for name in ("poly_mul", "det", "ExponentVec"))
    # The extraction engine is poly_mul's one caller in the package (__main__ runs the CLI when imported).
    modules = [importlib.import_module(f"kalmandeg.{info.name}") for info in pkgutil.iter_modules(kalmandeg.__path__)
               if info.name != "__main__"]
    binders = {mod.__name__ for mod in modules if any(v is poly_mul for v in vars(mod).values())}
    assert binders <= {"kalmandeg.polycore", "kalmandeg.degrees"}
    # No package path adds two polynomials: extraction, the comparison and every golden CLI call run without +.
    from kalmandeg import cli
    from kalmandeg.asympt import compare_exact_asymptotic
    from kalmandeg.degrees import CodimVec, TensorFormat, extract_degree, kalman_degree
    from test_cli import GOLDEN

    calls = [
        lambda: extract_degree(TensorFormat((4, 4), (1, 1)), CodimVec((2, 1))),
        lambda: extract_degree(TensorFormat((8, 8, 8, 8), (1, 1, 1, 1)), CodimVec((1, 0, 0, 0))),
        lambda: extract_degree(TensorFormat((3, 1, 5), (2, 4, 3)), CodimVec((1, 0, 2))),
        lambda: kalman_degree(TensorFormat((4, 4), (1, 1)), CodimVec((2, 1)), (3, 2)),
        lambda: kalman_degree(TensorFormat((6,), (3,)), CodimVec((2,)), (5,)),
        lambda: compare_exact_asymptotic(3, 1, 0, [4, 5]),
    ]
    expected = [call() for call in calls]

    def refused(self, other):
        raise AssertionError("TPoly.__add__ called")

    monkeypatch.setattr(TPoly, "__add__", refused)
    with pytest.raises(AssertionError, match="__add__ called"):
        TPoly.one(("x",)) + TPoly.one(("x",))
    assert [call() for call in calls] == expected
    assert expected[:2] == [20, 6660147853056]
    for argv, out in GOLDEN:
        assert cli.main(list(argv)) == 0, argv
        assert capsys.readouterr().out == out, argv
