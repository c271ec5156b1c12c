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
and last row (1, 0..0), with T = diag(x_1..x_k, y).  That determinant is
taken from the entries of A alone, by principal minors:

    det(I - T A) = sum_S (-1)^|S| t^S det(A[S, S]),

one integer minor per subset S of the k + 1 variables.  All of them come
from one fraction-free elimination run breadth-first (Sylvester's identity),
which updates each block entry as one list over every subset decided so far.
A is first shifted by a multiple c of I so that every pivot is nonzero, and
one inverse pass over the 2^(k+1) minors removes the shift again.  Both
constructions (the subset expansion and the determinant) are implemented
and must agree exactly; series coefficients must agree with direct
extraction.

Series expansion is exact power-series division.  For a denominator D with
constant term 1, the coefficients of N/D within a cap box satisfy

    s_e = N_e - sum_{d != 0, d <= e} D_d * s_(e - d),

so one pass over the box in lexicographic order yields every coefficient
from ones already computed, in integer arithmetic only.  The pass runs in
scatter form: once s_e is final, it adds -D_d s_e to cell e + d for each
tail term d, so a zero cell, which is most of the box when the weights are
1, costs one truth test.  The cells sit on a flat list indexed in mixed
radix, with zero pads after each axis, so e + d is one int addition; a byte
mask over the list marks the box's cells, and their indices are read off it.
The degree-factor series is N/H with N = x_1...x_k, which needs only H's at
most 2^(k+1) terms.  Since N is one monomial, the coefficient at n is that of
1/H at n - 1, and 0 when some n_i is 0: the division expands 1/H on the box
of caps m_i - 1, prod m_i cells in place of prod (m_i + 1), and dividing by
each 1 - x_i is a running sum along axis i there.

The MacMahon check compares 1/det(I - TA) within a cap box against products
of the linear forms sum_l a_jl z_l.  Its product side uses the division's
layout, not its values: each product maps flat indices to coefficients, and
multiplying by form j adds c * a_jl from cell i to cell i + stride_l, so a
term past its cap falls on a pad cell and goes no further.  Every product it
multiplies is homogeneous, so each step walks the live terms of one degree
slice of the box, which meets each line along the longest side at most once;
2 x 2 boxes pass up to cap 50.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import compress, product as iter_product
from math import log2, prod
from operator import floordiv, mul, sub

from .polycore import ExponentVec, TPoly

# The one work limit, in products of 64-bit words, the unit of big-int arithmetic and
# of decimal output (CPython writes an int in decimal in time quadratic in its words).
# Every budget estimates its work in it before the work starts, and only ``_refuse_over``
# compares the two.  Each keeps the slowest accepted call, CLI output included, to about 2 s.
MAX_WORD_PRODUCTS = 10**9
# A series step (a padded cell times a denominator term or coefficient word, or a MacMahon
# or extraction term pair) takes about 1 us; at 2500 word products the limit allows 400,000.
STEP_WORDS = 2500
# A subset takes 0.3-4 us; 30517 * 2^15 <= 10^9 < 30517 * 2^16, so 2^15 of them are allowed.
SUBSET_WORDS = 30_517


class InputError(ValueError):
    """An input refused: invalid, or over a work budget.  The CLI exits 2 on it and only on it."""


def _refuse_over(work: int, what: str, hint: str, *numbers: int) -> None:
    """Refuse ``what`` if its estimated ``work`` exceeds the limit; only then fill its fields with ``numbers``."""
    if work > MAX_WORD_PRODUCTS:
        what = what.format(*map(_num, numbers))
        raise InputError(
            f"{what} takes about {_num(work)} products of 64-bit words, over the limit of {MAX_WORD_PRODUCTS}; {hint}"
        )


def _num(n: int) -> str:
    """n for a message: in decimal up to 14,000 bits (4215 digits), else as ~2^x to one decimal.

    Outside the CLI, which lifts it, the interpreter refuses to write an int
    of over 4300 digits in decimal; a message that tried would raise that
    ValueError in place of the InputError it was meant for.
    """
    if n.bit_length() <= 14_000:
        return str(n)
    return f"{'-' if n < 0 else ''}~2^{log2(abs(n)):.1f}"


def _xy_ring(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k)) + ("y",)


def _check_omega(omega: Sequence[int]) -> tuple[int, ...]:
    omega = tuple(omega)
    if len(omega) < 1:
        raise InputError("at least one factor is required")
    if any(w < 1 for w in omega):
        raise InputError("all weights omega_i must be >= 1")
    return omega


def build_H(omega: Sequence[int]) -> TPoly:
    """The generating polynomial H in the ring (x_1..x_k, y); constant term 1.

    H is multilinear, so its terms are read off the subset expansion of the
    closed form: x^S has coefficient 1 - sum_{j in S} omega_j, and y x^S has
    coefficient -1 when S contains 1.
    """
    omega = _check_omega(omega)
    _check_subsets(len(omega) + 1)
    sums = [1, 1 - omega[-1]]  # 1 - sum_{j in S} omega_j in product order, by subset-sum doubling
    for w in omega[-2::-1]:
        sums += [x - w for x in sums]
    terms: dict[ExponentVec, int] = {}
    for s, c in zip(iter_product((0, 1), repeat=len(omega)), sums):
        if c:
            terms[s + (0,)] = c
        if s[0]:
            terms[s + (1,)] = -1
    return TPoly._raw(_xy_ring(len(omega)), terms, None)


def _bordered_a(omega: tuple[int, ...]) -> list[list[int]]:
    """The bordered integer matrix A described above."""
    k = len(omega)
    a = [[w - (i == j) for j, w in enumerate(omega)] + [1] for i in range(k)]
    a.append([1] + [0] * k)
    return a


def _check_subsets(n: int) -> None:
    # Past 2^20 variables, far beyond the limit, the charge is 2^20's: 2^n itself is never built.
    what = "visiting the 2^{0} subsets of {0} variables"
    _refuse_over(SUBSET_WORDS << min(n, 1 << 20), what, "use fewer variables", n)


def _principal_minors(a: Sequence[Sequence[int]]) -> list[int]:
    """det(A[S, S]) for every subset S of A's indices, in ``product((0, 1), ...)`` order.

    B = A + cI with c = max_i sum_j |a_ij| + 1 is strictly diagonally dominant,
    so every principal minor of B is nonzero.  Once the indices after j are
    decided, ``dets`` lists det(B[T]) and block entry (i, l), i, l <= j, lists
    det(B[T + i, T + l]) over the subsets T of those indices.  Deciding j
    appends the lists for T + j by Sylvester's identity: (p x - r y) // det(B[T])
    elementwise, with pivot p = det(B[T + j]), r in column j and y in row j.
    j leads the new half, so the lists stay in product order.  Then
    det(A[S]) = sum over R within S of (-c)^|S - R| det(B[R]), one pass per index.
    """
    m = len(a)
    c = max(sum(map(abs, row)) for row in a) + 1
    # Deciding the (t+1)-th index updates (m - t - 1)^2 lists of 2^t entries, minors of B of order up
    # to t + 1 of W = 1 + (t + 1) bitlen(c) // 64 words each.  Two products and an exact division,
    # which CPython takes digit by digit, cost about 5 W^2 word products per entry.
    work = sum(5 * (m - t - 1) ** 2 * (1 + (t + 1) * c.bit_length() // 64) ** 2 << t for t in range(m))
    what = "taking the principal minors of a {0} x {0} matrix with entries of up to {1} bits"
    _refuse_over(work, what, "use smaller entries or weights", m, c.bit_length())
    block = [[[x + c * (i == l)] for l, x in enumerate(row)] for i, row in enumerate(a)]
    dets = [1]
    while block:  # decide the last undecided index j: drop its row and column
        pivot_row = block.pop()
        p = pivot_row.pop()
        for row in block:
            r = row.pop()
            for x, y in zip(row, pivot_row):  # p is as long as x was, so the map stops there
                x += map(floordiv, map(sub, map(mul, p, x), map(mul, r, y)), dets)
        dets += p
    half = len(dets) // 2
    for _ in range(m):  # fold the -c of the leading index in, then rotate the last index to the front
        dets[half:] = [x - c * y for x, y in zip(dets[half:], dets[:half])]
        dets = dets[::2] + dets[1::2]
    return dets


def _det_identity_minus_ta(a: Sequence[Sequence[int]]) -> dict[ExponentVec, int]:
    """The terms of det(I - T A) for an integer matrix A, T = diag(t), by principal minors.

    det(I - T A) = sum over subsets S of t^S det(-A[S, S]), so the monomial
    t^S carries one principal minor of -A.  They all come from one
    breadth-first elimination of -A shifted to be diagonally dominant, then a
    pass that undoes the shift (``_principal_minors``), in the order of the
    exponent vectors.
    """
    _check_subsets(len(a))
    minors = _principal_minors([[-x for x in row] for row in a])
    return dict(compress(zip(iter_product((0, 1), repeat=len(a)), minors), minors))


def build_H_via_determinant(omega: Sequence[int]) -> TPoly:
    """H computed as det(I - TA) from the entries of A; must equal build_H exactly."""
    omega = _check_omega(omega)
    return TPoly._raw(_xy_ring(len(omega)), _det_identity_minus_ta(_bordered_a(omega)), None)


class RationalSeries(namedtuple("RationalSeries", "numerator denominator caps")):
    """numerator/denominator pair expandable as an exact power series within caps.

    The denominator must have constant term exactly 1, so the series
    coefficients follow from the division recurrence in the module docstring.
    """

    __slots__ = ()

    def __new__(cls, numerator: TPoly, denominator: TPoly, caps: Sequence[int]):
        caps = tuple(caps)
        if numerator.vars != denominator.vars:
            raise ValueError("numerator and denominator live in different rings")
        if len(caps) != len(numerator.vars):
            raise ValueError("caps length does not match variable count")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be nonnegative")
        if denominator.constant_term != 1:
            raise ValueError("denominator must have constant term 1")
        return super().__new__(cls, numerator, denominator, caps)

    def expand(self) -> dict[ExponentVec, int]:
        """All nonzero series coefficients with exponents within the caps.

        Keys appear in lexicographic order of their exponent vectors.
        """
        coeffs, _, cells, _ = _divide(self.numerator.terms, self.denominator.terms, self.caps)
        return {e: coeffs[i] for e, i in zip(_box(self.caps), cells) if coeffs[i]}


def _box(caps: tuple[int, ...]):
    """Every exponent vector within ``caps``, in lexicographic order."""
    return iter_product(*(range(m + 1) for m in caps))


def _divide(
    numerator: dict[ExponentVec, int], denominator: dict[ExponentVec, int], caps: tuple[int, ...]
) -> tuple[list[int], bytes, list[int], list[int]]:
    """The series of N/D within ``caps`` on a padded flat array; D has constant term 1.

    Returns the array, a mask over it (byte 1 on each cell of the cap box, 0
    on each pad cell), the flat index of each box cell in lexicographic
    order, read off the mask, and the stride of each axis.  The division runs
    in scatter form: once cell e is final, a nonzero s_e adds -D_d s_e to cell
    e + d for every tail term d, so a zero cell costs one truth test.  Axis i
    has a trailing pad of zeros as wide as the largest exponent on it among
    D's other terms, and at least 1.  So e + d is one int addition that stays
    on its own axes, landing on a pad cell whenever it leaves the box, and so
    does the cell after e on any axis where e is at its cap.
    """
    tail = [(d, c) for d, c in denominator.items() if any(d) and all(x <= m for x, m in zip(d, caps))]
    pads = [max([1] + [d[i] for d, _ in tail]) for i in range(len(caps))]
    strides = []
    size = 1
    for p, m in zip(reversed(pads), reversed(caps)):  # the last axis varies fastest
        strides.append(size)
        size *= p + m + 1
    strides.reverse()
    # Each cell costs one step per denominator term and one per 64 bits of its
    # coefficient, which has at most about the numerator's bits plus, per unit
    # of degree, the bits of the sum of the tail's absolute coefficients.  Writing
    # a box cell in decimal is charged the largest coefficient's words squared.
    growth = (max(1, sum(abs(c) for _, c in tail)) - 1).bit_length()
    bits = max([0] + [abs(c).bit_length() for c in numerator.values()]) + sum(caps) * growth
    terms, words, box = len(tail) + 1, bits // 64, prod(m + 1 for m in caps)
    what = (
        "expanding a series box of {} cells with padding by {} denominator terms within the caps"
        " and {} words of coefficients of up to about {} bits, then writing its {} cells in decimal"
    )
    work = STEP_WORDS * size * (terms + words) + box * words * words
    _refuse_over(work, what, "lower the caps", size, terms, words, bits, box)
    inbox = b"\x01"
    for p, m in zip(reversed(pads), reversed(caps)):  # each axis repeats the block after it, then pads
        inbox = inbox * (m + 1) + bytes(len(inbox) * p)
    cells = list(compress(range(size), inbox))
    coeffs = [0] * size
    for e, c in numerator.items():
        if all(x <= m for x, m in zip(e, caps)):
            coeffs[sum(map(mul, e, strides))] = c
    offsets = [(sum(map(mul, d, strides)), -c) for d, c in tail]
    for i in cells:
        s = coeffs[i]
        if s:
            for o, c in offsets:
                coeffs[i + o] += c * s
    return coeffs, inbox, cells, strides


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
        raise InputError("caps length does not match the number of factors")
    if any(c < 0 for c in caps) or y_cap < 0:
        raise InputError("caps must be nonnegative")
    h = build_H(omega).terms
    if not all(caps):  # x_1...x_k divides the series, so it has no term with some n_i = 0
        return {}
    # Cell e of 1/H within the caps m_i - 1 holds the coefficient of x^(e + 1) in N/H.
    coeffs, _, cells, strides = _divide({(0,) * (k + 1): 1}, h, tuple(m - 1 for m in caps) + (y_cap,))
    for stride in strides[:k]:  # dividing by 1 - x_i is a running sum along axis i
        for i in cells:
            coeffs[i + stride] += coeffs[i]
    keys = iter_product(iter_product(*(range(1, m + 1) for m in caps)), range(y_cap + 1))
    return {key: coeffs[i] for key, i in zip(keys, cells) if coeffs[i]}


def macmahon_check(a: Sequence[Sequence[int]], cap: Sequence[int] | int) -> bool:
    """Coefficient identity between products of linear forms and 1/det(I - TA).

    For every exponent vector p within ``cap``, compares the coefficient of
    z^p in prod_i (a_i1 z_1 + ... + a_im z_m)^(p_i) against the series
    coefficient of w^p in 1/det(I_m - TA), T = diag(w).  Both sides are exact;
    returns True iff they agree everywhere.
    """
    m = len(a)
    if m == 0 or any(len(row) != m for row in a):
        raise InputError("matrix must be square and nonempty")
    caps = (cap,) * m if isinstance(cap, int) else tuple(cap)
    if len(caps) != m:
        raise InputError("cap length does not match matrix size")
    if any(c < 0 for c in caps):  # an empty box would compare nothing
        raise InputError("caps must be nonnegative")
    det_terms = _det_identity_minus_ta(a)
    # Per p != 0: <= volume // (max(caps) + 1) live terms at 1 + m steps each.
    volume = prod(c + 1 for c in caps)
    pairs = (1 + m) * volume * (volume // (max(caps) + 1))
    _refuse_over(STEP_WORDS * pairs, "visiting the MacMahon product side's up to {} term pairs", "lower the cap", pairs)
    coeffs, inbox, cells, strides = _divide({(0,) * m: 1}, det_terms, caps)

    # prods[i] = prod_{l < i} (form l)^(p_l) for the current p, as a map from
    # the division's flat indices to coefficients (see the module docstring).
    # The next p in lexicographic order raises its last nonzero p_j by one and
    # zeroes the rest, so one product by form j updates prods[j + 1:].  A term
    # past its cap sits on a pad cell and goes no further, so each map holds
    # the live terms of one degree slice and a few pad terms.
    forms = [[(strides[l], x) for l, x in enumerate(row) if x] for row in a]
    prods = [{0: 1}] * (m + 1)
    for p, cell in zip(_box(caps), cells):
        if any(p):
            j = max(i for i, x in enumerate(p) if x)
            out: dict[int, int] = {}
            for i, c in prods[j + 1].items():
                if inbox[i]:
                    for o, x in forms[j]:
                        out[i + o] = out.get(i + o, 0) + c * x
            prods[j + 1 :] = [out] * (m - j)
        if prods[m].get(cell, 0) != coeffs[cell]:
            return False
    return True
