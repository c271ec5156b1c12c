"""Degree factors of generalized Kalman varieties of partially symmetric tensors.

A partially symmetric tensor space is fixed by k dimensions n_1..n_k and k
symmetrization weights omega_1..omega_k.  Constraining the i-th entry of a
singular vector k-tuple to a subvariety of codimension delta_i cuts out a
variety whose degree is prod_i deg(Z_i) times a combinatorial factor d.  That
factor is the coefficient of

    h^delta * prod_i t_i^(n_i - delta_i - 1),      delta = sum_i delta_i,

in the polynomial

    prod_i [ (that_i + h)^(n_i) - t_i^(n_i) ] / [ (that_i + h) - t_i ],
    that_i = (sum_j omega_j t_j) - t_i.

Each quotient is the geometric sum sum_{j<n_i} (that_i + h)^(n_i-1-j) t_i^j.
The first k // 2 factors make a half P and the rest a half Q, each taken in
by Horner's rule on the running half, so every product is by the k + 1 terms
of that_i + h (a power times t_i is a shift); d is the dot product
sum_e P[e] * Q[caps - e], with caps the target exponents, and the full k-fold
product is never formed.
Extraction is capped integer polynomial arithmetic without division.
Exponents only add under multiplication, hence truncating at the target
exponents from the start, and after every Horner step, is exact.  A work
estimate, taken before any polynomial is built, refuses what would run long.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import prod
from operator import sub

from . import genfun
from .genfun import InputError, _check_omega, _num
from .polycore import TPoly, poly_mul


class TensorFormat(namedtuple("TensorFormat", "n omega")):
    """The shape (n_1..n_k; omega_1..omega_k) of a partially symmetric tensor space."""

    __slots__ = ()

    def __new__(cls, n: Sequence[int], omega: Sequence[int]):
        n, omega = tuple(n), tuple(omega)
        if len(n) != len(omega):
            raise InputError("n and omega must have the same length")
        if any(x < 1 for x in n):
            raise InputError("all dimensions n_i must be >= 1")
        return super().__new__(cls, n, _check_omega(omega))

    @property
    def k(self) -> int:
        return len(self.n)


class CodimVec(namedtuple("CodimVec", "delta")):
    """Per-factor codimensions delta_1..delta_k of the constraint varieties."""

    __slots__ = ()

    def __new__(cls, delta: Sequence[int]):
        delta = tuple(delta)
        if len(delta) < 1:
            raise InputError("at least one entry is required")
        if any(d < 0 for d in delta):
            raise InputError("codimensions must be nonnegative")
        return super().__new__(cls, delta)

    @property
    def total(self) -> int:
        return sum(self.delta)


def _check_codim(fmt: TensorFormat, d: CodimVec) -> None:
    if len(d.delta) != fmt.k:
        raise InputError("codimension vector length does not match the number of factors")
    for i, (di, ni) in enumerate(zip(d.delta, fmt.n)):
        if di > ni - 1:
            raise InputError(f"delta_{i + 1} = {_num(di)} exceeds n_{i + 1} - 1 = {_num(ni - 1)}")


def _ring(k: int) -> tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(k)) + ("h",)


def _extraction_work(fmt: TensorFormat, d: CodimVec) -> int:
    """A bound on the term pairs extraction visits, weighted by coefficient size, in word products.

    Every Horner total is homogeneous and each step raises its degree by one,
    so the n_i - 1 steps of factor i multiply totals of distinct degrees.  The
    cap box has sides n_i - delta_i and delta + 1; a degree slice of it meets
    each line along its longest side L at most once, so it holds at most
    slab = prod(sides) / L terms.  Factor i thus visits at most
    (k + 2) slab min(n_i - 1, L) pairs, k + 1 per term of a total (by
    that_i + h) and one per term of a power (shifted by t_i), and the dot
    product of the homogeneous halves at most slab; plus 2 sum(n_i - 1) calls
    (a product and a shift a step).  A coefficient has at most
    sum_i ((n_i - 1) bitlen(sum omega) + bitlen(n_i)) bits, the factors'
    product at all ones, and a pair multiplies it by a weight: one more pair's
    cost per 2^20 products of their bits.  Each pair and call is a series step
    of ``genfun.STEP_WORDS`` word products.  Setting up the k bases of k + 1
    terms over k + 1 variables adds ``_ring_work(k)``.
    """
    _check_codim(fmt, d)
    k = fmt.k
    steps = sum(fmt.n) - k
    bits = steps * sum(fmt.omega).bit_length() + sum(n.bit_length() for n in fmt.n)
    sides = [n - di for n, di in zip(fmt.n, d.delta)] + [d.total + 1]
    longest = max(sides)
    pairs = prod(sides) // longest * ((k + 2) * sum(min(n - 1, longest) for n in fmt.n) + 1)
    return genfun.STEP_WORDS * (pairs * (1 + (bits * max(fmt.omega).bit_length() >> 20)) + 2 * steps) + _ring_work(k)


def _ring_work(k: int) -> int:
    """k^3 / 64 series steps: each of k bases has k + 1 terms whose exponent tuples are k + 1 long."""
    return genfun.STEP_WORDS * (k**3 >> 6)


def _check_extraction_work(cells: Iterable[tuple[TensorFormat, CodimVec]]) -> None:
    """Refuse extractions whose work, summed over the (format, codimension) cells, exceeds the limit."""
    work = 0
    for fmt, d in cells:  # stops at the first cell past the limit
        work += _extraction_work(fmt, d)
        genfun._refuse_over(work, "coefficient extraction", "use smaller n or omega")


def _shift(terms: dict, i: int, cap: int) -> dict:
    """The term map times t_i: exponent i of each term raised by one, dropping the terms already at ``cap``."""
    return {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in terms.items() if e[i] < cap}


def extract_degree(fmt: TensorFormat, d: CodimVec) -> int:
    """The degree factor for the given format and codimension vector.

    The coefficient at the caps (n_i - delta_i - 1 on t_i, total delta on h)
    of the product of the factors, as the dot product of the halves P and Q.
    A half starts from acc = 1; factor i, starting from acc = a, repeats
    acc = acc * (that_i + h) + a * t_i^j for j = 1..n_i-1.  The power a * t_i^j
    is the previous one shifted by t_i, added into the product's fresh map.
    """
    _check_extraction_work([(fmt, d)])
    k = fmt.k
    ring = _ring(k)
    caps = tuple(fmt.n[i] - d.delta[i] - 1 for i in range(k)) + (d.total,)
    weights = fmt.omega + (1,)
    halves = []
    for lo, hi in ((0, k // 2), (k // 2, k)):
        acc = TPoly.one(ring, caps)
        for i in range(lo, hi):
            # Coefficients of t_1..t_k and h in that_i + h, less zeros and the units over a cap of 0.
            linear = {(0,) * j + (1,) + (0,) * (k - j): c for j, w in enumerate(weights) if (c := w - (j == i)) and caps[j]}
            base = TPoly._raw(ring, linear, caps)
            power = acc.terms
            for _ in range(1, fmt.n[i]):
                power = _shift(power, i, caps[i])
                terms = poly_mul(acc, base).terms
                for e, c in power.items():  # every coefficient is positive, so no sum cancels
                    terms[e] = terms.get(e, 0) + c
                acc = TPoly._raw(ring, terms, caps)
        halves.append(acc.terms)
    small, large = sorted(halves, key=len)
    return sum(c * large.get(tuple(map(sub, caps, e)), 0) for e, c in small.items())


def kalman_degree(fmt: TensorFormat, d: CodimVec, deg_z: Sequence[int]) -> int:
    """Degree of the constrained variety: extract_degree times prod_i deg(Z_i).

    The degrees of the constraint varieties are caller-supplied.
    """
    return _deg_z_product(fmt, deg_z) * extract_degree(fmt, d)


def _deg_z_product(fmt: TensorFormat, deg_z: Sequence[int]) -> int:
    """prod_i deg(Z_i), after checking one degree >= 1 per factor."""
    deg_z = tuple(deg_z)
    if len(deg_z) != fmt.k:
        raise InputError("deg_z length does not match the number of factors")
    if any(z < 1 for z in deg_z):
        raise InputError("all deg_z entries must be >= 1")
    return prod(deg_z)


def symmetric_degree(n: int, delta: int, omega: int) -> int:
    """Closed form for a single symmetric factor (k = 1).

    d(n, delta, omega) = sum_{j=0}^{n-delta-1} C(delta+j, j) (omega-1)^j,
    with the convention (omega-1)^0 = 1 even for omega = 1; term j is term j - 1
    times (delta + j) / j, an exact division, and omega - 1.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if omega < 1:
        raise InputError("omega must be >= 1")
    if delta < 0 or delta > n - 1:
        raise InputError(f"delta must lie in [0, {_num(n - 1)}]")
    if omega == 1:
        return 1  # every term past j = 0 is 0
    # With x = omega - 1 and T terms, term j has at most W words: C(delta + j, j) has at most
    # min(n, min(delta, T) bitlen(n)) bits and x^j T ceil(log2 x).  A step multiplies it by
    # delta + j and x, of N and X words, and divides it by j (~8 W): W (N + X + 8) + 64.
    terms, x = n - delta, omega - 1
    words = 1 + (min(n, min(delta, terms) * n.bit_length()) + terms * (x - 1).bit_length()) // 64
    work = terms * (words * (10 + n.bit_length() // 64 + x.bit_length() // 64) + 64)
    genfun._refuse_over(work, "the single-factor closed form", "use smaller n or omega")
    total = term = 1
    for j in range(1, terms):
        term = term * (delta + j) // j * x
        total += term
    return total

