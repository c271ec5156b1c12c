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

Each quotient is the finite geometric sum
sum_{j<n_i} (that_i + h)^(n_i-1-j) * t_i^j, built by Horner's rule: one
capped product by (that_i + h) and one added power of t_i per degree.
The first k // 2 factors and the rest are multiplied as two halves, P and Q,
and d is the dot product sum_e P[e] * Q[caps - e] of their term maps, with
caps the target exponents, so the full k-fold product is never formed.
Everything here is capped integer polynomial arithmetic; no division ever
happens.  Exponents only add under multiplication, hence truncating at the
target exponents from the start, and after every Horner step, is exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import comb, prod
from operator import sub

from .polycore import TPoly, poly_mul


class TensorFormat(namedtuple("TensorFormat", "n omega")):
    """The shape (n_1..n_k; omega_1..omega_k) of a partially symmetric tensor space."""

    __slots__ = ()

    def __new__(cls, n: Sequence[int], omega: Sequence[int]):
        n, omega = tuple(n), tuple(omega)
        if len(n) != len(omega):
            raise ValueError("n and omega must have the same length")
        if len(n) < 1:
            raise ValueError("at least one factor is required")
        if any(x < 1 for x in n):
            raise ValueError("all dimensions n_i must be >= 1")
        if any(w < 1 for w in omega):
            raise ValueError("all weights omega_i must be >= 1")
        return super().__new__(cls, n, omega)

    @property
    def k(self) -> int:
        return len(self.n)


class CodimVec(namedtuple("CodimVec", "delta")):
    """Per-factor codimensions delta_1..delta_k of the constraint varieties."""

    __slots__ = ()

    def __new__(cls, delta: Sequence[int]):
        delta = tuple(delta)
        if len(delta) < 1:
            raise ValueError("at least one entry is required")
        if any(d < 0 for d in delta):
            raise ValueError("codimensions must be nonnegative")
        return super().__new__(cls, delta)

    @property
    def total(self) -> int:
        return sum(self.delta)


def _check_codim(fmt: TensorFormat, d: CodimVec) -> None:
    if len(d.delta) != fmt.k:
        raise ValueError("codimension vector length does not match the number of factors")
    for i, (di, ni) in enumerate(zip(d.delta, fmt.n)):
        if di > ni - 1:
            raise ValueError(f"delta_{i + 1} = {di} exceeds n_{i + 1} - 1 = {ni - 1}")


def _ring(k: int) -> tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(k)) + ("h",)


def _geometric_factor(fmt: TensorFormat, i: int, ring: tuple[str, ...], caps: tuple[int, ...]) -> TPoly:
    """The i-th factor sum_{j<n_i} (that_i + h)^(n_i-1-j) * t_i^j, capped.

    By Horner's rule: total = total * (that_i + h) + t_i^j for j = 1..n_i-1,
    starting from 1.  The constructor drops t_i^j above its cap.
    """
    k = fmt.k
    # Coefficients of t_1..t_k and h in that_i + h; the constructor drops zeros.
    coeffs = [w - (j == i) for j, w in enumerate(fmt.omega)] + [1]
    base = TPoly(ring, {(0,) * j + (1,) + (0,) * (k - j): c for j, c in enumerate(coeffs)}, caps)
    total = TPoly.one(ring, caps)
    for j in range(1, fmt.n[i]):
        total = poly_mul(total, base) + TPoly(ring, {(0,) * i + (j,) + (0,) * (k - i): 1}, caps)
    return total


def extract_degree(fmt: TensorFormat, d: CodimVec) -> int:
    """The degree factor for the given format and codimension vector.

    The coefficient at the caps (n_i - delta_i - 1 on t_i, total delta on h)
    of the product of the geometric-sum factors, read as the dot product
    sum_e P[e] * Q[caps - e] of the capped products P of the first k // 2
    factors and Q of the rest; the full product is never formed.
    """
    _check_codim(fmt, d)
    k = fmt.k
    ring = _ring(k)
    caps = tuple(fmt.n[i] - d.delta[i] - 1 for i in range(k)) + (d.total,)
    halves = []
    for lo, hi in ((0, k // 2), (k // 2, k)):
        acc = _geometric_factor(fmt, lo, ring, caps) if lo < hi else TPoly.one(ring)
        for i in range(lo + 1, hi):
            acc = poly_mul(acc, _geometric_factor(fmt, i, ring, caps))
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
        raise ValueError("deg_z length does not match the number of factors")
    if any(z < 1 for z in deg_z):
        raise ValueError("all deg_z entries must be >= 1")
    return prod(deg_z)


def symmetric_degree(n: int, delta: int, omega: int) -> int:
    """Closed form for a single symmetric factor (k = 1).

    d(n, delta, omega) = sum_{j=0}^{n-delta-1} C(delta+j, j) (omega-1)^j,
    with the convention (omega-1)^0 = 1 even for omega = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if omega < 1:
        raise ValueError("omega must be >= 1")
    if delta < 0 or delta > n - 1:
        raise ValueError(f"delta must lie in [0, {n - 1}]")
    return sum(comb(delta + j, j) * (omega - 1) ** j for j in range(n - delta))


def binary_degree(k: int, d: CodimVec, omega: Sequence[int]) -> int:
    """Degree factor in the all-binary format n = (2,...,2).

    Delegates to extraction on the all-2 format, which is the ground truth;
    see the discrepancy note in the test suite for why no closed form is used.
    """
    if len(d.delta) != k or len(tuple(omega)) != k:
        raise ValueError("k, delta and omega must agree in length")
    if any(di not in (0, 1) for di in d.delta):
        raise ValueError("binary format requires all delta_i in {0, 1}")
    return extract_degree(TensorFormat((2,) * k, tuple(omega)), d)


class StabilizationReport(namedtuple("StabilizationReport", "factor threshold checked_n values stable")):
    """Outcome of probing a degree factor for constancy in one growing dimension."""

    __slots__ = ()

    @property
    def value(self) -> int | None:
        return self.values[0] if self.stable else None


def check_stabilization(fmt: TensorFormat, d: CodimVec, i: int, probes: int) -> StabilizationReport:
    """Probe whether the degree factor is constant as n_i grows.

    With omega_i = 1 the factor becomes independent of n_i once
    n_i - 1 >= sum_{j != i} (n_j - 1) + delta_i; this verifies that
    empirically at n_i, n_i + 1, ..., n_i + probes.  Formats with omega_i > 1
    are rejected: the property genuinely fails there (already for k = 1).
    """
    if not 0 <= i < fmt.k:
        raise ValueError(f"factor index {i} out of range")
    if fmt.omega[i] != 1:
        raise ValueError("stabilization requires omega_i = 1 in the growing factor")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    _check_codim(fmt, d)
    threshold = sum(nj - 1 for j, nj in enumerate(fmt.n) if j != i) + d.delta[i] + 1
    checked = tuple(range(fmt.n[i], fmt.n[i] + probes + 1))
    values = []
    for m in checked:
        n_new = fmt.n[:i] + (m,) + fmt.n[i + 1 :]
        values.append(extract_degree(TensorFormat(n_new, fmt.omega), d))
    return StabilizationReport(
        factor=i,
        threshold=threshold,
        checked_n=checked,
        values=tuple(values),
        stable=len(set(values)) == 1,
    )
