"""Exact sparse multivariate polynomial arithmetic with per-variable degree caps.

Degree extraction and the product side of the MacMahon check reduce to
sums, products and coefficient lookups of polynomials with arbitrary-precision
integer coefficients; the generating function and the critical-point check
read the term maps directly.  A polynomial is a term map from exponent tuples
to nonzero ints over a fixed, ordered tuple of variable names; coefficients
never touch floating point.

Optional per-variable exponent caps truncate arithmetic as it happens: a
monomial over a cap is dropped, so every term lies within its own caps.
Exponents are nonnegative and add in a product, so a monomial within the caps
can only arise from factor monomials that are themselves within the caps; every
coefficient a truncated product keeps therefore equals the corresponding
coefficient of the exact, untruncated product, regardless of signs.

``poly_mul`` has two paths with the same terms.  Small products run the
plain pairwise loop.  From ``COLUMN_CUTOFF`` terms in the larger operand on,
that operand is transposed into exponent columns once, and each term of the
smaller one is applied to whole columns by ``map``/``zip``/``compress``, which
leaves only the dict accumulation per pair in Python.  That pays on
extraction's Horner steps, where the larger operand has hundreds of terms and
the smaller one at most k + 1: about twice as fast on CPython 3.11 (shared
2-core Linux machine).  Below the cutoff the column setup costs more than it
saves.  Timed on the same machine over the benchmark pools' small callers,
the ``hypercubical-compare`` table, ``asympt --compare``, ``degree`` and
MacMahon's small boxes: never taking the column path made the first three
1.1-1.2x, 2.1-2.6x and 2.0x slower, and always taking it made MacMahon's
boxes 1.3-1.7x slower and the others 0.95-1.17x.  Cutoffs from 8 to 32 lie
within noise of each other: in 10 alternating pairs, 8 took 0.87, 0.95, 0.98
and 1.00 of the time 16 took, in that order, and over 10 alternating pairs of
15 s benchmark runs 8 read 1.01x (``extract``) and 1.04x (``cli``) of 16's
median throughput, inside the spread of either's runs, so the cutoff is 8.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import compress
from operator import add, le

# One exponent per ring variable, all >= 0.
ExponentVec = tuple[int, ...]

# Terms in the larger operand from which poly_mul works on exponent columns;
# measured on extraction and MacMahon's small boxes (see the module docstring).
COLUMN_CUTOFF = 8


def _merge_caps(a: tuple[int, ...] | None, b: tuple[int, ...] | None) -> tuple[int, ...] | None:
    if b is None or a == b:
        return a
    return b if a is None else tuple(map(min, a, b))


class TPoly:
    """Sparse multivariate polynomial with exact integer coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely between threads.
    """

    __slots__ = ("vars", "caps", "terms")

    def __init__(
        self,
        vars: Sequence[str],
        terms: Mapping[ExponentVec, int] | None = None,
        caps: Sequence[int] | None = None,
    ):
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names in ring")
        if caps is None:
            self.caps = None
        else:
            self.caps = tuple(caps)
            if len(self.caps) != len(self.vars):
                raise ValueError("caps length does not match variable count")
            if any(c < 0 for c in self.caps):
                raise ValueError("caps must be nonnegative")
        clean: dict[ExponentVec, int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent vector length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if coeff == 0:
                continue
            if self.caps is not None and any(e > c for e, c in zip(exps, self.caps)):
                continue
            clean[exps] = clean.get(exps, 0) + coeff
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[ExponentVec, int], caps: tuple[int, ...] | None) -> TPoly:
        # Internal fast path: caller guarantees all invariants, every term within ``caps`` among them.
        self = object.__new__(cls)
        self.vars = vars
        self.caps = caps
        self.terms = terms
        return self

    @classmethod
    def zero(cls, vars: Sequence[str], caps: Sequence[int] | None = None) -> TPoly:
        return cls(vars, {}, caps)

    @classmethod
    def one(cls, vars: Sequence[str], caps: Sequence[int] | None = None) -> TPoly:
        return cls(vars, {(0,) * len(tuple(vars)): 1}, caps)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str, caps: Sequence[int] | None = None) -> TPoly:
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        return cls(vars, {tuple(int(v == name) for v in vars): 1}, caps)

    # -- queries ----------------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> int:
        """Exact coefficient of the given monomial; 0 if absent."""
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError("exponent vector length does not match variable count")
        return self.terms.get(exps, 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.vars), 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # term maps are dicts; instances are not hashable

    # -- arithmetic -------------------------------------------------------

    def _check_same_ring(self, other: TPoly) -> None:
        if self.vars != other.vars:
            raise ValueError(f"ring mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: TPoly) -> TPoly:
        self._check_same_ring(other)
        caps = _merge_caps(self.caps, other.caps)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        # Each operand's terms lie within its own caps, so only tighter merged caps can drop any.
        if caps is not None and not caps == self.caps == other.caps:
            out = {e: c for e, c in out.items() if all(map(le, e, caps))}
        return TPoly._raw(self.vars, out, caps)

    def __neg__(self) -> TPoly:
        return TPoly._raw(self.vars, {e: -c for e, c in self.terms.items()}, self.caps)

    def __sub__(self, other: TPoly) -> TPoly:
        return self + (-other)

    def __mul__(self, other: TPoly | int) -> TPoly:
        if isinstance(other, int):
            return self.scaled(other)
        return poly_mul(self, other)

    def __rmul__(self, other: int) -> TPoly:
        return self.scaled(other)

    def scaled(self, factor: int) -> TPoly:
        if factor == 0:
            return TPoly._raw(self.vars, {}, self.caps)
        return TPoly._raw(self.vars, {e: factor * c for e, c in self.terms.items()}, self.caps)

    # -- serialization ----------------------------------------------------

    def __str__(self) -> str:
        """Deterministic text form: monomials sorted lexicographically by exponents."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if factors:
                body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"TPoly({str(self)!r})"


def poly_mul(a: TPoly, b: TPoly) -> TPoly:
    """Exact product under the operands' caps (componentwise minimum).

    Every monomial exceeding a cap in any variable is dropped; all
    coefficients within the caps are exact.  Uncapped operands give the full
    product.

    Below ``COLUMN_CUTOFF`` terms in the larger operand this is the pairwise
    loop.  From there on the larger operand's exponent tuples are transposed
    into columns once, and each term of the smaller operand shifts the
    columns it moves, scales the coefficients (unless it is 1) and masks
    only the columns whose largest entry, shifted, passes its cap; only the
    accumulation into the output runs per pair in Python.  The cutoff exists
    because that setup costs more than it saves on few-term products.  Only
    the insertion order of the result's terms depends on the path.
    """
    a._check_same_ring(b)
    caps = _merge_caps(a.caps, b.caps)
    small, large = sorted((a.terms, b.terms), key=len)
    out: dict[ExponentVec, int] = {}
    if len(large) < COLUMN_CUTOFF:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(add, e1, e2))
                if caps is None or all(map(le, e, caps)):
                    out[e] = out.get(e, 0) + c1 * c2
        return TPoly._raw(a.vars, {e: c for e, c in out.items() if c}, caps)
    coeffs = list(large.values())
    cols = list(zip(*large))
    tops = list(map(max, cols))
    get = out.get
    for e1, c1 in small.items():
        pairs = zip(
            zip(*[map(s.__add__, col) if s else col for s, col in zip(e1, cols)]),
            map(c1.__mul__, coeffs) if c1 != 1 else coeffs,
        )
        if caps is not None:
            # A column can pass its cap only if its largest entry, shifted, does.
            masks = [map((cap - s).__ge__, col) for s, col, cap, top in zip(e1, cols, caps, tops) if top + s > cap]
            if len(masks) == 1:
                pairs = compress(pairs, masks[0])
            elif masks:
                pairs = compress(pairs, map(all, zip(*masks)))
        if out:
            for e, c in pairs:
                out[e] = get(e, 0) + c
        else:  # a shift is one-to-one, so the first term's products are distinct monomials
            out.update(pairs)
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return TPoly._raw(a.vars, out, caps)


def det(rows: Sequence[Sequence[TPoly]]) -> TPoly:
    """Exact determinant of a square matrix given as rows of polynomials over one ring.

    Cofactor expansion, memoized on active column sets; memoization brings
    the cost down from n! to 2^n subproblems.  No package path calls it: the
    package takes det(I - TA) by integer principal minors, and the tests use
    this as the independent route to the same polynomial.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    n = len(rows)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    if len(rows[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    vars = rows[0][0].vars
    if any(p.vars != vars for r in rows for p in r):
        raise ValueError("matrix entries live in different rings")
    memo: dict[int, TPoly] = {}

    def expand(mask: int) -> TPoly:
        if mask == 0:
            return TPoly.one(vars)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = n - bin(mask).count("1")
        acc = TPoly.zero(vars)
        sign = 1
        col = 0
        rest = mask
        while rest:
            if rest & 1:
                entry = rows[row][col]
                if entry:
                    prod = poly_mul(entry, expand(mask ^ (1 << col)))
                    acc = acc + prod if sign > 0 else acc - prod
                sign = -sign
            rest >>= 1
            col += 1
        memo[mask] = acc
        return acc

    return expand((1 << n) - 1)
