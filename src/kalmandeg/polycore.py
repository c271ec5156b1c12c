"""Exact sparse multivariate polynomials with per-variable degree caps.

Degree extraction reduces to sums, products and coefficient lookups of
polynomials with arbitrary-precision integer coefficients; the series
expansion and ``genfun --show-h`` read H's term maps directly.  A
polynomial is a term map from exponent tuples to nonzero ints over a fixed,
ordered tuple of variable names; coefficients never touch floating point.

``TPoly`` offers a validating constructor, ``one`` and ``variable``,
coefficient queries, equality, a deterministic text form and ``+``, which only
``det`` calls.  Products go through ``poly_mul``'s one path, on exponent
columns; its one caller in the package is extraction, whose products by a
single variable are shifts in ``degrees``.  ``det`` is the tests' cofactor
route to a determinant.

Optional per-variable exponent caps truncate arithmetic as it happens: a
monomial over a cap is dropped, so every term lies within its own caps.
Exponents are nonnegative and add in a product, so a monomial within the caps
can only arise from factor monomials that are themselves within the caps; every
coefficient a truncated product keeps therefore equals the corresponding
coefficient of the exact, untruncated product, regardless of signs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import compress, repeat
from operator import le, mul

# One exponent per ring variable, all >= 0.
ExponentVec = tuple[int, ...]


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
        if caps is not None:
            out = {e: c for e, c in out.items() if all(map(le, e, caps))}
        return TPoly._raw(self.vars, out, caps)

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

    The larger operand's exponent tuples are transposed into columns once
    (so the ring needs a variable), and each term of the smaller operand
    shifts the columns it moves, scales the coefficients (unless it is 1) and
    masks only the columns whose largest entry, shifted, passes its cap; only
    the accumulation into the output runs per pair in Python.
    """
    a._check_same_ring(b)
    if not a.vars:
        raise ValueError("poly_mul needs a ring with at least one variable")
    caps = _merge_caps(a.caps, b.caps)
    small, large = sorted((a.terms, b.terms), key=len)
    out: dict[ExponentVec, int] = {}
    coeffs = list(large.values())
    cols = list(zip(*large))
    tops = list(map(max, cols))
    get = out.get
    for e1, c1 in small.items():
        pairs = zip(
            zip(*[map(s.__add__, col) if s else col for s, col in zip(e1, cols)]),
            map(mul, repeat(c1), coeffs) if c1 != 1 else coeffs,
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
        acc = TPoly._raw(vars, {}, None)
        sign = 1
        col = 0
        rest = mask
        while rest:
            if rest & 1:
                entry = rows[row][col]
                if entry:
                    prod = poly_mul(entry, expand(mask ^ (1 << col)))
                    if sign < 0:
                        prod = TPoly._raw(vars, {e: -c for e, c in prod.terms.items()}, prod.caps)
                    acc = acc + prod
                sign = -sign
            rest >>= 1
            col += 1
        memo[mask] = acc
        return acc

    return expand((1 << n) - 1)
