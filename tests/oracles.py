"""Independent reference implementations used to cross-check the package.

Everything here but ``split_h`` deliberately avoids the package's own
polynomial engine: degree factors go through sympy expansion, the isotropic
degree through a naive full-box summation with Fractions and, from a second
derivation, through the class formula in the Chow ring, and the binary format
through the multinomial theorem.  ``split_h`` multiplies H's two y-halves out
of the closed form's linear factors with ``poly_mul``, which ``build_H``'s
subset expansion never calls.  Values frozen into the tests were produced by
these oracles.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import sympy

from kalmandeg.polycore import TPoly, poly_mul


def oracle_extract(n, delta, omega):
    """Degree factor via sympy: expand the factor product, read one coefficient."""
    k = len(n)
    ts = sympy.symbols(f"t1:{k + 1}")
    h = sympy.Symbol("h")
    poly = sympy.Integer(1)
    for i in range(k):
        that = sum(omega[j] * ts[j] for j in range(k)) - ts[i]
        poly *= sum((that + h) ** (n[i] - 1 - j) * ts[i] ** j for j in range(n[i]))
    poly = sympy.Poly(sympy.expand(poly), *ts, h)
    mono = sympy.prod(
        [ts[i] ** (n[i] - delta[i] - 1) for i in range(k)] + [h ** sum(delta)]
    )
    return int(poly.coeff_monomial(mono))


def oracle_isotropic(n, omega):
    """Isotropic degree by naive summation: all alpha with |alpha| = j, full beta box.

    Terms with a negative reciprocal-factorial argument are dropped (the
    reciprocal Gamma function vanishes at nonpositive integers).
    """
    k = len(n)
    big_n = sum(n) - 2 * k
    total = Fraction(0)
    for j in range(big_n + 1):
        for alpha in product(range(j + 1), repeat=k):
            if sum(alpha) != j:
                continue
            if any(n[l] - 2 - alpha[l] < 0 for l in range(k)):
                continue
            outer = Fraction(1)
            for l in range(k):
                e = n[l] - 2 - alpha[l]
                outer *= Fraction(omega[l] ** e, factorial(e))
            inner = 0
            for beta in product(*(range(a + 1) for a in alpha)):
                term = 1
                for l in range(k):
                    term *= comb(n[l], beta[l]) * (-2) ** (alpha[l] - beta[l])
                inner += term
            total += (-1) ** j * factorial(big_n + 1 - j) * outer * inner
    total *= 2**k
    assert total.denominator == 1, total
    return int(total)


def oracle_isotropic_chow(n, omega):
    """Isotropic degree by the Katz-Kleiman class formula, in the Chow ring of a product of quadrics.

    X = prod_l Q_l, with Q_l a smooth quadric in P^(n_l - 1), has dimension
    N = sum_l (n_l - 2) and Chow ring Z[h_1..h_k]/(h_l^(n_l - 1)), in which
    the top class prod_l h_l^(n_l - 2) has degree 2^k.  The totally isotropic
    variety is the dual of X embedded by L = sum_l omega_l h_l, of degree

        sum_{i=0}^{N} (i + 1) deg c_{N-i}(Omega_X) L^i,

    and c(Omega_X) = prod_l (1 - h_l)^(n_l) / (1 - 2 h_l) (Kleiman, "Tangency
    and duality", 1986; Gelfand, Kapranov & Zelevinsky, "Discriminants,
    Resultants, and Multidimensional Determinants", 1994).  Only c_{N-i}
    meets L^i in the top degree, so the coefficient of the top class in the
    whole c(Omega_X) L^i is the one needed: the sum over e of c(Omega_X)'s
    coefficient at e times L^i's at top - e.  This checks the degree only,
    not the component count.
    """
    k = len(n)
    top = tuple(ni - 2 for ni in n)

    def mul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if all(x <= t for x, t in zip(e, top)):
                    out[e] = out.get(e, 0) + c1 * c2
        return out

    def monomial(l, a):
        return tuple(a if j == l else 0 for j in range(k))

    chern = {(0,) * k: 1}
    for l, ni in enumerate(n):
        # c(Omega_{Q_l}) up to h_l^(n_l - 2): (1 - h_l)^(n_l) times 1/(1 - 2 h_l) = sum_j (2 h_l)^j
        chern = mul(chern, {monomial(l, a): sum(comb(ni, b) * (-1) ** b * 2 ** (a - b) for b in range(a + 1))
                            for a in range(top[l] + 1)})
    line = {monomial(l, 1): w for l, w in enumerate(omega)}
    total, power = 0, {(0,) * k: 1}
    for i in range(sum(top) + 1):
        total += (i + 1) * sum(c * power.get(tuple(t - x for t, x in zip(top, e)), 0) for e, c in chern.items())
        power = mul(power, line)
    return 2**k * total


def oracle_binary(delta, omega):
    """Binary-format degree factor straight from the multinomial theorem.

    The all-2 factor product collapses to (sum_j omega_j t_j + h)^k, so the
    coefficient of h^delta prod t_i^(1-delta_i) is k!/delta! times the product
    of the weights at the positions with delta_i = 0.
    """
    k = len(delta)
    weight = 1
    for di, wi in zip(delta, omega):
        if di == 0:
            weight *= wi
    return factorial(k) // factorial(sum(delta)) * weight


def split_h(omega):
    """(H1, H2) over the ring (x_1..x_k), with H = -y H1 + H2, multiplied out from the closed form.

    H1 = x_1 prod_{i>=2} (1 + x_i) and
    H2 = prod_i (1 + x_i) - sum_j omega_j x_j prod_{i != j} (1 + x_i),
    each product taken one linear factor at a time.
    """
    ring = tuple(f"x{i + 1}" for i in range(len(omega)))
    one = TPoly.one(ring)
    xs = [TPoly.variable(ring, name) for name in ring]

    def times_the_factors_but(poly, j):
        for i, x in enumerate(xs):
            if i != j:
                poly = poly_mul(poly, one + x)
        return poly

    h1 = times_the_factors_but(xs[0], 0)
    h2 = times_the_factors_but(one, None)
    for j, w in enumerate(omega):
        h2 = h2 + times_the_factors_but(TPoly(ring, {e: -w for e in xs[j].terms}), j)  # -w x_j
    return h1, h2
