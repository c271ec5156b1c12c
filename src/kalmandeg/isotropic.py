"""Totally isotropic Kalman varieties and symmetric-tuple codimension formulas.

When every entry of the singular vector tuple is forced onto the isotropic
quadric of its factor, the resulting variety is the dual variety of the
Segre-Veronese embedding of the product of quadrics.  Its degree is the
alternating polar-class sum

    2^k * sum_{j=0}^{N} (-1)^j (N+1-j)! *
          sum_{|alpha|=j} [ prod_l omega_l^(n_l-2-alpha_l) / (n_l-2-alpha_l)! ]
                          * sum_{beta <= alpha} prod_l C(n_l, beta_l) (-2)^(alpha_l-beta_l)

with N = sum_l n_l - 2k, where any factor with n_l - 2 - alpha_l < 0 kills the
term (so alpha ranges over compositions bounded by n_l - 2).  The hypersurface
is irreducible unless some n_l = 2, in which case it splits into 2^|J|
components, J = {l : n_l = 2}.

The summand factorizes over l, so the inner alpha-sum is the z^j coefficient
of a product of k univariate polynomials.  Scaling factor l by m_l! =
(n_l - 2)! makes its coefficients integers.  The lists of all factors but the
costliest, K, are convolved into C' of length M' + 1; K's list is never built.
Putting b = m_K - alpha_K and dividing out m_K! turns the sum into

    2^k / prod_{l != K} m_l! * sum_{b=0}^{m_K} (-1)^(m_K-b) omega_K^b s_K(m_K-b) I(b),
    I(b) = sum_j (-1)^j C'_j (M'+1-j+b)! / b!,

with s_K(a) the beta sum of K: Horner's rule in omega_K from b = m_K down,
and for each b Horner's rule over j, whose every factor is one word.  The sum
is taken in integer arithmetic and divided by prod_{l != K} m_l! once,
exactly.  The division is asserted to leave no remainder, so the result is
never rounded.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import factorial
from operator import mul

from . import genfun
from .degrees import TensorFormat
from .genfun import InputError


class IsotropicResult(namedtuple("IsotropicResult", "degree components ambient_dim")):
    """The degree, the number of components and the dimension N of the embedded product of quadrics."""

    __slots__ = ()


def _factor_poly(ni: int, wi: int) -> list[int]:
    """Coefficients m!/(m-a)! * wi^(m-a) * t(a), a = 0..m, with m = ni - 2.

    t(a) = (-1)^a s(a), where s(a) = sum_{b<=a} C(ni, b) (-2)^(a-b) is the
    factor's beta sum, so the list's product carries the polar-class sum's
    (-1)^j.  t is taken by the recurrence t(a) = 2 t(a-1) + (-1)^a C(ni, a),
    with the signed binomial itself from -(-1)^(a-1) C(ni, a-1) (ni - a + 1) / a,
    exactly.
    """
    m = ni - 2
    powers = list(accumulate([wi] * m, mul, initial=1))
    coeffs = []
    falling, t, binom = 1, 0, 1
    for a in range(m + 1):
        t = 2 * t + binom
        coeffs.append(falling * powers[m - a] * t)
        falling *= m - a
        binom = -binom * (ni - a) // (a + 1)
    return coeffs


def _convolve(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _check_work(n: tuple[int, ...], omega: tuple[int, ...]) -> int:
    """Refuse a format whose polar-class sum would multiply too many 64-bit words; else return K.

    Factor l's list holds m + 1 integers, m = n_l - 2, of at most
    m (bitlen(m) + bitlen(omega_l)) + 2 n_l bits, W_l words each.  Its entry a
    multiplies the falling factorial m!/(m-a)!, of F_a = 1 + a bitlen(m) / 64
    words, by the power omega_l^(m-a), of P_a = 1 + (m - a) bitlen(omega_l) / 64,
    and that by the beta sum, of S = 1 + 2 n_l / 64: F_a P_a + (F_a + P_a) S
    word products.  Each of the m powers costs P_a (1 + bitlen(omega_l) / 64)
    more; the binomials and falling factorials grow by one-word factors.
    Measured on CPython 3.11 (shared 2-core Linux machine), this build takes
    about twice as long per word product as the convolution, so it is charged
    twice.  Convolving the list into the running list of L integers of W words
    costs L (m + 1) W W_l.

    The costliest factor K, the first with the largest m_l bitlen(omega_l), is
    neither built nor convolved.  Horner's rule takes it in m + 1 steps,
    m = m_K.  In each, acc runs M' + 1 one-word steps over its A words: C''s W
    and M' + 1 factors of up to bitlen(N + 1) bits.  Then total = total *
    omega_K + t * acc, where t has up to 2 n_K bits, S words, and total grows
    by bitlen(omega_K) bits a step from A + S words; for a one-word omega_K
    those products cost about m^2 bitlen(omega_K) / 128.  The binomial, of
    B = 1 + n_K / 64 words, takes a one-word product and an exact division by
    one word, which CPython takes digit by digit in about eight products' time
    (same machine): 9 B a step, and t's update 2 S.  Writing total's T words
    in decimal, quadratic in them, costs about four word products per pair.
    """
    last = max(range(len(n)), key=lambda l: (n[l] - 2) * omega[l].bit_length())
    work, length, words = 0, 1, 1
    for l, (ni, wi) in enumerate(zip(n, omega)):
        if l == last:
            continue
        m, lm, lw = ni - 2, (ni - 2).bit_length(), wi.bit_length()
        w_l = 1 + (m * (lm + lw) + 2 * ni) // 64
        # Sums over a = 0..m, with sum_a a = sum_a (m - a) = tri and sum_a a (m - a) = (m - 1) tri / 3.
        tri = m * (m + 1) // 2
        linear = (lm + lw) * tri // 64  # of F_a + P_a - 2
        fp = m + 1 + linear + lm * lw * (m - 1) * tri // 12288  # of F_a P_a
        powers = (m + lw * (tri - m) // 64) * (1 + lw // 64)  # P_0..P_(m-1), each times omega_l's words
        build = fp + (2 * (m + 1) + linear) * (1 + 2 * ni // 64) + powers
        work += 2 * build + (m + 1) * w_l * length * words
        length += m
        words += w_l + 1  # a word more covers the carries of summing the products
    ni, lw = n[last], omega[last].bit_length()
    m, s = ni - 2, 1 + 2 * ni // 64
    a_words = words + length * (sum(n) - 2 * len(n) + 1).bit_length() // 64
    steps = (m + 1) * (a_words + s) + lw * (m * (m + 1) // 2) // 64  # total's words, summed over the steps
    t_words = a_words + s + m * lw // 64
    work += (m + 1) * ((length + s) * a_words + 9 * (1 + ni // 64) + 2 * s) + steps * (1 + lw // 64)
    genfun._refuse_over(work + 4 * t_words * t_words, "the polar-class sum", "use smaller n or omega")
    return last


def isotropic_degree(fmt: TensorFormat) -> IsotropicResult:
    """Degree and component count of the totally isotropic variety for ``fmt``."""
    if any(ni < 2 for ni in fmt.n):
        raise InputError("all dimensions n_i must be >= 2 (each factor needs a smooth quadric)")
    last = _check_work(fmt.n, fmt.omega)
    k = fmt.k
    n_dim = sum(fmt.n) - 2 * k

    # coeffs[j] is C'_j times (-1)^j: the signed alpha-sum of layer j over the other factors, times their m_l!.
    coeffs = [1]
    scale = 1
    for l, (ni, wi) in enumerate(zip(fmt.n, fmt.omega)):
        if l != last:
            coeffs = _convolve(coeffs, _factor_poly(ni, wi))
            scale *= factorial(ni - 2)
    # Horner's rule in wi over b = m - a, and inside it over j with multipliers (b + M' + 1 - j).
    ni, wi = fmt.n[last], fmt.omega[last]
    m, top = ni - 2, len(coeffs)
    total, t, binom = 0, 0, 1
    for a in range(m + 1):
        t = 2 * t + binom
        acc, f = 0, m - a + top
        for c in coeffs:
            acc = (acc + c) * f
            f -= 1
        total = total * wi + t * acc
        binom = -binom * (ni - a) // (a + 1)
    total <<= k

    degree, rest = divmod(total, scale)
    if rest:
        raise ArithmeticError(f"polar-class sum is not integral: {total}/{scale}")
    if degree <= 0:
        raise ArithmeticError(f"polar-class sum is not positive: {degree}")
    components = 2 ** sum(1 for ni in fmt.n if ni == 2)
    return IsotropicResult(degree=degree, components=components, ambient_dim=n_dim)


def _check_symmetric_work(n: int, omega: int, cells: int = 1) -> None:
    """Refuse ``cells`` single-factor degrees, none larger than the one at (n, omega), past the limit.

    That degree has at most n bitlen(omega - 1) + bitlen(n) bits, W words:
    its power, product and exact division and its decimal digits cost about
    5 W^2 word products, and its table row about 3000 more.
    """
    words = 1 + (n * (omega - 1).bit_length() + n.bit_length()) // 64
    what = "computing {} single-factor isotropic degrees of up to {} 64-bit words"
    genfun._refuse_over(cells * (3000 + 5 * words * words), what, "use smaller n or omega", cells, words)


def isotropic_degree_symmetric(n: int, omega: int) -> int:
    """Closed form for a single symmetric factor: 2 * sum_{j<=n-2} (j+1)(omega-1)^j.

    With m = n - 2 and x = omega - 1 the sum is (m+1)(m+2) at x = 1, and
    otherwise 2 (1 - (m+2) x^(m+1) + (m+1) x^(m+2)) / (1 - x)^2, an exact
    division, asserted like the polar-class sum's.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    if omega < 1:
        raise InputError("omega must be >= 1")
    _check_symmetric_work(n, omega)
    return _symmetric_degree(n, omega)


def _symmetric_degree(n: int, omega: int) -> int:
    """``isotropic_degree_symmetric`` without its checks, for a caller that has charged their work."""
    m, x = n - 2, omega - 1
    if x == 1:
        return (m + 1) * (m + 2)
    power = x ** (m + 1)
    degree, rest = divmod(2 * (1 - (m + 2) * power + (m + 1) * power * x), (1 - x) ** 2)
    if rest:
        raise ArithmeticError(f"single-factor closed form is not integral at n = {n}, omega = {omega}")
    return degree


def symmetric_tuple_codim(n: int, k: int) -> int:
    """Codimension of the variety of tensors with a fully repeated singular tuple."""
    if n < 2:
        raise InputError("n must be >= 2")
    if k < 1:
        raise InputError("k must be >= 1")
    return (k - 1) * (n - 1)


def partition_tuple_codim(n: int, k: int, t: int) -> int:
    """Codimension for a singular tuple repeating along a partition of k into t parts.

    Depends only on the number of parts t, not on the partition itself.
    """
    if not 1 <= t <= k:
        raise InputError("the number of parts t must satisfy 1 <= t <= k")
    if n < 1:
        raise InputError("n must be >= 1")
    return (k - t) * (n - 1)

