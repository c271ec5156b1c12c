"""Independent routes to every answer in the reference file.

No check runs the code that produced the answer it checks:

* degree factors with the codimension in at most one factor come from the
  generating-function series, with that factor permuted to the front, summed
  here by power-series division over plain dicts (not by ``genfun``);
* one symmetric factor (k = 1) uses the closed form ``symmetric_degree``, and
  the all-2 format the multinomial theorem (``oracle_binary``);
* codimension spread over several factors uses the sympy oracle of the test
  suite, so those cells are kept small;
* isotropic degrees use ``oracle_isotropic`` (several factors, and the
  ``isotropic-sym`` table) or the closed form ``isotropic_degree_symmetric``
  (one factor, where the CLI runs the polar-class sum);
* H built one way is checked against H built the other way;
* the critical-point checks and constants are re-derived from the subset
  form of H below with exact fractions.

``verify(query, answer)`` returns a list of problems, empty when the stored
answer passes its independent check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))


def _oracles():
    import oracles  # imports sympy, so only when a route needs it

    return oracles


# -- the series of 1/D over plain dicts -------------------------------------


def h_terms(omega) -> dict[tuple[int, ...], int]:
    """H in (x_1..x_k, y) from its subset form.

    Expanding the products of (1 + x_i) over subsets T of the factors gives
    H = sum_T x^T (1 - sum_{j in T} omega_j) - y x_1 sum_{T without 1} x^T.
    """
    k = len(omega)
    out: dict[tuple[int, ...], int] = {}
    for size in range(k + 1):
        for t in combinations(range(k), size):
            c = 1 - sum(omega[j] for j in t)
            if c:
                out[tuple(1 if i in t else 0 for i in range(k)) + (0,)] = c
            if 0 not in t:
                e = tuple(1 if (i in t or i == 0) else 0 for i in range(k)) + (1,)
                out[e] = out.get(e, 0) - 1
    return {e: c for e, c in out.items() if c}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _inverse(den: dict, box: tuple[int, ...]) -> dict:
    """Coefficients of 1/den (constant term 1) at every exponent within ``box``.

    Power-series division: u_0 = 1 and u_e = -sum_{d != 0} den_d u_{e-d}.
    Walking e in lexicographic order visits every e - d before e.
    """
    zero = (0,) * len(box)
    assert den.get(zero) == 1
    terms = [(d, c) for d, c in den.items() if d != zero]
    u: dict = {}
    for e in product(*(range(b + 1) for b in box)):
        acc = 1 if e == zero else 0
        for d, c in terms:
            if all(x >= y for x, y in zip(e, d)):
                acc -= c * u[tuple(x - y for x, y in zip(e, d))]
        u[e] = acc
    return u


def series_coeffs(omega, caps, y_cap) -> dict:
    """Nonzero d(n, delta) for n within ``caps`` and delta <= ``y_cap``.

    d(n, delta) is the coefficient of x^n y^delta in prod x_i / (H prod (1 - x_i)),
    i.e. the coefficient of x^(n-1) y^delta in 1/D.
    """
    k = len(omega)
    if any(c < 1 for c in caps):
        return {}
    den = h_terms(omega)
    for i in range(k):
        one_minus = {(0,) * (k + 1): 1, tuple(1 if j == i else 0 for j in range(k + 1)): -1}
        den = _mul(den, one_minus)
    u = _inverse(den, tuple(c - 1 for c in caps) + (y_cap,))
    return {(tuple(x + 1 for x in e[:k]), e[k]): c for e, c in u.items() if c}


def ref_degree(n, delta, omega) -> int:
    """The degree factor by a route that never calls ``extract_degree``."""
    n, delta, omega = tuple(n), tuple(delta), tuple(omega)
    from kalmandeg.degrees import symmetric_degree

    if len(n) == 1:
        return symmetric_degree(n[0], delta[0], omega[0])
    if all(x == 2 for x in n):
        return _oracles().oracle_binary(delta, omega)
    nonzero = [i for i, d in enumerate(delta) if d]
    if len(nonzero) <= 1:
        first = nonzero[0] if nonzero else 0
        order = [first] + [i for i in range(len(n)) if i != first]
        pn = tuple(n[i] for i in order)
        pw = tuple(omega[i] for i in order)
        return series_coeffs(pw, pn, delta[first]).get((pn, delta[first]), 0)
    return _oracles().oracle_extract(n, delta, omega)


def ref_isotropic(n, omega) -> int:
    from kalmandeg.isotropic import isotropic_degree_symmetric

    if len(n) == 1:
        return isotropic_degree_symmetric(n[0], omega[0])
    return _oracles().oracle_isotropic(tuple(n), tuple(omega))


# -- hypercubical constants, re-derived -------------------------------------


def critical_values(k: int, omega: int) -> tuple[Fraction, Fraction]:
    """F_D(c) and -c dF_D/dx_k(c) for F_D = H2 prod (1 - x_i), all weights omega.

    On the diagonal x = c the subset form gives
    H2(c) = sum_t C(k, t) c^t (1 - t omega) and
    dH2/dx_k(c) = sum_{t >= 1} C(k-1, t-1) c^(t-1) (1 - t omega).
    """
    c = Fraction(1, omega * k - 1)
    h2 = sum(math.comb(k, t) * c**t * (1 - t * omega) for t in range(k + 1))
    dh2 = sum(math.comb(k - 1, t - 1) * c ** (t - 1) * (1 - t * omega) for t in range(1, k + 1))
    f_d = h2 * (1 - c) ** k
    d_f = dh2 * (1 - c) ** k - h2 * (1 - c) ** (k - 1)
    return f_d, -c * d_f


def log10_estimate(k: int, omega: int, delta: int, n: int) -> float:
    wk = omega * k
    c = (wk - 1) ** (k - 1) / (
        (2 * math.pi) ** ((k - 1) / 2) * math.sqrt(omega) * wk ** ((k - 2) / 2) * (wk - 2) ** ((3 * k - 1) / 2)
    )
    return (
        math.log10(c)
        + delta * math.log10(k / (wk - 1))
        - math.log10(math.factorial(delta))
        + k * n * math.log10(wk - 1)
        - ((k - 1) / 2 - delta) * math.log10(n)
    )


def _log10_int(v: int) -> float:
    shift = max(v.bit_length() - 64, 0)
    return math.log10(v >> shift) + shift * math.log10(2)


# -- checks -----------------------------------------------------------------


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _opts(argv: list[str]) -> dict[str, str | bool]:
    out: dict[str, str | bool] = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _ints(text) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(","))


def _pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _record(text: str, fmt: str) -> dict:
    return json.loads(text) if fmt == "json" else _pairs(text)


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return [json.loads(line) for line in text.splitlines()]
    return list(csv.DictReader(io.StringIO(text)))


def _expect(problems: list[str], label: str, got, want) -> None:
    if str(got) != str(want):
        problems.append(f"{label}: got {str(got)[:80]}, expected {str(want)[:80]}")


def _verify_cli(argv: list[str], answer: str) -> list[str]:
    head, _, text = answer.partition("\n")
    problems: list[str] = []
    if head != "exit=0":
        return [f"reference exit status is {head}"]
    o = _opts(argv)
    fmt = o.get("format", "csv" if o["command"] == "table" else "text")
    cmd = o["command"]
    if cmd == "degree":
        n, delta, omega = _ints(o["n"]), _ints(o["delta"]), _ints(o["omega"])
        rec = _record(text, fmt)
        d = ref_degree(n, delta, omega)
        _expect(problems, "degree_factor", rec["degree_factor"], d)
        if "deg-z" in o:
            _expect(problems, "kalman_degree", rec["kalman_degree"], d * math.prod(_ints(o["deg-z"])))
    elif cmd == "genfun" and o.get("show-h"):
        from kalmandeg.genfun import build_H, build_H_via_determinant

        omega = _ints(o["omega"])
        rec = _record(text, fmt)
        h, h_det = (rec["result"], rec["h_via_determinant"]) if fmt == "json" else (rec["H"], rec["H_via_det"])
        _expect(problems, "H", h, build_H_via_determinant(omega))
        _expect(problems, "H_via_det", h_det, build_H(omega))
    elif cmd == "genfun":
        omega, caps, y_cap = _ints(o["omega"]), _ints(o["caps"]), int(o.get("y-cap", 0))
        got = {}
        lines = text.splitlines()
        if fmt == "json":
            for line in lines[1:]:
                r = json.loads(line)
                got[(tuple(r["n"]), r["delta"])] = int(r["coefficient"])
        else:
            for line in lines:
                n_part, d_part, c_part = line.split()
                got[(_ints(n_part[2:]), int(d_part[6:]))] = int(c_part[2:])
        if got != series_coeffs(omega, caps, y_cap):
            problems.append("series coefficients differ from the recurrence")
    elif cmd == "isotropic":
        n, omega = _ints(o["n"]), _ints(o["omega"])
        rec = _record(text, fmt)
        _expect(problems, "degree", rec["degree"], ref_isotropic(n, omega))
        _expect(problems, "components", rec["components"], 2 ** sum(1 for x in n if x == 2))
        if fmt == "json":
            _expect(problems, "ambient_dim", rec["ambient_dim"], sum(n) - 2 * len(n))
    elif cmd == "codim":
        n, k = int(o["n"]), int(o["k"])
        t = int(o["parts"]) if "parts" in o else 1
        rec = _record(text, fmt)
        _expect(problems, "codim", rec["result"] if fmt == "json" else rec["codim"], (k - t) * (n - 1))
    elif cmd == "asympt":
        k, omega, delta = int(o["k"]), int(o["omega"]), int(o.get("delta", 0))
        rec = _record(text, fmt)
        wk = omega * k
        if o.get("verify"):
            f_d, slope = critical_values(k, omega)
            if fmt == "json":
                got_f, got_s, got_e, verdict = rec["f_d_at_c"], rec["slope_product"], rec["expected_slope_product"], rec["result"]
            else:
                got_s, _, got_e = rec["-c_k*dF_D(c)"].partition(" (expected ")
                got_f, got_e, verdict = rec["F_D(c)"], got_e.rstrip(")"), rec["verify"]
            _expect(problems, "F_D(c)", got_f, f_d)
            _expect(problems, "slope", got_s, slope)
            _expect(problems, "expected slope", got_e, slope)
            _expect(problems, "verdict", verdict, "ok")
        elif o.get("constants"):
            _, slope = critical_values(k, omega)
            _expect(problems, "c", rec["c"], Fraction(1, wk - 1))
            _expect(problems, "minus_ck_dk", rec["minus_ck_dk"], slope)
            _expect(problems, "det_hessian", rec["det_hessian"], Fraction((wk - 2) ** (k - 1), omega) / Fraction(wk) ** (k - 2))
            l0 = Fraction(wk - 1) ** (k - delta - 1) / (
                Fraction(omega) ** (delta + 1) * Fraction(wk) ** (k - delta - 2) * (wk - 2) ** k
            )
            _expect(problems, "l0", rec["l0"], l0)
        else:
            n = int(o["n"])
            est = log10_estimate(k, omega, delta, n)
            got = rec["log10_estimate"]
            if not _close(float(got), est):
                problems.append(f"log10_estimate {got} != {est}")
            if o.get("compare"):
                exact = ref_degree((n,) * k, (delta,) + (0,) * (k - 1), (omega,) * k)
                _expect(problems, "exact", rec["exact"], exact)
                if not _close(float(rec["ratio"]), 10 ** (est - _log10_int(exact))):
                    problems.append("ratio differs")
    elif cmd == "table":
        rows = _rows(text, fmt)
        kind = o["kind"]
        if kind == "matrix-ed":
            m = int(o.get("max-n", 5))
            want = [(n1, n2, ref_degree((n1, n2), (0, 0), (1, 1))) for n1 in range(1, m + 1) for n2 in range(1, m + 1)]
            got = [(int(r["n1"]), int(r["n2"]), int(r["degree"])) for r in rows]
            _expect(problems, "matrix-ed rows", got, want)
        elif kind == "isotropic-sym":
            mn, mw = int(o.get("max-n", 5)), int(o.get("max-omega", 4))
            # the table itself uses the closed form, so check it against the polar-class sum
            want = [(n, w, _oracles().oracle_isotropic((n,), (w,))) for n in range(2, mn + 1) for w in range(1, mw + 1)]
            got = [(int(r["n"]), int(r["omega"]), int(r["degree"])) for r in rows]
            _expect(problems, "isotropic-sym rows", got, want)
        else:
            k, omega, delta = int(o.get("k", 3)), int(o.get("omega", 1)), int(o.get("delta", 0))
            ns = list(range(int(o.get("n-min", 2)), int(o.get("n-max", 8)) + 1))
            _expect(problems, "n column", [int(r["n"]) for r in rows], ns)
            for r, n in zip(rows, ns):
                exact = ref_degree((n,) * k, (delta,) + (0,) * (k - 1), (omega,) * k)
                est = log10_estimate(k, omega, delta, n)
                _expect(problems, f"exact n={n}", r["exact"], exact)
                if not _close(float(r["log10_estimate"]), est) or not _close(float(r["ratio"]), 10 ** (est - _log10_int(exact))):
                    problems.append(f"estimate or ratio differs at n={n}")
    else:
        problems.append(f"no check for subcommand {cmd}")
    return problems


def verify(q: workloads.Query, answer: str) -> list[str]:
    a = q.args
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the isotropic repro prints 4300+ digits
    try:
        if q.kind == "cli":
            return _verify_cli(list(a["argv"]), answer)
        if q.kind in ("extract_degree", "kalman_degree"):
            want = ref_degree(a["n"], a["delta"], a["omega"])
            if q.kind == "kalman_degree":
                want *= math.prod(a["deg_z"])
            return [] if answer == str(want) else [f"degree {answer} != {want}"]
        if q.kind == "expand_series":
            from kalmandeg.degrees import symmetric_degree

            want = series_coeffs(a["omega"], a["caps"], a["y_cap"])
            if len(a["omega"]) == 1:
                w, cap, y_cap = a["omega"][0], a["caps"][0], a["y_cap"]
                closed = {((n,), d): symmetric_degree(n, d, w) for n in range(1, cap + 1) for d in range(min(y_cap, n - 1) + 1)}
                if closed != want:
                    return ["recurrence disagrees with symmetric_degree"]
            return [] if answer == workloads.canon_series(want) else ["series digest differs"]
        if q.kind in ("build_H", "build_H_via_determinant"):
            from kalmandeg.genfun import build_H, build_H_via_determinant

            other = build_H_via_determinant if q.kind == "build_H" else build_H
            return [] if answer == workloads.digest(str(other(a["omega"]))) else ["H differs from the other route"]
        if q.kind == "macmahon_check":
            return [] if answer == str(macmahon_sides_agree(a["a"], a["cap"])) else ["macmahon verdict differs"]
        return [f"no check for kind {q.kind}"]
    finally:
        sys.set_int_max_str_digits(limit)


def macmahon_sides_agree(a, cap: int) -> bool:
    """MacMahon's master theorem on the box, with this module's own arithmetic.

    The coefficient of z^p in prod_i (sum_j a_ij z_j)^(p_i) must equal the
    coefficient of w^p in 1/det(I - diag(w) A), the determinant taken by the
    Leibniz formula.
    """
    m = len(a)
    zero = (0,) * m

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(m))

    def entry(i, j):
        e = {zero: 1} if i == j else {}
        if a[i][j]:
            e[unit(i)] = e.get(unit(i), 0) - a[i][j]
        return e

    det: dict = {}
    for perm in permutations(range(m)):
        sign = (-1) ** sum(1 for i in range(m) for j in range(i) if perm[j] > perm[i])
        term = {zero: sign}
        for i in range(m):
            term = _mul(term, entry(i, perm[i]))
        for e, c in term.items():
            det[e] = det.get(e, 0) + c
    inv = _inverse({e: c for e, c in det.items() if c}, (cap,) * m)
    forms = [{unit(j): a[i][j] for j in range(m) if a[i][j]} for i in range(m)]
    for p in product(range(cap + 1), repeat=m):
        lhs = {zero: 1}
        for i in range(m):
            for _ in range(p[i]):
                lhs = {e: c for e, c in _mul(lhs, forms[i]).items() if all(x <= y for x, y in zip(e, p))}
        if lhs.get(p, 0) != inv[p]:
            return False
    return True
