"""Command-line surface for every computation in the package.

Subcommands: degree, genfun, isotropic, codim, asympt, table.  Each one's
options are declared once, in ``_COMMANDS``: flag, type, default or required,
choices, switch and help text, with the subcommand's handler.  The argparse
parser is built from that table on first use, and most calls never reach it:
``_match`` reads a call whose first argument names a subcommand and whose
later arguments are exact flags, each a switch or followed by one value, off
the same table.  Every other call goes to the full parser (``_parse`` lists
them), so usage texts, help texts and argument errors are argparse's.  Results
go to stdout (text, JSON records, or CSV for tables), diagnostics to stderr.
Each subcommand runs every check and budget first, so a refusal prints
nothing, then hands its JSON records and its text lines to the single emitter
``_emit``, the one place the output format is decided.  Where there are many,
both are generators that write each exact value in decimal as its line is
made, so only the requested format is built and none is kept whole.  JSON
records go through one sorted-key line encoder, built by the first JSON call
and reused for every later record, so text output never imports ``json``.
Exit codes: 0 success, 1 stdout closed by its reader (``| head``; nothing
is written to stderr), 2 input refused, invalid or over a budget (exactly
``genfun.InputError``, or argparse's usage error), 3 internal failure (any
other exception, even after lines were printed).  JSON carries big integers
as strings, so no reader truncates them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import chain

from . import asympt, degrees, genfun, isotropic


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


@functools.cache
def _json_encoder() -> Callable[[dict], str]:
    """A function giving ``json.dumps(record, sort_keys=True)``, from one encoder built per process.

    ``JSONEncoder.encode`` builds a new C encoder for every record; this one is
    built once, with the arguments ``JSONEncoder(sort_keys=True).iterencode``
    passes, except that ``markers`` is None: every record is a fresh, acyclic
    dict, so no cycle check is needed.  Without the C accelerator the plain
    ``encode`` serves.
    """
    from json import encoder

    base = encoder.JSONEncoder(sort_keys=True)
    if encoder.c_make_encoder is None:
        return base.encode
    chunks = encoder.c_make_encoder(
        None, base.default, encoder.encode_basestring_ascii, base.indent,
        base.key_separator, base.item_separator, base.sort_keys, base.skipkeys, base.allow_nan,
    )
    return lambda record: "".join(chunks(record, 0))


def _emit(args: argparse.Namespace, records: Iterable[dict], lines: Iterable[str]) -> None:
    """Print ``records`` as sorted-key JSON lines under ``--format json``, else ``lines``."""
    if args.format == "json":
        encode = _json_encoder()
        for record in records:
            print(encode(record))
    else:
        for line in lines:
            print(line)


def _cmd_degree(args: argparse.Namespace) -> None:
    fmt = degrees.TensorFormat(args.n, args.omega)
    cv = degrees.CodimVec(args.delta)
    degrees._check_codim(fmt, cv)  # a bad delta is reported first, then a bad deg_z, both before extraction
    scale = None if args.deg_z is None else degrees._deg_z_product(fmt, args.deg_z)
    factor = degrees.extract_degree(fmt, cv)
    digits = str(factor)
    record = {
        "command": "degree",
        "inputs": {"n": list(fmt.n), "delta": list(cv.delta), "omega": list(fmt.omega)},
        "degree_factor": digits,
        "result": digits,
        "provenance": "coefficient extraction from the capped geometric-factor product",
    }
    lines = [f"degree_factor = {digits}"]
    if scale is not None:
        # kalman_degree would extract again; scale the factor already found.
        total = str(factor * scale)
        record["inputs"]["deg_z"] = list(args.deg_z)
        record["kalman_degree"] = total
        record["result"] = total
        lines.append(f"kalman_degree = {total}")
    _emit(args, [record], lines)


def _cmd_genfun(args: argparse.Namespace) -> None:
    if args.show_h:
        h, h_det = genfun.build_H(args.omega), genfun.build_H_via_determinant(args.omega)  # both budgets first
        agree = h == h_det  # same variables and term maps, so one text serves both
        h_text = str(h)
        det_text = h_text if agree else str(h_det)
        record = {
            "command": "genfun",
            "inputs": {"omega": list(args.omega)},
            "result": h_text,
            "h_via_determinant": det_text,
            "provenance": "closed-form generating polynomial and its bordered-determinant twin",
        }
        _emit(args, [record], [f"H = {h_text}", f"H_via_det = {det_text}"])
        if not agree:
            raise ArithmeticError("H and its determinant route differ")
        return
    if args.caps is None:
        raise genfun.InputError("--caps is required unless --show-h is given")
    coeffs = genfun.expand_series(args.omega, args.caps, args.y_cap)  # keys in box order, which is sorted order
    header = {
        "command": "genfun",
        "inputs": {"omega": list(args.omega), "caps": list(args.caps), "y_cap": args.y_cap},
        "provenance": "capped series expansion of the reciprocal generating polynomial",
    }
    records = ({"n": list(n_vec), "delta": delta, "coefficient": str(d)} for (n_vec, delta), d in coeffs.items())
    lines = (f"n={','.join(map(str, n_vec))} delta={delta} d={d}" for (n_vec, delta), d in coeffs.items())
    _emit(args, chain([header], records), lines)


def _cmd_isotropic(args: argparse.Namespace) -> None:
    fmt = degrees.TensorFormat(args.n, args.omega)
    res = isotropic.isotropic_degree(fmt)
    degree = str(res.degree)
    record = {
        "command": "isotropic",
        "inputs": {"n": list(fmt.n), "omega": list(fmt.omega)},
        "result": degree,
        "degree": degree,
        "components": res.components,
        "ambient_dim": res.ambient_dim,
        "provenance": "alternating polar-class sum over bounded compositions, exact rationals",
    }
    _emit(args, [record], [f"degree = {degree}", f"components = {res.components}"])


def _cmd_codim(args: argparse.Namespace) -> None:
    if args.parts is None:
        value = isotropic.symmetric_tuple_codim(args.n, args.k)
        provenance = "fully repeated singular tuple: (k-1)(n-1)"
    else:
        value = isotropic.partition_tuple_codim(args.n, args.k, args.parts)
        provenance = "tuple repeated along a t-part partition: (k-t)(n-1)"
    record = {
        "command": "codim",
        "inputs": {"n": args.n, "k": args.k, "parts": args.parts},
        "result": str(value),
        "provenance": provenance,
    }
    _emit(args, [record], [f"codim = {record['result']}"])


def _cmd_asympt(args: argparse.Namespace) -> None:
    if args.verify:
        report = asympt.verify_critical_point(args.k, args.omega)
        agree = report.slope_product == report.expected_slope_product  # then one text serves both
        slope = str(report.slope_product)
        expected = slope if agree else str(report.expected_slope_product)
        record = {
            "command": "asympt",
            "inputs": {"k": args.k, "omega": args.omega, "verify": True},
            "f_d_at_c": str(report.f_d_at_c),
            "slope_product": slope,
            "expected_slope_product": expected,
            "result": "ok" if report.ok else "mismatch",
            "provenance": "exact rational evaluation of the reduced denominator at the critical point",
        }
        lines = [
            f"F_D(c) = {record['f_d_at_c']}",
            f"-c_k*dF_D(c) = {record['slope_product']} (expected {record['expected_slope_product']})",
            f"verify = {record['result']}",
        ]
        # The report prints even on a mismatch, before the failure exit.
        _emit(args, [record], lines)
        if not report.ok:
            raise ArithmeticError("critical-point identities failed")
        return
    if args.constants:
        cc = asympt.critical_constants(args.k, args.omega, args.delta)
        record = {
            "command": "asympt",
            "inputs": {"k": args.k, "omega": args.omega, "delta": args.delta, "constants": True},
            "c": str(cc.c),
            "det_hessian": str(cc.det_hessian),
            "l0": str(cc.l0),
            "minus_ck_dk": str(cc.minus_ck_dk),
            "provenance": "closed-form critical-point constants, exact rationals",
        }
        record["result"] = record["l0"]
        _emit(args, [record], [f"{key} = {record[key]}" for key in ("c", "det_hessian", "l0", "minus_ck_dk")])
        return
    if args.n is None:
        raise genfun.InputError("--n is required unless --verify or --constants is given")
    est = asympt.asymptotic_degree(args.k, args.omega, args.delta, args.n)
    record = {
        "command": "asympt",
        "inputs": {"k": args.k, "omega": args.omega, "delta": args.delta, "n": args.n},
        "log10_estimate": est.log10_value,
        "estimate": est.value_if_representable,
        "result": repr(est.log10_value),
        "provenance": "leading-order estimate evaluated in log10 space",
    }
    lines = [f"log10_estimate = {est.log10_value!r}"]
    if est.value_if_representable is not None:
        lines.append(f"estimate = {est.value_if_representable!r}")
    if args.compare:
        [row] = asympt.compare_exact_asymptotic(args.k, args.omega, args.delta, [args.n])
        record["exact"] = str(row.exact)
        record["ratio"] = row.ratio
        lines += [f"exact = {record['exact']}", f"ratio = {row.ratio!r}"]
    _emit(args, [record], lines)


def _table_rows(args: argparse.Namespace) -> tuple[list[str], Iterable[list]]:
    if args.kind == "matrix-ed":
        if args.max_n < 1:
            raise genfun.InputError("--max-n must be >= 1 for matrix-ed")
        # The table is one box of the generating function (omega = (1, 1), delta = 0); hypercubical-compare is not.
        coeffs = genfun.expand_series((1, 1), (args.max_n, args.max_n), 0)
        sizes = range(1, args.max_n + 1)
        return ["n1", "n2", "degree"], ([n1, n2, str(coeffs.get(((n1, n2), 0), 0))] for n1 in sizes for n2 in sizes)
    if args.kind == "hypercubical-compare":
        if not 1 <= args.n_min <= args.n_max:
            raise genfun.InputError("need 1 <= --n-min <= --n-max for hypercubical-compare")
        rows = asympt.compare_exact_asymptotic(args.k, args.omega, args.delta, range(args.n_min, args.n_max + 1))
        return ["n", "exact", "log10_estimate", "ratio"], (
            [row.n, str(row.exact), repr(row.log10_estimate), repr(row.ratio)] for row in rows
        )
    if args.max_n < 2 or args.max_omega < 1:  # isotropic-sym, the parser's last choice
        raise genfun.InputError("need --max-n >= 2 and --max-omega >= 1 for isotropic-sym")
    isotropic._check_symmetric_work(args.max_n, args.max_omega, (args.max_n - 1) * args.max_omega)
    return ["n", "omega", "degree"], (
        [n, w, str(isotropic._symmetric_degree(n, w))]
        for n in range(2, args.max_n + 1)
        for w in range(1, args.max_omega + 1)
    )


def _cmd_table(args: argparse.Namespace) -> None:
    header, rows = _table_rows(args)
    # Cells are integers, digit strings and float reprs: none holds a comma,
    # quote or newline, so plain joining is valid CSV.
    _emit(args, (dict(zip(header, row)) for row in rows), (",".join(map(str, row)) for row in chain([header], rows)))


_FORMAT = {"choices": ("text", "json"), "default": "text"}
_REQUIRED_INT_LIST = {"type": _int_list, "required": True}
# Each subcommand's handler, help line and options, every flag with the keyword arguments
# ``add_argument`` takes for it, in the order the help text lists them.  The argparse parsers
# are built from this table, and ``_match`` reads the same entries.
_COMMANDS = {
    "degree": (_cmd_degree, "degree factor by coefficient extraction", {
        "--n": {**_REQUIRED_INT_LIST, "help": "dimensions n_1,..,n_k"},
        "--delta": {**_REQUIRED_INT_LIST, "help": "codimensions delta_1,..,delta_k"},
        "--omega": {**_REQUIRED_INT_LIST, "help": "weights omega_1,..,omega_k"},
        "--deg-z": {"type": _int_list, "default": None, "help": "degrees of the constraint varieties"},
        "--format": _FORMAT,
    }),
    "genfun": (_cmd_genfun, "series coefficients of the generating function", {
        "--omega": _REQUIRED_INT_LIST,
        "--caps": {"type": _int_list, "default": None, "help": "per-variable bounds on n"},
        "--y-cap": {"type": int, "default": 0, "help": "bound on delta"},
        "--show-h": {"action": "store_true", "help": "print the generating polynomial both ways and exit"},
        "--format": _FORMAT,
    }),
    "isotropic": (_cmd_isotropic, "degree of the totally isotropic variety", {
        "--n": _REQUIRED_INT_LIST,
        "--omega": _REQUIRED_INT_LIST,
        "--format": _FORMAT,
    }),
    "codim": (_cmd_codim, "codimension of repeated-singular-tuple varieties", {
        "--n": {"type": int, "required": True},
        "--k": {"type": int, "required": True},
        "--parts": {"type": int, "default": None, "help": "number of parts of the repetition partition"},
        "--format": _FORMAT,
    }),
    "asympt": (_cmd_asympt, "hypercubical asymptotic estimate and critical-point checks", {
        "--k": {"type": int, "required": True},
        "--omega": {"type": int, "required": True},
        "--delta": {"type": int, "default": 0},
        "--n": {"type": int, "default": None},
        "--compare": {"action": "store_true", "help": "also compute the exact value and the ratio"},
        "--verify": {"action": "store_true", "help": "check the critical-point identities exactly"},
        "--constants": {"action": "store_true", "help": "print the closed-form constants"},
        "--format": _FORMAT,
    }),
    "table": (_cmd_table, "sweep tables (CSV or JSON lines)", {
        "--kind": {"choices": ("matrix-ed", "hypercubical-compare", "isotropic-sym"), "required": True},
        "--max-n": {"type": int, "default": 5},
        "--max-omega": {"type": int, "default": 4},
        "--k": {"type": int, "default": 3},
        "--omega": {"type": int, "default": 1},
        "--delta": {"type": int, "default": 0},
        "--n-min": {"type": int, "default": 2},
        "--n-max": {"type": int, "default": 8},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, built from ``_COMMANDS`` on first use and shared by every
    later call, so no caller may modify it.  It parses every call ``_match`` leaves."""
    parser = argparse.ArgumentParser(
        prog="kalmandeg",
        description="Exact degrees, generating functions and asymptotics for Kalman varieties of partially symmetric tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=handler)
    return parser


def _match(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives for ``argv``, or None where only argparse can tell.

    ``argv`` must name a subcommand first; every later argument is then an exact
    flag of it, a switch (``store_true``) alone or any other flag followed by
    one value that neither is empty nor starts with ``-``.  The value goes
    through the flag's ``type`` and its ``choices``.  No flag may repeat, and
    every required one must be given; the defaults fill in the rest.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    given = {}
    i, end = 1, len(argv)
    while i < end:
        flag = argv[i]
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true, the table's only action
            given[flag] = True
            i += 1
            continue
        if i + 1 == end or argv[i + 1][:1] in ("", "-"):
            return None
        try:
            value = spec.get("type", str)(argv[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse reports as invalid
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
        i += 2
    args = argparse.Namespace(command=argv[0], func=handler)
    for flag, spec in options.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default", False if "action" in spec else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """The namespace the full parser gives for ``argv`` (``sys.argv[1:]`` when None).

    ``_match`` answers the calls it can read off ``_COMMANDS``; every other call
    goes to the full parser, which writes every usage text, help text and
    argument error itself and exits 0 or 2: no argument, an unknown
    subcommand, ``-h``, an abbreviated flag, ``--flag=value``, a stray
    argument, a repeated flag, a missing required flag, a missing value, an
    empty value or one starting with ``-`` (a negative number), and a value
    that fails its conversion or its choices.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    # Exact results can exceed the interpreter's int-to-str digit limit
    # (4300 by default, where the limit exists); lift it for this command only.
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(argv)
        args.func(args)
        return 0
    except BrokenPipeError:
        # The reader of stdout went away, as ``| head`` does: not a failure of the
        # command.  No SIGPIPE handler, since tests and benchmarks call main in
        # process; where stdout is a real file, its descriptor now points at
        # os.devnull, so the interpreter's last flush at exit cannot raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # no descriptor under it, or closed
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except genfun.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal assertion failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
