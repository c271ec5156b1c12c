"""Re-runnable mutation checks: each row breaks one line of the package, and the tests it names must fail.

    python3 tools/mutants.py

Run from anywhere.  The named tests are first run once on an unmutated copy
and must all pass there, with pytest exiting 0.  Then, for each mutant,
``src/``, ``tests/`` and ``README.md`` (whose examples ``test_cli`` reads)
are copied to a temporary directory, the row's old snippet (which must occur
exactly once in its file) is replaced by the new one, and the row's tests
run there in one pytest subprocess, stopped after TIMEOUT seconds.  A mutant
is killed when every named test fails (or the run times out), partly killed
when only some fail, and survives when none does.  A run that names no
failing test but exits with pytest's collection or usage status (2 to 4: a
module that no longer imports, a test id not found) is a broken run, its own
verdict.  The exit status is 0 when every mutant is killed, 1 when one is
not, and 2 when the unmutated run fails.
Standard library only, apart from the pytest the tests themselves need.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per pytest run; the whole suite takes about 20

Mutant = namedtuple("Mutant", "id file old new tests")
# The head that a test_cli case id keeps of a run of more than 60 digits (test_cli._argv_id).
TEN_59 = "1" + "0" * 59

MUTANTS = [
    Mutant(
        "minors-shift-fold",
        "src/kalmandeg/genfun.py",
        "dets[half:] = [x - c * y for x, y in zip(dets[half:], dets[:half])]",
        "dets[half:] = [x + c * y for x, y in zip(dets[half:], dets[:half])]",
        ("tests/test_genfun.py::test_principal_minors_structured_matrices",
         "tests/test_genfun.py::test_principal_minors_against_cofactor_det"),
    ),
    Mutant(
        "minors-shift-plus-one",
        "src/kalmandeg/genfun.py",
        "c = max(sum(map(abs, row)) for row in a) + 1",
        "c = max(sum(map(abs, row)) for row in a)",
        ("tests/test_genfun.py::test_principal_minors_structured_matrices",),
    ),
    Mutant(
        "minor-sign",
        "src/kalmandeg/genfun.py",
        "minors = _principal_minors([[-x for x in row] for row in a])",
        "minors = _principal_minors([list(row) for row in a])",
        ("tests/test_genfun.py::test_H_equals_determinant_route",
         "tests/test_genfun.py::test_principal_minors_against_cofactor_det"),
    ),
    Mutant(
        "divide-pad-minimum",
        "src/kalmandeg/genfun.py",
        "pads = [max([1] + [d[i] for d, _ in tail]) for i in range(len(caps))]",
        "pads = [max([0] + [d[i] for d, _ in tail]) for i in range(len(caps))]",
        ("tests/test_genfun.py::test_expand_series_matches_leading_pad_oracle",
         "tests/test_genfun.py::test_expand_series_matches_substitution_route"),
    ),
    Mutant(
        "series-key-shift",
        "src/kalmandeg/genfun.py",
        "range(1, m + 1) for m in caps",
        "range(m) for m in caps",
        ("tests/test_genfun.py::test_expand_series_matches_leading_pad_oracle",
         "tests/test_degrees.py::test_series_at_the_largest_accepted_weight_is_a_geometric_sum"),
    ),
    Mutant(
        "series-shrunk-caps",
        "src/kalmandeg/genfun.py",
        "tuple(m - 1 for m in caps)",
        "tuple(m for m in caps)",
        ("tests/test_genfun.py::test_expand_series_matches_leading_pad_oracle",
         "tests/test_genfun.py::test_matrix_ed_box_at_the_largest_accepted_max_n_is_eckart_young"),
    ),
    Mutant(
        "mask-pad-bytes",
        "src/kalmandeg/genfun.py",
        "inbox = inbox * (m + 1) + bytes(len(inbox) * p)",
        "inbox = inbox * (m + 1 + p)",
        ("tests/test_genfun.py::test_scatter_division_matches_leading_pad_oracle",
         "tests/test_genfun.py::test_macmahon_small_cases"),
    ),
    Mutant(
        "macmahon-slice",
        "src/kalmandeg/genfun.py",
        "for i, c in prods[j + 1].items():",
        "for i, c in prods[j].items():",
        ("tests/test_genfun.py::test_macmahon_small_cases",
         "tests/test_genfun.py::test_macmahon_random_matrices",
         "tests/test_genfun.py::test_macmahon_sides_by_independent_routes"),
    ),
    Mutant(
        "macmahon-pad-filter",
        "src/kalmandeg/genfun.py",
        "if inbox[i]:",
        "if i >= 0:",
        ("tests/test_genfun.py::test_macmahon_walk_keeps_to_live_terms",),
    ),
    Mutant(
        "macmahon-pairs-per-term",
        "src/kalmandeg/genfun.py",
        "pairs = (1 + m) * volume * (volume // (max(caps) + 1))",
        "pairs = volume * (volume // (max(caps) + 1))",
        ("tests/test_genfun.py::test_macmahon_estimate_covers_the_slice_walk",
         "tests/test_genfun.py::test_macmahon_product_budget"),
    ),
    Mutant(
        "build-H-y-sign",
        "src/kalmandeg/genfun.py",
        "terms[s + (1,)] = -1",
        "terms[s + (1,)] = 1",
        ("tests/test_genfun.py::test_build_H_two_factor_example",
         "tests/test_genfun.py::test_H_equals_determinant_route",
         "tests/test_genfun.py::test_split_H_roundtrip"),
    ),
    Mutant(
        "refuse-over-strict",
        "src/kalmandeg/genfun.py",
        "if work > MAX_WORD_PRODUCTS:",
        "if work >= MAX_WORD_PRODUCTS:",
        ("tests/test_genfun.py::test_series_budget_counts_padded_cells_times_terms",
         "tests/test_genfun.py::test_macmahon_product_budget",
         "tests/test_isotropic.py::test_work_budget_counts_word_products"),
    ),
    Mutant(
        "series-decimal-term-dropped",
        "src/kalmandeg/genfun.py",
        "work = STEP_WORDS * size * (terms + words) + box * words * words",
        "work = STEP_WORDS * size * (terms + words)",
        ("tests/test_genfun.py::test_series_budget_counts_decimal_conversion",
         "tests/test_genfun.py::test_series_budget_counts_coefficient_bits",
         f"tests/test_cli.py::test_first_refused_inputs_exit_two_at_once[genfun --omega {TEN_59}...<5972 digits> --caps 18]"),
    ),
    Mutant(
        "series-decimal-term-doubled",
        "src/kalmandeg/genfun.py",
        "+ box * words * words",
        "+ 2 * box * words * words",
        ("tests/test_genfun.py::test_series_budget_counts_decimal_conversion",
         f"tests/test_cli.py::test_last_accepted_inputs_pass_their_budget[genfun --omega {TEN_59}...<5971 digits> --caps 18]",
         "tests/test_degrees.py::test_series_at_the_largest_accepted_weight_is_a_geometric_sum"),
    ),
    Mutant(
        "shift-cap-filter",
        "src/kalmandeg/degrees.py",
        "for e, c in terms.items() if e[i] < cap}",
        "for e, c in terms.items() if e[i] <= cap}",
        ("tests/test_degrees.py::test_extraction_work_counts",),
    ),
    Mutant(
        "extraction-work-per-term",
        "src/kalmandeg/degrees.py",
        "pairs = prod(sides) // longest * ((k + 2) * sum(",
        "pairs = prod(sides) // longest * ((k + 1) * sum(",
        ("tests/test_degrees.py::test_extraction_work_estimate_bounds_the_count",),
    ),
    Mutant(
        "symmetric-term-step",
        "src/kalmandeg/degrees.py",
        "term = term * (delta + j) // j * x",
        "term = term * (delta + j - 1) // j * x",
        ("tests/test_degrees.py::test_symmetric_equals_extraction",
         "tests/test_degrees.py::test_symmetric_degree_budget"),
    ),
    Mutant(
        "isotropic-binomial-horner",
        "src/kalmandeg/isotropic.py",
        "binom = -binom * (ni - a) // (a + 1)\n    total <<= k",
        "binom = -binom * (ni - a - 1) // (a + 1)\n    total <<= k",
        ("tests/test_isotropic.py::test_against_live_oracle_grid",
         "tests/test_isotropic.py::test_horner_route_matches_the_convolved_sum"),
    ),
    Mutant(
        "isotropic-binomial-list",
        "src/kalmandeg/isotropic.py",
        "binom = -binom * (ni - a) // (a + 1)\n    return coeffs",
        "binom = -binom * (ni - a - 1) // (a + 1)\n    return coeffs",
        ("tests/test_isotropic.py::test_against_live_oracle_grid",
         "tests/test_isotropic.py::test_horner_route_matches_the_convolved_sum"),
    ),
    Mutant(
        "isotropic-horner-multiplier",
        "src/kalmandeg/isotropic.py",
        "acc, f = 0, m - a + top",
        "acc, f = 0, m - a + top - 1",
        ("tests/test_isotropic.py::test_against_live_oracle_grid",
         "tests/test_isotropic.py::test_horner_route_matches_the_convolved_sum",
         "tests/test_isotropic.py::test_single_factor_at_the_largest_accepted_n_is_the_closed_form"),
    ),
    Mutant(
        "isotropic-build-term-halved",
        "src/kalmandeg/isotropic.py",
        "work += 2 * build + ",
        "work += 1 * build + ",
        (f"tests/test_cli.py::test_first_refused_inputs_exit_two_at_once[isotropic --n 4111,40 --omega 3,{TEN_59}...<201 digits>]",),
    ),
    Mutant(
        "symmetric-codim",
        "src/kalmandeg/isotropic.py",
        "return (k - 1) * (n - 1)",
        "return (k - 1) * n",
        ("tests/test_isotropic.py::test_tuple_codims_are_jacobian_coranks",
         "tests/test_isotropic.py::test_partition_codim_sums_the_symmetric_codims_of_its_parts"),
    ),
    Mutant(
        "partition-codim-parts",
        "src/kalmandeg/isotropic.py",
        "return (k - t) * (n - 1)",
        "return (k - t) * (n - 1) * t",
        ("tests/test_isotropic.py::test_tuple_codims_are_jacobian_coranks",
         "tests/test_isotropic.py::test_partition_codim_sums_the_symmetric_codims_of_its_parts"),
    ),
    Mutant(
        "constants-slope-exponent",
        "src/kalmandeg/asympt.py",
        "(wk, k - 2), (wk - 2, k), (wk - 1, 1 - 2 * k)",
        "(wk, k - 2), (wk - 2, k - 1), (wk - 1, 1 - 2 * k)",
        ("tests/test_asympt.py::test_verify_critical_point_grid",
         "tests/test_asympt.py::test_constants_match_the_fraction_chain",
         "tests/test_asympt.py::test_constants_at_the_largest_accepted_k_match_their_closed_forms_mod_p"),
    ),
    Mutant(
        "verify-class-binomial",
        "src/kalmandeg/asympt.py",
        "d = d * q + binom * j // k * coeff",
        "d = d * q + binom * coeff",
        ("tests/test_asympt.py::test_verify_critical_point_grid",
         "tests/test_asympt.py::test_verify_critical_point_against_sympy",
         "tests/test_asympt.py::test_verify_critical_point_matches_the_term_map"),
    ),
    Mutant(
        "verify-slope-one-minus-c",
        "src/kalmandeg/asympt.py",
        "(d * p - h * q)",
        "(d - h * q)",
        ("tests/test_asympt.py::test_verify_critical_point_grid",
         "tests/test_asympt.py::test_verify_critical_point_against_sympy",
         "tests/test_asympt.py::test_verify_critical_point_matches_the_term_map"),
    ),
    Mutant(
        "split-H1-support",
        "src/kalmandeg/genfun.py",
        "if s[0]:",
        "if s[-1]:",
        ("tests/test_genfun.py::test_split_H_roundtrip",
         "tests/test_genfun.py::test_H_equals_determinant_route"),
    ),
    Mutant(
        "add-cap-filter",
        "src/kalmandeg/polycore.py",
        "if caps is not None:\n            out = {e: c for e, c in out.items() if all(map(le, e, caps))}",
        "if False:\n            out = {e: c for e, c in out.items() if all(map(le, e, caps))}",
        ("tests/test_polycore.py::test_add_matches_validating_constructor_property",),
    ),
    Mutant(
        "show-h-comparison",
        "src/kalmandeg/cli.py",
        "agree = h == h_det",
        "agree = True",
        ("tests/test_cli.py::test_genfun_show_h_mismatch_exits_three",),
    ),
    Mutant(
        "show-h-text-always-reused",
        "src/kalmandeg/cli.py",
        "det_text = h_text if agree else str(h_det)",
        "det_text = h_text",
        ("tests/test_cli.py::test_genfun_show_h_mismatch_exits_three",),
    ),
    Mutant(
        "verify-expected-text-reused",
        "src/kalmandeg/cli.py",
        "expected = slope if agree else str(report.expected_slope_product)",
        "expected = slope",
        ("tests/test_cli.py::test_verify_mismatch_prints_the_expected_value",),
    ),
    Mutant(
        "json-encoder-sort-keys",
        "src/kalmandeg/cli.py",
        "base.sort_keys, base.skipkeys",
        "not base.sort_keys, base.skipkeys",
        ("tests/test_cli.py::test_json_lines_equal_sorted_dumps[c]",
         "tests/test_cli.py::test_golden_stdout"),
    ),
    Mutant(
        "closed-stdout-handler",
        "src/kalmandeg/cli.py",
        "except BrokenPipeError:",
        "except NotImplementedError:",
        ("tests/test_cli.py::test_closed_stdout_stops_quietly_with_exit_one[csv]",
         "tests/test_cli.py::test_closed_stdout_stops_quietly_with_exit_one[json]",
         "tests/test_cli.py::test_closed_pipe_points_stdout_at_devnull",
         "tests/test_cli.py::test_closed_pipe_exits_one_with_empty_stderr"),
    ),
    Mutant(
        "closed-stdout-devnull",
        "src/kalmandeg/cli.py",
        "os.dup2(devnull, fd)",
        "pass",
        ("tests/test_cli.py::test_closed_pipe_points_stdout_at_devnull",),
    ),
    Mutant(
        "asympt-n-exponent",
        "src/kalmandeg/asympt.py",
        "- ((k - 1) / 2 - delta) * math.log10(n)",
        "- ((k - 1) / 2 + delta) * math.log10(n)",
        ("tests/test_asympt.py::test_richardson_limit_of_the_ratio_is_one[3-1-1]",
         "tests/test_asympt.py::test_richardson_limit_of_the_ratio_is_one[4-2-2]",
         "tests/test_asympt.py::test_richardson_limit_of_the_ratio_is_one[3-2-1]"),
    ),
    Mutant(
        "log10-digits-down",
        "src/kalmandeg/asympt.py",
        "digits -= 1",
        "digits -= 0",
        ("tests/test_asympt.py::test_log10_bigint_matches_leading_digits",),
    ),
    Mutant(
        "isotropic-sym-rows-listed",
        "src/kalmandeg/cli.py",
        'return ["n", "omega", "degree"], (',
        'return ["n", "omega", "degree"], list(',
        ("tests/test_cli.py::test_table_failure_after_the_first_row_keeps_the_printed_rows[csv]",
         "tests/test_cli.py::test_table_failure_after_the_first_row_keeps_the_printed_rows[json]",
         "tests/test_cli.py::test_table_keeps_no_copy_of_its_rows[csv]",
         "tests/test_cli.py::test_table_keeps_no_copy_of_its_rows[json]"),
    ),
]

# A -rfE summary line: the outcome, the test id (which may hold spaces) and, unless the id
# alone fills the terminal's width, " - " and the first line of the message.
_OUTCOME = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)


def _failed(stdout: str) -> set[str]:
    """The ids of the tests that failed or errored, read off pytest's -rfE summary."""
    return set(_OUTCOME.findall(stdout))


def _pytest(folder: Path, tests: list[str]) -> tuple[int | None, set[str]]:
    """Run ``tests`` in ``folder``; (pytest's exit status or None on timeout, the named tests that failed or errored)."""
    env = {**os.environ, "PYTHONPATH": str(folder / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(argv, cwd=folder, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, set(tests)
    failed = _failed(run.stdout)
    return run.returncode, {t for t in tests if any(node == t or node.startswith(t + "[") for node in failed)}


def _copy(folder: Path) -> None:
    for part in ("src", "tests"):
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        shutil.copytree(ROOT / part, folder / part, ignore=ignore)
    shutil.copy2(ROOT / "README.md", folder)


def _apply(mutant: Mutant, folder: Path) -> None:
    """Replace the mutant's old snippet, which must occur exactly once, in the copy under ``folder``."""
    path = folder / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.id}: the old snippet occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        status, failed = _pytest(base, sorted({t for m in MUTANTS for t in m.tests}))
        if status != 0:
            print(f"unmutated run: exit status {status}, failing: {sorted(failed)}")
            return 2
        killed = 0
        for mutant in MUTANTS:
            folder = Path(tmp) / mutant.id
            _copy(folder)
            _apply(mutant, folder)
            status, failed = _pytest(folder, list(mutant.tests))
            if status is None or len(failed) == len(mutant.tests):
                verdict = "killed" if status is not None else "killed (timeout)"
                killed += 1
            elif failed:
                verdict = f"partly killed; passed: {sorted(set(mutant.tests) - failed)}"
            elif status in (2, 3, 4):
                verdict = f"BROKEN RUN (pytest exit status {status})"
            else:
                verdict = "SURVIVED"
            print(f"{mutant.id}: {verdict}", flush=True)
            shutil.rmtree(folder)
        print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1

if __name__ == "__main__":
    sys.exit(main())
