"""Which independent routes check each exact-valued public name.

Every name in ``kalmandeg.__all__`` sits in exactly one group:

- ``EXACT``: functions whose results are exact (integers, rationals, term
  maps, a verdict), and ``RationalSeries``, whose expansion is one;
- ``FLOAT``: the floating-point estimates;
- ``RECORD``: the types the others take or return.

``ROUTES`` maps each ``EXACT`` name to the routes that check it.  A route is
``(test, helper, ...)``: the test, as ``module::function`` under ``tests/``,
that compares the name with another computation, and the function or
functions that make that computation, as ``module.function``: a test module,
or ``kalmandeg.<module>`` for a second package path.  A helper must not
reach the name it checks, directly or through its own module's functions;
``test_routes.py`` checks that and the rest of this table by AST.

``SINGLE_ROUTE`` holds the ``EXACT`` names with fewer than two routes.  Each
is a gap to close, not a name to drop.
"""

EXACT = frozenset({
    "RationalSeries",
    "build_H",
    "build_H_via_determinant",
    "compare_exact_asymptotic",
    "critical_constants",
    "expand_series",
    "extract_degree",
    "isotropic_degree",
    "isotropic_degree_symmetric",
    "kalman_degree",
    "macmahon_check",
    "partition_tuple_codim",
    "symmetric_degree",
    "symmetric_tuple_codim",
    "verify_critical_point",
})

FLOAT = frozenset({"asymptotic_degree", "ratio_to_exact"})

RECORD = frozenset({
    "AsymptoticEstimate",
    "CodimVec",
    "ComparisonRow",
    "CriticalConstants",
    "CriticalPointReport",
    "IsotropicResult",
    "TPoly",
    "TensorFormat",
})

ROUTES = {
    "extract_degree": (
        ("test_degrees::test_extraction_matches_sympy_oracle_on_grid", "oracles.oracle_extract"),
        ("test_degrees::test_extraction_equals_full_product_on_random_formats", "test_degrees.full_product_degree"),
        ("test_degrees::test_extraction_routes_agree_property", "test_degrees.closed_form_degree"),
        ("test_degrees::test_binary_degree_values_and_oracle", "oracles.oracle_binary"),
        ("test_genfun::test_series_matches_extraction_property", "kalmandeg.genfun.expand_series"),
        ("test_degrees::test_extraction_at_the_largest_accepted_n_is_a_geometric_sum", "test_degrees.geometric_factor"),
    ),
    "kalman_degree": (
        ("test_degrees::test_kalman_degree_against_oracles", "oracles.oracle_extract"),
        ("test_degrees::test_kalman_degree_against_oracles", "test_degrees.closed_form_degree"),
    ),
    "symmetric_degree": (
        ("test_degrees::test_symmetric_equals_extraction", "kalmandeg.degrees.extract_degree"),
        ("test_genfun::test_single_factor_series_matches_closed_form", "kalmandeg.genfun.expand_series"),
        ("test_degrees::test_symmetric_degree_at_the_largest_accepted_n_matches_its_sum_mod_p", "test_degrees._binomial_sum_mod"),
    ),
    "expand_series": (
        ("test_genfun::test_series_matches_extraction_property", "kalmandeg.degrees.extract_degree"),
        ("test_genfun::test_expand_series_matches_leading_pad_oracle", "test_genfun._leading_pad_series"),
        ("test_genfun::test_expand_series_matches_substitution_route", "test_genfun._substitution_series"),
        ("test_degrees::test_series_at_the_largest_accepted_weight_is_a_geometric_sum", "test_degrees.geometric_factor"),
        ("test_genfun::test_matrix_ed_box_at_the_largest_accepted_max_n_is_eckart_young", "test_genfun.eckart_young_degree"),
    ),
    "RationalSeries": (
        ("test_genfun::test_scatter_division_matches_leading_pad_oracle", "test_genfun._leading_pad_division"),
        ("test_genfun::test_series_times_denominator_property", "kalmandeg.polycore.poly_mul"),
    ),
    "build_H": (
        ("test_genfun::test_H_equals_determinant_route", "kalmandeg.genfun.build_H_via_determinant"),
        ("test_genfun::test_equal_weight_symmetric_rewrite", "test_genfun.elementary_symmetric"),
        ("test_genfun::test_split_H_roundtrip", "oracles.split_h"),
    ),
    "build_H_via_determinant": (
        ("test_genfun::test_H_equals_determinant_route", "kalmandeg.genfun.build_H"),
        ("test_genfun::test_H_equals_determinant_route", "test_genfun._cofactor_H"),
    ),
    "macmahon_check": (
        ("test_genfun::test_macmahon_sides_by_independent_routes", "test_genfun._macmahon_product_side"),
        ("test_genfun::test_macmahon_sides_by_independent_routes", "test_genfun._macmahon_series_side"),
    ),
    "isotropic_degree": (
        ("test_isotropic::test_against_live_oracle_property", "oracles.oracle_isotropic"),
        ("test_isotropic::test_against_class_formula_property", "oracles.oracle_isotropic_chow"),
        ("test_isotropic::test_horner_route_matches_the_convolved_sum", "test_isotropic._convolved_degree"),
        ("test_isotropic::test_single_factor_at_the_largest_accepted_n_is_the_closed_form", "kalmandeg.isotropic.isotropic_degree_symmetric"),
    ),
    "isotropic_degree_symmetric": (
        ("test_isotropic::test_single_factor_specializes_to_closed_form", "kalmandeg.isotropic.isotropic_degree"),
        ("test_isotropic::test_symmetric_closed_form_matches_the_sum", "test_isotropic._symmetric_sum"),
        ("test_isotropic::test_single_factor_at_the_largest_accepted_n_is_the_closed_form", "kalmandeg.isotropic.isotropic_degree"),
    ),
    "symmetric_tuple_codim": (
        ("test_isotropic::test_tuple_codims_are_jacobian_coranks", "test_isotropic._partition_diagonal_codim"),
        ("test_isotropic::test_partition_codim_sums_the_symmetric_codims_of_its_parts", "kalmandeg.isotropic.partition_tuple_codim"),
    ),
    "partition_tuple_codim": (
        ("test_isotropic::test_tuple_codims_are_jacobian_coranks", "test_isotropic._partition_diagonal_codim"),
        ("test_isotropic::test_partition_codim_sums_the_symmetric_codims_of_its_parts", "kalmandeg.isotropic.symmetric_tuple_codim"),
    ),
    "critical_constants": (
        ("test_asympt::test_constants_match_the_fraction_chain", "test_asympt._chained_constants"),
        ("test_asympt::test_det_hessian_matches_phase_hessian_of_f_d", "test_asympt._phase_v", "test_asympt._phase_hessian_det"),
        ("test_asympt::test_constants_at_the_largest_accepted_k_match_their_closed_forms_mod_p", "test_asympt._residue_fraction"),
    ),
    "verify_critical_point": (
        ("test_asympt::test_f_d_vanishes_at_critical_point", "test_polycore.evaluate", "test_polycore.partial"),
        ("test_asympt::test_verify_critical_point_against_sympy", "test_asympt._sympy_f_d"),
        ("test_asympt::test_verify_critical_point_matches_the_term_map", "test_asympt._term_map_report"),
        ("test_asympt::test_verify_at_the_largest_accepted_k_matches_the_product_form_mod_p", "test_asympt._product_form_slope_mod"),
    ),
    "compare_exact_asymptotic": (
        ("test_asympt::test_compare_rows_carry_exact_degrees", "test_degrees.closed_form_degree"),
        ("test_asympt::test_compare_rows_carry_exact_degrees", "oracles.oracle_extract"),
        ("test_asympt::test_compare_at_the_largest_accepted_n_max_is_the_closed_form", "test_degrees.closed_form_degree"),
    ),
}

SINGLE_ROUTE = frozenset()
