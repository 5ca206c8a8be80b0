"""The package's public names.

``defectseq.__all__`` is built from the submodules' own ``__all__``;
this pins the set it must come out as, so a name a submodule adds or
drops shows up here.
"""

import importlib

import defectseq
import defectseq.suites

PUBLIC = {
    "ArgumentError",
    "ClassificationReport",
    "ConsistencyError",
    "ContractivityError",
    "DEFAULT_SIZE_CAP",
    "DEFAULT_TOL",
    "DefectReport",
    "DefectseqError",
    "HERMITIAN_ATOL",
    "MaximalityVerdict",
    "ORTHONORMALITY_ATOL",
    "OperatorTuple",
    "ProductBoundCheck",
    "Purity",
    "PurityVerdict",
    "RankSymmetryVerdict",
    "RankTolerance",
    "SIZE_CAP_ENV",
    "SUITE_NAMES",
    "SizeCapError",
    "Subspace",
    "SuiteResult",
    "TUPLE_FORMAT",
    "TUPLE_FORMAT_VERSION",
    "TupleFormatError",
    "VERSION",
    "apply_cp_map",
    "as_operator_matrix",
    "classify",
    "coinvariant_hull",
    "commutant_dimension",
    "commuting_bound",
    "compress",
    "contractivity_margin",
    "coordinate_subspace",
    "cp_iterate",
    "defect_dimension",
    "defect_operator",
    "defect_sequence",
    "defect_space",
    "defect_space_via_words",
    "direct_sum",
    "expand_suite_names",
    "finite_phi_compression",
    "finite_phi_subspace",
    "fock_basis",
    "fock_creation",
    "geometric_bound",
    "haar_unitary",
    "hermitian_eig",
    "hermitize",
    "is_commuting",
    "is_contractive",
    "is_irreducible",
    "is_maximal_commuting",
    "is_maximal_noncommutative",
    "maximality_commuting",
    "maximality_noncommutative",
    "monomial_basis",
    "numerical_rank",
    "orthonormal_range",
    "payload_to_tuple",
    "pure_nonmaximal_example",
    "purity",
    "random_coinvariant_compression",
    "random_coinvariant_subspace",
    "random_contractive",
    "rank_symmetry_check",
    "read_tuple",
    "report_json",
    "require_contractive",
    "require_hermitian",
    "right_creation_compression",
    "right_creation_subspace",
    "row_operator",
    "run_suite",
    "run_suites",
    "scalar_spherical_tuple",
    "size_cap",
    "spherical_shift_sum",
    "subspace_complement",
    "subspace_contains",
    "subspace_equal",
    "subspace_join",
    "suite_descriptions",
    "symmetric_fock_shift",
    "symmetric_shift_via_compression",
    "symmetrizer",
    "tuple_power",
    "tuple_product",
    "tuple_to_payload",
    "validate_word",
    "verify_product_bounds",
    "word_apply",
    "word_image_dimension",
    "word_index",
    "words_of_length",
    "write_report",
    "write_tuple",
}


def test_public_names_are_pinned():
    assert set(defectseq.__all__) == PUBLIC
    assert len(defectseq.__all__) == len(PUBLIC)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(defectseq, name) is not None


def test_names_keep_their_objects():
    # ``classify`` is the function, as the module's name is shadowed.
    module = importlib.import_module("defectseq.classify")
    assert defectseq.classify is module.classify
    assert defectseq.__version__ == defectseq.VERSION


def test_suite_sampling_defaults_stay_in_their_module():
    assert "DEFAULT_SEED" in defectseq.suites.__all__
    assert not hasattr(defectseq, "DEFAULT_SEED")
    assert not hasattr(defectseq, "DEFAULT_SAMPLES")
