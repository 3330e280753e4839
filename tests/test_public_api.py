"""The package's public surface: every exported name resolves, and none is lost."""

import supercurves

PUBLIC_NAMES = [
    "BigCellError", "DimensionError", "DomainError", "DualPeriodVector", "GrassmannScalar",
    "HeisenbergElement", "NotInvertibleError", "ParityError", "PeriodData",
    "RealStructure", "SuperEllipticData", "SuperLinearSystem", "SuperMatrix",
    "SuperThetaFunction", "SupercurvesError", "ThetaContext", "TruncatedFrame",
    "TruncationWindow", "baker_matrix", "baker_tau_quotient_check", "baker_vectors",
    "berezinian", "berezinian_star", "big_cell_test", "bilinear_check",
    "build_super_theta", "check_multipliers", "cocycle", "connecting_map", "det_even",
    "dual_cohomology", "invert_matrix", "lattice_generators", "multiplication_matrix",
    "oracle_solve", "pair_relation_check", "projectedness_flags", "quasideterminant",
    "riemann_roch", "solve_cramer", "solve_via_inverse", "standard_frame", "tau",
    "tau_closed_form", "tau_ratio", "theta", "theta_derivative",
]


def test_all_names_resolve():
    for name in supercurves.__all__:
        assert hasattr(supercurves, name), name


def test_all_is_unchanged():
    assert supercurves.__all__ == PUBLIC_NAMES
