"""The package's public names, pinned: adding or removing one shows in review."""

import spinmanifold

PUBLIC_NAMES = [
    "CoordinatePoint",
    "DegenerateDirection",
    "DimensionGuardError",
    "Direction",
    "FieldConfig",
    "ManifoldSpec",
    "ManyBodyOperator",
    "MetricTensor",
    "OutOfRange",
    "SingularPoint",
    "SpeedExtrema",
    "SpinSystem",
    "StateVector",
    "SweepGrid",
    "TangentStates",
    "VerificationReport",
    "angular_defect",
    "build_field_hamiltonian",
    "build_spin_operators",
    "chi_max_for",
    "curvature_from_speed",
    "curvature_min",
    "curvature_numeric_from_profile",
    "family_grid",
    "family_grids",
    "gauss_bonnet_euler",
    "metric_closed_form",
    "metric_closed_form_field",
    "metric_closed_form_field_array",
    "metric_numeric",
    "min_speed_field",
    "run_full_suite",
    "scalar_curvature",
    "special_case_speed",
    "speed_closed_form",
    "speed_extrema",
    "speed_numeric",
    "state_at",
    "tangent_states",
    "thermo_limit",
]


def test_public_names_are_pinned():
    assert sorted(spinmanifold.__all__) == PUBLIC_NAMES
    assert all(hasattr(spinmanifold, name) for name in PUBLIC_NAMES)
