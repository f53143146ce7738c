"""Quantum-state-manifold geometry of the long-range zz-Ising spin-s system.

Exact simulation of N spin-s particles coupled all-to-all through their z
components, in the C(N+2s, 2s)-dimensional symmetric subspace, plus the
closed-form Fubini-Study metric, scalar curvature, Gauss-Bonnet topology
and evolution-speed results for the three-parameter family of states
reached from a polarized product state.
"""

from .spin_ops import (
    SpinSystem,
    ManyBodyOperator,
    Direction,
    FieldConfig,
    DimensionGuardError,
    build_spin_operators,
    build_field_hamiltonian,
)
from .evolution import (
    StateVector,
    CoordinatePoint,
    TangentStates,
    tangent_states,
    state_at,
    family_grid,
    family_grids,
)
from .fs_metric import (
    MetricTensor,
    metric_numeric,
    speed_numeric,
)
from .analytic import (
    ManifoldSpec,
    SpeedExtrema,
    SingularPoint,
    OutOfRange,
    DegenerateDirection,
    chi_max_for,
    metric_closed_form,
    metric_closed_form_field,
    metric_closed_form_field_array,
    scalar_curvature,
    curvature_min,
    curvature_numeric_from_profile,
    angular_defect,
    gauss_bonnet_euler,
    speed_closed_form,
    speed_extrema,
    curvature_from_speed,
    thermo_limit,
    min_speed_field,
    special_case_speed,
)
from .verify import SweepGrid, VerificationReport, run_full_suite

__all__ = [
    "SpinSystem",
    "ManyBodyOperator",
    "Direction",
    "FieldConfig",
    "DimensionGuardError",
    "build_spin_operators",
    "build_field_hamiltonian",
    "StateVector",
    "CoordinatePoint",
    "TangentStates",
    "tangent_states",
    "state_at",
    "family_grid",
    "family_grids",
    "MetricTensor",
    "metric_numeric",
    "speed_numeric",
    "ManifoldSpec",
    "SpeedExtrema",
    "SingularPoint",
    "OutOfRange",
    "DegenerateDirection",
    "chi_max_for",
    "metric_closed_form",
    "metric_closed_form_field",
    "metric_closed_form_field_array",
    "scalar_curvature",
    "curvature_min",
    "curvature_numeric_from_profile",
    "angular_defect",
    "gauss_bonnet_euler",
    "speed_closed_form",
    "speed_extrema",
    "curvature_from_speed",
    "thermo_limit",
    "min_speed_field",
    "special_case_speed",
    "SweepGrid",
    "VerificationReport",
    "run_full_suite",
]

__version__ = "0.1.0"
