"""The batched grid oracle against its size-1 case, point for point.

``family_grid`` and ``metric_from_vectors`` evaluate a whole
(theta, phi, chi) grid at once; ``state_at``, ``tangent_states`` and
``metric_numeric`` are the scalar calls.  Both must give the same numbers under verify's rule.
``family_grids`` stacks many fields and must give every field's
``family_grid`` exactly.
"""

import math

import numpy as np
import pytest

from spinmanifold.evolution import (
    CoordinatePoint,
    family_grid,
    family_grids,
    state_at,
    tangent_states,
)
from spinmanifold.fs_metric import (
    _validated_metrics,
    energy_uncertainties,
    metric_from_vectors,
    metric_numeric,
)
from spinmanifold.spin_ops import (
    Direction,
    FieldConfig,
    SpinSystem,
    build_field_hamiltonian,
    product_to_occupation,
)
from spinmanifold.verify import DEFAULT_SYSTEMS

THETA = np.array([0.0, 0.6, math.pi / 2, 2.5, math.pi])
PHI = np.array([0.0, 1.9, 4.4])
CHI = np.array([0.0, 1.3])
FIELDS = [FieldConfig(1.0, Direction(0.8, 2.2)), FieldConfig(1.0, Direction(2.9, 5.6))]


def agrees(a, b):
    """verify's rule per component: <= 1e-12 absolute or <= 1e-9 relative."""
    a, b = np.ravel(a), np.ravel(b)
    dev = np.abs(a - b)
    return bool(np.all((dev <= 1e-12) | (dev <= 1e-9 * np.maximum(np.abs(a), np.abs(b)))))


def metric_grid(sys, field=None):
    return metric_from_vectors(sys.gamma, *family_grid(sys, THETA, PHI, CHI, field))


def stacked_metric_numeric(sys, field=None):
    return np.array(
        [
            [
                [metric_numeric(sys, CoordinatePoint(t, p, c), field).components for c in CHI]
                for p in PHI
            ]
            for t in THETA
        ]
    )


@pytest.mark.parametrize("sys", DEFAULT_SYSTEMS, ids=lambda s: f"N{s.n_sites}_2s{s.two_s}")
def test_metric_grid_matches_metric_numeric(sys):
    grid = metric_grid(sys)
    assert grid.shape == (THETA.size, PHI.size, CHI.size, 3, 3)
    assert agrees(grid, stacked_metric_numeric(sys))


@pytest.mark.parametrize("field", FIELDS, ids=["dir_a", "dir_b"])
def test_metric_grid_matches_metric_numeric_with_field(field):
    sys = SpinSystem(4, 2)
    assert agrees(metric_grid(sys, field), stacked_metric_numeric(sys, field))


@pytest.mark.parametrize("field", [None, FIELDS[0]], ids=["zero_field", "field"])
def test_family_grid_size_one_is_state_at(field):
    sys = SpinSystem(3, 2)
    point = CoordinatePoint(1.1, 0.4, 2.3)
    psi, tangents = family_grid(sys, point.theta, point.phi, point.chi, field)
    assert psi.shape == (1, 1, 1, sys.occupation_dim)
    assert tangents.shape == (1, 1, 1, 3, sys.occupation_dim)
    ref = tangent_states(sys, point, field)
    assert np.array_equal(psi[0, 0, 0], state_at(sys, point, field).amplitudes)
    for got, want in zip(tangents[0, 0, 0], (ref.d_theta, ref.d_phi, ref.d_chi)):
        assert np.array_equal(got, want)


#: no field, h/J = 0, +z, -z and two directions off the z axis
MIXED_FIELDS = [
    None,
    FieldConfig(0.0, Direction(0.7, 2.1)),
    FieldConfig(2.5, Direction(0.0, 1.2)),
    FieldConfig(-1.3, Direction(math.pi, 0.4)),
    *FIELDS,
]


@pytest.mark.parametrize("chi", [[0.0, 0.0], CHI], ids=["chi_zero", "chi"])
@pytest.mark.parametrize("n,two_s", [(3, 2), (4, 2), (2, 3)])
def test_stacked_fields_equal_each_family_grid(n, two_s, chi):
    # THETA includes both poles; the off-axis fields share one eigh, the
    # diagonal ones propagate by phases, and all-zero chi propagates nothing
    sys = SpinSystem(n, two_s)
    psi, tangents = family_grids(sys, THETA, PHI, chi, MIXED_FIELDS)
    assert psi.shape == (len(MIXED_FIELDS), THETA.size, PHI.size, len(chi), sys.occupation_dim)
    for k, field in enumerate(MIXED_FIELDS):
        one_psi, one_tangents = family_grid(sys, THETA, PHI, chi, field)
        assert np.array_equal(psi[k], one_psi)
        assert np.array_equal(tangents[k], one_tangents)


def test_family_grids_rejects_an_empty_field_list():
    with pytest.raises(ValueError, match="at least one field"):
        family_grids(SpinSystem(2, 1), [0.3], 0.0, 0.0, [])


@pytest.mark.parametrize("empty", ["theta", "phi", "chi"])
def test_an_empty_axis_gives_empty_stacks(empty):
    grid = {"theta": [0.3, math.pi], "phi": [0.0, 1.9], "chi": [0.0, 0.9], empty: []}
    sys = SpinSystem(3, 2)
    psi, tangents = family_grid(sys, grid["theta"], grid["phi"], grid["chi"], FIELDS[0])
    shape = tuple(len(grid[axis]) for axis in ("theta", "phi", "chi"))
    assert psi.shape == shape + (sys.occupation_dim,)
    assert tangents.shape == shape + (3, sys.occupation_dim)
    assert metric_from_vectors(sys.gamma, psi, tangents).shape == shape + (3, 3)


@pytest.mark.parametrize("theta", [[0.3, 3.2], [-0.1], [0.3, math.nan]])
def test_family_grid_rejects_theta_out_of_range(theta):
    with pytest.raises(ValueError):
        family_grid(SpinSystem(2, 1), theta, 0.0, 0.0)


@pytest.mark.parametrize(
    "phi,chi",
    [([0.3, math.nan], 0.0), ([math.inf], 0.0), (0.0, [1.0, math.nan]), (0.0, -math.inf)],
)
def test_family_grid_rejects_non_finite_phi_chi(phi, chi):
    with pytest.raises(ValueError, match="finite"):
        family_grid(SpinSystem(2, 1), [0.3], phi, chi)


@pytest.mark.parametrize(
    "name,grids",
    [
        ("theta", ([[0.3, 0.5]], [0.1], [0.0])),
        ("phi", ([0.3], [[0.1], [0.2]], [0.0])),
        ("chi", ([0.3], [0.1], [[0.0, 0.5]])),
    ],
)
def test_family_grid_rejects_a_grid_of_more_than_one_dimension(name, grids):
    # a nested chi once came back as psi of shape (1, 1, 1, 1, 4), not (1, 1, 2, 4)
    with pytest.raises(ValueError, match=f"{name} must be a number or a 1-D grid"):
        family_grid(SpinSystem(3, 1), *grids)


@pytest.mark.parametrize("field", [None, FIELDS[1]], ids=["zero_field", "field"])
def test_batched_energy_uncertainty_matches_scalar(field):
    sys = SpinSystem(3, 2, coupling_j=-1.3)
    ham = build_field_hamiltonian(sys, field).matrix
    psi, _ = family_grid(sys, THETA, PHI, CHI, field)
    rows, weights = product_to_occupation(sys)
    gathered = psi[..., rows] * weights
    batched = energy_uncertainties(ham, gathered)
    assert batched.shape == psi.shape[:3]
    # the fancy gather is strided in memory and np.take's is C-contiguous;
    # the uncertainties must not depend on the layout
    taken = np.take(psi, rows, axis=-1) * weights
    assert not gathered.flags.c_contiguous and taken.flags.c_contiguous
    assert np.array_equal(energy_uncertainties(ham, taken), batched)
    scalar = [
        float(
            energy_uncertainties(
                ham, state_at(sys, CoordinatePoint(t, p, c), field).amplitudes[rows] * weights
            )
        )
        for t in THETA
        for p in PHI
        for c in CHI
    ]
    assert agrees(batched, scalar)


def test_batched_checks_reject_a_bad_point_anywhere():
    good = np.repeat(np.eye(3)[None], 4, axis=0)
    asymmetric, indefinite = good.copy(), good.copy()
    asymmetric[2, 0, 1] = 0.5
    indefinite[3, 1, 1] = -1.0
    assert np.array_equal(_validated_metrics(good), good)
    with pytest.raises(ValueError, match="not symmetric"):
        _validated_metrics(asymmetric)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        _validated_metrics(indefinite)


def _metric_with_least_eigenvalue(rng, ratio, big):
    """A random symmetric 3x3 metric whose least eigenvalue is ratio * 1e-10 * scale,
    with scale = max(1, max |g|) as _validated_metrics takes it; the other two
    eigenvalues are of order ``big``."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = (q * np.array([0.0, *rng.uniform(0.2, 0.5, 2) * big])) @ q.T
    scale = max(1.0, np.abs(g).max())
    g = g + ratio * 1e-10 * scale * np.outer(q[:, 0], q[:, 0])
    return (g + g.T) / 2.0, scale


@pytest.mark.parametrize("big", [1.0, 1e4], ids=["scale_1", "scale_1e4"])
@pytest.mark.parametrize("ratio", [-1.1, -1.01, -0.99, -0.9])
def test_psd_rule_is_the_least_eigenvalue_rule(ratio, big):
    rng = np.random.default_rng(19)
    for _ in range(25):
        g, scale = _metric_with_least_eigenvalue(rng, ratio, big)
        assert (scale == 1.0) == (big == 1.0)
        refused = np.linalg.eigvalsh(g)[0] / scale < -1e-10
        assert refused == (ratio < -1.0)
        if refused:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                _validated_metrics(g)
        else:
            assert np.array_equal(_validated_metrics(g), g)


def test_psd_rule_passes_the_zero_and_the_pole_metric():
    for g in (np.zeros((3, 3)), np.diag([0.25, 0.0, 0.0])):
        assert np.array_equal(_validated_metrics(g), g)


@pytest.mark.parametrize("where", [0, 17, 49])
def test_one_indefinite_metric_refuses_a_whole_stack(where):
    stack = np.repeat(np.diag([0.25, 0.0, 0.0])[None], 50, axis=0)
    assert np.array_equal(_validated_metrics(stack), stack)
    stack[where, 2, 2] = -1e-6
    with pytest.raises(ValueError, match="not positive semidefinite"):
        _validated_metrics(stack)


def test_a_nan_is_refused_before_the_psd_check():
    stack = np.repeat(np.eye(3)[None], 3, axis=0)
    stack[0, 1, 1] = -1.0
    stack[2, 0, 0] = math.nan
    with pytest.raises(ValueError, match="not finite"):
        _validated_metrics(stack)


def _verdict_corpus():
    """(label, 3x3 metric) pairs spanning every verdict of _validated_metrics: NaN and
    infinities in each entry, asymmetry on either side of 1e-10 * scale, least
    eigenvalues on either side of -1e-10 * scale, and the zero and the pole metric."""
    base = np.array([[0.5, 0.1, -0.2], [0.1, 0.3, 0.05], [-0.2, 0.05, 2.0]])
    corpus = [("zero", np.zeros((3, 3))), ("pole", np.diag([0.25, 0.0, 0.0]))]
    for i, j in np.ndindex(3, 3):
        for bad in (math.nan, math.inf, -math.inf):
            g = base.copy()
            g[i, j] = bad
            corpus.append((f"{bad}@{i}{j}", g))
    for big in (1.0, 1e4):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for ratio in (0.99, 1.01):
                g = base * big
                g[i, j] += ratio * 1e-10 * max(1.0, np.abs(g).max())
                corpus.append((f"asymmetry {ratio}@{i}{j} x{big}", g))
    rng = np.random.default_rng(23)
    for big in (1.0, 1e4):
        for ratio in (-1.1, -1.01, -0.99, -0.9):
            for k in range(5):
                corpus.append((f"least {ratio} x{big} #{k}", _metric_with_least_eigenvalue(rng, ratio, big)[0]))
    return corpus


def _outcome(call):
    """The result's bytes, or the ValueError message."""
    try:
        return call().tobytes()
    except ValueError as exc:
        return str(exc)


VERDICT_CORPUS = _verdict_corpus()


@pytest.mark.parametrize("label,g", VERDICT_CORPUS, ids=[label for label, _ in VERDICT_CORPUS])
def test_one_metric_and_a_stack_get_the_same_verdict(label, g):
    # the bare 3x3 is checked in Python floats, a stack in array operations
    others = np.stack([np.eye(3), np.diag([0.25, 0.0, 0.0]), np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0])])
    at = sum(map(ord, label)) % 5
    stack = np.insert(others, at, g, axis=0)
    single = _outcome(lambda: _validated_metrics(g.copy()))
    assert _outcome(lambda: _validated_metrics(g[None].copy())) == single
    assert _outcome(lambda: _validated_metrics(stack)[at]) == single
    if label.startswith("least"):
        refused = "-1.1 " in label or "-1.01 " in label
        assert (single == "metric is not positive semidefinite") == refused
        assert isinstance(single, bytes) != refused
    elif label.startswith("asymmetry"):
        assert (single == "metric components are not symmetric") == ("1.01" in label)
    elif label not in ("zero", "pole"):
        assert single == "metric components are not finite"
