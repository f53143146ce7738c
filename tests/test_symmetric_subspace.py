"""The occupation-basis oracle against independent product-space references.

The references here are test-only: the isometry V from exact factorials,
total spins and Hamiltonians from Kronecker products, the single-site
rotation from ``scipy.linalg.expm`` and the propagator from
``scipy.sparse.linalg.expm_multiply``.  They cover every system of the
verify suite with (2s+1)^N <= 4096 and the benchmark ladder rungs.
"""

import itertools
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from spinmanifold import analytic, spin_ops, verify
from spinmanifold.evolution import (
    CoordinatePoint,
    _generator_groups,
    family_grid,
    family_grids,
    state_at,
    tangent_states,
)
from spinmanifold.fs_metric import metric_numeric, speed_numeric
from spinmanifold.spin_ops import (
    Direction,
    DimensionGuardError,
    FieldConfig,
    SpinSystem,
    apply_total_spin,
    build_field_hamiltonian,
    build_spin_operators,
    field_vectors,
    ising_pair_sums,
    occupation_basis,
    product_to_occupation,
    total_spin_operator,
)

#: (N, 2s): verify's zero-field and field systems, its topology system (6, 3),
#: the ladder rungs (4, 1), (3, 3), (6, 1), (10, 1), (12, 1), and (2, 8), whose
#: ladder table is 4 wide where 4s = 16
SYSTEMS = [
    (2, 1), (3, 2), (4, 1), (2, 3), (3, 3), (4, 2), (6, 3), (6, 1), (10, 1), (12, 1), (2, 8)
]
#: field cases by test id; every one but field_a and field_b has a diagonal generator
FIELD_CASES = {
    "zero_field": None,
    "field_a": FieldConfig(1.0, Direction(0.7, 2.1)),
    "field_b": FieldConfig(1.6, Direction(2.3, 5.0)),
    "along_z": FieldConfig(2.5, Direction(0.0, 1.2)),
    "along_minus_z": FieldConfig(-1.3, Direction(math.pi, 0.4)),
    "zero_ratio": FieldConfig(0.0, Direction(0.7, 2.1)),
}
FIELDS, FIELD_IDS = list(FIELD_CASES.values()), list(FIELD_CASES)
POINTS = [CoordinatePoint(0.4, 1.3, 0.8), CoordinatePoint(2.2, 4.6, 1.9)]


def agrees(a, b, floor=1e-12):
    """verify's rule per component: <= ``floor`` absolute or <= 1e-9 relative."""
    a, b = np.ravel(a), np.ravel(b)
    dev = np.abs(a - b)
    rel = dev / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return bool(np.all((dev <= floor) | (rel <= 1e-9)))


def isometry(sys):
    """Dense V (d x D): column o is the normalized symmetrization of occupation o."""
    occ = spin_ops._occupations(sys.n_sites, sys.two_s)
    column = {tuple(row): o for o, row in enumerate(occ.tolist())}
    v = np.zeros((sys.dim, len(occ)))
    for i, levels in enumerate(itertools.product(range(sys.site_dim), repeat=sys.n_sites)):
        counts = tuple(levels.count(k) for k in range(sys.site_dim))
        multinomial = math.factorial(sys.n_sites) // math.prod(math.factorial(c) for c in counts)
        v[i, column[counts]] = 1.0 / math.sqrt(multinomial)
    return v


def kron_total(sys, site_op):
    """Sum_j I x ... x site_op (at j) x ... x I as a sparse matrix."""
    eye = sp.identity(sys.site_dim, format="csr")
    terms = (
        reduce(
            lambda a, b: sp.kron(a, b, format="csr"),
            [site_op if k == j else eye for k in range(sys.n_sites)],
        )
        for j in range(sys.n_sites)
    )
    return sp.csr_matrix(sum(terms))


def reference_vectors(sys, point, field):
    """Product-space psi and (d_theta, d_phi, d_chi), all test-only arithmetic."""
    sx, sy, sz = (sp.csr_matrix(op) for op in build_spin_operators(sys.two_s))
    tot = {"x": kron_total(sys, sx), "y": kron_total(sys, sy), "z": kron_total(sys, sz)}
    # Sum_{i<j} S_i^z S_j^z = ((Sum S^z)^2 - Sum (S^z)^2) / 2
    gen = (tot["z"] @ tot["z"] - kron_total(sys, sz @ sz)) / 2.0
    if field is not None:
        n = np.array(field.direction.components())
        gen = gen + field.ratio_h_over_j / 2.0 * sum(n[i] * tot[k] for i, k in enumerate("xyz"))
    up = np.zeros(sys.site_dim, dtype=complex)
    up[0] = 1.0
    rot = expm(-1j * point.theta * sy.toarray()) @ up
    site = np.exp(-1j * point.phi * np.diag(sz.toarray())) * rot
    d_site = np.exp(-1j * point.phi * np.diag(sz.toarray())) * (-1j * (sy @ rot))
    psi0 = reduce(np.kron, [site] * sys.n_sites)
    d_theta0 = sum(
        reduce(np.kron, [d_site if k == j else site for k in range(sys.n_sites)])
        for j in range(sys.n_sites)
    )
    d_phi0 = -1j * (tot["z"] @ psi0)
    start = np.stack([psi0, d_theta0, d_phi0], axis=1)
    evolved = expm_multiply(-2j * point.chi * sp.csc_matrix(gen), start)
    psi = evolved[:, 0]
    return psi, (evolved[:, 1], evolved[:, 2], -2j * (gen @ psi))


def reference_metric(sys, psi, vecs):
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            projected = np.vdot(vecs[i], psi) * np.vdot(psi, vecs[j])
            g[i, j] = (np.vdot(vecs[i], vecs[j]) - projected).real
    return sys.gamma**2 * g


@pytest.mark.parametrize("n,two_s", SYSTEMS)
def test_total_spin_restricts_to_occupation_operator(n, two_s):
    sys = SpinSystem(n, two_s)
    basis = occupation_basis(sys)
    v = isometry(sys)
    assert np.abs(v.T @ v - np.eye(v.shape[1])).max() < 1e-12
    rng = np.random.default_rng(n * 10 + two_s)
    stack = rng.normal(size=(2, 3, v.shape[1])) + 1j * rng.normal(size=(2, 3, v.shape[1]))
    for kind in "xyz":
        dense = total_spin_operator(sys, kind).matrix
        restricted = v.T @ (dense @ v)
        # column o of the operator is its apply on basis vector o
        applied = apply_total_spin(basis, kind, np.eye(v.shape[1])).T
        assert np.abs(restricted - applied).max() < 1e-12, kind
        assert np.abs(apply_total_spin(basis, kind, stack) - stack @ restricted.T).max() < 1e-12
        # Sum_j S_j^kind maps the symmetric subspace into itself
        assert np.abs(dense @ v - v @ restricted).max() < 1e-12, kind


@pytest.mark.parametrize("n,two_s", SYSTEMS + [(2, 150), (19999, 1)])
def test_rank_of_each_occupation_is_its_row(n, two_s):
    # the rows run in descending lexicographic order of n, and the rank finds them
    occ = spin_ops._occupations(n, two_s)
    assert occ.shape == (math.comb(n + two_s, two_s), two_s + 1)
    assert np.all(occ.sum(axis=1) == n) and np.all(occ >= 0)
    assert np.all(np.diff(occ[:, 0]) <= 0)
    steps = np.diff(occ, axis=0)
    first = np.argmax(steps != 0, axis=1)  # the first level at which two rows differ
    assert np.all(steps[np.arange(len(steps)), first] < 0)
    np.testing.assert_array_equal(spin_ops._occupation_rows(occ), np.arange(len(occ)))


@pytest.mark.parametrize("n,two_s", SYSTEMS + [(2, 150), (19999, 1), (20, 4), (3, 10)])
def test_ladder_table_holds_only_real_moves(n, two_s):
    basis = occupation_basis(SpinSystem(n, two_s))
    rows, half = basis.ladder_rows, basis.ladder_coefficients["x"]
    moves = np.count_nonzero(half, axis=1)
    assert rows.shape == half.shape == basis.ladder_coefficients["y"].shape
    assert rows.shape[1] == moves.max() <= 2 * min(n, two_s)
    # each row's moves come first; its spare entries point at itself with weight 0
    spare = np.arange(rows.shape[1]) >= moves[:, None]
    assert np.all((half != 0) == ~spare)
    assert np.all(rows[spare] == np.nonzero(spare)[0])
    assert np.all(basis.ladder_coefficients["y"][spare] == 0)


def looped_ladder_table(n_sites, two_s, occ):
    """The ladder table filled one (direction, level) pair at a time, 2 * 2s passes."""
    dim, s = len(occ), two_s / 2.0
    m = s - np.arange(two_s + 1)
    terms = spin_ops._rank_terms(n_sites, two_s)
    width = int(((occ[:, :-1] > 0).sum(axis=1) + (occ[:, 1:] > 0).sum(axis=1)).max())
    rows = np.repeat(np.arange(dim)[:, None], width, axis=1)
    coefficients = {"x": np.zeros((dim, width)), "y": np.zeros((dim, width), dtype=complex)}
    ladder = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] - 1.0)) / 2.0
    used = np.zeros(dim, dtype=np.int64)
    for down in (0, 1):
        past = np.full(dim, n_sites)
        for k in range(two_s):
            past -= occ[:, k]
            into = np.flatnonzero(occ[:, k + down])
            c, at = past[into], used[into]
            rows[into, at] = into + terms[k, c + 1 - 2 * down] - terms[k, c]
            half = ladder[k] * np.sqrt((occ[into, k] + down) * (occ[into, k + 1] + 1.0 - down))
            coefficients["x"][into, at] = half
            coefficients["y"][into, at] = half * (1j if down else -1j)
            used[into] += 1
    return rows, coefficients


@pytest.mark.parametrize("n,two_s", SYSTEMS + [(2, 150), (19999, 1)])
def test_ladder_table_in_one_pass_is_the_looped_table(n, two_s):
    basis = spin_ops._occupation_basis(n, two_s)
    rows, coefficients = looped_ladder_table(n, two_s, spin_ops._occupations(n, two_s))
    assert np.array_equal(basis.ladder_rows, rows)
    for kind in "xy":
        assert np.array_equal(basis.ladder_coefficients[kind], coefficients[kind])
        assert basis.ladder_coefficients[kind].tobytes() == coefficients[kind].tobytes()


def test_tables_at_two_spins_of_spin_seventy_five_fit_in_twenty_megabytes():
    # D = 11476 rows of 151 levels: the ladder table is 4 wide, not 4s = 300
    basis = spin_ops._occupation_basis(2, 150)
    arrays = [*basis[:-1], *basis.ladder_coefficients.values()]
    assert basis.ladder_rows.shape == (11476, 4)
    assert sum(a.nbytes for a in arrays) < 20e6


def test_tables_at_two_spins_of_spin_seventy_five_keep_no_occupations():
    # the (11476, 151) int64 occupations alone would be 13.9 MB; the kept tables
    # are five length-D columns and the 4-wide ladder table
    assert table_bytes(spin_ops._occupation_basis(2, 150)) < 2e6


def table_bytes(basis):
    """The bytes held by every table of a basis, its ladder coefficients included."""
    return sum(a.nbytes for a in (*basis[:-1], *basis.ladder_coefficients.values()))


def cache_bytes():
    """The summed table bytes of the bases the cache keeps."""
    return sum(map(table_bytes, spin_ops._BASES.values()))


def test_cached_tables_stay_under_a_quarter_of_the_host_memory(monkeypatch):
    # a 20 MB host: the cache keeps at most 5 MB of tables, evicting the least
    # recently used first, and does not keep a basis whose tables are past that alone
    budget = 5_000_000
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: 4 * budget)
    build, cache = spin_ops._occupation_basis, lambda args: occupation_basis(SpinSystem(*args))
    sizes = {args: table_bytes(build(*args)) for args in [(20000, 1), (45, 3), (18000, 1), (150, 2)]}
    assert all(1_000_000 < size < budget for size in sizes.values())
    spin_ops._BASES.clear()
    try:
        kept = []  # least recently used first
        # the last (20000, 1) is a hit, so (18000, 1) then evicts (150, 2), not (20000, 1)
        for args in [*sizes, (45, 3), (20000, 1), (150, 2), (20000, 1), (18000, 1)]:
            basis = cache(args)
            assert cache(args) is basis
            kept = [a for a in kept if a != args] + [args]
            while sum(sizes[a] for a in kept) > budget:
                kept.pop(0)
            assert list(spin_ops._BASES) == kept
            assert cache_bytes() == sum(sizes[a] for a in kept) <= budget
        assert kept == [(20000, 1), (18000, 1)]
        assert table_bytes(build(50, 3)) > budget
        assert cache((50, 3)) is not cache((50, 3))
        assert cache_bytes() == sum(sizes[a] for a in kept)
    finally:
        spin_ops._BASES.clear()


def test_cache_counts_the_bytes_its_tables_hold():
    # the cache charges each basis what its tables keep, not the larger peak of the
    # build that the guard estimates beforehand
    spin_ops._BASES.clear()
    try:
        systems = [(200, 1), (20, 4), (3, 3), (2, 40)]
        bases = [occupation_basis(SpinSystem(*args)) for args in systems]
        assert cache_bytes() == sum(map(table_bytes, bases))
        for args, basis in zip(systems, bases):
            assert table_bytes(basis) < spin_ops._basis_bytes(*args)
    finally:
        spin_ops._BASES.clear()


@pytest.mark.parametrize("n,two_s", [(4, 2), (6, 3), (10, 1), (3, 3), (2, 9)])
def test_gather_weights_are_the_multinomials_of_the_occupations_bit_for_bit(n, two_s):
    # 1 / sqrt(M(n)) of each product state's occupation, from the occupations in row
    # order; at 2s = 9 each row sums 10 levels
    sys = SpinSystem(n, two_s)
    rows, weights = product_to_occupation(sys)
    occ = spin_ops._occupations(n, two_s)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_sqrt_m = 0.5 * (log_fact[n] - log_fact[occ].sum(axis=1))
    assert weights.tobytes() == np.exp(-log_sqrt_m[rows]).tobytes()
    # and they are the exact-factorial isometry's, to round-off
    assert np.abs(weights - isometry(sys)[np.arange(sys.dim), rows]).max() < 1e-15


def test_gather_builds_no_occupation_basis():
    spin_ops._BASES.clear()
    product_to_occupation(SpinSystem(6, 3))
    assert not spin_ops._BASES


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n,two_s", [(3, 1), (2, 3), (3, 2), (4, 1)])
def test_field_generator_is_restricted_hamiltonian(n, two_s, field):
    # the occupation-basis G, rebuilt from the spectrum the oracle
    # propagates with, against V^dag H V / 2J from the dense product-space H
    sys = SpinSystem(n, two_s, coupling_j=-1.7)
    basis = occupation_basis(sys)
    [(members, energies, evecs)] = _generator_groups(basis, [field])
    assert members.tolist() == [0]
    if evecs is None:  # the diagonal group: each field's diagonal
        rebuilt = np.diag(energies[0])
    else:
        # the field's G is R G_0 R^dag, R = exp(-i phi' Sum S^z), G_0 its family's at phi' = 0
        turn = np.exp(-1j * field.direction.azimuth * basis.total_z)
        g_0 = (evecs * energies) @ evecs.T
        rebuilt = turn[:, None] * g_0 * turn.conj()
    rows, weights = product_to_occupation(sys)
    v = np.zeros((sys.dim, sys.occupation_dim))
    v[np.arange(sys.dim), rows] = weights
    ham = build_field_hamiltonian(sys, field).matrix
    expected = v.T @ ham @ v / (2.0 * sys.coupling_j)
    assert np.abs(rebuilt - expected).max() < 1e-12


@pytest.mark.parametrize("n,two_s", [(4, 1), (3, 3)])
def test_zero_ratio_field_is_the_zero_field_bit_for_bit(n, two_s):
    sys = SpinSystem(n, two_s, coupling_j=0.8, gamma=1.3)
    grid = (np.linspace(0.0, math.pi, 5), [0.0, 1.3, 4.6], [0.0, 0.8, 7.1])
    zero_ratio = family_grid(sys, *grid, FIELD_CASES["zero_ratio"])
    for got, want in zip(zero_ratio, family_grid(sys, *grid)):
        assert got.tobytes() == want.tobytes()


def test_only_a_field_off_the_z_axis_takes_eigh(monkeypatch):
    # two_s = 2, as in section7_vectors, whose single-site Sy eigenvectors
    # (an eigh, cached) the first family_grid call builds
    sys = SpinSystem(5, 2)
    grid = ([0.4, 2.2], [1.3], [0.8, 1.9])
    family_grid(sys, *grid)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name in ("zero_field", "along_z", "along_minus_z", "zero_ratio"):
        family_grid(sys, *grid, FIELD_CASES[name])
    # at chi = 0 nothing is propagated, whatever the field, and the
    # single-point metric and speed are taken there
    point = CoordinatePoint(1.1, 0.4, 0.9)
    for field in FIELDS:
        family_grid(sys, grid[0], grid[1], [0.0, 0.0], field)
        metric_numeric(sys, point, field)
        speed_numeric(sys, point, field)
    verify.run_section7_vectors()
    with pytest.raises(AssertionError, match="eigh called"):
        family_grid(sys, *grid, FIELD_CASES["field_a"])


def test_off_axis_generator_is_refused_past_the_host_memory(monkeypatch):
    # a 250 kB host: building the (D = 15, W = 4) generator is counted as
    # (2 + W/2) x 16 x 15^2 bytes plus 256 KiB of buffers, which do not fit,
    # and the refusal comes before anything is allocated
    sys = SpinSystem(4, 2)
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: 250_000)
    with pytest.raises(DimensionGuardError, match="occupation-basis dimension 15"):
        state_at(sys, CoordinatePoint(1.1, 0.4, 0.9), FIELD_CASES["field_a"])
    # chi = 0 and a diagonal generator build no dense G
    state_at(sys, CoordinatePoint(1.1, 0.4), FIELD_CASES["field_a"])
    state_at(sys, CoordinatePoint(1.1, 0.4, 0.9), FIELD_CASES["along_z"])
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: 300_000)
    state_at(sys, CoordinatePoint(1.1, 0.4, 0.9), FIELD_CASES["field_a"])


def traced_peak(call):
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused(call, match=None):
    """The estimated bytes in the DimensionGuardError that ``call()`` raises,
    and the call's tracemalloc peak."""
    tracemalloc.start()
    try:
        with pytest.raises(DimensionGuardError, match=match) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = re.search(r"an estimated ([\d,]+) bytes", str(info.value)).group(1)
    return int(estimate.replace(",", "")), peak


#: three directions off the z axis, for the stacked dense build
OFF_AXIS_STACK = [FIELD_CASES["field_a"], FIELD_CASES["field_b"], FieldConfig(0.4, Direction(1.2, 0.3))]

#: guarded build -> (its call on a system, the bytes of one of its unit arrays)
GUARDED_BUILDS = {
    "total_spin_operator": (lambda sys: total_spin_operator(sys, "x"), lambda sys: 16 * sys.dim**2),
    "build_field_hamiltonian": (
        lambda sys: build_field_hamiltonian(sys, OFF_AXIS_STACK[0]),
        lambda sys: 16 * sys.dim**2,
    ),
    "ising_pair_sums": (ising_pair_sums, lambda sys: 8 * sys.dim * sys.n_sites),
    "product_to_occupation": (product_to_occupation, lambda sys: 8 * sys.dim * sys.n_sites),
    "_occupation_basis": (
        lambda sys: spin_ops._occupation_basis(sys.n_sites, sys.two_s),
        lambda sys: 8 * sys.occupation_dim * sys.site_dim,
    ),
    "_generator_groups": (
        lambda sys: _generator_groups(occupation_basis(sys), OFF_AXIS_STACK[:1]),
        lambda sys: 16 * sys.occupation_dim**2,
    ),
}


@pytest.mark.parametrize(
    "build,n,two_s",
    [
        (build, n, two_s)
        for build, sizes in [
            ("total_spin_operator", [(6, 1), (4, 3)]),
            ("build_field_hamiltonian", [(6, 1), (5, 2)]),
            ("ising_pair_sums", [(10, 1), (6, 3)]),
            ("product_to_occupation", [(10, 1), (12, 1), (16, 1), (6, 3)]),
            ("_occupation_basis", [(2000, 1), (20, 4), (2, 150)]),
        ]
        for n, two_s in sizes
    ],
)
def test_guarded_build_estimate_covers_its_traced_peak(monkeypatch, build, n, two_s):
    assert_estimate_covers_traced_peak(monkeypatch, build, n, two_s)


@pytest.mark.parametrize("n,two_s", [(200, 1), (12, 3), (3, 12)])
def test_off_axis_generator_estimate_covers_its_traced_peak(monkeypatch, n, two_s):
    # D = 201, 455 and 455 (ladder widths 2, 6 and 6), one field off the z axis
    assert_estimate_covers_traced_peak(monkeypatch, "_generator_groups", n, two_s)


def assert_estimate_covers_traced_peak(monkeypatch, build, n, two_s):
    """A host just smaller than the build's traced peak refuses it, with an
    estimate between that peak and twice it, before it has allocated one
    unit array."""
    call, unit = GUARDED_BUILDS[build]
    sys = SpinSystem(n, two_s)
    call(sys)  # the occupation basis, which some builds read, is cached
    peak = traced_peak(lambda: call(sys))
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: peak - 1)
    estimate, refused_peak = refused(lambda: call(sys))
    assert peak <= estimate <= 2 * peak
    assert refused_peak < unit(sys)


def test_off_axis_stack_is_refused_before_it_is_allocated(monkeypatch):
    # D = 201, W = 2, blocks of 101 rows of the identity: one off-axis field counts
    # 2 + 1 D x D real arrays and 3 + 2 (101, D) ones, 2.8 D x D complex arrays in all,
    # three fields of three families 2*3 + 1 and 3*3 + 2, 6.3, and both 0.4 more of
    # buffers; a host of 4 builds one field and refuses the stack of three, before any
    # D x D array exists
    sys = SpinSystem(200, 1)
    square = 16 * sys.occupation_dim**2
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: 4 * square)
    grid = ([1.1], [0.4], [0.9])
    family_grids(sys, *grid, OFF_AXIS_STACK[:1])
    assert refused(lambda: family_grids(sys, *grid, OFF_AXIS_STACK), "3 off-axis field")[1] < square
    # the same stack at chi = 0 builds no dense generator
    family_grids(sys, grid[0], grid[1], [0.0], OFF_AXIS_STACK)


#: verify's field directions off the z axis: 48 of its 64
VERIFY_OFF_AXIS = [FieldConfig(1.0, d) for d in verify._direction_grid() if 0.0 < d.polar < math.pi]
#: 8 azimuths at one h/J and theta': one dense generator
ONE_FAMILY = [FieldConfig(0.8, Direction(1.1, 0.3 * k)) for k in range(8)]


@pytest.mark.parametrize(
    "n,two_s,fields",
    [
        pytest.param(200, 1, OFF_AXIS_STACK, id="200-1"),
        pytest.param(6, 4, OFF_AXIS_STACK, id="6-4"),
        pytest.param(4, 2, VERIFY_OFF_AXIS, id="4-2-verify"),
        pytest.param(200, 1, ONE_FAMILY, id="200-1-family"),
    ],
)
def test_off_axis_stack_estimate_covers_its_traced_peak(monkeypatch, n, two_s, fields):
    # D = 201 and 210 with three fields of three families, verify's D = 15 with 48
    # of 6 and D = 201 with 8 of one: the traced peak of the stacked build and eigh
    # stays within the estimate
    basis = occupation_basis(SpinSystem(n, two_s))
    peak = traced_peak(lambda: _generator_groups(basis, fields))
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: peak - 1)
    assert refused(lambda: _generator_groups(basis, fields), f"{len(fields)} off-axis field")[0] >= peak


@pytest.mark.parametrize("n,two_s", [(3, 1), (2, 3), (3, 2), (4, 1)])
def test_total_spin_operator_matches_kron_sum(n, two_s):
    sys = SpinSystem(n, two_s)
    for kind, op in zip("xyz", build_spin_operators(two_s)):
        expected = kron_total(sys, sp.csr_matrix(op)).toarray()
        assert np.abs(total_spin_operator(sys, kind).matrix - expected).max() < 1e-14, kind


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n,two_s", SYSTEMS)
def test_metric_matches_product_space(n, two_s, field):
    sys = SpinSystem(n, two_s, coupling_j=0.8, gamma=1.3)
    for point in POINTS:
        psi, vecs = reference_vectors(sys, point, field)
        ref = reference_metric(sys, psi, vecs)
        # the reference propagator carries ~1e-12 relative round-off of its own
        assert agrees(metric_numeric(sys, point, field).components, ref, 1e-10 * np.abs(ref).max())
        # the oracle's vectors are the reference ones, mapped in through V
        v = isometry(sys)
        assert np.abs(v @ state_at(sys, point, field).amplitudes - psi).max() < 1e-10
        tang = tangent_states(sys, point, field)
        for got, want in zip((tang.d_theta, tang.d_phi, tang.d_chi), vecs):
            assert np.abs(v @ got - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_field_evolution_of_initial_state_matches_state_at():
    # the dense product-space propagator exp(-i chi H / J) applied to V psi(chi = 0)
    sys = SpinSystem(3, 2)
    fld = FieldConfig(1.3, Direction(0.8, 0.1))
    v = isometry(sys)
    psi0 = v @ state_at(sys, CoordinatePoint(1.1, 0.6), fld).amplitudes
    ham = build_field_hamiltonian(sys, fld).matrix
    evolved = expm(-1j * 2.4 * ham / sys.coupling_j) @ psi0
    direct = v @ state_at(sys, CoordinatePoint(1.1, 0.6, 2.4), fld).amplitudes
    assert np.abs(evolved - direct).max() < 1e-12


def test_metric_guard_counts_occupation_dimension(monkeypatch):
    # a 100 kB host: the d = 2^12 product gather (~1.2 MB) does not fit, the
    # D = 13 tables (~23 kB) do: the oracle needs only D
    monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: 100_000)
    sys = SpinSystem(12, 1)
    point = CoordinatePoint(0.9, 0.2, 0.4)
    metric_numeric(sys, point)
    assert state_at(sys, point).amplitudes.shape == (13,)
    tang = tangent_states(sys, point)
    assert all(vec.shape == (13,) for vec in (tang.d_theta, tang.d_phi, tang.d_chi))
    # gathering into the product basis is a d-dimensional construction
    with pytest.raises(DimensionGuardError, match="Hilbert dimension 4096"):
        product_to_occupation(sys)
    # D = 496 tables (~0.35 MB) do not fit
    with pytest.raises(DimensionGuardError, match="occupation-basis dimension 496"):
        metric_numeric(SpinSystem(30, 2), CoordinatePoint(0.9))


def test_metric_at_thirty_thousand_spins():
    # N = 30000, s = 1/2: D = 30001 rows, whose tables take ~16 MB
    sys = SpinSystem(30000, 1)
    for theta in (0.01, 1.1):
        g = metric_numeric(sys, CoordinatePoint(theta, 0.3)).components
        closed = analytic.metric_closed_form(sys, theta).components
        assert np.abs(g - closed).max() <= 1e-10 * np.abs(closed).max(), theta


class TestThermodynamicLimit:
    """J -> J/N at N = 400, s = 1/2: d = 2^400, D = 401."""

    N = 400

    def test_rescaled_metric(self):
        # the metric in (theta, phi, chi) does not depend on J, so the J/N
        # model's oracle metric is the zero-field closed form; the chi
        # tangent is ~N times the others, and so is the round-off of its
        # row, hence the absolute floor 1e-12 * N per chi row and column
        sys = SpinSystem(self.N, 1, coupling_j=-6.2 / self.N, gamma=1.3)
        size = np.array([1.0, 1.0, self.N])
        floor = 1e-12 * np.outer(size, size).ravel()
        points = [(0.3, 0.2, 0.5), (0.8, 2.0, 3.1), (math.pi / 2, 4.4, 1.7), (2.5, 1.0, 6.0)]
        for theta, phi, chi in points:
            g = metric_numeric(sys, CoordinatePoint(theta, phi, chi)).components
            assert agrees(g, analytic.metric_closed_form(sys, theta).components, floor), theta

    def test_equator_speed_approaches_limit(self):
        j, gamma = -6.2, 1.3
        sys = SpinSystem(self.N, 1, coupling_j=j / self.N, gamma=gamma)
        v = speed_numeric(sys, CoordinatePoint(math.pi / 2, 0.7, 2.3))
        expected = abs(j) * gamma * sys.s * math.sqrt((self.N - 1) / (2.0 * self.N))
        assert v == pytest.approx(expected, rel=1e-9)
        v_limit = analytic.thermo_limit(SpinSystem(4, 1, coupling_j=j, gamma=gamma)).v_half_pi
        assert 0.0 < v_limit - v < v_limit / self.N
