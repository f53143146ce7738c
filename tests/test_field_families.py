"""Fields off the z axis propagated by family: one dense generator per (h/J, theta').

A field at azimuth phi' has G = R G_0 R^dag with R = exp(-i phi' Sum S^z), so
the oracle diagonalizes one generator per family and turns its eigenvectors
by a phase.  The reference here is the per-field route: each field's own
dense G, built from its b on the identity and diagonalized on its own.
"""

import math

import numpy as np
import pytest

from spinmanifold import verify
from spinmanifold.evolution import family_grid, family_grids
from spinmanifold.spin_ops import (
    Direction,
    FieldConfig,
    SpinSystem,
    apply_generator,
    field_vectors,
    occupation_basis,
)

#: four families of four azimuths: a negative h/J, theta' near 0 and near pi
FAMILIES = [
    FieldConfig(ratio, Direction(polar, azimuth))
    for ratio, polar in [(1.3, 0.9), (-0.7, 2.2), (2.0, 1e-3), (0.6, math.pi - 1e-3)]
    for azimuth in (0.0, 0.4, 2.9, 5.5)
]
GRID = (np.array([0.3, 1.4, 2.8]), np.array([0.2, 4.1]), np.array([0.0, 0.35, 1.1]))

#: verify's dressed grid: 64 directions, of which 8 are +z and 8 are -z
VERIFY_GRID = verify._field_grid()


def stacked(psi, tangents):
    return np.concatenate([psi[..., None, :], tangents], axis=-2)


def per_field_reference(sys, theta, phi, chi, field):
    """psi and the three tangents of one field, (n_theta, n_phi, n_chi, 4, D), moved
    through the eigenvectors of its own dense complex generator, and its largest |E|."""
    basis = occupation_basis(sys)
    rows = stacked(*family_grid(sys, theta, phi, 0.0, field))[:, :, 0]
    g = apply_generator(basis, field_vectors([field]), np.eye(basis.total_z.size))[0]
    evals, evecs = np.linalg.eigh(g.T)
    phases = np.exp(np.multiply.outer(chi, -2j * evals))
    return ((rows @ evecs.conj())[:, :, None] * phases[:, None, :]) @ evecs.T, np.abs(evals).max()


@pytest.mark.parametrize("n,two_s", [(200, 1), (6, 4), (4, 2)])
def test_families_propagate_as_each_field_alone(n, two_s):
    # the phases chi E of either route carry round-off of a few eps chi |E|, and |E|
    # reaches ~5e3 at (200, 1): the bound is 1e-13 of each chi's largest amplitude,
    # per unit of 1 + chi max|E| (measured: up to 13 eps chi max|E|, 2.9e-15 per unit)
    sys = SpinSystem(n, two_s)
    got = stacked(*family_grids(sys, *GRID, FAMILIES))
    for field, block in zip(FAMILIES, got):
        want, top = per_field_reference(sys, *GRID, field)
        scale = np.abs(want).max(axis=(0, 1, 3, 4)) * (1.0 + GRID[2] * top)
        assert (np.abs(block - want).max(axis=(0, 1, 3, 4)) <= 1e-13 * scale).all(), field


def test_verify_field_grid_takes_one_eigh_of_six_generators(monkeypatch):
    # 48 directions off the z axis, in 6 (h/J, theta') families of 8 azimuths
    shapes, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    verify.run_oracle_checks(verify.FIELD_SYSTEM, VERIFY_GRID)
    assert shapes == [(6, 15, 15)]


@pytest.mark.parametrize("chi", [[0.0, 0.9], [0.9, 0.0, 0.4], [0.0]], ids=["verify", "unsorted", "zero"])
def test_repeated_fields_get_the_block_of_one_field(chi):
    # off the z axis, along +z (two azimuths) and -z, none and a zero ratio, some
    # repeated: each repeat is built on its own and equals its first, bit for bit, and
    # every block is the one-field family_grid's, bit for bit, the d_chi of the fields
    # with h/J = 0 next to fields with h/J != 0 included; U(0) moves nothing
    sys, theta, phi = SpinSystem(4, 2), [0.4, 2.3], [0.7, 5.1]
    off, up = FieldConfig(1.0, Direction(0.9, 2.1)), FieldConfig(1.0, Direction(0.0, 0.3))
    down, zero = FieldConfig(1.0, Direction(math.pi, 1.2)), FieldConfig(0.0, Direction(0.9, 2.1))
    fields = [off, up, off, None, down, FieldConfig(1.0, Direction(0.0, 4.0)), off, zero, None]
    got = stacked(*family_grids(sys, theta, phi, chi, fields))
    first = {0: [2, 6], 1: [5], 3: [7, 8]}  # the same b, or off the axis the same field
    for k, repeats in first.items():
        assert all(got[r].tobytes() == got[k].tobytes() for r in repeats)
    at_zero = stacked(*family_grid(sys, theta, phi, 0.0))[:, :, 0]
    for field, block in zip(fields, got):
        alone = stacked(*family_grid(sys, theta, phi, chi, field))
        assert block.tobytes() == alone.tobytes()
        for c in np.flatnonzero(np.array(chi) == 0.0):
            assert block[:, :, c, :3].tobytes() == at_zero[:, :, :3].tobytes()


#: no field, h/J = 0 off the z axis, +z, -z and two families off the z axis
CHI_ZERO_FIELDS = [
    None,
    FieldConfig(0.0, Direction(0.7, 2.1)),
    FieldConfig(2.5, Direction(0.0, 1.2)),
    FieldConfig(-1.3, Direction(math.pi, 0.4)),
    FieldConfig(1.1, Direction(0.9, 0.4)),
    FieldConfig(-0.6, Direction(2.0, 5.0)),
]


@pytest.mark.parametrize("n,two_s", [(2, 1), (4, 2), (3, 3)])
@pytest.mark.parametrize(
    "chi", [[0.0, 0.9], [0.9, 0.0, -2.5], [1e-300, 0.0, 0.0]], ids=["first", "middle", "twice"]
)
def test_chi_zero_slice_is_the_all_zero_grid_bit_for_bit(n, two_s, chi):
    # U(0) is the identity in one place: for every field, alone or among the others, the
    # chi = 0 slices of a grid equal the block of the all-zero chi grid, which builds no
    # generator, signed zeros included
    sys, theta, phi = SpinSystem(n, two_s), [0.0, 0.4, 2.3, math.pi], [0.0, 0.7, 5.1]
    for fields in [CHI_ZERO_FIELDS] + [[f] for f in CHI_ZERO_FIELDS]:
        got = stacked(*family_grids(sys, theta, phi, chi, fields))
        at_zero = stacked(*family_grids(sys, theta, phi, 0.0, fields))[:, :, :, 0]
        for c in np.flatnonzero(np.array(chi) == 0.0):
            assert got[:, :, :, c].tobytes() == at_zero.tobytes(), (fields, c)


def test_verify_grid_repeats_give_identical_blocks():
    # the 8 azimuths at each pole are one field, built 8 times to the same bits
    sys, grid = verify.FIELD_SYSTEM, VERIFY_GRID
    got = stacked(*family_grids(sys, grid.theta, grid.phi, grid.chi, grid.fields))
    for pole in (0, 7):
        blocks = got[8 * pole : 8 * pole + 8]
        assert all(b.tobytes() == blocks[0].tobytes() for b in blocks)
        alone = stacked(*family_grid(sys, grid.theta, grid.phi, grid.chi, grid.fields[8 * pole]))
        assert np.array_equal(blocks[0], alone)


def test_a_chi_grid_without_zero_builds_its_own_chi_zero_states(monkeypatch):
    # the energy uncertainties read the chi = 0 states from the rows built before any
    # propagation, so a chi grid with or without 0 gives them the same states, bit for bit
    sys = verify.FIELD_SYSTEM
    with_zero = VERIFY_GRID
    without = verify.SweepGrid(with_zero.theta, with_zero.phi, np.array([0.9]), with_zero.fields)
    read, energies = [], verify._energy_uncertainties

    def recorded(sys, fields, psi):
        read.append(psi.copy())
        return energies(sys, fields, psi)

    monkeypatch.setattr(verify, "_energy_uncertainties", recorded)
    metric, speed = verify.run_oracle_checks(sys, without)
    assert metric.passed and speed.passed
    assert (metric.grid, speed.grid) == ("576 points", "576 points")
    verify.run_oracle_checks(sys, with_zero)
    built = family_grid(sys, with_zero.theta, with_zero.phi, 0.0)[0]
    assert read[0].shape == read[1].shape == built.shape == (3, 3, 1, 15)
    assert read[0].tobytes() == read[1].tobytes() == built.tobytes()
