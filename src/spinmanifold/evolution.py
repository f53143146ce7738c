"""Family states and their tangent states, in the occupation basis.

Every family state and tangent vector is built in the occupation basis
of the symmetric subspace (dimension C(N+2s, 2s); see
:mod:`spinmanifold.spin_ops`), and that is the only basis they are
returned in.  psi and its three tangents are first built at chi = 0,
for every field, by one builder, :func:`_rows`, from exact operator
applications with no D x D array: the polarized product state is a spin
coherent state in closed form, the theta and phi tangents apply
-i Sum S^y and -i Sum S^z, and the chi tangent -2i G.  One step,
:func:`_chi_slices`, then moves the four rows to each chi by
U(chi) = exp(-2i chi G), one (field group, chi) slice at a time, and no
other code moves them.  At chi = 0 it copies them, as U(0) is the
identity.  Elsewhere U(chi) is a phase for a diagonal G (no field, or a
field along z), and off the z axis it goes through the eigenvectors of a
dense D x D generator, refused when its estimated bytes exceed the
host's memory.  Fields off the z axis that share h/J and theta' share
that generator up to a diagonal phase, the rotation by their azimuth,
so one eigendecomposition serves each such family, and all families
share one stacked eigh; a chi grid with no nonzero entry builds none.
:func:`family_grids` fills a whole (theta, phi, chi) block for a list
of fields from those slices, sharing everything but d_chi and U(chi)
between the fields; :func:`family_grid` is its one-field case, and a
caller that reduces each slice as it comes (verify's oracle pass) never
holds the block.  :func:`state_at` and :func:`tangent_states` read one
point: its rows are :func:`_rows` of a 0-d theta and phi, moved at
chi != 0 by the one slice of the same step, so they equal the size-1
block's bit for bit.  A product-basis vector, where one is needed, is
gathered with :func:`spinmanifold.spin_ops.product_to_occupation`.
Global phases are never stripped: all comparisons downstream are gauge
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .spin_ops import (
    Direction,
    FieldConfig,
    OccupationBasis,
    SpinSystem,
    _check_bytes,
    apply_generator,
    apply_total_spin,
    field_vectors,
    occupation_basis,
)


@dataclass(eq=False)
class StateVector:
    """Normalized complex amplitude vector over the occupation basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


@dataclass(frozen=True)
class CoordinatePoint:
    """A point (theta, phi, chi) of the three-parameter state family.

    chi = J*t is dimensionless and unrestricted apart from being finite;
    periodicity is the caller's business.
    """

    theta: float
    phi: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not (math.isfinite(self.phi) and math.isfinite(self.chi)):
            raise ValueError(f"phi and chi must be finite, got phi={self.phi}, chi={self.chi}")


@dataclass(eq=False)
class TangentStates:
    """Parameter derivatives of the evolved state (unnormalized vectors): the rows
    d_theta, d_phi, d_chi of one (3, D) block."""

    vectors: np.ndarray

    @property
    def d_theta(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def d_phi(self) -> np.ndarray:
        return self.vectors[1]

    @property
    def d_chi(self) -> np.ndarray:
        return self.vectors[2]


def _log_power(powers: np.ndarray, base: np.ndarray) -> np.ndarray:
    """powers * log(base), base.shape + (D,), for (D,) powers and a base in [0, 1]; a
    zero power of a zero base counts as 1.  With no zero base this is the plain product:
    a zero power then gives a signed zero, and adding that to the log prefactor, which
    is never -0, changes no bit."""
    if np.count_nonzero(base) == base.size:  # cheaper than base.all() on a 0-d base
        return powers * np.log(base)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(powers > 0, powers * np.log(base)[..., None], 0.0)


def _symmetric_product(basis: OccupationBasis, theta: np.ndarray) -> np.ndarray:
    """Polarized product states e^{-i theta Sum S^y} |s, ..., s> in the occupation basis,
    one real row of length D per entry of an array theta (a 0-d theta gives one row).

    They are spin coherent states (Arecchi, Courtens, Gilmore & Thomas,
    PRA 6, 2211 (1972)): sqrt(M(n) prod_k C(2s, k)^{n_k})
    cos(theta/2)^{2sN - K} sin(theta/2)^K with K = Sum_k k n_k.  Evaluated
    in log space so that large N neither overflows sqrt(M) nor underflows
    the powers; a zero power of a zero cosine or sine counts as 1.  Each
    row is renormalized, in log space too: the lgamma round-off shared by
    all its entries would otherwise leave the norm off 1 by up to ~7e-12
    at N ~ 2e4, past :class:`StateVector`'s 1e-12 check.  The prefactor and
    both powers depend on n alone and are read from the basis tables.
    """
    half = theta / 2.0
    log_abs = (
        basis.log_coherent_prefactor
        + _log_power(basis.down_powers, np.cos(half))
        + _log_power(basis.up_powers, np.sin(half))
    )
    log_abs -= 0.5 * np.log(np.exp(2.0 * log_abs).sum(axis=-1, keepdims=True))
    return np.exp(log_abs)


def _rows(
    sys: SpinSystem, theta: np.ndarray, phi: np.ndarray, fields: Sequence[Optional[FieldConfig]]
) -> np.ndarray:
    """psi, d_theta, d_phi and each field's d_chi at chi = 0, stacked on axis 0: shape
    (3 + n_fields,) + theta.shape + phi.shape + (D,).

    theta and phi are both 0-d, one point, whose rows are (3 + n_fields, D),
    or both 1-D, a grid.  No field changes the first three rows:
    d_theta = e^{-i phi Sum S^z} (-i Sum S^y) psi(theta, 0, 0) and
    d_phi = -i Sum S^z psi.  d_chi = -2i G psi, from
    :func:`~spinmanifold.spin_ops.apply_generator` for a field with h/J != 0;
    for no field or h/J = 0, G is the Ising diagonal and
    d_chi = -2i Sum_{i<j} S_i^z S_j^z psi, whatever the other fields are.
    """
    basis = occupation_basis(sys)
    psi0 = _symmetric_product(basis, theta)
    d_theta0 = apply_total_spin(basis, "y", psi0)
    np.multiply(d_theta0, -1j, out=d_theta0)
    if phi.ndim:  # a grid: phi's axis after theta's
        psi0, d_theta0 = psi0[:, None], d_theta0[:, None]
    minus_i_z = -1j * basis.total_z
    phi_phases = np.exp(phi[..., None] * minus_i_z)
    rows = np.empty((3 + len(fields),) + theta.shape + phi_phases.shape, dtype=complex)
    psi = np.multiply(psi0, phi_phases, out=rows[0])
    np.multiply(d_theta0, phi_phases, out=rows[1])
    np.multiply(psi, minus_i_z, out=rows[2])
    zero = [f is None or f.ratio_h_over_j == 0.0 for f in fields]
    if all(zero):
        g_psi = basis.ising_pair_sums * psi
    else:
        g_psi = apply_generator(basis, field_vectors(fields), psi)
        if any(zero):  # not Ising + exact zeros, whose signs hang on the other fields
            g_psi[np.array(zero)] = basis.ising_pair_sums * psi
    np.multiply(g_psi, -2j, out=rows[3:])
    return rows


def _generator_groups(basis: OccupationBasis, fields: Sequence[Optional[FieldConfig]]):
    """``[(members, energies, evecs)]``: the fields grouped by how U(chi) = exp(-2i chi G_f)
    moves them, with the spectrum each group is moved by.

    G_f = Sum_{i<j} S_i^z S_j^z + b_f . Sum_j S_j, with b_f = (h/2J) n'_f
    (:func:`~spinmanifold.spin_ops.field_vectors`), depends on neither J nor
    gamma.  ``members`` holds the indices of a group's fields, in order.
    The fields whose G_f is diagonal (none, h/J = 0 or along z) come first,
    as one group: ``energies`` (len(members), D) holds each G_f's
    diagonal, G_f applied to the all-ones vector, and ``evecs`` is None.
    Then come the fields off the z axis, one group per family, the fields
    that share h/J and theta', compared exactly, in order of first
    appearance: field f of family k has G_f = R_f G_k R_f^dag with
    R_f = exp(-i phi'_f Sum S^z), a diagonal phase in the occupation basis,
    and G_k the real symmetric generator at phi' = 0, whose b is
    :func:`~spinmanifold.spin_ops.field_vectors`' (h/2J)(sin theta', 0,
    cos theta') (Arecchi, Courtens, Gilmore & Thomas, PRA 6, 2211 (1972));
    ``energies`` (D,) and ``evecs`` (D, D), real, are G_k's spectrum.  Only
    the K generators G_k are built densely, and diagonalized by one stacked
    eigh, if their estimated bytes fit in the host's physical memory
    (DimensionGuardError before they are allocated).
    """
    dim = basis.total_z.size
    families = {}
    for i, f in enumerate(fields):
        off_axis = f is not None and f.ratio_h_over_j != 0.0 and not f.along_z
        key = (f.ratio_h_over_j, f.direction.polar) if off_axis else None
        families.setdefault(key, []).append(i)
    groups = []
    diagonal = families.pop(None, [])
    if diagonal:
        b = field_vectors([fields[i] for i in diagonal])
        groups.append((np.array(diagonal), apply_generator(basis, b, np.ones(dim)).real, None))
    if not families:
        return groups
    # row o of G_k is G_k applied to basis vector o; with b_y = +-0 it is real.  The rows
    # are built from blocks of ceil(D / W) rows of the identity, so that a block's
    # (rows, D, W) ladder gather is about one D x D array
    width = basis.ladder_rows.shape[1]
    step = -(-dim // width)
    # all real: D x D arrays, two for each of the K families (its G and, in eigh, its
    # eigenvectors) and one for a block's gather, 2K + 1; (step, D) arrays, a block of the
    # identity, its Sum S^x and 3K terms of apply_generator, 3K + 2; and 256 KiB of einsum
    # buffers and eigh work (239 kB at D <= 1001)
    k = len(families)
    needed = 8 * dim * (dim * (2 * k + 1) + step * (3 * k + 2)) + 2**18
    build = f"the generators of {len(fields) - len(diagonal)} off-axis field(s), {k} up to azimuth"
    _check_bytes(needed, build, "occupation-basis", dim)
    b = field_vectors([FieldConfig(h, Direction(tp)) for h, tp in families])
    g = np.empty((k, dim, dim))
    for start in range(0, dim, step):
        stop = min(start + step, dim)
        block = np.zeros((stop - start, dim))
        block[np.arange(stop - start), np.arange(start, stop)] = 1.0
        g[:, start:stop] = apply_generator(basis, b, block)
    try:
        evals, evecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on a symmetric matrix
        raise RuntimeError("eigensolver failed on the field generator") from exc
    return groups + [(np.array(m), e, v) for m, e, v in zip(families.values(), evals, evecs)]


def _chi_slices(basis: OccupationBasis, rows: np.ndarray, chi, fields):
    """Yield ``(members, c, vecs)``: psi, d_theta, d_phi and d_chi of the fields
    ``members`` moved from a grid's rows at chi = 0 (:func:`_rows`) to chi[c] by their
    U(chi), stacked on axis 3 of ``vecs``, (len(members), n_theta, n_phi, 4, D).

    This is the only step that moves rows off chi = 0.  The groups are
    :func:`_generator_groups`', built only when some chi is nonzero; an
    all-zero chi grid takes every field as one group and builds no
    generator.  Each group yields every chi in turn, and every slice is
    written to one buffer, reused: it holds only until the next slice is
    asked for.  At chi = 0 the rows are copied, as U(0) is the identity.
    Elsewhere the diagonal fields go by phases, field by field, and off
    the z axis U_f(chi) = R_f V_k exp(-2i chi E_k) V_k^T R_f^dag for field
    f of family k: the phases R_f^dag and R_f go on the rows, and the rows
    of the whole family pass through V_k in one matrix product, and back
    in one per chi.
    """
    common, d_chi = np.moveaxis(rows[:3], 0, 2), rows[3:]  # (n_theta, n_phi, 3, D), per field
    groups = [(np.arange(len(fields)), None, None)]
    if np.count_nonzero(chi):
        groups = _generator_groups(basis, fields)
    shape = common.shape[:2] + (4, rows.shape[-1])
    buffer = np.empty((max(len(m) for m, _, _ in groups),) + shape, dtype=complex)

    def unmoved(out, members):  # U(0) is the identity
        out[:, :, :, :3] = common
        for i, f in enumerate(members):
            out[i, :, :, 3] = d_chi[f]

    for members, energies, evecs in groups:
        out = buffer[: len(members)]
        flat = out.reshape(len(members), -1, shape[-1])  # theta, phi and the 4 rows
        if evecs is not None:
            unmoved(out, members)
            azimuths = [fields[i].direction.azimuth for i in members]
            unturn = np.exp(np.multiply.outer(azimuths, 1j * basis.total_z))[:, None]  # R_f^dag
            coeffs = np.multiply(flat, unturn).reshape(-1, shape[-1]) @ evecs
        for c, chi_c in enumerate(chi):
            if chi_c == 0.0:
                unmoved(out, members)
            elif evecs is None:
                for i, phase in enumerate(np.exp(chi_c * (-2j * energies))):
                    np.multiply(common, phase, out=out[i, :, :, :3])
                    np.multiply(d_chi[members[i]], phase, out=out[i, :, :, 3])
            else:
                evolved = (coeffs * np.exp(chi_c * (-2j * energies))) @ evecs.T
                np.multiply(evolved.reshape(flat.shape), unturn.conj(), out=flat)
            yield members, c, out


def _grid_axes(theta, phi, chi, fields):
    """theta, phi and chi as 1-D float arrays, after checking them and ``fields``."""
    theta, phi, chi = (np.array(x, dtype=float, ndmin=1) for x in (theta, phi, chi))
    for name, grid in (("theta", theta), ("phi", phi), ("chi", chi)):
        if grid.ndim > 1:
            raise ValueError(f"{name} must be a number or a 1-D grid, got shape {grid.shape}")
    if not np.all((theta >= 0.0) & (theta <= math.pi)):  # NaN fails too
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    if not (np.isfinite(phi).all() and np.isfinite(chi).all()):
        raise ValueError(f"phi and chi must be finite, got phi={phi}, chi={chi}")
    if not fields:
        raise ValueError("fields must hold at least one field (None for no field)")
    return theta, phi, chi


def _family_stream(sys: SpinSystem, theta, phi, chi, fields: Sequence[Optional[FieldConfig]]):
    """:func:`family_grids` without its block: ``(rows, slices)``, the rows at chi = 0
    of :func:`_rows`, (3 + n_fields, n_theta, n_phi, D), and the :func:`_chi_slices`
    generator of the block, one (field group, chi) slice at a time.

    The grids are checked as :func:`family_grids` checks them.  A caller
    that reduces each slice as it comes holds the rows at chi = 0 and one
    slice, not the n_chi-fold block.
    """
    theta, phi, chi = _grid_axes(theta, phi, chi, fields)
    rows = _rows(sys, theta, phi, fields)
    return rows, _chi_slices(occupation_basis(sys), rows, chi, fields)


def family_grids(
    sys: SpinSystem,
    theta,
    phi,
    chi,
    fields: Sequence[Optional[FieldConfig]],
) -> Tuple[np.ndarray, np.ndarray]:
    """psi and its three parameter derivatives on the product grid theta x phi x chi,
    for every field of ``fields`` at once.

    Returns ``(psi, tangents)`` in the occupation basis: psi has shape
    (n_fields, n_theta, n_phi, n_chi, D) and tangents (n_fields, n_theta,
    n_phi, n_chi, 3, D), the rows of the fifth axis being d_theta, d_phi,
    d_chi.  psi = U(chi) e^{-i phi Sum Sz} e^{-i theta Sum Sy} |s, ..., s>.
    The rows at chi = 0 come from :func:`_rows`, all exact operator applications
    (:func:`~spinmanifold.spin_ops.apply_total_spin` and
    :func:`~spinmanifold.spin_ops.apply_generator`); at chi they are
    U(chi) times those, since G commutes with U(chi).  psi, d_theta,
    d_phi and Sum S^x psi and Sum S^y psi are built once and shared by
    every field.  The block is filled from :func:`_family_stream`'s
    slices, so the one step :func:`_chi_slices` decides every move off
    chi = 0, an all-zero chi grid included.
    """
    rows, slices = _family_stream(sys, theta, phi, chi, fields)  # chi checked: a number or 1-D
    shape = (len(fields),) + rows.shape[1:3] + (np.size(chi), 4, rows.shape[-1])
    block = np.empty(shape, dtype=complex)
    for members, c, vecs in slices:
        block[members, :, :, c] = vecs
    return block[..., 0, :], block[..., 1:, :]


def family_grid(
    sys: SpinSystem,
    theta,
    phi,
    chi,
    field: Optional[FieldConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The one-field case of :func:`family_grids`: psi of shape (n_theta, n_phi,
    n_chi, D) and tangents (n_theta, n_phi, n_chi, 3, D)."""
    psi, tangents = family_grids(sys, theta, phi, chi, [field])
    return psi[0], tangents[0]


@lru_cache(maxsize=1)
def _family_vectors(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig]
) -> np.ndarray:
    """Read-only rows psi, d_theta, d_phi, d_chi at one point, (4, D): :func:`_rows` of
    a 0-d theta and phi, and at chi != 0 the one slice of :func:`_chi_slices` that moves
    them there, so they equal the size-1 :func:`family_grid`'s bit for bit.

    The last point is cached: the metric, the speed and verify ask for the
    state and the tangents of one point back to back.
    """
    vecs = _rows(sys, np.array(point.theta), np.array(point.phi), [field])
    if point.chi != 0.0:
        basis = occupation_basis(sys)
        vecs = next(_chi_slices(basis, vecs[:, None, None], [point.chi], [field]))[2][0, 0, 0]
    vecs.setflags(write=False)
    return vecs


def state_at(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> StateVector:
    """Evolved family member at (theta, phi, chi), zero-field or dressed.

    A C(N+2s, 2s)-dimensional occupation-basis vector: psi at chi = 0 from
    :func:`_rows`, moved to chi by :func:`_chi_slices` when chi != 0.
    """
    return StateVector(_family_vectors(sys, point, field)[0])


def tangent_states(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> TangentStates:
    """Analytic derivatives of the evolved state w.r.t. (theta, phi, chi).

    No finite differencing: each derivative is an operator applied to the
    state at chi = 0 (:func:`_rows`), moved to chi with it by
    :func:`_chi_slices`.  Occupation-basis vectors, like :func:`state_at`.
    """
    return TangentStates(_family_vectors(sys, point, field)[1:])
