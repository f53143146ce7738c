"""Spin-s operators, Hamiltonians and the symmetric-subspace
(occupation-number) basis.

Product basis, used only by the dense cross-check operators
(:func:`total_spin_operator`, :func:`field_hamiltonians`) and by
:func:`product_to_occupation`: lexicographic with site 1 slowest,
per-site magnetic quantum number m descending from s to -s.  With that
ordering every S^z is diagonal and the all-to-all zz coupling is a
diagonal matrix whose entries are enumerable from the basis labels.

Occupation basis, used by the oracle: the polarized product states and
every Hamiltonian here are invariant under permuting sites, so the oracle
works in the symmetric subspace, spanned by the normalized symmetrizations
|n> of occupation vectors n = (n_0, ..., n_2s) (n_k sites at m = s - k,
sum n = N).  Its dimension is C(N+2s, 2s), N+1 for s = 1/2, against
(2s+1)^N for the product space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Default ceiling on the dimension of a dense construction: (2s+1)^N in the
#: product basis, C(N+2s, 2s) in the occupation basis.
DIMENSION_GUARD = 20000

TWO_PI = 2.0 * math.pi


class DimensionGuardError(ValueError):
    """The dimension of a dense construction exceeds the configured guard."""


@dataclass(frozen=True)
class SpinSystem:
    """Static description of the model.

    Parameters
    ----------
    n_sites : int
        Number of spins N (>= 2).
    two_s : int
        Twice the spin magnitude, so s = two_s / 2.  Integer storage keeps
        half-integer spins exact (the evolution period depends on the
        parity of two_s).
    coupling_j : float
        Pair coupling J in Hz (hbar = 1), finite.
    gamma : float
        Scale factor of the metric, positive and finite, default 1.
    dim_guard : int
        Maximum allowed dimension for dense constructions, compared with
        ``dim`` in the product basis and ``occupation_dim`` in the
        occupation basis.
    """

    n_sites: int
    two_s: int
    coupling_j: float = 1.0
    gamma: float = 1.0
    dim_guard: int = DIMENSION_GUARD

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.two_s < 1:
            raise ValueError(f"two_s must be >= 1, got {self.two_s}")
        if not math.isfinite(self.coupling_j):
            raise ValueError(f"coupling_j must be finite, got {self.coupling_j}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def site_dim(self) -> int:
        return self.two_s + 1

    @property
    def dim(self) -> int:
        return self.site_dim**self.n_sites

    @property
    def occupation_dim(self) -> int:
        """Dimension C(N+2s, 2s) of the symmetric subspace."""
        return math.comb(self.n_sites + self.two_s, self.two_s)

    def check_dim_guard(self):
        if self.dim > self.dim_guard:
            raise DimensionGuardError(
                f"Hilbert dimension {self.dim} exceeds guard {self.dim_guard}"
            )

    def check_occupation_guard(self):
        if self.occupation_dim > self.dim_guard:
            raise DimensionGuardError(
                f"occupation-basis dimension {self.occupation_dim} exceeds guard {self.dim_guard}"
            )


@dataclass(eq=False)
class ManyBodyOperator:
    """Dense operator on the full (2s+1)^N product space."""

    matrix: np.ndarray


@dataclass(frozen=True)
class Direction:
    """Unit vector given by polar/azimuthal angles (radians).

    The azimuth must be finite and is normalized into [0, 2*pi); the polar
    angle must lie in [0, pi].
    """

    polar: float
    azimuth: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.polar <= math.pi:
            raise ValueError(f"polar angle must be in [0, pi], got {self.polar}")
        if not math.isfinite(self.azimuth):
            raise ValueError(f"azimuth must be finite, got {self.azimuth}")
        object.__setattr__(self, "azimuth", self.azimuth % TWO_PI)

    def unit_vector(self) -> np.ndarray:
        st, ct = math.sin(self.polar), math.cos(self.polar)
        return np.array([st * math.cos(self.azimuth), st * math.sin(self.azimuth), ct])


@dataclass(frozen=True)
class FieldConfig:
    """Uniform magnetic field: strength ratio h/J and direction angles.

    ``rational_ratio`` optionally declares h/J = p/q with coprime integers;
    rationality is never inferred from the float value.  The tag controls
    the evolution period when the field points along z.
    """

    ratio_h_over_j: float
    direction: Direction
    rational_ratio: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not math.isfinite(self.ratio_h_over_j):
            raise ValueError(f"h/J must be finite, got {self.ratio_h_over_j}")
        if self.rational_ratio is not None:
            p, q = self.rational_ratio
            if q < 1 or math.gcd(p, q) != 1:
                raise ValueError(f"rational_ratio must be coprime with q >= 1: {p}/{q}")
            if abs(p / q - self.ratio_h_over_j) > 1e-12:
                raise ValueError(
                    f"rational_ratio {p}/{q} inconsistent with ratio {self.ratio_h_over_j}"
                )

    @property
    def along_z(self) -> bool:
        """True when the field is aligned with the z axis (either sign): theta' is 0 or pi.

        Tested on the angle, not on sin(theta'), which is 1.2e-16 at pi.
        """
        return self.direction.polar in (0.0, math.pi)


def build_spin_operators(two_s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (Sx, Sy, Sz) for spin s = two_s / 2, dense (2s+1) x (2s+1).

    Sz is diagonal with entries s, s-1, ..., -s; Sx and Sy follow from the
    ladder operators, S+/- |m> = sqrt(s(s+1) - m(m +/- 1)) |m +/- 1>.
    """
    if two_s < 1:
        raise ValueError(f"two_s must be >= 1, got {two_s}")
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)  # descending s .. -s
    sz = np.diag(m).astype(complex)
    # raising operator: |m+1> sits one index *above* |m> in descending order
    splus = np.zeros((two_s + 1, two_s + 1), dtype=complex)
    rows = np.arange(two_s)
    splus[rows, rows + 1] = np.sqrt(s * (s + 1) - m[rows + 1] * (m[rows + 1] + 1))
    sminus = splus.conj().T
    sx = (splus + sminus) / 2.0
    sy = (splus - sminus) / 2.0j
    return sx, sy, sz


@lru_cache(maxsize=64)
def _site_matrices(two_s: int) -> dict:
    return dict(zip("xyz", build_spin_operators(two_s)))


def total_spin_operator(sys: SpinSystem, kind: str) -> ManyBodyOperator:
    """Sum_j S_j^kind on the full product space, built on demand (no cache).

    The metric oracle never uses it: it feeds the dense Hamiltonian of the
    energy-uncertainty check and is the product-space cross-check of
    :func:`apply_total_spin`.  Each site's term changes only that
    site's digit of the basis index, so it is written in place.
    """
    sys.check_dim_guard()
    local = _site_matrices(sys.two_s)[kind]
    d1, n = sys.site_dim, sys.n_sites
    states = np.arange(sys.dim)
    total = np.zeros((sys.dim, sys.dim), dtype=complex)
    for site in range(n):
        stride = d1 ** (n - 1 - site)
        digit = (states // stride) % d1
        for k, l in zip(*np.nonzero(local)):
            cols = states[digit == l]
            total[cols + (k - l) * stride, cols] += local[k, l]
    return ManyBodyOperator(total)


@lru_cache(maxsize=64)
def _pair_sums(n_sites: int, two_s: int) -> np.ndarray:
    """Sum_{i<j} m_i m_j per basis state, from the (d, N) table of m labels."""
    single = two_s / 2.0 - np.arange(two_s + 1)
    grids = np.meshgrid(*([single] * n_sites), indexing="ij")
    table = np.stack([g.ravel() for g in grids], axis=1)
    totals = table.sum(axis=1)
    squares = (table**2).sum(axis=1)
    out = (totals**2 - squares) / 2.0
    out.setflags(write=False)
    return out


def ising_pair_sums(sys: SpinSystem) -> np.ndarray:
    """Diagonal of Sum_{i<j} S_i^z S_j^z in the product basis."""
    return _pair_sums(sys.n_sites, sys.two_s)


def _generator_matrix(
    ising_diag: np.ndarray,
    total_spin: Callable[[str], np.ndarray],
    field: Optional[FieldConfig],
) -> np.ndarray:
    """G = Sum_{i<j} S_i^z S_j^z + (h/2J) Sum_j S_j . n', dense, with H = 2J G.

    Built in whichever basis its arguments use: ``ising_diag`` is the
    diagonal of the zz term and ``total_spin(kind)`` returns Sum_j S_j^kind.
    ``field=None`` and h/J = 0 both give the zero-field generator.
    """
    g = np.diag(ising_diag).astype(complex)
    if field is not None and field.ratio_h_over_j != 0.0:
        half_ratio = field.ratio_h_over_j / 2.0
        for kind, n_kind in zip("xyz", field.direction.unit_vector()):
            g += half_ratio * n_kind * total_spin(kind)
    return g


def field_hamiltonians(
    sys: SpinSystem, fields: Sequence[Optional[FieldConfig]]
) -> Iterator[ManyBodyOperator]:
    """H = 2J Sum_{i<j} S_i^z S_j^z + h Sum_j S_j . n' for each field in turn, h = (h/J) * J.

    Dense on the product space.  The three total spins of
    :func:`total_spin_operator` are built once, and only when some field
    is nonzero; the Hamiltonians are yielded one at a time, so only one
    is held at once.  A field of None gives the Ising Hamiltonian.
    """
    sys.check_dim_guard()
    total_spin = {}
    if any(f is not None and f.ratio_h_over_j != 0.0 for f in fields):
        total_spin = {kind: total_spin_operator(sys, kind).matrix for kind in "xyz"}
    ising = ising_pair_sums(sys)
    for field in fields:
        g = _generator_matrix(ising, total_spin.__getitem__, field)
        g *= 2.0 * sys.coupling_j
        yield ManyBodyOperator(g)


def build_field_hamiltonian(sys: SpinSystem, field: Optional[FieldConfig]) -> ManyBodyOperator:
    """The one-field case of :func:`field_hamiltonians`; ``field=None`` gives the Ising Hamiltonian."""
    return next(field_hamiltonians(sys, [field]))


class OccupationBasis(NamedTuple):
    """Tables of the occupation basis of one (N, 2s); row o is the state |n_o>.

    Rows run over every n with sum n = N, first (N, 0, ..., 0): all sites
    at m = s.  |n> is the normalized sum of the M(n) = N! / prod_k n_k!
    product states with that occupation.

    The ladder table holds Sum_j S_j^x and Sum_j S_j^y: column k of
    ``ladder_rows`` is the row that Sum S^+ brings into row o by moving a
    site from level k + 1 up to k, with amplitude sqrt(s(s+1) - m_k(m_k - 1))
    sqrt(n_k (n_{k+1} + 1)) at o's n; column 2s + k is the row that Sum S^-
    brings into o.  A move out of the basis points at o with coefficient 0.
    """

    occupations: np.ndarray  # (D, 2s+1) integer n
    log_sqrt_multinomial: np.ndarray  # log sqrt(M(n)), from lgamma
    total_z: np.ndarray  # Sum_j S_j^z: (Sum_k m_k n_k)
    ising_pair_sums: np.ndarray  # Sum_{i<j} S_i^z S_j^z: ((m.n)^2 - (m^2).n) / 2
    index: Dict[Tuple[int, ...], int]  # occupation vector -> row
    ladder_rows: np.ndarray  # (D, 4s) source rows
    ladder_coefficients: Dict[str, np.ndarray]  # "x", "y" -> (D, 4s) matrix elements


@lru_cache(maxsize=64)
def _occupation_basis(n_sites: int, two_s: int) -> OccupationBasis:
    # stars and bars: 2s bar positions among N + 2s slots fix one occupation
    slots = n_sites + two_s
    bars = np.array(list(itertools.combinations(range(slots), two_s)), dtype=np.int64)
    edges = np.concatenate(
        [np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), slots)], axis=1
    )
    occ = np.ascontiguousarray((np.diff(edges, axis=1) - 1)[::-1])
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_sites + 1)])
    log_sqrt_m = 0.5 * (log_fact[n_sites] - log_fact[occ].sum(axis=1))
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    total_z = occ @ m
    ising = (total_z**2 - occ @ m**2) / 2.0
    index = {tuple(row): o for o, row in enumerate(occ.tolist())}
    rows = np.repeat(np.arange(len(occ))[:, None], 2 * two_s, axis=1)
    half = np.zeros(rows.shape)  # halved S^+ and S^- matrix elements
    for k in range(two_s):
        # Sum S^+ brings src into each row with a site at level k, and Sum S^-,
        # its transpose, brings that row into src
        into = np.flatnonzero(occ[:, k])
        came_from = occ[into]
        came_from[:, k] -= 1
        came_from[:, k + 1] += 1
        src = [index[tuple(n)] for n in came_from.tolist()]
        ladder = math.sqrt(s * (s + 1.0) - m[k] * (m[k] - 1.0))
        amplitude = ladder / 2.0 * np.sqrt(occ[into, k] * (occ[into, k + 1] + 1.0))
        rows[into, k], half[into, k] = src, amplitude
        rows[src, two_s + k], half[src, two_s + k] = into, amplitude
    # S^x = (S^+ + S^-) / 2, S^y = (S^+ - S^-) / 2i
    coefficients = {"x": half, "y": half * np.repeat([-1j, 1j], two_s)}
    for arr in (occ, log_sqrt_m, total_z, ising, rows, *coefficients.values()):
        arr.setflags(write=False)
    return OccupationBasis(occ, log_sqrt_m, total_z, ising, index, rows, coefficients)


def occupation_basis(sys: SpinSystem) -> OccupationBasis:
    """Occupation-basis tables of ``sys`` (cached per (N, 2s))."""
    sys.check_occupation_guard()
    return _occupation_basis(sys.n_sites, sys.two_s)


def apply_total_spin(basis: OccupationBasis, kind: str, vectors: np.ndarray) -> np.ndarray:
    """Sum_j S_j^kind applied to each occupation-basis vector of a (..., D) stack,
    with no D x D array: x and y gather from the ladder table, z is diagonal."""
    if kind == "z":
        return basis.total_z * vectors
    gathered = vectors[..., basis.ladder_rows]
    return np.einsum("...dj,dj->...d", gathered, basis.ladder_coefficients[kind])


def _total_spin_matrix(basis: OccupationBasis, kind: str) -> np.ndarray:
    """Sum_j S_j^kind as a dense D x D array, scattered from the ladder table."""
    if kind == "z":
        return np.diag(basis.total_z).astype(complex)
    out = np.zeros((len(basis.occupations),) * 2, dtype=complex)
    # the padding entries all sit on the diagonal, where x and y are zero
    out[np.arange(len(out))[:, None], basis.ladder_rows] = basis.ladder_coefficients[kind]
    return out


@lru_cache(maxsize=16)
def _product_gather(n_sites: int, two_s: int) -> Tuple[np.ndarray, np.ndarray]:
    basis = _occupation_basis(n_sites, two_s)
    d1 = two_s + 1
    states = np.arange(d1**n_sites)
    digits = (states[:, None] // d1 ** np.arange(n_sites - 1, -1, -1)) % d1
    counts = (digits[:, :, None] == np.arange(d1)).sum(axis=1)
    rows = np.array([basis.index[tuple(c)] for c in counts.tolist()], dtype=np.int64)
    weights = np.exp(-basis.log_sqrt_multinomial[rows])
    rows.setflags(write=False)
    weights.setflags(write=False)
    return rows, weights


def product_to_occupation(sys: SpinSystem) -> Tuple[np.ndarray, np.ndarray]:
    """The isometry V from the occupation basis into the product basis.

    Returns ``(rows, weights)``: product state i lies in occupation row
    ``rows[i]`` with amplitude ``weights[i]`` = 1/sqrt(M(n)), so
    ``V @ v == v[rows] * weights`` and V^dag is the matching weighted sum.
    """
    sys.check_dim_guard()
    return _product_gather(sys.n_sites, sys.two_s)
