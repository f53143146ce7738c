"""Spin-s operators, Hamiltonians and the symmetric-subspace
(occupation-number) basis.

Product basis, used only by the dense cross-check operators (verify's
speed check applies :func:`total_spin_operator` and :func:`ising_pair_sums`;
no runtime path builds :func:`build_field_hamiltonian`, the dense reference
for the oracle's only generator :func:`apply_generator`) and by
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

Each dense build estimates its peak bytes from its shapes, with coefficients
fitted to tracemalloc peaks at several sizes, before it allocates, and raises
:class:`DimensionGuardError` when they exceed the host's physical memory.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi


class DimensionGuardError(ValueError):
    """A dense construction would need more memory than the host has."""


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_bytes(needed: int, build: str, basis: str, dim: int):
    """Refuse ``build`` before it allocates if its estimated peak exceeds the host's memory."""
    budget = _physical_memory_bytes()
    if needed > budget:
        size = f"an estimated {needed:,} bytes" if needed < 2**64 else "over 2^64 bytes"
        dim = dim if dim < 2**64 else "over 2^64"  # (2s+1)^N can have thousands of digits
        raise DimensionGuardError(
            f"{build} at {basis} dimension {dim} needs {size}, more than the host's {budget:,}"
        )


@dataclass(frozen=True)
class SpinSystem:
    """Static description of the model; it refuses no size (dense builds check their bytes).

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
    """

    n_sites: int
    two_s: int
    coupling_j: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("n_sites", "two_s"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        azimuth = self.azimuth % TWO_PI  # a tiny negative azimuth rounds up to 2 pi
        object.__setattr__(self, "azimuth", azimuth if azimuth < TWO_PI else 0.0)

    def components(self) -> Tuple[float, float, float]:
        """(x, y, z); exactly (0, 0, +-1) at polar 0 and pi, where sin(pi) would leave ~1.2e-16."""
        if self.polar in (0.0, math.pi):
            return 0.0, 0.0, math.cos(self.polar)
        st, ct = math.sin(self.polar), math.cos(self.polar)
        return st * math.cos(self.azimuth), st * math.sin(self.azimuth), ct


@dataclass(frozen=True)
class FieldConfig:
    """Uniform magnetic field: strength ratio h/J and direction angles.

    ``rational_ratio`` optionally declares h/J = p/q with coprime integers;
    rationality is never inferred from the float value.  Only
    :func:`~spinmanifold.analytic.chi_max_for` reads the tag, for the
    evolution period of a field along z; no CLI command sets it.
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


def total_spin_operator(sys: SpinSystem, kind: str) -> ManyBodyOperator:
    """Sum_j S_j^kind on the full product space, built on demand (no cache).

    The metric oracle never uses it: verify's energy-uncertainty check
    applies it, and it is the product-space cross-check of
    :func:`apply_total_spin`.  Each site's term changes only that
    site's digit of the basis index, so it is written in place.
    """
    d = sys.dim  # the d x d result and index arrays of length d
    _check_bytes(16 * d**2 + 64 * d + 8192, "the total spin", "Hilbert", d)
    local = dict(zip("xyz", build_spin_operators(sys.two_s)))[kind]
    d1, n = sys.site_dim, sys.n_sites
    states = np.arange(d)
    total = np.zeros((d, d), dtype=complex)
    for site in range(n):
        stride = d1 ** (n - 1 - site)
        digit = (states // stride) % d1
        for k, l in zip(*np.nonzero(local)):
            cols = states[digit == l]
            total[cols + (k - l) * stride, cols] += local[k, l]
    return ManyBodyOperator(total)


def ising_pair_sums(sys: SpinSystem) -> np.ndarray:
    """Diagonal of Sum_{i<j} S_i^z S_j^z in the product basis: Sum_{i<j} m_i m_j
    = ((Sum m)^2 - Sum m^2) / 2 per basis state, both sums grown one site at a time."""
    d = sys.dim  # at the end the two sums, a square and the result: 4 length-d arrays
    _check_bytes(40 * d + 8192, "the zz diagonal", "Hilbert", d)
    m = sys.s - np.arange(sys.site_dim)
    total, squares = np.zeros(1), np.zeros(1)
    for _ in range(sys.n_sites):  # the site added last is the fastest digit
        total = np.add.outer(total, m).ravel()
        squares = np.add.outer(squares, m * m).ravel()
    return (total**2 - squares) / 2.0


def field_vectors(fields: Sequence[Optional[FieldConfig]]) -> np.ndarray:
    """b = (h/2J) n' of each field as one row of an (F, 3) array; a zero row for
    ``None`` and for h/J = 0.  G = Sum_{i<j} S_i^z S_j^z + b . Sum_j S_j."""
    b = []
    for field in fields:
        if field is None or field.ratio_h_over_j == 0.0:
            b.append((0.0, 0.0, 0.0))
        else:
            half, (x, y, z) = field.ratio_h_over_j / 2.0, field.direction.components()
            b.append((half * x, half * y, half * z))
    return np.array(b).reshape(len(fields), 3)


def build_field_hamiltonian(sys: SpinSystem, field: Optional[FieldConfig]) -> ManyBodyOperator:
    """H = 2J Sum_{i<j} S_i^z S_j^z + h Sum_j S_j . n', h = (h/J) * J, dense on the product space.

    ``field=None`` (or h/J = 0) gives the Ising Hamiltonian; only a nonzero
    field builds total spins, one at a time.  It shares no code with
    :func:`apply_generator`."""
    b, d = field_vectors([field])[0], sys.dim
    units = 3 if b.any() else 1  # H, and with a field one total spin and b_k times it
    _check_bytes(16 * d**2 * units + 64 * d + 16384, "the Hamiltonian", "Hilbert", d)
    g = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(g, ising_pair_sums(sys))
    for b_k, kind in zip(b, "xyz"):
        if b_k:
            g += b_k * total_spin_operator(sys, kind).matrix
    g *= 2.0 * sys.coupling_j
    return ManyBodyOperator(g)


class OccupationBasis(NamedTuple):
    """Tables of the occupation basis of one (N, 2s); row o is the state |n_o>.

    Rows run over every n with sum n = N in descending lexicographic order,
    first (N, 0, ..., 0): all sites at m = s; row o is the stars-and-bars
    rank of n (:func:`_occupation_rows`).  |n> is the normalized sum of the
    M(n) = N! / prod_k n_k! product states with that occupation.  Only the
    tables the oracle reads are kept, not n itself (:func:`_occupations`).

    The ladder table holds Sum_j S_j^x and Sum_j S_j^y: row o lists the rows
    that Sum S^+ brings into o by moving a site from level k + 1 up to k,
    with amplitude sqrt(s(s+1) - m_k(m_k - 1)) sqrt(n_k (n_{k+1} + 1)) at o's
    n, in level order, then those of Sum S^-, its transpose, and points at o
    with coefficient 0 in its spare entries.  W, the most moves of any row,
    is at most 2 min(N, 2s).

    The coherent-state tables hold what the polarized state
    e^{-i theta Sum S^y} |s, ..., s> needs of n, so that a state costs no
    table work per theta: the log prefactor log sqrt(M(n)) + 1/2 Sum_k n_k
    log C(2s, k), and the powers K = Sum_k k n_k of sin(theta/2) and
    2sN - K of cos(theta/2), as floats (exact integers below 2^53).
    """

    total_z: np.ndarray  # Sum_j S_j^z: (Sum_k m_k n_k)
    ising_pair_sums: np.ndarray  # Sum_{i<j} S_i^z S_j^z: ((m.n)^2 - (m^2).n) / 2
    log_coherent_prefactor: np.ndarray  # log sqrt(M(n)) + 1/2 Sum_k n_k log C(2s, k)
    up_powers: np.ndarray  # K = Sum_k k n_k, as floats
    down_powers: np.ndarray  # 2sN - K, as floats
    ladder_rows: np.ndarray  # (D, W) source rows
    ladder_coefficients: Dict[str, np.ndarray]  # "x", "y" -> (D, W) matrix elements


def _rank_terms(n_sites: int, two_s: int) -> np.ndarray:
    """(2s, N + 1) int64 table t[i, c] = C(c - 1 + 2s - i, 2s - i), 0 at c = 0: the
    term of level i in the rank of an occupation with c sites past level i."""
    terms = np.empty((two_s, n_sites + 1), dtype=np.int64)
    terms[-1] = np.arange(n_sites + 1)
    for i in range(two_s - 2, -1, -1):  # hockey stick: each row is the running sum of the next
        np.cumsum(terms[i + 1], out=terms[i])
    return terms


def _occupation_rows(occupations: np.ndarray) -> np.ndarray:
    """The row of each occupation vector of an (R, 2s+1) stack: its stars-and-bars rank
    Sum_i C(N + 2s - 1 - b_i, 2s - i), with the 2s bars at b_i = i + n_0 + ... + n_i."""
    n_sites, two_s = int(occupations[0].sum()), occupations.shape[1] - 1
    past = np.cumsum(occupations[:, :-1], axis=1)
    np.subtract(n_sites, past, out=past)  # sites past each level
    return _rank_terms(n_sites, two_s)[np.arange(two_s), past].sum(axis=1)


def _basis_bytes(n_sites: int, two_s: int) -> int:
    """The estimated peak bytes of building the occupation-basis tables of (N, 2s)."""
    dim = math.comb(n_sites + two_s, two_s)
    # per row: the occupations and a float copy of them, the ladder table at its widest
    # and, per occupied level, the positions and counts that fill it, the coherent-state
    # tables and a few working columns; per site: the rank's terms and log factorials
    per_row = 16 * two_s + 176 * min(n_sites, two_s) + 168
    return dim * per_row + 8 * (two_s + 5) * (n_sites + 1) + 16384


def _table_bytes(basis: OccupationBasis) -> int:
    """The bytes that the tables of a basis hold."""
    return sum(a.nbytes for a in (*basis[:-1], *basis.ladder_coefficients.values()))


def _occupations(n_sites: int, two_s: int) -> np.ndarray:
    """The (D, 2s+1) integer occupation vectors in row order, the inverse of
    :func:`_occupation_rows`: the rank inverted greedily, at each level the most sites
    past it whose term fits."""
    dim = math.comb(n_sites + two_s, two_s)
    occ = np.empty((dim, two_s + 1), dtype=np.int64)
    left, past = np.arange(dim), np.full(dim, n_sites)
    for i, level_terms in enumerate(_rank_terms(n_sites, two_s)):
        past_i = np.searchsorted(level_terms, left, side="right") - 1
        occ[:, i], past = past - past_i, past_i
        left -= level_terms[past_i]
    occ[:, -1] = past
    return occ


def _occupation_basis(n_sites: int, two_s: int) -> OccupationBasis:
    """The tables of (N, 2s), built afresh; the occupations they come from are dropped."""
    dim = math.comb(n_sites + two_s, two_s)
    _check_bytes(_basis_bytes(n_sites, two_s), "the tables", "occupation-basis", dim)
    terms = _rank_terms(n_sites, two_s)
    occ = _occupations(n_sites, two_s)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_sites + 1)])
    log_sqrt_m = 0.5 * (log_fact[n_sites] - log_fact[occ].sum(axis=1))
    # the coherent-state tables: every power and prefactor of the polarized state
    log_binomials = np.array([math.log(math.comb(two_s, k)) for k in range(two_s + 1)])
    log_prefactor = log_sqrt_m + 0.5 * (occ @ log_binomials)
    ups = occ @ np.arange(two_s + 1.0)  # exact: integer sums below 2^53
    downs = two_s * n_sites - ups
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    total_z = occ @ m
    ising = (total_z**2 - occ @ m**2) / 2.0
    # a row's moves, in level order: S^+ into each occupied level but the last, then S^-
    # into each but the first; each is found from one occupied level l of the row
    at, level = np.nonzero(occ)
    filled = occ[at, level]
    past = n_sites * (at + 1) - np.cumsum(filled)  # sites past l: every row sums to N
    occupied = np.bincount(at, minlength=dim)
    rank = np.arange(at.size) - (np.cumsum(occupied) - occupied)[at]  # of l in its row
    top, bottom = occ[:, 0] > 0, occ[:, -1] > 0
    width = int((2 * occupied - top - bottom).max())
    rows = np.repeat(np.arange(dim)[:, None], width, axis=1)
    # S^x = (S^+ + S^-) / 2, S^y = (S^+ - S^-) / 2i
    coefficients = {"x": np.zeros((dim, width)), "y": np.zeros((dim, width), dtype=complex)}
    ladder = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] - 1.0)) / 2.0
    for down, moves in ((0, level < two_s), (1, level > 0)):  # Sum S^+, then Sum S^-
        # a move between levels k and k + 1 changes only the c sites past k, by 1, and
        # so only the term of level k in the rank
        o, k = at[moves], level[moves] - down
        c = past[moves] + down * filled[moves]
        col = rank[moves] + down * (occupied - bottom - top)[o]
        rows[o, col] = o + terms[k, c + 1 - 2 * down] - terms[k, c]
        half = ladder[k] * np.sqrt((occ[o, k] + down) * (occ[o, k + 1] + 1.0 - down))
        coefficients["x"][o, col] = half
        coefficients["y"][o, col] = half * (1j if down else -1j)
    tables = (total_z, ising, log_prefactor, ups, downs, rows)
    for arr in (*tables, *coefficients.values()):
        arr.setflags(write=False)
    return OccupationBasis(*tables, coefficients)


_BASES = OrderedDict()  # (N, 2s) -> its basis, least recently used first


def occupation_basis(sys: SpinSystem) -> OccupationBasis:
    """Occupation-basis tables of ``sys``, cached per (N, 2s).

    The least recently used bases are evicted while the tables kept
    (:func:`_table_bytes`) exceed a quarter of the host's physical memory;
    a basis larger than that alone is returned without being kept.
    """
    key = (sys.n_sites, sys.two_s)
    if key in _BASES:
        _BASES.move_to_end(key)
        return _BASES[key]
    basis = _occupation_basis(*key)
    budget = _physical_memory_bytes() // 4
    if _table_bytes(basis) <= budget:
        _BASES[key] = basis
        while sum(map(_table_bytes, _BASES.values())) > budget:
            _BASES.popitem(last=False)
    return basis


def apply_total_spin(basis: OccupationBasis, kind: str, vectors: np.ndarray) -> np.ndarray:
    """Sum_j S_j^kind applied to each occupation-basis vector of a (..., D) stack,
    with no D x D array: x and y gather from the ladder table, z is diagonal."""
    if kind == "z":
        return basis.total_z * vectors
    gathered = vectors[..., basis.ladder_rows]
    return np.einsum("...dj,dj->...d", gathered, basis.ladder_coefficients[kind])


def apply_generator(basis: OccupationBasis, b: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """G_f = Sum_{i<j} S_i^z S_j^z + b_f . Sum_j S_j applied to each vector of a (..., D)
    occupation-basis stack, for every row b_f of an (F, 3) array ``b`` (see
    :func:`field_vectors`): shape (F, ..., D), with no D x D matrix of G.

    This is the oracle's only G: d_chi with a field and the dense
    off-axis generators both come from it.  Sum S^x and Sum S^y are applied by
    :func:`apply_total_spin`, each only when some b_f has that component,
    and each field weights them by its b_x and b_y; a zero b_f adds exact
    zeros.
    """
    column = (slice(None),) + (None,) * vectors.ndim  # an (F, 1, ..., 1) column of b
    spin_along = b[:, 2][column] * basis.total_z * vectors
    for k, kind in enumerate("xy"):
        if np.count_nonzero(b[:, k]):
            spin_along = spin_along + b[:, k][column] * apply_total_spin(basis, kind, vectors)
    return basis.ising_pair_sums * vectors + spin_along


def product_to_occupation(sys: SpinSystem) -> Tuple[np.ndarray, np.ndarray]:
    """The isometry V from the occupation basis into the product basis.

    Returns ``(rows, weights)``: product state i lies in occupation row
    ``rows[i]`` with amplitude ``weights[i]`` = 1/sqrt(M(n)), so
    ``V @ v == v[rows] * weights`` and V^dag is the matching weighted sum.
    The weights come from each product state's occupation, not from the
    basis tables: only the rank is shared with the oracle.
    """
    d, d1, n = sys.dim, sys.site_dim, sys.n_sites  # the counts, and the rank's terms
    _check_bytes(8 * d * (d1 + 3 * sys.two_s + 1) + 32768, "the gather", "Hilbert", d)
    counts = np.zeros((1, d1), dtype=np.int64)  # occupation of each product state
    for _ in range(n):  # the site added last is the fastest digit
        # in place on strided rows: a broadcast add over the (d1, d1) inner axes would take
        # the ufunc's buffers, up to 128 KiB, past the estimate at d ~ 4096
        counts = np.repeat(counts, d1, axis=0)
        for k in range(d1):
            counts[k::d1, k] += 1
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    return _occupation_rows(counts), np.exp(-0.5 * (log_fact[n] - log_fact[counts].sum(axis=1)))
