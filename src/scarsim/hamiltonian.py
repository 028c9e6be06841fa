"""Sparse operators in the constrained basis and time-dependent detuning drives.

A Hamiltonian is kept as separate pieces so drives stay cheap to apply:

    H(t) = flip + diag(diag_static) - delta(t) * diag(diag_number) [+ sw2_extra]

``flip`` holds the Omega/2 off-diagonal matrix elements between valid
configurations differing by one bit (flips that would violate the blockade
never connect two valid states, so projection is automatic), ``diag_static``
the beyond-NN interaction energies, and ``diag_number`` the excitation count
coupled to the detuning.  ``sw2_extra`` carries the Omega^2/(4 V0)
second-order corrections when enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .hilbert import ConstrainedBasis
from .lattice import Lattice, PhysicalParams, nn_spacing, pair_distances, SHELL_RTOL


class DriveShape(str, Enum):
    CONSTANT = "constant"
    COSINE = "cosine"
    SQUARE = "square"


@dataclass(frozen=True)
class DriveProfile:
    """Detuning waveform delta0 + deltam * f(omegam t); rates in rad/us.

    The constant shape uses delta0 only.
    """

    shape: DriveShape
    delta0: float = 0.0
    deltam: float = 0.0
    omegam: float = 0.0

    def __post_init__(self) -> None:
        shape = DriveShape(self.shape)
        object.__setattr__(self, "shape", shape)
        if shape is not DriveShape.CONSTANT and not self.omegam > 0:
            raise ConfigError(f"{shape.value} drive requires omegam > 0")

    @classmethod
    def constant(cls, delta0: float) -> "DriveProfile":
        return cls(shape=DriveShape.CONSTANT, delta0=delta0)

    @classmethod
    def cosine(cls, delta0: float, deltam: float, omegam: float) -> "DriveProfile":
        return cls(shape=DriveShape.COSINE, delta0=delta0, deltam=deltam,
                   omegam=omegam)

    @classmethod
    def square(cls, delta0: float, deltam: float, omegam: float) -> "DriveProfile":
        return cls(shape=DriveShape.SQUARE, delta0=delta0, deltam=deltam,
                   omegam=omegam)

    @property
    def period(self) -> float | None:
        if self.shape is DriveShape.CONSTANT:
            return None
        return math.tau / self.omegam


def detuning_at(drive: DriveProfile, t: float) -> float:
    """Instantaneous detuning of the drive, rad/us.

    The square wave uses the convention step(0) = 1, so the waveform starts
    on its high plateau exactly like the cosine.
    """
    if drive.shape is DriveShape.CONSTANT:
        return drive.delta0
    if drive.shape is DriveShape.COSINE:
        return drive.delta0 + drive.deltam * math.cos(drive.omegam * t)
    return drive.delta0 + drive.deltam * _square_sign(math.cos(drive.omegam * t))


def _square_sign(c: float) -> float:
    return 1.0 if c >= 0.0 else -1.0


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """CSR matrix in constrained-basis indices."""

    matrix: sp.csr_matrix


@dataclass(frozen=True, eq=False)
class HamiltonianParts:
    """Separable pieces of H(t) over a constrained basis (see module docs).

    The combined off-diagonal matrix and its absolute row sums are computed
    once per instance, on first use.
    """

    basis: ConstrainedBasis
    flip: SparseOperator
    diag_static: np.ndarray
    diag_number: np.ndarray
    sw2_extra: SparseOperator | None = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _offdiag(self) -> sp.csr_matrix:
        if self.sw2_extra is None:
            return self.flip.matrix
        return (self.flip.matrix + self.sw2_extra.matrix).tocsr()

    @cached_property
    def _abs_row_sums(self) -> np.ndarray:
        return np.asarray(abs(self._offdiag).sum(axis=1)).ravel()

    def offdiagonal(self) -> sp.csr_matrix:
        """All non-drive sparse content combined (flip plus sw2 terms)."""
        return self._offdiag

    def diagonal(self, delta) -> np.ndarray:
        """Diagonal of H at detuning delta; an array of P detunings gives a
        (dim, P) block, one column per detuning."""
        axes = (1,) * np.ndim(delta)
        return self.diag_static.reshape(-1, *axes) \
            - delta * self.diag_number.reshape(-1, *axes)

    def dense(self, delta: float) -> np.ndarray:
        """H at detuning delta as a dense matrix; every model's H is real
        symmetric, so it is float64."""
        h = self.offdiagonal().toarray()
        h[np.diag_indices_from(h)] += self.diagonal(delta)
        return h

    def spectral_bound(self, delta):
        """Gershgorin-style bound on the spectral radius of H at detuning delta;
        an array of P detunings gives P bounds."""
        rows = self._abs_row_sums.reshape(-1, *(1,) * np.ndim(delta))
        return np.max(rows + np.abs(self.diagonal(delta)), axis=0)


# Relative tolerance of the exactness checks in restrict_parts.
_RESTRICT_RTOL = 1e-12


def restrict_parts(parts: HamiltonianParts, iso: sp.csr_matrix) -> HamiltonianParts | None:
    """H restricted to the range of an orbit isometry, or None if not exact.

    ``iso`` has one nonzero per row (see
    :func:`scarsim.hilbert.symmetric_isometry`), and its columns ascend
    by orbit representative, the smallest state of each orbit.  The sparse
    pieces become P^T O P and the diagonals are taken at the representatives.
    The restriction is returned only when it is exact: both diagonals are
    constant on every orbit and ||O P - P P^T O P|| <= 1e-12 ||O|| for each
    sparse piece O.
    """
    orbit = iso.indices
    first = np.unique(orbit, return_index=True)[1]
    for diag in (parts.diag_static, parts.diag_number):
        spread = np.abs(diag - diag[first][orbit])
        if spread.max(initial=0.0) > _RESTRICT_RTOL * np.abs(diag).max(initial=0.0):
            return None

    def restrict(op: SparseOperator) -> SparseOperator | None:
        small = (iso.T @ op.matrix @ iso).tocsr()
        err = np.linalg.norm((op.matrix @ iso - iso @ small).data)
        if err > _RESTRICT_RTOL * np.linalg.norm(op.matrix.data):
            return None
        return SparseOperator(small)

    flip = restrict(parts.flip)
    sw2 = None if parts.sw2_extra is None else restrict(parts.sw2_extra)
    if flip is None or (parts.sw2_extra is not None and sw2 is None):
        return None
    basis = parts.basis
    reps = ConstrainedBasis(n_sites=basis.n_sites, states=basis.states[first],
                            nn_masks=basis.nn_masks)
    return HamiltonianParts(basis=reps, flip=flip, diag_static=parts.diag_static[first],
                            diag_number=parts.diag_number[first], sw2_extra=sw2)


def _check_basis(lat: Lattice, basis: ConstrainedBasis) -> None:
    if basis.n_sites != lat.n_sites:
        raise ConfigError("basis and lattice have different site counts")


def _flip_matrix(lat: Lattice, basis: ConstrainedBasis, omega: float) -> sp.csr_matrix:
    """Constrained single-site flips with matrix element Omega/2."""
    states = basis.states
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for i in range(lat.n_sites):
        mask = int(basis.nn_masks[i])
        movable = np.flatnonzero((states & mask) == 0)
        partners = states[movable] ^ (1 << i)
        pidx = np.searchsorted(states, partners)
        rows.append(movable)
        cols.append(pidx)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    data = np.full(r.shape, omega / 2.0)
    return sp.csr_matrix((data, (r, c)), shape=(basis.dim, basis.dim))


def _interaction_diagonal(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams,
                          cutoff: float | None) -> np.ndarray:
    """Beyond-NN pair energies per configuration, optionally distance-cut."""
    dist = pair_distances(lat)
    a = nn_spacing(dist)
    states = basis.states
    diag = np.zeros(basis.dim)
    n = lat.n_sites
    for i in range(n):
        for j in range(i + 1, n):
            d = dist[i, j]
            if d <= a * (1.0 + SHELL_RTOL):
                continue  # NN pairs never coexist inside the constrained space
            if cutoff is not None and d > cutoff * a * (1.0 + SHELL_RTOL):
                continue
            pair_mask = (1 << i) | (1 << j)
            both = (states & pair_mask) == pair_mask
            diag[both] += p.v0 / (d / a) ** 6
    return diag


def build_rydberg(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams,
                  cutoff: float | None = None) -> HamiltonianParts:
    """Full long-range Hamiltonian pieces; cutoff (units of a) trims the tail.

    The default keeps every pair interaction inside the finite patch; a
    cutoff of 1 reduces the static diagonal to zero, recovering the ideal
    blockade model exactly.
    """
    _check_basis(lat, basis)
    flip = SparseOperator(_flip_matrix(lat, basis, p.omega))
    diag_static = _interaction_diagonal(lat, basis, p, cutoff)
    diag_number = np.bitwise_count(basis.states).astype(float)
    return HamiltonianParts(basis=basis, flip=flip, diag_static=diag_static,
                            diag_number=diag_number)


def build_pxp(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams) -> HamiltonianParts:
    """Ideal-blockade model: the constrained flip with no interaction diagonal."""
    _check_basis(lat, basis)
    flip = SparseOperator(_flip_matrix(lat, basis, p.omega))
    diag_number = np.bitwise_count(basis.states).astype(float)
    return HamiltonianParts(basis=basis, flip=flip,
                            diag_static=np.zeros(basis.dim),
                            diag_number=diag_number)


def _sw2_operator(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams) -> SparseOperator:
    """Second-order corrections: multi-site diagonal plus constrained hopping.

    Diagonal: every site i with m >= 1 excited neighbours contributes
    -(Omega^2/4V0)/m (an excited i would need m = 0, so only the ground-state
    branch survives inside the constrained space).  Off-diagonal: an
    excitation hops between NN sites i, j with amplitude -Omega^2/4V0 when
    every other neighbour of both sites is in the ground state.
    """
    coeff = p.omega**2 / (4.0 * p.v0)
    states = basis.states
    dim = basis.dim
    diag = np.zeros(dim)
    for i in range(lat.n_sites):
        mask = int(basis.nn_masks[i])
        m = np.bitwise_count(states & mask)
        unexcited = ((states >> i) & 1) == 0
        has = unexcited & (m >= 1)
        diag[has] -= coeff / m[has]
    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    vals = [diag]
    for i, j in lat.nn_pairs:
        i, j = int(i), int(j)
        bit_i, bit_j = 1 << i, 1 << j
        other_i = int(basis.nn_masks[i]) & ~bit_j
        other_j = int(basis.nn_masks[j]) & ~bit_i
        occ = states & (bit_i | bit_j)
        movable = ((occ == bit_i) | (occ == bit_j)) \
            & ((states & other_i) == 0) & ((states & other_j) == 0)
        src = np.flatnonzero(movable)
        dst = np.searchsorted(states, states[src] ^ (bit_i | bit_j))
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(src.shape, -coeff))
    m = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim))
    return SparseOperator(m)


def build_sw2(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams) -> HamiltonianParts:
    """Effective model with Omega^2/(4 V0) corrections enabled."""
    return replace(build_rydberg(lat, basis, p), sw2_extra=_sw2_operator(lat, basis, p))


def parity_diagonal(basis: ConstrainedBasis) -> np.ndarray:
    """(-1)**(excitation count) per basis state."""
    return np.where(np.bitwise_count(basis.states) % 2 == 0, 1.0, -1.0)


def hermiticity_defect(op: SparseOperator) -> float:
    d = op.matrix - op.matrix.getH()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())
