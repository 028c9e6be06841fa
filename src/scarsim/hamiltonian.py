"""Sparse operators in the constrained basis and time-dependent detuning drives.

A Hamiltonian is kept as separate pieces so drives stay cheap to apply:

    H(t) = flip + diag(diag_static) - delta(t) * diag(diag_number)

``flip`` holds the Omega/2 off-diagonal matrix elements between valid
configurations differing by one bit (flips that would violate the blockade
never connect two valid states, so projection is automatic), ``diag_static``
the beyond-NN interaction energies, and ``diag_number`` the excitation count
coupled to the detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .hilbert import ConstrainedBasis, OrbitIsometry
from .lattice import Lattice, PhysicalParams, interaction_matrix, shell_masks


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
    """Square matrix in constrained-basis indices as canonical CSR arrays.

    Row r stores ``data[indptr[r]:indptr[r + 1]]`` at the ascending columns
    ``indices[indptr[r]:indptr[r + 1]]``: bit for bit the arrays that
    scipy's COO to CSR conversion gives.

    ``op @ x`` is the complex product with a state or a (dim, P) block,
    bit for bit scipy's ``op.matrix @ x``: the same compiled CSR kernel on
    the same complex cast of ``data``, which is made once, on the first
    product, rather than on every call.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    @cached_property
    def matrix(self):
        """scipy's CSR view of the same arrays, made on first use; ``@``
        does not need it."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.dim, self.dim))

    @cached_property
    def _kernel(self) -> tuple:
        """scipy's compiled csr_matvec and csr_matvecs, and the complex copy
        of ``data`` they read; importing them loads scipy.sparse."""
        from scipy.sparse import _sparsetools

        return _sparsetools.csr_matvec, _sparsetools.csr_matvecs, self.data.astype(complex)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A new complex array, op x, for a state or a (dim, P) block; a
        block that is not C-contiguous is copied first."""
        n = self.dim
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"operator of dim {n} cannot multiply shape {x.shape}")
        matvec, matvecs, data = self._kernel
        out = np.zeros(x.shape, dtype=complex)
        if x.ndim == 1:
            matvec(n, n, self.indptr, self.indices, data, x, out)
        else:
            matvecs(n, n, x.shape[1], self.indptr, self.indices, data, x.ravel(), out.ravel())
        return out


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` ascending and the sums of their ``values``,
    each np.add.reduceat over its group in input order after one stable
    argsort; where no key repeats, the sorted values themselves."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if new.all():
        return keys, values
    starts = np.flatnonzero(new)
    return keys[starts], np.add.reduceat(values, starts)


def _index_dtype(nnz: int, dim: int) -> type:
    """scipy's CSR index dtype: int32 unless the operator needs int64."""
    return np.int32 if max(nnz, dim) <= np.iinfo(np.int32).max else np.int64


def _operator(keys: np.ndarray, values: np.ndarray, dim: int) -> SparseOperator:
    """The (dim, dim) operator with ``values`` at the positions
    ``keys = row * dim + column``, duplicates summed, with the indices of
    :func:`_index_dtype`."""
    keys, data = _sum_by_key(keys, values)
    index = _index_dtype(len(keys), dim)
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    return SparseOperator(indptr=indptr.astype(index), indices=(keys % dim).astype(index),
                          data=data)


@dataclass(frozen=True, eq=False)
class HamiltonianParts:
    """Separable pieces of H(t) over a constrained basis (see module docs).

    The absolute row sums of ``flip`` are computed once per instance, on
    first use.
    """

    basis: ConstrainedBasis
    flip: SparseOperator
    diag_static: np.ndarray
    diag_number: np.ndarray
    # the isometry P when these are the parts restrict_parts gave, acting
    # in P's orbit space; None for parts in the full basis
    iso: OrbitIsometry | None = None
    # not a field: perfbench/tracer.py still reads it when counting nnz
    sw2_extra = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _abs_row_sums(self) -> np.ndarray:
        # scipy's abs(csr).sum(axis=1): np.add.reduceat over each nonempty row
        op = self.flip
        sums = np.zeros(self.dim)
        nonempty = np.flatnonzero(np.diff(op.indptr))
        sums[nonempty] = np.add.reduceat(np.abs(op.data), op.indptr[nonempty])
        return sums

    def diagonal(self, delta) -> np.ndarray:
        """Diagonal of H at detuning delta; an array of P detunings gives a
        (dim, P) block, one column per detuning."""
        axes = (1,) * np.ndim(delta)
        return self.diag_static.reshape(-1, *axes) \
            - delta * self.diag_number.reshape(-1, *axes)

    def dense(self, delta: float) -> np.ndarray:
        """H at detuning delta as a dense matrix; every model's H is real
        symmetric, so it is float64."""
        op = self.flip
        h = np.zeros((self.dim, self.dim))
        h[op.rows(), op.indices] = op.data
        h[np.diag_indices_from(h)] += self.diagonal(delta)
        return h

    def spectral_bound(self, delta):
        """Gershgorin-style bound on the spectral radius of H at detuning delta;
        an array of P detunings gives P bounds."""
        rows = self._abs_row_sums.reshape(-1, *(1,) * np.ndim(delta))
        return np.max(rows + np.abs(self.diagonal(delta)), axis=0)


# Relative tolerance of the exactness checks in restrict_parts.
_RESTRICT_RTOL = 1e-12

# restrict_parts reads the flip operator in chunks of whole rows that hold
# about this many stored entries, so its temporaries do not grow with the
# operator.
_RESTRICT_CHUNK = 1 << 16


def restrict_parts(parts: HamiltonianParts, iso: OrbitIsometry) -> HamiltonianParts | None:
    """H restricted to the range of an orbit isometry P, or None if not exact.

    ``iso`` comes from :func:`scarsim.hilbert.symmetric_isometry`, whose
    orbits ascend by representative, the smallest state of each orbit.  The
    flip operator O becomes S = P^T O P, read off the representative rows
    of O P, and the diagonals are taken at the representatives.  The
    restriction is returned only when it is exact: both diagonals are
    constant on every orbit, every row of O P stores the columns of its
    representative's row and ||O P - P S||_F <= 1e-12 ||O||_F (checked on
    O Q, Q the orbit indicator, whose distance to its representative rows
    bounds it).  The returned parts carry ``iso``.
    """
    orbit, weight, n = iso.orbit, iso.weight, iso.n_orbits
    dim = len(orbit)
    first = np.full(n, dim)
    np.minimum.at(first, orbit, np.arange(dim))
    rep = first[orbit]      # each state's representative
    for diag in (parts.diag_static, parts.diag_number):
        if np.abs(diag - diag[rep]).max(initial=0.0) \
                > _RESTRICT_RTOL * np.abs(diag).max(initial=0.0):
            return None

    op = parts.flip
    # O Q, Q the orbit indicator (P = Q W, W = diag(weights)): entry
    # O_kl adds to (k, orbit[l]).  Its keys never interleave across
    # rows, so each chunk of rows is summed on its own.  The entries of
    # representative rows are kept (a row of O Q stores at most as many
    # as its row of O), and every row is compared with its
    # representative's, which lies in the same chunk or an earlier one.
    room = int(np.diff(op.indptr)[first].sum())
    kept_cols = np.empty(room, dtype=op.indices.dtype)
    kept = np.empty(room)
    # per row: its entries in O Q and, for a representative, where its
    # kept entries start
    counts = np.empty(dim, dtype=op.indptr.dtype)
    where = np.empty(dim, dtype=op.indptr.dtype)
    n_kept, dist2, r0, nnz = 0, 0.0, 0, int(op.indptr[-1])
    while r0 < dim:
        lo = int(op.indptr[r0])
        r1 = int(np.searchsorted(op.indptr, min(lo + _RESTRICT_CHUNK, nnz), "right")) - 1
        r1 = min(max(r1, r0 + 1), dim)
        hi = int(op.indptr[r1])
        local = np.repeat(np.arange(r1 - r0), np.diff(op.indptr[r0:r1 + 1]))
        keys, oq = _sum_by_key(local * n + orbit[op.indices[lo:hi]], op.data[lo:hi])
        del local
        rows, cols = np.divmod(keys, n)     # rows counted from r0
        del keys
        # O P = P S says that each row of O P, and so of O Q, equals its
        # representative's row (weights are equal within an orbit): every
        # row must store the representative's columns, and the distance
        # bounds ||O P - P S||_F, as every weight is at most 1
        span = np.bincount(rows, minlength=r1 - r0)
        counts[r0:r1] = span
        reps = rep[r0:r1]
        if not np.array_equal(span, counts[reps]):
            return None
        is_rep = reps == np.arange(r0, r1)
        own = np.where(is_rep, span, 0)
        where[r0:r1] = n_kept + np.cumsum(own) - own
        on_rep = is_rep[rows]
        end = n_kept + int(own.sum())
        kept_cols[n_kept:end] = cols[on_rep]
        kept[n_kept:end] = oq[on_rep]
        n_kept = end
        same = where[reps[rows]] + np.arange(len(cols)) \
            - np.repeat(np.cumsum(span) - span, span)
        if not np.array_equal(cols, kept_cols[same]):
            return None
        diff = oq - kept[same]
        dist2 += float(diff @ diff)
        r0 = r1
    if math.sqrt(dist2) > _RESTRICT_RTOL * np.linalg.norm(op.data):
        return None
    # S = P^T O P read off the representative rows, which ascend with
    # their orbits: S_ab = (O Q)_kb w_b / w_k
    k, b = np.repeat(first, counts[first]), kept_cols[:n_kept]
    flip = _operator(orbit[k] * n + b, kept[:n_kept] * weight[first[b]] / weight[k], n)
    basis = parts.basis
    return HamiltonianParts(
        basis=ConstrainedBasis(n_sites=basis.n_sites, states=basis.states[first],
                               nn_masks=basis.nn_masks),
        flip=flip, diag_static=parts.diag_static[first],
        diag_number=parts.diag_number[first], iso=iso)


def _check_basis(lat: Lattice, basis: ConstrainedBasis) -> None:
    if basis.n_sites != lat.n_sites:
        raise ConfigError("basis and lattice have different site counts")


def _flip_operator(lat: Lattice, basis: ConstrainedBasis, omega: float) -> SparseOperator:
    """Constrained single-site flips with matrix element Omega/2, written
    straight into the canonical CSR arrays of :class:`SparseOperator`.

    Row s stores its partners s ^ (1 << i) in ascending order: first the
    de-excitations s - 2^i, highest site first, so site i sits at slot
    popcount(s >> (i + 1)); then the excitations s + 2^i, lowest site
    first, so site i sits at slot popcount(s) plus the excitations allowed
    below i.
    """
    states, dim = basis.states, basis.dim
    bits = [1 << i for i in range(lat.n_sites)]
    # an excitation of site i needs site i and its neighbours empty
    closed = [int(basis.nn_masks[i]) | bit for i, bit in enumerate(bits)]
    excited = np.bitwise_count(states)
    lengths = excited.copy()
    for mask in closed:
        lengths += (states & mask) == 0
    nnz = int(lengths.sum(dtype=np.int64))
    index = _index_dtype(nnz, dim)
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(lengths, dtype=index, out=indptr[1:])
    del lengths

    indices = np.empty(nnz, dtype=index)
    below = np.zeros(dim, dtype=np.uint8)   # excitations allowed below site i
    for i, (bit, mask) in enumerate(zip(bits, closed)):
        rows = np.flatnonzero(states & bit)
        s = states[rows]
        indices[indptr[rows] + np.bitwise_count(s >> (i + 1))] = \
            np.searchsorted(states, s ^ bit)
        rows = np.flatnonzero((states & mask) == 0)
        indices[indptr[rows] + excited[rows] + below[rows]] = \
            np.searchsorted(states, states[rows] | bit)
        below[rows] += 1
    return SparseOperator(indptr=indptr, indices=indices, data=np.full(nnz, omega / 2.0))


def _interaction_diagonal(lat: Lattice, basis: ConstrainedBasis,
                          p: PhysicalParams) -> np.ndarray:
    """Beyond-NN pair energies per configuration, added pair by pair with
    i < j ascending; NN pairs never coexist inside the constrained space."""
    v = interaction_matrix(lat, p)
    _, _, beyond = shell_masks(lat)
    states = basis.states
    diag = np.zeros(basis.dim)
    for i, j in zip(*np.nonzero(np.triu(beyond))):
        pair_mask = (1 << int(i)) | (1 << int(j))
        both = (states & pair_mask) == pair_mask
        diag[both] += v[i, j]
    return diag


def build_rydberg(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams) -> HamiltonianParts:
    """Full long-range Hamiltonian pieces: every pair interaction inside the
    finite patch."""
    _check_basis(lat, basis)
    flip = _flip_operator(lat, basis, p.omega)
    diag_static = _interaction_diagonal(lat, basis, p)
    diag_number = np.bitwise_count(basis.states).astype(float)
    return HamiltonianParts(basis=basis, flip=flip, diag_static=diag_static,
                            diag_number=diag_number)


def build_pxp(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams) -> HamiltonianParts:
    """Ideal-blockade model: the constrained flip with no interaction diagonal."""
    _check_basis(lat, basis)
    flip = _flip_operator(lat, basis, p.omega)
    diag_number = np.bitwise_count(basis.states).astype(float)
    return HamiltonianParts(basis=basis, flip=flip,
                            diag_static=np.zeros(basis.dim),
                            diag_number=diag_number)


def parity_diagonal(basis: ConstrainedBasis) -> np.ndarray:
    """(-1)**(excitation count) per basis state."""
    return np.where(np.bitwise_count(basis.states) % 2 == 0, 1.0, -1.0)
