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

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from pathlib import Path

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


@cache
def _sparsetools():
    """scipy.sparse._sparsetools, once per process: unless already imported,
    loaded from its file after ``import scipy`` (which checks the numpy
    version) and kept out of ``sys.modules``, so a stepping process skips the
    ~0.2 s import of scipy.sparse and a later ``import scipy.sparse`` runs as
    usual.  The package import is the fallback."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(scipy.__file__).with_name("sparse") / f"_sparsetools{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)  # CPython's loader registers it there
            if hasattr(module, "csr_matvec") and hasattr(module, "csr_matvecs"):
                return module
    return importlib.import_module(name)


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
        """scipy's compiled csr_matvec and csr_matvecs from
        :func:`_sparsetools`, and the complex copy of ``data`` they read."""
        kernels = _sparsetools()
        return kernels.csr_matvec, kernels.csr_matvecs, self.data.astype(complex)

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
    # the isometry P when these are H restricted to its range (build_pxp or
    # build_rydberg given P), acting in P's orbit space; None for parts in
    # the full basis
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


def _check_basis(lat: Lattice, basis: ConstrainedBasis) -> None:
    if basis.n_sites != lat.n_sites:
        raise ConfigError("basis and lattice have different site counts")


def _flip_rows(basis: ConstrainedBasis, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``indptr`` and ``indices`` of the constrained single-site flips
    out of the basis states ``rows``, one row each, with the columns
    searched in the full basis.

    Row s stores its partners s ^ (1 << i) in ascending order: first the
    de-excitations s - 2^i, highest site first, so site i sits at slot
    popcount(s >> (i + 1)); then the excitations s + 2^i, lowest site
    first, so site i sits at slot popcount(s) plus the excitations allowed
    below i.
    """
    states = basis.states
    bits = [1 << i for i in range(basis.n_sites)]
    # an excitation of site i needs site i and its neighbours empty
    closed = [int(basis.nn_masks[i]) | bit for i, bit in enumerate(bits)]
    excited = np.bitwise_count(rows)
    lengths = excited.copy()
    for mask in closed:
        lengths += (rows & mask) == 0
    nnz = int(lengths.sum(dtype=np.int64))
    index = _index_dtype(nnz, basis.dim)
    indptr = np.zeros(len(rows) + 1, dtype=index)
    np.cumsum(lengths, dtype=index, out=indptr[1:])
    del lengths

    indices = np.empty(nnz, dtype=index)
    below = np.zeros(len(rows), dtype=np.uint8)   # excitations allowed below site i
    for i, (bit, mask) in enumerate(zip(bits, closed)):
        at = np.flatnonzero(rows & bit)
        s = rows[at]
        indices[indptr[at] + np.bitwise_count(s >> (i + 1))] = \
            np.searchsorted(states, s ^ bit)
        at = np.flatnonzero((rows & mask) == 0)
        indices[indptr[at] + excited[at] + below[at]] = \
            np.searchsorted(states, rows[at] | bit)
        below[at] += 1
    return indptr, indices


def _flip_operator(lat: Lattice, basis: ConstrainedBasis, omega: float) -> SparseOperator:
    """Constrained single-site flips with matrix element Omega/2 over the
    full basis, written straight into the canonical CSR arrays of
    :class:`SparseOperator` (:func:`_flip_rows` of every state)."""
    indptr, indices = _flip_rows(basis, basis.states)
    return SparseOperator(indptr=indptr, indices=indices,
                          data=np.full(len(indices), omega / 2.0))


# Relative tolerance of the diagonals' constancy on the orbits.
_RESTRICT_RTOL = 1e-12


def _is_exact(lat: Lattice, iso: OrbitIsometry, diags) -> bool:
    """Whether H restricts exactly to the range of the orbit isometry
    ``iso``: the rows of ``iso.perms`` are site permutations, closed under
    composition, that each map ``lat.nn_pairs`` onto itself, and every
    diagonal in ``diags`` is constant on every orbit to within 1e-12 of its
    largest entry.  Such a group maps the blockade basis onto itself and
    commutes exactly with the constrained flip operator, whose entries are
    all Omega/2."""
    n, perms = lat.n_sites, iso.perms
    if perms.shape[1:] != (n,) or (np.sort(perms, axis=1) != np.arange(n)).any():
        return False

    def bonds(pairs):   # each pair as i * n + j with i < j, ascending
        return np.sort(np.sort(pairs, axis=-1) @ [n, 1], axis=-1)

    # perms[:, perms][g, h] is the composition i -> perms[g, perms[h, i]]
    if (bonds(perms[:, lat.nn_pairs]) != bonds(lat.nn_pairs)).any() \
            or not set(map(tuple, perms[:, perms].reshape(-1, n).tolist())) \
            <= set(map(tuple, perms.tolist())):
        return False
    rep = iso.first[iso.orbit]      # each state's representative
    return all(np.abs(d - d[rep]).max(initial=0.0)
               <= _RESTRICT_RTOL * np.abs(d).max(initial=0.0) for d in diags)


def _assemble(lat: Lattice, basis: ConstrainedBasis, omega: float,
              diag_static: np.ndarray, iso: OrbitIsometry | None) -> HamiltonianParts:
    """The parts of H over the full basis or, where that is exact
    (:func:`_is_exact`), restricted to the range of an orbit isometry P.

    ``iso`` comes from :func:`scarsim.hilbert.symmetric_isometry`, whose
    orbits ascend by representative, the smallest state of each orbit.  The
    restricted flip operator S = P^T O P is built from the representatives'
    rows alone: row a sums the flips out of orbit a's representative k over
    the orbits of their partners, S_ab = (O Q)_kb w_b / w_k with Q the orbit
    indicator (P = Q diag(w)).  The diagonals are taken at the
    representatives, and the restricted parts carry ``iso``.
    """
    diag_number = np.bitwise_count(basis.states).astype(float)
    if iso is None or not _is_exact(lat, iso, (diag_static, diag_number)):
        return HamiltonianParts(basis=basis, flip=_flip_operator(lat, basis, omega),
                                diag_static=diag_static, diag_number=diag_number)
    first, orbit, weight, n = iso.first, iso.orbit, iso.weight, iso.n_orbits
    indptr, cols = _flip_rows(basis, basis.states[first])
    keys, oq = _sum_by_key(np.repeat(np.arange(n), np.diff(indptr)) * n + orbit[cols],
                           np.full(len(cols), omega / 2.0))
    a, b = np.divmod(keys, n)
    index = _index_dtype(len(keys), n)
    flip = SparseOperator(indptr=np.searchsorted(keys, np.arange(n + 1) * n).astype(index),
                          indices=b.astype(index), data=oq * weight[first[b]] / weight[first[a]])
    return HamiltonianParts(
        basis=ConstrainedBasis(n_sites=basis.n_sites, states=basis.states[first],
                               nn_masks=basis.nn_masks),
        flip=flip, diag_static=diag_static[first], diag_number=diag_number[first],
        iso=iso)


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


def build_rydberg(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams,
                  iso: OrbitIsometry | None = None) -> HamiltonianParts:
    """Full long-range Hamiltonian pieces: every pair interaction inside the
    finite patch.  Given an orbit isometry ``iso``, the pieces are
    restricted to its range where that is exact (:func:`_assemble`)."""
    _check_basis(lat, basis)
    return _assemble(lat, basis, p.omega, _interaction_diagonal(lat, basis, p), iso)


def build_pxp(lat: Lattice, basis: ConstrainedBasis, p: PhysicalParams,
              iso: OrbitIsometry | None = None) -> HamiltonianParts:
    """Ideal-blockade model: the constrained flip with no interaction
    diagonal; ``iso`` as for :func:`build_rydberg`."""
    _check_basis(lat, basis)
    return _assemble(lat, basis, p.omega, np.zeros(basis.dim), iso)


def parity_diagonal(basis: ConstrainedBasis) -> np.ndarray:
    """(-1)**(excitation count) per basis state."""
    return np.where(np.bitwise_count(basis.states) % 2 == 0, 1.0, -1.0)
