"""Blockade-constrained Hilbert space enumeration and microstate bookkeeping.

Basis states are plain integers: bit ``i`` (value ``1 << i``) is 1 when site
``i`` is excited.

Every basis symmetry acts through :func:`permute_states` and one orbit
routine, :func:`orbits`: the ring sectors of quenches and pulsed maps
(:func:`symmetric_isometry`) and the mirror classes of chain microstates
(:func:`reflection_grouping`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, GeometryError
from .lattice import Lattice

DEFAULT_MAX_DIM = 1 << 24


@dataclass(frozen=True, eq=False)
class ConstrainedBasis:
    """Ascending enumeration of all blockade-valid configurations.

    states    -- int64 array, strictly increasing
    nn_masks  -- per-site bitmask of its nearest neighbours
    """

    n_sites: int
    states: np.ndarray
    nn_masks: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: int) -> int:
        """Exact reverse lookup; raises KeyError for states not in the basis."""
        k = int(np.searchsorted(self.states, state))
        if k >= self.dim or self.states[k] != state:
            raise KeyError(f"state {state:#x} not in constrained basis")
        return k


@dataclass(frozen=True, eq=False)
class MicrostateOrdering:
    """Reflection classes of chain microstates with their sort keys.

    labels holds the class of each basis state; keys holds one
    (n_A - n_B, n_A + n_B) pair per class, in the presentation order of
    :func:`reflection_grouping`.
    """

    labels: np.ndarray
    keys: tuple[tuple[int, int], ...]

    @property
    def n_classes(self) -> int:
        return len(self.keys)

    def class_sums(self, weights) -> np.ndarray:
        """Per-class totals of ``weights``, whose last axis runs over the
        basis; each class adds its members in basis order."""
        weights = np.asarray(weights)
        out = np.zeros(weights.shape[:-1] + (self.n_classes,), dtype=weights.dtype)
        np.add.at(out, (..., self.labels), weights)
        return out


def _neighbour_masks(lat: Lattice) -> np.ndarray:
    masks = np.zeros(lat.n_sites, dtype=np.int64)
    for i, j in lat.nn_pairs:
        masks[i] |= np.int64(1) << np.int64(j)
        masks[j] |= np.int64(1) << np.int64(i)
    return masks


def _enumerate(n: int, nn_masks: np.ndarray, max_dim: int) -> np.ndarray:
    """Site-by-site enumeration, sorted once at the end.

    After site i the array holds every valid pattern of sites 0..i: the
    patterns of sites 0..i-1 and, appended, those whose lower-indexed
    neighbours of i are empty with bit i set.  Each valid pattern of the
    first sites extends to a full one (all later sites empty), so the count
    only grows and the run stops, before it allocates, once it would pass
    ``max_dim``.
    """
    states = np.zeros(1, dtype=np.int64)
    for site in range(n):
        # the patterns so far set only bits below site, so the mask tests
        # only the lower-indexed neighbours
        free = states[(states & nn_masks[site]) == 0]
        if len(states) + len(free) > max_dim:
            raise CapacityError(f"constrained basis exceeds the {max_dim} state bound")
        states = np.concatenate([states, free | (1 << site)])
    states.sort()
    return states


def enumerate_blockaded(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> ConstrainedBasis:
    """Enumerate every configuration with no two adjacent excitations.

    The order is ascending in the integer value of the configuration.  A
    capacity guard rejects bases larger than ``max_dim`` (default 2**24).
    """
    n = lat.n_sites
    # each sublattice is itself blockade-valid, so dim >= 2**max(|A|, |B|)
    largest = max(np.count_nonzero(lat.sublattice == 0),
                  np.count_nonzero(lat.sublattice == 1))
    if largest > 0 and (1 << largest) > max_dim:
        raise CapacityError(
            f"constrained basis of {n} sites has at least 2**{largest} states, "
            f"over the {max_dim} bound"
        )
    if n > 63:
        raise CapacityError(f"a basis state of {n} sites needs more than 63 bits")
    masks = _neighbour_masks(lat)
    states = _enumerate(n, masks, max_dim)
    return ConstrainedBasis(n_sites=n, states=states, nn_masks=masks)


def site_bit_table(basis: ConstrainedBasis) -> np.ndarray:
    """(dim, n_sites) float matrix of occupation bits, filled one site at a
    time so that no integer table of the same size is made."""
    table = np.empty((basis.dim, basis.n_sites))
    for i in range(basis.n_sites):
        table[:, i] = (basis.states >> i) & 1
    return table


def sublattice_mask(lat: Lattice, label: int) -> int:
    return sum(1 << i for i in lat.sites_of(label).tolist())


def canonical_states(lat: Lattice) -> tuple[int, int, int]:
    """The (AF1, AF2, GGG) product states as basis integers.

    AF1 excites every sublattice-A site, AF2 every B site, GGG none.  Both
    antiferromagnetic states must be blockade-valid.
    """
    af1 = sublattice_mask(lat, 0)
    af2 = sublattice_mask(lat, 1)
    for name, s in (("AF1", af1), ("AF2", af2)):
        if any((s >> i) & (s >> j) & 1 for i, j in lat.nn_pairs.tolist()):
            raise GeometryError(
                f"{name} violates the blockade: sublattice is not independent"
            )
    return af1, af2, 0


def named_state(lat: Lattice, basis: ConstrainedBasis, name: str) -> np.ndarray:
    """Unit vector of the AF1, AF2 or GGG product state (name case-insensitive)."""
    state = dict(zip(("AF1", "AF2", "GGG"), canonical_states(lat))).get(name.upper())
    if state is None:
        raise ConfigError(f"unknown initial state {name!r}")
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index_of(state)] = 1.0
    return psi


def permute_states(states, perm) -> np.ndarray:
    """Images of basis states under the site permutation that moves site i
    to ``perm[i]``.  The sites of one displacement move with one mask and one
    shift, in uint64 so that rings over 31 sites wrap instead of overflow."""
    states = np.asarray(states).astype(np.uint64, copy=False)
    shift = np.asarray(perm) - np.arange(len(perm))
    out = np.zeros_like(states)
    moved = np.empty_like(states)
    # a set, not np.unique, whose flag-free call imports numpy.ma (~15 ms)
    for d in sorted(set(shift.tolist())):
        mask = sum(1 << i for i in np.flatnonzero(shift == d).tolist())
        np.bitwise_and(states, np.uint64(mask), out=moved)
        (np.left_shift if d >= 0 else np.right_shift)(moved, np.uint64(abs(d)), out=moved)
        out |= moved
    return out


def orbits(states, perms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of basis states under a group of site permutations, given as
    one row of ``perms`` per element (the identity may be left out).

    A state's representative is the smallest of its images.  Returns the
    representatives in ascending order, each state's orbit label (the index
    of its representative) and the orbit sizes, which count every member
    when the group maps ``states`` onto itself.
    """
    states = np.asarray(states).astype(np.uint64)
    rep = states.copy()
    for perm in perms:
        np.minimum(rep, permute_states(states, perm), out=rep)
    return np.unique(rep, return_inverse=True, return_counts=True)


@dataclass(frozen=True, eq=False)
class OrbitIsometry:
    """Isometry P from orbit space into the basis (:func:`symmetric_isometry`).

    Column o of the (dim, n_orbits) matrix P is the indicator of orbit o
    over sqrt(|o|): row k has the one nonzero ``weight[k]`` in column
    ``orbit[k]``, and P^T P = I.
    """

    orbit: np.ndarray
    weight: np.ndarray
    n_orbits: int

    def project(self, psi: np.ndarray) -> np.ndarray:
        """P^T psi for one state; each orbit adds its members in basis order."""
        out = np.zeros(self.n_orbits, dtype=np.result_type(psi, self.weight))
        np.add.at(out, self.orbit, self.weight * psi)
        return out

    def expand(self, psi: np.ndarray) -> np.ndarray:
        """P psi for one orbit-space state or a (n_orbits, P) block."""
        return self.weight.reshape(-1, *(1,) * (np.ndim(psi) - 1)) * psi[self.orbit]


def symmetric_isometry(basis: ConstrainedBasis, perms) -> OrbitIsometry:
    """Isometry onto the states invariant under a group of site permutations
    (:func:`scarsim.lattice.symmetry_permutations`), with the orbits of
    :func:`orbits`, which ascend by representative."""
    _, orbit, counts = orbits(basis.states, perms)
    return OrbitIsometry(orbit=orbit, weight=1.0 / np.sqrt(counts[orbit]),
                         n_orbits=len(counts))


def reflection_grouping(basis: ConstrainedBasis, lat: Lattice) -> MicrostateOrdering:
    """Merge each chain configuration with its mirror image (site i -> n-1-i),
    which is in the basis because chain bonds depend only on |i - j|.

    The classes are the :func:`orbits` of the mirror, so self-symmetric
    (palindromic) states form singleton classes.  They are numbered in
    presentation order: n_A - n_B descending, then n_A + n_B descending,
    then smallest member ascending, this toolkit's deterministic tie-break.
    A class's smallest member is its orbit representative, and the
    representatives ascend with the orbit index, so the last key is that
    index.
    """
    if lat.kind not in ("chain", "zigzag_chain"):
        raise GeometryError("reflection grouping is only defined for chains")
    reps, labels, _ = orbits(basis.states, [np.arange(basis.n_sites)[::-1]])
    n_a = np.bitwise_count(reps & sublattice_mask(lat, 0)).astype(int)
    n_b = np.bitwise_count(reps & sublattice_mask(lat, 1)).astype(int)
    diff, total = n_a - n_b, n_a + n_b
    # a stable sort, so equal keys keep the ascending orbit order
    order = np.lexsort((-total, -diff))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    keys = zip(diff[order].tolist(), total[order].tolist())
    return MicrostateOrdering(labels=rank[labels], keys=tuple(keys))
