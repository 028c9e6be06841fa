"""Blockade-constrained Hilbert space enumeration and microstate bookkeeping.

Basis states are plain integers: bit ``i`` (value ``1 << i``) is 1 when site
``i`` is excited.  Display strings written by :func:`state_to_string` list
site 0 in the most significant (leftmost) position, matching the row format
used for the grouped microstate tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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

    classes holds one tuple of basis indices per class; keys holds the
    matching (n_A - n_B, n_A + n_B) values.  After :func:`order_microstates`
    the classes are sorted so that n_A - n_B never increases.
    """

    n_sites: int
    classes: tuple[tuple[int, ...], ...]
    class_states: tuple[tuple[int, ...], ...]
    keys: tuple[tuple[int, int], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def state_to_string(state: int, n_sites: int) -> str:
    """Bit string with site 0 leftmost."""
    return "".join("1" if (state >> i) & 1 else "0" for i in range(n_sites))


def string_to_state(bits: str) -> int:
    state = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            state |= 1 << i
        elif ch != "0":
            raise ConfigError(f"invalid bit character {ch!r}")
    return state


def _neighbour_masks(lat: Lattice) -> np.ndarray:
    masks = np.zeros(lat.n_sites, dtype=np.int64)
    for i, j in lat.nn_pairs:
        masks[i] |= np.int64(1) << np.int64(j)
        masks[j] |= np.int64(1) << np.int64(i)
    return masks


def _enumerate_dfs(n: int, nn_masks: np.ndarray, max_dim: int) -> np.ndarray:
    """Depth-first enumeration in ascending integer order, aborting at max_dim."""
    out: list[int] = []
    # stack entries: (next site to decide, partial state, blocked mask)
    stack = [(n - 1, 0, 0)]
    while stack:
        site, state, blocked = stack.pop()
        if site < 0:
            out.append(state)
            if len(out) > max_dim:
                raise CapacityError(
                    f"constrained basis exceeds the {max_dim} state bound"
                )
            continue
        bit = 1 << site
        if not blocked & bit:  # excited branch pushed first, popped last
            stack.append((site - 1, state | bit, blocked | int(nn_masks[site])))
        stack.append((site - 1, state, blocked))
    out.sort()
    return np.array(out, dtype=np.int64)


def enumerate_blockaded(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> ConstrainedBasis:
    """Enumerate every configuration with no two adjacent excitations.

    The order is ascending in the integer value of the configuration.  A
    capacity guard rejects bases larger than ``max_dim`` (default 2**24).
    """
    n = lat.n_sites
    masks = _neighbour_masks(lat)
    # each sublattice is itself blockade-valid, so dim >= 2**max(|A|, |B|)
    largest = max(np.count_nonzero(lat.sublattice == 0),
                  np.count_nonzero(lat.sublattice == 1))
    if largest > 0 and (1 << largest) > max_dim:
        raise CapacityError(
            f"constrained basis of {n} sites has at least 2**{largest} states, "
            f"over the {max_dim} bound"
        )
    states = _enumerate_dfs(n, masks, max_dim)
    return ConstrainedBasis(n_sites=n, states=states, nn_masks=masks)


def sublattice_mask(lat: Lattice, label: int) -> int:
    mask = 0
    for i in lat.sites_of(label):
        mask |= 1 << int(i)
    return mask


def canonical_states(lat: Lattice) -> tuple[int, int, int]:
    """The (AF1, AF2, GGG) product states as basis integers.

    AF1 excites every sublattice-A site, AF2 every B site, GGG none.  Both
    antiferromagnetic states must be blockade-valid.
    """
    af1 = sublattice_mask(lat, 0)
    af2 = sublattice_mask(lat, 1)
    masks = _neighbour_masks(lat)
    for name, s in (("AF1", af1), ("AF2", af2)):
        for i in range(lat.n_sites):
            if (s >> i) & 1 and s & int(masks[i]):
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


def ring_symmetric_isometry(lat: Lattice, basis: ConstrainedBasis) -> sp.csr_matrix | None:
    """Isometry onto the ring states invariant under G = <T^2, R>, or None
    when the lattice is not a ring.

    T shifts site i to i + 1 and R reflects i to -i (mod L); for odd L, T^2
    generates every translation.  A state's orbit representative is the
    smallest of its images under G, and column o of the (dim, n_orbits)
    result is the indicator of orbit o divided by sqrt(|o|), so each row has
    one nonzero and P^T P = I.  Columns ascend by representative.
    """
    if not (lat.kind == "chain" and lat.periodic):
        return None
    n = basis.n_sites
    # unsigned, so that rotations of rings over 31 sites wrap instead of overflow
    states = basis.states.astype(np.uint64)
    full = np.uint64((1 << n) - 1)
    reversed_ = np.zeros_like(states)
    for i in range(n):
        reversed_ |= ((states >> i) & 1) << (n - 1 - i)
    # R is the bit reversal i -> n - 1 - i followed by a shift by one site
    shifts = {2 * j % n for j in range(n)}
    rep = states.copy()
    for image, offset in ((states, 0), (reversed_, 1)):
        for k in shifts:
            k = (k + offset) % n
            np.minimum(rep, ((image << k) | (image >> (n - k))) & full, out=rep)
    _, orbit, counts = np.unique(rep, return_inverse=True, return_counts=True)
    return sp.csr_matrix((1.0 / np.sqrt(counts[orbit]), (np.arange(basis.dim), orbit)),
                         shape=(basis.dim, len(counts)))


def mirror_state(state: int, n_sites: int) -> int:
    """Spatial reflection of a chain configuration (site i -> n-1-i)."""
    out = 0
    for i in range(n_sites):
        if (state >> i) & 1:
            out |= 1 << (n_sites - 1 - i)
    return out


def _class_key(states: tuple[int, ...], mask_a: int, mask_b: int,
               n_sites: int) -> tuple[int, int]:
    s = states[0]
    na = (s & mask_a).bit_count()
    nb = (s & mask_b).bit_count()
    return na - nb, na + nb


def reflection_grouping(basis: ConstrainedBasis, lat: Lattice) -> MicrostateOrdering:
    """Merge each chain configuration with its mirror image.

    Self-symmetric (palindromic) states form singleton classes.  Classes are
    returned in ascending order of their smallest member; use
    :func:`order_microstates` for the canonical presentation order.
    """
    if lat.kind not in ("chain", "zigzag_chain"):
        raise GeometryError("reflection grouping is only defined for chains")
    n = basis.n_sites
    mask_a = sublattice_mask(lat, 0)
    mask_b = sublattice_mask(lat, 1)
    classes: list[tuple[int, ...]] = []
    class_states: list[tuple[int, ...]] = []
    keys: list[tuple[int, int]] = []
    seen: set[int] = set()
    for idx, s in enumerate(basis.states):
        s = int(s)
        if s in seen:
            continue
        m = mirror_state(s, n)
        if m == s:
            members = (s,)
            indices = (idx,)
        else:
            members = (s, m)
            indices = (idx, basis.index_of(m))
        seen.update(members)
        classes.append(indices)
        class_states.append(members)
        keys.append(_class_key(members, mask_a, mask_b, n))
    return MicrostateOrdering(n_sites=n, classes=tuple(classes),
                              class_states=tuple(class_states), keys=tuple(keys))


def order_microstates(grouping: MicrostateOrdering) -> MicrostateOrdering:
    """Sort classes by (n_A - n_B desc, n_A + n_B desc, smallest string asc).

    The lexicographic third key is this toolkit's deterministic tie-break.
    """
    n = grouping.n_sites

    def sort_key(k: int):
        d, s = grouping.keys[k]
        rep = min(state_to_string(st, n) for st in grouping.class_states[k])
        return (-d, -s, rep)

    order = sorted(range(grouping.n_classes), key=sort_key)
    return MicrostateOrdering(
        n_sites=n,
        classes=tuple(grouping.classes[k] for k in order),
        class_states=tuple(grouping.class_states[k] for k in order),
        keys=tuple(grouping.keys[k] for k in order),
    )
