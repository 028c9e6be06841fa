"""Atom-array geometries, interactions, and lifetime predictors.

Conventions used throughout the toolkit:

* lengths are in units of the nearest-neighbour spacing ``a``;
* frequencies are angular (rad/us); ``PhysicalParams.from_mhz`` converts
  from the cyclic "value/2pi in MHz" convention;
* decay-rate predictors and inverse lifetimes are cyclic (1/us = MHz).

Sublattice ``A`` is always the energetically preferred one, i.e. the
majority sublattice that is fully excited in the ``AF1`` ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .tables import json_text

LATTICE_KINDS = (
    "chain",
    "zigzag_chain",
    "square",
    "honeycomb",
    "lieb",
    "decorated_honeycomb",
    "edge_imbalanced_decorated_honeycomb",
)

# Kinds whose extent counts sites or cells: build_lattice takes int(extent).
COUNTED_KINDS = ("chain", "zigzag_chain", "square", "lieb")

# Lattices whose two sublattices are not related by a symmetry; per-site
# quantities are averaged (detuning) or taken worst-case (decay) over both.
_INEQUIVALENT_SUBLATTICES = frozenset(
    {"lieb", "decorated_honeycomb", "edge_imbalanced_decorated_honeycomb"}
)

# Relative tolerance for sorting pair distances into shells (NN, NNN, ...).
SHELL_RTOL = 1e-6

# Reference plane-fit coefficients used only to decide which sublattice of an
# imbalanced lattice decays faster; callers fit their own values.
REF_ALPHA = 0.72
REF_BETA = 0.58


@dataclass(frozen=True)
class PhysicalParams:
    """Rabi frequency and nearest-neighbour interaction, both rad/us."""

    omega: float
    v0: float

    def __post_init__(self) -> None:
        if not (self.omega > 0 and self.v0 > 0):
            raise ConfigError("omega and v0 must be positive")

    @classmethod
    def from_mhz(cls, omega_mhz: float, v0_mhz: float) -> "PhysicalParams":
        """Build from cyclic frequencies (the conventional value/2pi in MHz)."""
        return cls(omega=math.tau * omega_mhz, v0=math.tau * v0_mhz)


@dataclass(frozen=True, eq=False)
class Lattice:
    """A finite patch of atoms with bipartite sublattice labels.

    positions   -- (n, 2) coordinates in units of a
    sublattice  -- per-site label, 0 for A and 1 for B
    coordination-- per-site number of nearest neighbours
    nn_pairs    -- (m, 2) index pairs at distance a (i < j)
    periodic    -- True only for ring-shaped chains (wrap bond included)
    """

    kind: str
    positions: np.ndarray
    sublattice: np.ndarray
    coordination: np.ndarray
    nn_pairs: np.ndarray
    periodic: bool = False

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    def sites_of(self, label: int) -> np.ndarray:
        """Indices of the sites on sublattice 0 (A) or 1 (B)."""
        return np.flatnonzero(self.sublattice == label)


def pair_distances(lat: Lattice) -> np.ndarray:
    """Full pairwise Euclidean distance matrix."""
    diff = lat.positions[:, None, :] - lat.positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def nn_spacing(dist: np.ndarray) -> float:
    """Smallest nonzero pair distance (defines the unit a)."""
    off = dist[dist > 0]
    if off.size == 0:
        raise GeometryError("lattice has fewer than 2 sites")
    return float(off.min())


def shell_masks(lat: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean pair masks (nn, nnn, beyond_nn) classified by distance shell."""
    dist = pair_distances(lat)
    a = nn_spacing(dist)
    nn = np.abs(dist - a) <= SHELL_RTOL * a
    beyond = dist > a * (1.0 + SHELL_RTOL)
    if beyond.any():
        d2 = dist[beyond].min()
        nnn = np.abs(dist - d2) <= SHELL_RTOL * a
    else:
        nnn = np.zeros_like(nn)
    np.fill_diagonal(nn, False)
    np.fill_diagonal(nnn, False)
    np.fill_diagonal(beyond, False)
    return nn, nnn, beyond


def _finalize(kind: str, positions: np.ndarray, sublattice: np.ndarray,
              periodic: bool = False) -> Lattice:
    """Validate bipartiteness, relabel so A is the majority sublattice."""
    positions = np.asarray(positions, dtype=float)
    sublattice = np.asarray(sublattice, dtype=np.int8)
    if len(positions) < 1:
        raise GeometryError(f"{kind}: empty patch")
    lat = Lattice(kind=kind, positions=positions, sublattice=sublattice,
                  coordination=np.zeros(len(positions), dtype=np.int64),
                  nn_pairs=np.zeros((0, 2), dtype=np.int64), periodic=periodic)
    if len(positions) == 1:
        return lat
    nn, _, _ = shell_masks(lat)
    ii, jj = np.nonzero(np.triu(nn))
    if np.any(sublattice[ii] == sublattice[jj]):
        raise GeometryError(
            f"{kind}: patch is not bipartite at nearest-neighbour distance"
        )
    # majority sublattice is the energetically preferred one -> label it A (0)
    if np.count_nonzero(sublattice == 1) > np.count_nonzero(sublattice == 0):
        sublattice = (1 - sublattice).astype(np.int8)
    coordination = nn.sum(axis=1).astype(np.int64)
    pairs = np.column_stack([ii, jj]).astype(np.int64)
    return Lattice(kind=kind, positions=positions, sublattice=sublattice,
                   coordination=coordination, nn_pairs=pairs, periodic=periodic)


def _chain_positions(n: int) -> np.ndarray:
    return np.column_stack([np.arange(n, dtype=float), np.zeros(n)])


def _ring_positions(n: int) -> np.ndarray:
    r = 0.5 / math.sin(math.pi / n)
    ang = math.tau * np.arange(n) / n
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _zigzag_positions(n: int, ratio: float) -> np.ndarray:
    # NN spacing 1 with second-shell distance `ratio`
    dx = ratio / 2.0
    h = math.sqrt(max(1.0 - dx * dx, 0.0))
    x = dx * np.arange(n, dtype=float)
    y = h * (np.arange(n) % 2)
    return np.column_stack([x, y])


def _square_patch(side: int) -> tuple[np.ndarray, np.ndarray]:
    ij = np.array([(i, j) for j in range(side) for i in range(side)], dtype=float)
    sub = ((ij[:, 0] + ij[:, 1]) % 2).astype(np.int8)
    return ij, sub


def _honeycomb_sites(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All honeycomb sites within `radius` of a central A site (bond length 1)."""
    a1 = np.array([1.5, math.sqrt(3) / 2])
    a2 = np.array([1.5, -math.sqrt(3) / 2])
    m = int(math.ceil(radius)) + 2
    pos, sub = [], []
    for p in range(-m, m + 1):
        for q in range(-m, m + 1):
            base = p * a1 + q * a2
            for off, s in (((0.0, 0.0), 0), ((1.0, 0.0), 1)):
                r = base + off
                if np.hypot(r[0], r[1]) <= radius + 1e-9:
                    pos.append(r)
                    sub.append(s)
    return np.array(pos), np.array(sub, dtype=np.int8)


def _lieb_patch(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Lieb patch with (cells+1)^2 corner sites and 2*cells*(cells+1) edge sites."""
    pos, sub = [], []
    for j in range(cells + 1):
        for i in range(cells + 1):
            pos.append((2.0 * i, 2.0 * j))
            sub.append(1)  # corners (coordination 4 in bulk)
    for j in range(cells + 1):
        for i in range(cells):
            pos.append((2.0 * i + 1.0, 2.0 * j))
            sub.append(0)  # bond centres, the majority sublattice
    for j in range(cells):
        for i in range(cells + 1):
            pos.append((2.0 * i, 2.0 * j + 1.0))
            sub.append(0)
    return np.array(pos, dtype=float), np.array(sub, dtype=np.int8)


def _decorated_honeycomb(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Hexagonal net with bond length 2 plus one decoration site per bond.

    Decoration sites sit at bond midpoints, so the NN spacing is 1.  Only
    bonds with both endpoint vertices inside the patch are decorated, which
    keeps the boundary free of dangling decorations.
    """
    vpos, _ = _honeycomb_sites(radius / 2.0 + 1e-9)
    vpos = 2.0 * vpos
    keep = np.hypot(vpos[:, 0], vpos[:, 1]) <= radius + 1e-9
    vpos = vpos[keep]
    n_v = len(vpos)
    diff = vpos[:, None, :] - vpos[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    pos = list(vpos)
    sub = [1] * n_v
    for i in range(n_v):
        for j in range(i + 1, n_v):
            if abs(d[i, j] - 2.0) <= 1e-9:
                pos.append(0.5 * (vpos[i] + vpos[j]))
                sub.append(0)
    return np.array(pos), np.array(sub, dtype=np.int8)


def _edge_imbalanced_decorated(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Decorated honeycomb with boundary decorations removed on one side only.

    A decoration is a boundary one when either endpoint vertex has fewer
    than three decorated bonds; the removal is restricted to the half-plane
    x > 0, which produces the intended left/right sublattice imbalance.
    The exact patch shape is a documented parameterized choice.
    """
    pos, sub = _decorated_honeycomb(radius)
    vert = pos[sub == 1]
    deco = pos[sub == 0]
    # vertex degree counted through its decorations (distance 1)
    dvd = np.sqrt(((vert[:, None, :] - deco[None, :, :]) ** 2).sum(axis=-1))
    touches = np.abs(dvd - 1.0) <= 1e-9
    vertex_degree = touches.sum(axis=1)
    boundary_deco = (touches & (vertex_degree < 3)[:, None]).any(axis=0)
    drop = boundary_deco & (deco[:, 0] > 1e-9)
    keep_deco = deco[~drop]
    pos = np.vstack([vert, keep_deco])
    sub = np.concatenate([np.ones(len(vert), dtype=np.int8),
                          np.zeros(len(keep_deco), dtype=np.int8)])
    return pos, sub


def build_lattice(kind: str, extent: int | float,
                  zigzag_nnn_ratio: float | None = None, *,
                  periodic: bool = False) -> Lattice:
    """Construct one of the supported bipartite patches.

    extent means: number of sites for (zigzag) chains, side length for the
    square patch, and a Euclidean cut radius (units of a) for the honeycomb
    family; for the Lieb patch it is the number of unit cells per side.
    ``zigzag_nnn_ratio`` sets the second-shell distance d2/a of the zigzag
    chain (2 recovers a straight chain) and must be supplied only for it.
    ``periodic`` closes a chain into a ring of unit bond length.  A refusal
    begins with the name of the parameter it concerns, as ``name: reason``.
    """
    if kind not in LATTICE_KINDS:
        raise ConfigError(f"kind: unsupported lattice kind {kind!r}")
    if (zigzag_nnn_ratio is not None) != (kind == "zigzag_chain"):
        raise ConfigError("zigzag_nnn_ratio: must be supplied iff kind is zigzag_chain")
    if periodic and kind != "chain":
        raise ConfigError("periodic: only chains may be periodic")
    if extent <= 0:
        raise ConfigError("extent: must be positive")

    if kind == "chain":
        n = int(extent)
        if periodic:
            if n < 3:
                raise GeometryError("extent: a periodic chain needs at least 3 sites")
            pos = _ring_positions(n)
        else:
            pos = _chain_positions(n)
        sub = (np.arange(n) % 2).astype(np.int8)
        return _finalize(kind, pos, sub, periodic=periodic)
    if kind == "zigzag_chain":
        r = float(zigzag_nnn_ratio)
        if not (1.0 <= r <= 2.0):
            raise ConfigError("zigzag_nnn_ratio: must lie in [1, 2]")
        n = int(extent)
        pos = _zigzag_positions(n, r)
        sub = (np.arange(n) % 2).astype(np.int8)
        return _finalize(kind, pos, sub)
    if kind == "square":
        pos, sub = _square_patch(int(extent))
        return _finalize(kind, pos, sub)
    if kind == "honeycomb":
        pos, sub = _honeycomb_sites(float(extent))
        return _finalize(kind, pos, sub)
    if kind == "lieb":
        pos, sub = _lieb_patch(int(extent))
        return _finalize(kind, pos, sub)
    if kind == "decorated_honeycomb":
        pos, sub = _decorated_honeycomb(float(extent))
        return _finalize(kind, pos, sub)
    pos, sub = _edge_imbalanced_decorated(float(extent))
    return _finalize(kind, pos, sub)


def symmetry_permutations(lat: Lattice) -> np.ndarray | None:
    """The symmetry group G whose sector quenches and pulsed maps propagate
    in: row g moves site i to ``perms[g, i]``, one row per element.

    A ring has G = <T^2, R> (T: i -> i + 1, R: i -> -i mod L), whose rows are
    i -> k + i and i -> k - i for every even k; on an odd ring T^2 generates
    every translation.  Other lattices give None and skip all symmetry work.
    """
    if not (lat.kind == "chain" and lat.periodic):
        return None
    n = lat.n_sites
    sites = np.arange(n)
    shifts = sorted({2 * j % n for j in range(n)})
    return np.array([(k + sign * sites) % n for sign in (1, -1) for k in shifts])


def interaction_matrix(lat: Lattice, p: PhysicalParams) -> np.ndarray:
    """Pairwise van der Waals couplings V_ij = V0 / (d_ij/a)^6, zero diagonal."""
    dist = pair_distances(lat)
    a = nn_spacing(dist)
    with np.errstate(divide="ignore"):
        v = p.v0 / (dist / a) ** 6
    np.fill_diagonal(v, 0.0)
    return v


def boundary_distances(positions: np.ndarray) -> np.ndarray:
    """Distance of every site to the boundary of the patch.

    Collinear patches are measured along their axis; otherwise the distance
    to the nearest convex-hull edge is used.
    """
    n = len(positions)
    if n == 1:
        return np.zeros(1)
    centred = positions - positions.mean(axis=0)
    u, s, vt = np.linalg.svd(centred, full_matrices=False)
    if n < 3 or s[-1] < 1e-9 * max(s[0], 1.0):
        t = centred @ vt[0]
        return np.minimum(t - t.min(), t.max() - t)
    from scipy.spatial import ConvexHull  # imported here: only 2-D patches use it

    hull = ConvexHull(positions)
    d = np.full(n, np.inf)
    for i0, i1 in hull.simplices:
        p0, p1 = positions[i0], positions[i1]
        seg = p1 - p0
        seg2 = seg @ seg
        t = np.clip(((positions - p0) @ seg) / seg2, 0.0, 1.0)
        proj = p0 + t[:, None] * seg
        d = np.minimum(d, np.linalg.norm(positions - proj, axis=1))
    return d


def bulk_site(lat: Lattice, label: int | None = None) -> int:
    """Site farthest from the patch boundary (ties: lowest index).

    With ``label`` given, the search is restricted to one sublattice.
    """
    d = boundary_distances(lat.positions)
    if label is None:
        return int(np.argmax(d))
    idx = lat.sites_of(label)
    return int(idx[np.argmax(d[idx])])


def _beyond_nn_half_sum(lat: Lattice, p: PhysicalParams, site: int) -> float:
    v = interaction_matrix(lat, p)
    _, _, beyond = shell_masks(lat)
    return 0.5 * float(v[site][beyond[site]].sum())


def optimal_detuning(lat: Lattice, p: PhysicalParams) -> float:
    """Detuning (rad/us) cancelling the mean-field beyond-NN interaction shift.

    Evaluated at a bulk site; lattices with inequivalent sublattices use the
    average of the two per-sublattice bulk values.
    """
    if lat.n_sites < 3:
        raise GeometryError("lattice too small to contain a bulk site (need >= 3)")
    if lat.kind in _INEQUIVALENT_SUBLATTICES:
        va = _beyond_nn_half_sum(lat, p, bulk_site(lat, 0))
        vb = _beyond_nn_half_sum(lat, p, bulk_site(lat, 1))
        return 0.5 * (va + vb)
    return _beyond_nn_half_sum(lat, p, bulk_site(lat))


def blockade_radius(p: PhysicalParams) -> tuple[float, float]:
    """(R_b/a, a/R_b) with the blockade radius defined by V(R_b) = Omega."""
    rb = (p.v0 / p.omega) ** (1.0 / 6.0)
    return rb, 1.0 / rb


def _site_predictors(lat: Lattice, p: PhysicalParams, site: int) -> tuple[float, float]:
    v = interaction_matrix(lat, p)
    _, nnn, _ = shell_masks(lat)
    x = lat.coordination[site] * p.omega**2 / (4.0 * p.v0) / math.tau
    y = float(v[site][nnn[site]].sum()) / math.tau
    return x, y


def decay_predictors(lat: Lattice, p: PhysicalParams) -> tuple[float, float]:
    """Bulk-site decay predictors (x, y) in MHz.

    x is the blockade-violation channel D * Omega^2/(4 V0) / 2pi and y the
    second-shell interaction sum / 2pi.  For lattices with inequivalent
    sublattices the sublattice with the faster predicted decay is used.
    """
    if lat.n_sites < 3:
        raise GeometryError("lattice too small to contain a bulk site (need >= 3)")
    if lat.kind in _INEQUIVALENT_SUBLATTICES:
        cands = [_site_predictors(lat, p, bulk_site(lat, s)) for s in (0, 1)]
        return max(cands, key=lambda xy: REF_ALPHA * xy[0] + REF_BETA * xy[1])
    return _site_predictors(lat, p, bulk_site(lat))


def predict_lifetime(x: float, y: float, alpha: float, beta: float,
                     tau0: float) -> float:
    """Lifetime tau (us) = 1 / (alpha*x + beta*y + 1/tau0); x, y in MHz."""
    if x < 0 or y < 0:
        raise ConfigError("decay predictors must be nonnegative")
    if tau0 <= 0:
        raise ConfigError("tau0 must be positive")
    return 1.0 / (alpha * x + beta * y + 1.0 / tau0)


def lattice_to_json(lat: Lattice) -> str:
    """Serialize to a JSON document with 12-significant-digit coordinates."""
    doc = {
        "kind": lat.kind,
        "periodic": lat.periodic,
        "positions": [[float(f"{x:.12g}") for x in row] for row in lat.positions],
        "sublattice": ["A" if s == 0 else "B" for s in lat.sublattice],
    }
    return json_text(doc)
