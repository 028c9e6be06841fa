"""Time evolution in the constrained basis.

The workhorse is a Chebyshev series for exp(-i H h) |psi> over a substep
of length h, cut where its dropped Bessel tail falls below 1e-15, with the
drive sampled at the substep midpoint, which makes the piecewise constant
approximation second order in h.  The series runs in H / b, with b a
Gershgorin bound on the spectral radius of H.  The layer has two entry
points.  :func:`propagate` sizes one series per column for a run of
substeps, from the largest bound over their midpoints, and applies it to
each; a step called alone is a run of one.  :func:`run_block` runs a
quench as one :func:`propagate` per record interval and reads its site
populations in the space it propagates in.  A (dim, P) block carries one
drive per column, so P drives that share everything else propagate as one
block; one drive steps the plain state.  Each term of a series is one
product with ``parts.flip``'s ``@``
(:class:`scarsim.hamiltonian.SparseOperator`), scipy's compiled CSR kernel
on a complex copy of the operator made once, and in-place vector updates
that keep the bits of the plain numpy expressions.  A dense
eigendecomposition propagator is an independent oracle for tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hamiltonian
from .errors import CapacityError, ConfigError, NumericalError, is_int, is_number
from .hamiltonian import DriveProfile, HamiltonianParts, detuning_at
from .hilbert import (
    DEFAULT_MAX_DIM,
    ConstrainedBasis,
    OrbitIsometry,
    enumerate_blockaded,
    named_state,
    permute_states,
    site_bit_table,
    symmetric_isometry,
)
from .lattice import Lattice, PhysicalParams, symmetry_permutations
from .tables import csv_text, number_cell, read_csv

DENSE_DIM_LIMIT = 1 << 10

# The most steps a quench may take; the longest preset, fig4ab-chain, takes
# 2,000.  Pulsed maps cap their period count with it too.
MAX_STEPS = 1 << 24

# A Chebyshev step stops where the dropped Bessel tail falls below this.
_CHEBYSHEV_TAIL = 1e-15

# Enforced resolution of periodic drives: at least this many steps per period.
_STEPS_PER_PERIOD = 200

# Reduced-density-matrix eigenvalues below this are dropped from the entropy.
_ENTROPY_CLIP = 1e-14

# A ring state is propagated in the symmetric subspace only when its
# projection onto it has unit norm to within this tolerance.
_SUBSPACE_TOL = 1e-12

# Relative tolerance of the total_time / dt whole-multiple check, since
# e.g. 0.7 / 0.002 is 349.99999999999994.
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class EvolutionConfig:
    """Step size, recording stride, and total quench time (us).

    Also the parsed ``evolution`` section of a config document, so every
    field check lives here and names its ``evolution.<field>`` path.
    A total_time that is not a whole multiple of dt, or a record_stride
    that does not divide the step count, would truncate the run, so both
    are refused; a step count over ``MAX_STEPS`` is a :class:`CapacityError`.
    ``krylov_dim`` is checked but unused: the Chebyshev step sizes itself.
    """

    total_time: float
    dt: float = 0.002
    krylov_dim: int = 16
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not (is_number(self.total_time) and self.total_time > 0):
            raise ConfigError("evolution.total_time: must be a positive number")
        if not (is_number(self.dt) and self.dt > 0):
            raise ConfigError("evolution.dt: must be a positive number")
        if not (is_int(self.record_stride) and self.record_stride >= 1):
            raise ConfigError("evolution.record_stride: must be an integer >= 1")
        if not (is_int(self.krylov_dim) and self.krylov_dim >= 4):
            raise ConfigError("evolution.krylov_dim: must be an integer >= 4")
        object.__setattr__(self, "total_time", float(self.total_time))
        object.__setattr__(self, "dt", float(self.dt))
        ratio = self.total_time / self.dt
        if not math.isfinite(ratio):
            raise ConfigError(f"evolution.dt: {self.dt!r} gives a step count "
                              "total_time / dt that overflows")
        if self.n_steps > MAX_STEPS:
            raise CapacityError(f"evolution.total_time: {ratio:.6g} steps of dt = "
                                f"{self.dt} exceed the bound of {MAX_STEPS}")
        if abs(ratio - self.n_steps) > _GRID_RTOL * ratio:
            raise ConfigError("evolution.total_time: must be a whole multiple of "
                              f"dt = {self.dt} (ratio {ratio!r})")
        if self.n_steps % self.record_stride:
            raise ConfigError("evolution.record_stride: must divide the step count "
                              f"{self.n_steps}")

    @property
    def n_steps(self) -> int:
        return round(self.total_time / self.dt)


@dataclass(frozen=True, eq=False)
class QuenchResult:
    """Observables recorded on a uniform snapshot grid.

    site_pops has one row per snapshot; probs (optional) holds the basis
    probabilities |psi_s|^2 in enumeration order; entropies (optional) one
    column per requested bipartition cut.
    """

    times: np.ndarray
    site_pops: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    probs: np.ndarray | None = None
    entropies: np.ndarray | None = None


# A series is never extended past the order whose Bessel bound falls below
# this logarithm.
_LOG_BOUND_FLOOR = math.log(1e-3 * _CHEBYSHEV_TAIL)

# log k! = math.lgamma(k + 1) for the orders k < 256 that the series of
# |x| up to 150 reach; the sizing loop calls lgamma only past the table.
_LOG_FACTORIAL = tuple(math.lgamma(k + 1) for k in range(256))

# Miller's backward recurrence starts this many orders above the last order
# it returns, and the leading series term serves below _BESSEL_SMALL_X.
_MILLER_MARGIN = 4
_BESSEL_SMALL_X = 1e-8


def _bessel_j(x: float, kmax: int) -> list[float]:
    """J_0(x), ..., J_kmax(x) on Python floats.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    from the values 0 and 1 a few orders above kmax and normalised by
    J_0 + 2 (J_2 + J_4 + ...) = 1; the running values are scaled down
    whenever they grow past 1e250, so large |x| cannot overflow.  Below
    |x| = 1e-8 the leading series term (|x|/2)^k / k! is exact to rounding.
    J_k(-x) = (-1)^k J_k(x).
    """
    ax = abs(x)
    if ax < _BESSEL_SMALL_X:
        js = [(ax / 2.0) ** k / math.factorial(k) for k in range(kmax + 1)]
    else:
        nxt, cur, two_over_x = 0.0, 1.0, 2.0 / ax
        js = []
        for k in range(kmax + _MILLER_MARGIN, 0, -1):
            js.append(cur)
            nxt, cur = cur, k * two_over_x * cur - nxt
            if abs(cur) > 1e250:
                js = [v * 1e-250 for v in js]
                nxt, cur = nxt * 1e-250, cur * 1e-250
        js.append(cur)
        js.reverse()
        norm = cur + 2.0 * sum(js[2::2])
        js = [v / norm for v in js[:kmax + 1]]
    if x < 0:
        js[1::2] = [-v for v in js[1::2]]
    return js


def _chebyshev_coefficients(x) -> np.ndarray:
    """Coefficients c_k of exp(-i x y) = sum_k c_k T_k(y) for y in [-1, 1].

    c_0 = J_0(x) and c_k = 2 (-i)^k J_k(x) (Jacobi-Anger).  The series stops
    at the first degree whose dropped tail, the sum of |c_k| past it, is
    below ``_CHEBYSHEV_TAIL``.  For a scalar x the result has one entry per
    kept degree; for an array of P values it is a (degree + 1, P) block
    whose column p is the series of x[p], padded with zeros past that
    column's own degree.  Each column is sized and its Bessel values
    computed (:func:`_bessel_j`) on Python floats, so a column does not
    depend on the others.
    """
    xs = np.asarray(x, dtype=float)
    # |J_k(x)| <= (|x|/2)^k / k!; past kmax >= |x| these bounds at least
    # halve at every order, so the unevaluated orders add at most 2 * term.
    # The bound is kept as a logarithm, which stays finite at large |x|.
    columns = []
    for v in xs.ravel().tolist():
        if not math.isfinite(v):
            raise NumericalError(f"step has no finite spectral bound: b * dt = {v}")
        ax = max(abs(v), 1e-300)
        log_half = math.log(ax / 2)
        k = math.ceil(ax)
        while True:
            log_bound = k * log_half - (_LOG_FACTORIAL[k] if k < len(_LOG_FACTORIAL)
                                        else math.lgamma(k + 1))
            if log_bound <= _LOG_BOUND_FLOOR:
                break
            k += 1
        tail = 2.0 * math.exp(log_bound)
        col = _bessel_j(v, k)
        # lower the degree while the tail it drops stays below the tolerance
        while k > 0 and tail + 2.0 * abs(col[k]) < _CHEBYSHEV_TAIL:
            tail += 2.0 * abs(col[k])
            k -= 1
        columns.append(col[:k + 1])
    # orders run down axis 0; the block axis of x, if any, follows
    n = max(map(len, columns))
    bessel = np.array([col + [0.0] * (n - len(col)) for col in columns]).T
    coef = bessel * (2.0 * (-1j) ** np.arange(n))[:, None]
    coef[0] /= 2.0
    return coef.reshape(n, *xs.shape)


def substep_count(drive: DriveProfile, dt: float) -> int:
    """Integrator substeps per step dt: a periodic drive gets at least
    ``_STEPS_PER_PERIOD`` substeps per modulation period."""
    period = drive.period
    if period is None or dt <= period / _STEPS_PER_PERIOD:
        return 1
    return int(math.ceil(dt * _STEPS_PER_PERIOD / period))


def propagate(parts: HamiltonianParts, drives, psi: np.ndarray, starts,
              h: float) -> np.ndarray:
    """Advance psi through substeps of length h that start at ``starts``.

    ``psi`` is one state and ``drives`` holds one drive, or ``psi`` is a
    (dim, P) block and ``drives`` holds P drives, one per column; every
    per-column quantity (detuning, bound, series coefficient, norm) has the
    shape ``psi.shape[1:]``, and each column gets exactly the arithmetic of
    a single-state run.  Each substep applies exp(-i H(t + h/2) h) and
    renormalizes.  All substeps share one Chebyshev series in H / b per
    column (Tal-Ezer & Kosloff 1984), with b the largest
    ``parts.spectral_bound`` over the substeps' midpoint detunings, so a
    single substep gets the series of its own midpoint.
    """
    psi = np.asarray(psi, dtype=complex)
    shape = psi.shape[1:]
    if (len(drives),) != (shape or (1,)):
        raise ConfigError(f"state of shape {psi.shape} but {len(drives)} drives")
    deltas = np.array([[detuning_at(d, t + h / 2.0) for d in drives] for t in starts])
    # each diagonal entry of H is monotone in the detuning, also in floating
    # point, so the largest bound over the midpoints is the larger of the
    # bounds at the least and the greatest detuning
    bound = parts.spectral_bound(np.stack([deltas.min(axis=0), deltas.max(axis=0)]))
    bound = bound.max(axis=0).reshape(shape)
    coef = _chebyshev_coefficients(bound * h)

    # T_{k+1}(H/b) psi = 2 (H/b) T_k(H/b) psi - T_{k-1}(H/b) psi, updated
    # in place.  numpy divides by a complex b + 0j by multiplying with its
    # reciprocal, so multiplying by 1/b and 1/(b/2) keeps the bits of that
    # division.  Each column's factors (the two reciprocals, cast to complex
    # once, and the coefficients) are spread over the block's rows once, as
    # numpy applies a row of factors to a block row by row.
    factors = np.concatenate([[1.0 / bound, 1.0 / (bound / 2.0)], coef])
    if psi.ndim > 1:
        factors = np.repeat(factors[:, None], len(psi), axis=1)
    inv, inv_half, c0, *cs = factors
    # each product with diag or a coefficient is written into one buffer
    term = np.empty_like(psi)
    for delta in deltas.reshape(len(deltas), *shape):
        diag = parts.diagonal(delta).astype(complex)
        out, prev, cur = c0 * psi, None, psi
        for c in cs:
            nxt = parts.flip @ cur
            nxt += np.multiply(diag, cur, out=term)
            if prev is None:
                nxt *= inv
            else:
                nxt *= inv_half
                nxt -= prev
            prev, cur = cur, nxt
            out += np.multiply(c, cur, out=term)
        # np.linalg.norm's sum, the strided dots of the real and imaginary
        # parts, taken on each column in place rather than on a copy of it
        re, im = (part.reshape(len(out), -1).T for part in (out.real, out.imag))
        norms = [math.sqrt(r.dot(r) + i.dot(i)) for r, i in zip(re, im)]
        worst = max(norms, key=lambda n: abs(n - 1.0))
        if abs(worst - 1.0) > 1e-6:
            raise NumericalError(f"propagation lost normalization: |psi| = {worst}")
        psi = out / np.array(norms).reshape(shape)
    return psi


def symmetric_restriction(lat: Lattice, basis: ConstrainedBasis,
                          psi0: np.ndarray) -> OrbitIsometry | None:
    """The isometry P (:func:`scarsim.hilbert.symmetric_isometry`) onto the
    subspace symmetric under the lattice's site permutations
    (:func:`scarsim.lattice.symmetry_permutations`) when the lattice has
    such a group and ``psi0`` lies in the subspace (||P^T psi0|| = 1 to
    within 1e-12); otherwise None.  A state psi_s of the subspace is
    P psi_s in the full basis.
    """
    perms = symmetry_permutations(lat)
    iso = None if perms is None else symmetric_isometry(basis, perms)
    if iso is None or abs(np.linalg.norm(iso.project(psi0)) - 1.0) > _SUBSPACE_TOL:
        return None
    return iso


def build_system(lat: Lattice, model: str, p: PhysicalParams, initial_state: str,
                 max_dim: int = DEFAULT_MAX_DIM
                 ) -> tuple[ConstrainedBasis, HamiltonianParts, np.ndarray]:
    """The basis, the propagated Hamiltonian parts and the start state of a
    ``model`` ("rydberg" or "pxp") quench from the named state.

    The basis is enumerated under ``max_dim``.  Where the start state
    allows it (:func:`symmetric_restriction`), the builder is given the
    isometry P and, where that is exact, builds the parts restricted to
    the symmetric subspace from the orbit representatives alone, without
    the full-basis operator; the state is then projected there.
    Otherwise both stay in the full basis.  The builder is looked up on
    :mod:`scarsim.hamiltonian` at call time.
    """
    basis = enumerate_blockaded(lat, max_dim=max_dim)
    psi0 = named_state(lat, basis, initial_state)
    iso = symmetric_restriction(lat, basis, psi0)
    parts = getattr(hamiltonian, f"build_{model}")(lat, basis, p, iso)
    if parts.iso is None:
        return basis, parts, psi0
    return basis, parts, parts.iso.project(psi0)


def run_block(lat: Lattice, basis: ConstrainedBasis, parts: HamiltonianParts,
              drives, psi0: np.ndarray, cfg: EvolutionConfig, *,
              entropy_cuts: tuple[tuple[int, ...], ...] = (),
              record_probs: bool = True) -> list[QuenchResult]:
    """Evolve psi0 under each of ``drives`` and record observables every
    ``record_stride`` steps; one result per drive.

    The drives share everything else (lattice, basis, Hamiltonian, psi0,
    evolution and observables), and they must share their substep count,
    so one (dim, P) block is propagated with one column per drive; one
    drive steps the plain state.  Each column's result equals that drive's
    own run bit for bit.

    Periodic drives are resolved with at least 200 integrator steps per
    modulation period (:func:`substep_count`); when cfg.dt is coarser, each
    step is subdivided internally so the snapshot grid stays at exact
    multiples of dt * record_stride.

    ``parts`` and ``psi0`` are propagated as they are given.  Parts that
    carry an isometry P (:func:`build_system`) act in its orbit space, where
    ``psi0`` must lie too, and read site populations there, equal to those of
    P psi to rounding; only entropy cuts and probabilities expand the state.
    A cut that an involution of the symmetry group maps onto itself takes
    its entropy from the two reflection blocks of rho
    (:func:`_reflection_split`), equal to the one-block entropy to rounding.

    Each record interval is one :func:`propagate` over its substeps, so
    its series is sized once per column, from the largest
    ``parts.spectral_bound`` over the interval's substep midpoints; a
    constant drive thus gets the series of a step called alone.  The
    evolution config guarantees whole intervals, so every interval ends in
    a snapshot.
    """
    drives = tuple(drives)
    if not drives:
        raise ConfigError("a quench needs at least one drive")
    iso = parts.iso
    full_dim = parts.dim if iso is None else len(iso.orbit)
    if full_dim != basis.dim or len(psi0) != parts.dim:
        raise ConfigError("state, basis, and operator dimensions disagree")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ConfigError("initial state must be normalized")
    counts = sorted({substep_count(d, cfg.dt) for d in drives})
    if len(counts) > 1:
        raise ConfigError(f"drives of one block need one substep count, got {counts}")
    nsub = counts[0]

    psi = psi0.astype(complex)
    # one drive steps the plain state, several a (dim, P) block
    block = psi if len(drives) == 1 else np.repeat(psi[:, None], len(drives), axis=1)

    if iso is None:
        table = site_bit_table(basis)
    else:   # row o: orbit o's mean occupations, sum over k in o of w_k^2 bit_ki
        w2 = iso.weight ** 2
        table = np.column_stack([np.bincount(iso.orbit, w2 * (basis.states >> i & 1),
                                             iso.n_orbits) for i in range(basis.n_sites)])
    indices = [_cut_index(basis, cut) for cut in entropy_cuts]
    if iso is not None:     # P psi is invariant under every row of iso.perms
        indices = [_reflection_split(index, cut, iso.perms)
                   for index, cut in zip(indices, entropy_cuts)]
    a_sites = lat.sites_of(0)
    b_sites = lat.sites_of(1)

    times = []
    pops, nas, nbs, probs, ents = ([[] for _ in drives] for _ in range(5))

    def snapshot(step: int) -> None:
        times.append(step * cfg.dt)
        # one contiguous propagated state per row
        rows = np.ascontiguousarray(block.reshape(len(block), -1).T)
        for j, psi in enumerate(rows):
            pr = np.abs(psi) ** 2
            site = pr @ table
            pops[j].append(site)
            # np.mean's sum and division, without its Python dispatch
            nas[j].append(site[a_sites].sum() / len(a_sites))
            nbs[j].append(site[b_sites].sum() / len(b_sites))
            # entropy cuts and microstate probabilities need the full basis
            if iso is not None and (record_probs or entropy_cuts):
                psi = iso.expand(psi)
            if record_probs:
                probs[j].append(pr if iso is None else np.abs(psi) ** 2)
            if entropy_cuts:
                ents[j].append([
                    entanglement_entropy(reduced_density_matrix(psi, basis, cut, index))
                    for cut, index in zip(entropy_cuts, indices)
                ])

    snapshot(0)
    h = cfg.dt / nsub
    for first in range(0, cfg.n_steps, cfg.record_stride):
        last = first + cfg.record_stride
        # k * dt / nsub rounds differently from k * h; the starts keep the former
        starts = [step * cfg.dt + k * cfg.dt / nsub
                  for step in range(first, last) for k in range(nsub)]
        block = propagate(parts, drives, block, starts, h)
        snapshot(last)

    return [
        QuenchResult(
            times=np.array(times),
            site_pops=np.array(pops[j]),
            n_a=np.array(nas[j]),
            n_b=np.array(nbs[j]),
            probs=np.array(probs[j]) if record_probs else None,
            entropies=np.array(ents[j]) if entropy_cuts else None,
        )
        for j in range(len(drives))
    ]


class _Cut(NamedTuple):
    """A cut's layout in the (subsystem x complement pattern) amplitude
    matrix m: each basis state's flat index into m, m's shape and each
    row's subsystem pattern.  ``pairs`` > 0 marks a layout split by a
    reflection (:func:`_reflection_split`)."""

    flat: np.ndarray
    shape: tuple[int, int]
    rows: np.ndarray
    pairs: int = 0


def _cut_index(basis: ConstrainedBasis, subset) -> _Cut:
    """The layout of the cut ``subset``, with rows and columns ascending by
    pattern."""
    subset = tuple(sorted(set(int(s) for s in subset)))
    if not subset:
        raise ConfigError("subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= basis.n_sites:
        raise ConfigError("subset site out of range")
    if len(subset) >= basis.n_sites:
        raise ConfigError("subset must be a proper subset of the sites")

    # masking keeps the bit order, so rows ascend by subsystem pattern
    sub_mask = sum(1 << site for site in subset)
    sub_uniq, sub_index = np.unique(basis.states & sub_mask, return_inverse=True)
    comp_uniq, comp_index = np.unique(basis.states & ~sub_mask, return_inverse=True)
    sub_index *= len(comp_uniq)
    sub_index += comp_index
    return _Cut(sub_index, (len(sub_uniq), len(comp_uniq)), sub_uniq)


def _reflection_split(cut: _Cut, subset, perms: np.ndarray) -> _Cut:
    """``cut`` with its rows reordered for the two blocks of rho, by the
    involution g among the rows of ``perms`` that maps ``subset`` onto
    itself and pairs the most row patterns a with g a != a; ``cut`` itself
    when no such g pairs any.

    For a state invariant under g, on a basis that g maps onto itself,
    m[g a, g b] = m[a, b], so rho = m m^dagger commutes with a -> g a and
    is block diagonal in the combinations even and odd under g.  The rows
    run: the lower member a of each pair, the patterns g fixes, then the
    partners g a in the order of their a.
    """
    sites = sorted(set(int(s) for s in subset))
    ident = np.arange(perms.shape[1])
    rank = np.arange(len(cut.rows))
    splits = []
    for g in perms:
        if (g == ident).all() or (g[g] != ident).any() \
                or sorted(g[sites].tolist()) != sites:
            continue
        image = np.searchsorted(cut.rows, permute_states(cut.rows, g).astype(np.int64))
        lower = np.flatnonzero(image > rank)
        splits.append((lower, np.flatnonzero(image == rank), image[lower]))
    best = max(splits, key=lambda split: len(split[0]), default=None)
    if best is None or not len(best[0]):
        return cut
    order = np.concatenate(best)
    position = np.empty_like(order)
    position[order] = rank
    row, col = np.divmod(cut.flat, cut.shape[1])
    return _Cut(position[row] * cut.shape[1] + col, cut.shape, cut.rows[order],
                len(best[0]))


def reduced_density_matrix(psi: np.ndarray, basis: ConstrainedBasis,
                           subset: tuple[int, ...] | list[int], index=None):
    """Trace out the complement of ``subset`` sites.

    Rows and columns are the distinct subsystem patterns that occur in the
    basis, i.e. the blockade-valid patterns of the kept sites, in ascending
    pattern order; when every pattern occurs, as for a single site, this is
    the full 2^|subset| layout.  Complement configurations are indexed the
    same way, so the cost is (valid subsystem patterns) times the basis
    dimension.  ``index`` is the cut's :func:`_cut_index`, computed if None.

    An index split by a reflection g (:func:`_reflection_split`, for a
    state invariant under g) gives the tuple (rho_even, rho_odd) of rho's
    blocks instead, m_e m_e^dagger and m_o m_o^dagger, whose rows are
    (m[a] + m[g a]) / sqrt 2 with the rows g fixes, and
    (m[a] - m[g a]) / sqrt 2.  They are formed in m's own rows, and the
    product m m^dagger is never taken.
    """
    cut = _cut_index(basis, subset) if index is None else index
    m = np.zeros(cut.shape, dtype=complex)
    m.reshape(-1)[cut.flat] = psi
    blocks = [m]
    if cut.pairs:
        lo, hi = m[:cut.pairs], m[len(m) - cut.pairs:]
        plus = lo + hi
        np.subtract(lo, hi, out=hi)
        np.multiply(plus, math.sqrt(0.5), out=lo)
        hi *= math.sqrt(0.5)
        del plus
        blocks = [m[:len(m) - cut.pairs], hi]
    rhos = []
    for block in blocks:
        rho = block @ block.conj().T
        rho += rho.conj().T     # 0.5 (rho + rho^dagger), in place
        rho *= 0.5
        rhos.append(rho)
    tr = sum(float(np.trace(rho).real) for rho in rhos)
    if abs(tr - 1.0) > 1e-9:
        raise NumericalError(f"reduced density matrix trace {tr} is not 1")
    return rhos[0] if len(rhos) == 1 else tuple(rhos)


def entanglement_entropy(rho) -> float:
    """Von Neumann entropy in nats of rho, one matrix or the tuple of its
    diagonal blocks (:func:`reduced_density_matrix`), each diagonalized on
    its own; eigenvalues below 1e-14 are dropped."""
    blocks = rho if isinstance(rho, tuple) else (rho,)
    evals = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    if evals.min() < -1e-10:
        raise NumericalError(
            f"density matrix not positive semidefinite: min eigenvalue {evals.min()}"
        )
    evals = evals[evals >= _ENTROPY_CLIP]
    return float(-(evals * np.log(evals)).sum())


def quench_to_csv(result: QuenchResult) -> str:
    """Round-trip-exact CSV: t, nA, nB, imbalance, per-site columns, entropies."""
    header = ["t", "nA", "nB", "imbalance"]
    header += [f"n_{i}" for i in range(result.site_pops.shape[1])]
    n_cuts = 0 if result.entropies is None else result.entropies.shape[1]
    header += [f"S_cut{k}" for k in range(n_cuts)]
    columns = [result.times, result.n_a, result.n_b, result.n_a - result.n_b,
               *result.site_pops.T]
    if result.entropies is not None:
        columns += list(result.entropies.T)
    return csv_text(header, np.column_stack(columns).tolist())


def quench_from_csv(text: str) -> QuenchResult:
    """Parse the output of :func:`quench_to_csv` (probabilities not included);
    every cell must hold a finite number (:func:`scarsim.tables.number_cell`)."""
    header, rows = read_csv(text, "quench", ("t", "nA", "nB"))
    table = np.array([[number_cell(cell, "quench", name) for cell, name in zip(r, header)]
                      for r in rows], dtype=float).reshape(len(rows), len(header))
    site_cols = [k for k, name in enumerate(header) if name.startswith("n_")]
    ent_cols = [k for k, name in enumerate(header) if name.startswith("S_cut")]
    times, n_a, n_b = np.ascontiguousarray(
        table[:, [header.index(name) for name in ("t", "nA", "nB")]].T)
    pops = table[:, site_cols]
    ents = table[:, ent_cols] if ent_cols else None
    return QuenchResult(times=times, site_pops=pops, n_a=n_a, n_b=n_b,
                        probs=None, entropies=ents)


def dense_propagator(parts: HamiltonianParts, delta: float, t: float) -> np.ndarray:
    """Exact unitary exp(-i H t) at constant detuning via the real
    eigendecomposition of :meth:`HamiltonianParts.dense`.

    Guarded to dimensions of at most 2**10; a test oracle only, which no
    command calls.
    """
    if parts.dim > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dense propagator guarded to dim <= {DENSE_DIM_LIMIT}, got {parts.dim}"
        )
    evals, vecs = np.linalg.eigh(parts.dense(delta))
    return (vecs * np.exp(-1j * t * evals)) @ vecs.T
