"""Time evolution in the constrained basis.

The workhorse is a Chebyshev series for exp(-i H dt) |psi>, cut where its
dropped Bessel tail falls below 1e-15, with the drive sampled at the step
midpoint, which makes the piecewise constant approximation second order in
dt.  A step advances a (dim, P) block with one drive per column, and a
quench runner propagates P drives that share everything else as one
block; a single state and a single quench are the P = 1 case.  A dense
eigendecomposition propagator is an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ConfigError, NumericalError, is_int, is_number
from .hamiltonian import DriveProfile, HamiltonianParts, detuning_at, restrict_parts
from .hilbert import ConstrainedBasis, ring_symmetric_isometry
from .lattice import Lattice

DENSE_DIM_LIMIT = 1 << 10

# A Chebyshev step stops where the dropped Bessel tail falls below this.
_CHEBYSHEV_TAIL = 1e-15

# Enforced resolution of periodic drives: at least this many steps per period.
_STEPS_PER_PERIOD = 200

# A ring state is propagated in the symmetric subspace only when its
# projection onto it has unit norm to within this tolerance.
_SUBSPACE_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionConfig:
    """Step size, recording stride, and total quench time (us).

    Also the parsed ``evolution`` section of a config document, so every
    field check lives here and names its ``evolution.<field>`` path.
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
    entropy_cuts: tuple[tuple[int, ...], ...] = ()
    final_state: np.ndarray | None = None


# A series is never extended past the order whose Bessel bound falls below
# this logarithm.
_LOG_BOUND_FLOOR = math.log(1e-3 * _CHEBYSHEV_TAIL)


def _chebyshev_coefficients(x) -> np.ndarray:
    """Coefficients c_k of exp(-i x y) = sum_k c_k T_k(y) for y in [-1, 1].

    c_0 = J_0(x) and c_k = 2 (-i)^k J_k(x) (Jacobi-Anger).  The series stops
    at the first degree whose dropped tail, the sum of |c_k| past it, is
    below ``_CHEBYSHEV_TAIL``.  For a scalar x the result has one entry per
    kept degree; for an array of P values it is a (degree + 1, P) block
    whose column p is the series of x[p], padded with zeros past that
    column's own degree.  The Bessel values of all columns come from one
    ``jv`` call; the sizing loops run per column on Python floats.
    """
    from scipy.special import jv  # imported here: floquet runs never step

    xs = np.asarray(x, dtype=float)
    # |J_k(x)| <= (|x|/2)^k / k!; past kmax >= |x| these bounds at least
    # halve at every order, so the unevaluated orders add at most 2 * term.
    # The bound is kept as a logarithm, which stays finite at large |x|.
    kmax, dropped = [], []
    for v in xs.ravel().tolist():
        if not math.isfinite(v):
            raise NumericalError(f"step has no finite spectral bound: b * dt = {v}")
        ax = max(abs(v), 1e-300)
        log_half = math.log(ax / 2)
        k = math.ceil(ax)
        while k * log_half - math.lgamma(k + 1) > _LOG_BOUND_FLOOR:
            k += 1
        kmax.append(k)
        dropped.append(2.0 * math.exp(k * log_half - math.lgamma(k + 1)))
    # orders run down axis 0; the block axis of x, if any, follows
    block_axes = (1,) * xs.ndim
    bessel = jv(np.arange(max(kmax) + 1).reshape(-1, *block_axes), xs)
    # lower each degree while the tail it drops stays below the tolerance
    degree = []
    for col, k, tail in zip(bessel.reshape(len(bessel), -1).T.tolist(), kmax, dropped):
        while k > 0 and tail + 2.0 * abs(col[k]) < _CHEBYSHEV_TAIL:
            tail += 2.0 * abs(col[k])
            k -= 1
        degree.append(k)
    ks = np.arange(max(degree) + 1).reshape(-1, *block_axes)
    coef = 2.0 * (-1j) ** ks * bessel[:len(ks)]
    if min(degree) < max(degree):
        coef[ks > np.array(degree)] = 0.0
    coef[0] /= 2.0
    return coef


def substep_count(drive: DriveProfile, dt: float) -> int:
    """Integrator substeps per step dt: a periodic drive gets at least
    ``_STEPS_PER_PERIOD`` substeps per modulation period."""
    period = drive.period
    if period is None or dt <= period / _STEPS_PER_PERIOD:
        return 1
    return int(math.ceil(dt * _STEPS_PER_PERIOD / period))


def propagate_step(parts: HamiltonianParts, drive, psi: np.ndarray,
                   t: float, dt: float) -> np.ndarray:
    """One step psi -> exp(-i H(t + dt/2) dt) psi, renormalized.

    ``psi`` is one state and ``drive`` one :class:`DriveProfile`, or ``psi``
    is a (dim, P) block and ``drive`` a sequence of P drives, one per
    column.  Both run the same code: every per-column quantity (detuning,
    bound, series coefficient, norm) has the shape ``psi.shape[1:]``, so a
    single state is the P = 1 case without a block axis.  Each drive is
    sampled once at the step midpoint; callers that need finer drive
    resolution should subdivide dt themselves.  A step of any length is one
    Chebyshev series in H / b per column, with b that column's
    ``parts.spectral_bound`` (Tal-Ezer & Kosloff 1984); every column gets
    exactly the arithmetic of a single-state step.
    """
    drives = (drive,) if isinstance(drive, DriveProfile) else tuple(drive)
    if (len(drives),) != (psi.shape[1:] or (1,)):
        raise ConfigError(f"state of shape {psi.shape} but {len(drives)} drives")
    psi = np.asarray(psi, dtype=complex)
    mid = t + dt / 2.0
    delta = np.array([detuning_at(d, mid) for d in drives]).reshape(psi.shape[1:])
    off = parts.offdiagonal()
    diag = parts.diagonal(delta)
    bound = parts.spectral_bound(delta)
    coef = _chebyshev_coefficients(bound * dt)

    # T_{k+1}(H/b) psi = 2 (H/b) T_k(H/b) psi - T_{k-1}(H/b) psi, updated
    # in place; diag and b are cast to complex once, as each product would
    diag, bound = diag.astype(complex), np.asarray(bound, dtype=complex)
    out, prev, cur = coef[0] * psi, None, psi
    for c in coef[1:]:
        nxt = off @ cur
        nxt += diag * cur
        nxt /= bound
        if prev is not None:
            nxt *= 2.0
            nxt -= prev
        prev, cur = cur, nxt
        out += c * cur
    norms = [float(np.linalg.norm(col)) for col in out.reshape(len(out), -1).T]
    worst = max(norms, key=lambda n: abs(n - 1.0))
    if abs(worst - 1.0) > 1e-6:
        raise NumericalError(f"propagation lost normalization: |psi| = {worst}")
    return out / np.array(norms).reshape(psi.shape[1:])


def symmetric_restriction(lat: Lattice, basis: ConstrainedBasis,
                          parts: HamiltonianParts, psi0: np.ndarray
                          ) -> tuple[HamiltonianParts, sp.csr_matrix] | None:
    """H restricted to the ring's <T^2, R>-symmetric subspace, with its isometry.

    Returns ``(restricted parts, P)`` when the lattice is a ring, ``psi0``
    lies in the subspace (||P^T psi0|| = 1 to within 1e-12) and the
    restriction is exact (see :func:`scarsim.hamiltonian.restrict_parts`);
    otherwise None.  A state psi_s of the subspace is P psi_s in the full basis.
    """
    iso = ring_symmetric_isometry(lat, basis)
    if iso is None or abs(np.linalg.norm(iso.T @ psi0) - 1.0) > _SUBSPACE_TOL:
        return None
    reduced = restrict_parts(parts, iso)
    return None if reduced is None else (reduced, iso)


def _site_bit_table(basis: ConstrainedBasis) -> np.ndarray:
    """(dim, n_sites) float matrix of occupation bits."""
    shifts = np.arange(basis.n_sites)
    return ((basis.states[:, None] >> shifts) & 1).astype(float)


def run_quench(lat: Lattice, basis: ConstrainedBasis, parts: HamiltonianParts,
               drive: DriveProfile, psi0: np.ndarray, cfg: EvolutionConfig, *,
               entropy_cuts: tuple[tuple[int, ...], ...] = (),
               record_probs: bool = True) -> QuenchResult:
    """Evolve psi0 and record observables every ``record_stride`` steps.

    Periodic drives are resolved with at least 200 integrator steps per
    modulation period (:func:`substep_count`); when cfg.dt is coarser, each
    step is subdivided internally so the snapshot grid stays at exact
    multiples of dt * record_stride.

    On a ring, a state invariant under translation by two sites and
    inversion (AF1, AF2, GGG) is propagated in that symmetric subspace
    (see :func:`scarsim.hilbert.ring_symmetric_isometry`) whenever the
    restricted Hamiltonian is exact; each snapshot expands the state back to
    the full basis, so every recorded quantity is a full-basis one.

    This is the one-drive case of :func:`_run_block`.
    """
    return _run_block(lat, basis, parts, (drive,), psi0, cfg,
                      entropy_cuts=entropy_cuts, record_probs=record_probs)[0]


def _run_block(lat: Lattice, basis: ConstrainedBasis, parts: HamiltonianParts,
               drives, psi0: np.ndarray, cfg: EvolutionConfig, *,
               entropy_cuts: tuple[tuple[int, ...], ...] = (),
               record_probs: bool = True) -> list[QuenchResult]:
    """:func:`run_quench` for P drives at once; one result per drive.

    The drives share everything else (lattice, basis, Hamiltonian, psi0,
    evolution and observables), and they must share their substep count,
    so one (dim, P) block is propagated with one column per drive.  Each
    column's result equals that drive's own :func:`run_quench` bit for bit.
    """
    drives = tuple(drives)
    if not drives:
        raise ConfigError("a quench needs at least one drive")
    if parts.dim != basis.dim or len(psi0) != basis.dim:
        raise ConfigError("state, basis, and operator dimensions disagree")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ConfigError("initial state must be normalized")
    counts = sorted({substep_count(d, cfg.dt) for d in drives})
    if len(counts) > 1:
        raise ConfigError(f"drives of one block need one substep count, got {counts}")
    nsub = counts[0]
    n_steps = int(round(cfg.total_time / cfg.dt))

    psi = psi0.astype(complex).copy()
    restricted = symmetric_restriction(lat, basis, parts, psi)
    if restricted is not None:
        parts, iso = restricted
        psi = iso.T @ psi
    # one drive steps the plain state, several a (dim, P) block
    step_drive = drives if len(drives) > 1 else drives[0]
    block = psi if len(drives) == 1 else np.repeat(psi[:, None], len(drives), axis=1)

    def full_states() -> np.ndarray:
        """One contiguous full-basis state per row."""
        full = block if restricted is None else iso @ block
        return np.ascontiguousarray(full.reshape(len(full), -1).T)

    bits = _site_bit_table(basis)
    a_sites = lat.sites_of(0)
    b_sites = lat.sites_of(1)

    times = []
    pops, nas, nbs, probs, ents = ([[] for _ in drives] for _ in range(5))

    def snapshot(step: int) -> None:
        times.append(step * cfg.dt)
        for j, psi_full in enumerate(full_states()):
            pr = np.abs(psi_full) ** 2
            site = pr @ bits
            pops[j].append(site)
            nas[j].append(site[a_sites].mean())
            nbs[j].append(site[b_sites].mean())
            if record_probs:
                probs[j].append(pr)
            if entropy_cuts:
                ents[j].append([
                    entanglement_entropy(reduced_density_matrix(psi_full, basis, cut))
                    for cut in entropy_cuts
                ])

    snapshot(0)
    for step in range(n_steps):
        t = step * cfg.dt
        for k in range(nsub):
            block = propagate_step(parts, step_drive, block, t + k * cfg.dt / nsub,
                                   cfg.dt / nsub)
        if (step + 1) % cfg.record_stride == 0:
            snapshot(step + 1)

    return [
        QuenchResult(
            times=np.array(times),
            site_pops=np.array(pops[j]),
            n_a=np.array(nas[j]),
            n_b=np.array(nbs[j]),
            probs=np.array(probs[j]) if record_probs else None,
            entropies=np.array(ents[j]) if entropy_cuts else None,
            entropy_cuts=tuple(tuple(c) for c in entropy_cuts),
            final_state=final,
        )
        for j, final in enumerate(full_states())
    ]


def reduced_density_matrix(psi: np.ndarray, basis: ConstrainedBasis,
                           subset: tuple[int, ...] | list[int]) -> np.ndarray:
    """Trace out the complement of ``subset`` sites.

    Rows and columns are the distinct subsystem patterns that occur in the
    basis, i.e. the blockade-valid patterns of the kept sites, in ascending
    pattern order; when every pattern occurs, as for a single site, this is
    the full 2^|subset| layout.  Complement configurations are indexed the
    same way, so the cost is (valid subsystem patterns) times the basis
    dimension.
    """
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

    m = np.zeros((len(sub_uniq), len(comp_uniq)), dtype=complex)
    m[sub_index, comp_index] = psi
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise NumericalError(f"reduced density matrix trace {tr} is not 1")
    return rho


def entanglement_entropy(rho: np.ndarray, clip: float = 1e-14) -> float:
    """Von Neumann entropy in nats; eigenvalues below ``clip`` are dropped."""
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10:
        raise NumericalError(
            f"density matrix not positive semidefinite: min eigenvalue {evals.min()}"
        )
    evals = evals[evals >= clip]
    return float(-(evals * np.log(evals)).sum())


def _g17(x: float) -> str:
    """Shortest-exact text of a float, shared by every CSV writer."""
    return format(float(x), ".17g")


def quench_to_csv(result: QuenchResult) -> str:
    """Round-trip-exact CSV: t, nA, nB, imbalance, per-site columns, entropies."""
    n_sites = result.site_pops.shape[1]
    cols = ["t", "nA", "nB", "imbalance"]
    cols += [f"n_{i}" for i in range(n_sites)]
    cols += [f"S_cut{k}" for k in range(len(result.entropy_cuts))]
    lines = [",".join(cols)]
    for k, t in enumerate(result.times):
        row = [_g17(t), _g17(result.n_a[k]), _g17(result.n_b[k]),
               _g17(result.n_a[k] - result.n_b[k])]
        row += [_g17(v) for v in result.site_pops[k]]
        if result.entropies is not None:
            row += [_g17(v) for v in result.entropies[k]]
        lines.append(",".join(row))
    return "\r\n".join(lines) + "\r\n"


def quench_from_csv(text: str) -> QuenchResult:
    """Parse the output of :func:`quench_to_csv` (probabilities not included)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty quench file")
    header = lines[0].split(",")
    try:
        site_cols = [k for k, name in enumerate(header) if name.startswith("n_")]
        ent_cols = [k for k, name in enumerate(header) if name.startswith("S_cut")]
        it, ia, ib = header.index("t"), header.index("nA"), header.index("nB")
    except ValueError as exc:
        raise ConfigError(f"malformed quench file header: {exc}") from exc
    rows = [ln.split(",") for ln in lines[1:]]
    times = np.array([float(r[it]) for r in rows])
    n_a = np.array([float(r[ia]) for r in rows])
    n_b = np.array([float(r[ib]) for r in rows])
    pops = np.array([[float(r[k]) for k in site_cols] for r in rows])
    ents = np.array([[float(r[k]) for k in ent_cols] for r in rows]) \
        if ent_cols else None
    return QuenchResult(times=times, site_pops=pops, n_a=n_a, n_b=n_b,
                        probs=None, entropies=ents,
                        entropy_cuts=tuple(() for _ in ent_cols))


def dense_propagator(parts: HamiltonianParts, delta: float, t: float) -> np.ndarray:
    """Exact unitary exp(-i H t) at constant detuning via eigendecomposition.

    Guarded to dimensions of at most 2**10; intended as a test oracle.
    """
    if parts.dim > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dense propagator guarded to dim <= {DENSE_DIM_LIMIT}, got {parts.dim}"
        )
    h = parts.dense(delta)
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
