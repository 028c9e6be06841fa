"""Stroboscopic pulsed driving: ideal-blockade evolution plus detuning kicks.

One driving period applies exp(-i tau H) followed by the diagonal kick
exp(-i theta N), where N counts excitations.  Everything here works in
dimensionless time: tau means Omega * tau, so the special spin-exchange
point sits at TAU_C = 0.755 * 2 pi regardless of the physical Rabi
frequency.  Unit conversion belongs to the CLI layer.

At theta = pi the kick anticommutes the generator (particle-hole symmetry),
so two periods form an exact many-body echo: U(pi, tau)^2 = identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import CapacityError, ConfigError
from .evolve import _krylov_apply, _site_bit_table, DENSE_DIM_LIMIT
from .hamiltonian import HamiltonianParts, build_pxp
from .hilbert import (
    ConstrainedBasis,
    MicrostateOrdering,
    enumerate_blockaded,
    named_state,
)
from .lattice import Lattice, PhysicalParams, build_lattice

TAU_C = 0.755 * math.tau

_PERIODIC_SITE_LIMIT = 18


@dataclass(frozen=True)
class PulsedParams:
    """Kick angle theta (rad), dimensionless evolution time tau = Omega*tau."""

    theta: float
    tau: float
    n_periods: int = 1

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ConfigError("n_periods must be at least 1")

    @property
    def epsilon(self) -> float:
        return self.theta - math.pi

    @classmethod
    def from_epsilon(cls, epsilon: float, tau: float, n_periods: int = 1) -> "PulsedParams":
        return cls(theta=math.pi + epsilon, tau=tau, n_periods=n_periods)


def _kick_phases(basis: ConstrainedBasis, theta: float) -> np.ndarray:
    return np.exp(-1j * theta * np.bitwise_count(basis.states))


def apply_period(psi: np.ndarray, params: PulsedParams, basis: ConstrainedBasis,
                 parts_pxp: HamiltonianParts, omega: float = 1.0) -> np.ndarray:
    """One driving period via Krylov evolution followed by the diagonal kick.

    ``parts_pxp`` must be built for the Rabi frequency ``omega`` so that the
    dimensionless ``params.tau`` corresponds to the physical time tau/omega.
    """
    if len(psi) != basis.dim or parts_pxp.dim != basis.dim:
        raise ConfigError("state, basis, and operator dimensions disagree")
    t_phys = params.tau / omega
    off = parts_pxp.offdiagonal()
    diag = parts_pxp.diagonal(0.0)

    def matvec(v: np.ndarray) -> np.ndarray:
        return off @ v + diag * v

    out = _krylov_apply(matvec, psi.astype(complex), t_phys, 16,
                        parts_pxp.spectral_bound(0.0))
    out = _kick_phases(basis, params.theta) * out
    return out / np.linalg.norm(out)


class _StroboscopicEngine:
    """Dense eigenbasis propagation of the pulsed drive for one chain."""

    def __init__(self, l: int, boundary: str):
        if boundary not in ("open", "periodic"):
            raise ConfigError("boundary must be 'open' or 'periodic'")
        periodic = boundary == "periodic"
        if periodic and l > _PERIODIC_SITE_LIMIT:
            raise CapacityError(
                f"periodic pulsed maps are guarded to {_PERIODIC_SITE_LIMIT} sites"
            )
        self.lat = build_lattice("chain", l, periodic=periodic)
        self.basis = enumerate_blockaded(self.lat)
        if self.basis.dim > DENSE_DIM_LIMIT:
            raise CapacityError(
                f"pulsed maps need dim <= {DENSE_DIM_LIMIT}, got {self.basis.dim}"
            )
        parts = build_pxp(self.lat, self.basis, PhysicalParams(omega=1.0, v0=1.0))
        h = parts.dense(0.0)
        self.evals, self.q = np.linalg.eigh(h)
        self.popcounts = np.bitwise_count(self.basis.states)
        self.bits = _site_bit_table(self.basis)
        self.a_sites = self.lat.sites_of(0)
        self.b_sites = self.lat.sites_of(1)

    def period_operator(self, theta: float, tau: float):
        phase_tau = np.exp(-1j * tau * self.evals)
        kick = np.exp(-1j * theta * self.popcounts)
        q = self.q
        qh = q.conj().T

        def one_period(psi: np.ndarray) -> np.ndarray:
            return kick * (q @ (phase_tau * (qh @ psi)))

        return one_period

    def imbalance(self, psi: np.ndarray) -> float:
        pr = np.abs(psi) ** 2
        site = pr @ self.bits
        return float(site[self.a_sites].mean() - site[self.b_sites].mean())


def revival_fidelity_map(l: int, boundary: str, epsilons, taus,
                         n_periods: int = 100,
                         initial_state: str = "AF1") -> np.ndarray:
    """Mean return probability after even period counts over an (eps, tau) grid.

    Entry [i, j] is the average over n = 1..n_periods of the squared overlap
    of the initial state with itself after 2n driving periods at
    theta = pi + epsilons[i], tau = taus[j].
    """
    eng = _StroboscopicEngine(l, boundary)
    psi0 = named_state(eng.lat, eng.basis, initial_state)
    out = np.empty((len(epsilons), len(taus)))
    for i, eps in enumerate(epsilons):
        for j, tau in enumerate(taus):
            step = eng.period_operator(math.pi + eps, tau)
            psi = psi0
            acc = 0.0
            for _ in range(n_periods):
                psi = step(step(psi))
                acc += abs(np.vdot(psi0, psi)) ** 2
            out[i, j] = acc / n_periods
    return out


def pulsed_subharmonic_map(l: int, boundary: str, epsilons, taus,
                           n_periods: int = 400,
                           initial_state: str = "AF1") -> np.ndarray:
    """Subharmonic weight of the stroboscopic imbalance over an (eps, tau) grid.

    The imbalance is sampled once per driving period and fed through the
    spectral pipeline with the drive at one cycle per period, so the
    subharmonic weight is read at angular frequency pi per period.
    """
    from .analysis import fourier_spectrum, weight_at

    eng = _StroboscopicEngine(l, boundary)
    psi0 = named_state(eng.lat, eng.basis, initial_state)
    times = np.arange(n_periods + 1, dtype=float)
    out = np.empty((len(epsilons), len(taus)))
    for i, eps in enumerate(epsilons):
        for j, tau in enumerate(taus):
            step = eng.period_operator(math.pi + eps, tau)
            psi = psi0
            series = np.empty(n_periods + 1)
            series[0] = eng.imbalance(psi)
            for n in range(1, n_periods + 1):
                psi = step(psi)
                series[n] = eng.imbalance(psi)
            spec = fourier_spectrum(series, times, calibration_omega=math.pi)
            out[i, j] = weight_at(spec, math.pi)
    return out


@dataclass(frozen=True, eq=False)
class FloquetEigenstates:
    """The two period-operator eigenvectors closest to the AF pair."""

    eigenvalues: np.ndarray
    vectors: np.ndarray            # (dim, 2)
    symmetric: np.ndarray
    antisymmetric: np.ndarray
    captured_weight: float         # summed AF1/AF2 overlap of the pair
    class_probs_symmetric: np.ndarray | None = None
    class_probs_antisymmetric: np.ndarray | None = None


def _class_probabilities(psi: np.ndarray, ordering: MicrostateOrdering) -> np.ndarray:
    pr = np.abs(psi) ** 2
    return np.array([pr[list(members)].sum() for members in ordering.classes])


def floquet_eigenstate_overlap(params: PulsedParams, basis: ConstrainedBasis,
                               parts_pxp: HamiltonianParts,
                               ordering: MicrostateOrdering | None = None
                               ) -> FloquetEigenstates:
    """Diagonalize the dense period operator and pick the AF-dominant pair.

    The two eigenvectors maximizing |<AF1|v>|^2 + |<AF2|v>|^2 are returned
    together with their symmetric/antisymmetric combinations (phases fixed
    so the AF1 overlap is real nonnegative).  Chain site labeling is
    assumed: sublattice A sits on even sites.
    """
    if basis.dim > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dense period-operator analysis guarded to dim <= {DENSE_DIM_LIMIT}"
        )
    n = basis.n_sites
    af1 = sum(1 << i for i in range(0, n, 2))
    af2 = sum(1 << i for i in range(1, n, 2))
    i1, i2 = basis.index_of(af1), basis.index_of(af2)

    h = parts_pxp.dense(0.0)
    evals, q = np.linalg.eigh(h)
    u_tau = (q * np.exp(-1j * params.tau * evals)) @ q.conj().T
    u_f = _kick_phases(basis, params.theta)[:, None] * u_tau
    # unitary matrices are normal, so the complex Schur form is diagonal and
    # the Schur vectors are an orthonormal eigenbasis
    t, z = la.schur(u_f, output="complex")
    phases = np.diag(t)
    score = np.abs(z[i1, :]) ** 2 + np.abs(z[i2, :]) ** 2
    top = np.argsort(score)[::-1][:2]
    vecs = z[:, top].copy()
    for k in range(2):
        ref = vecs[i1, k]
        if abs(ref) < 1e-12:
            ref = vecs[i2, k]
        if abs(ref) > 0:
            vecs[:, k] *= np.conj(ref) / abs(ref)
    sym = vecs[:, 0] + vecs[:, 1]
    anti = vecs[:, 0] - vecs[:, 1]
    sym /= np.linalg.norm(sym)
    anti /= np.linalg.norm(anti)
    cps = cpa = None
    if ordering is not None:
        cps = _class_probabilities(sym, ordering)
        cpa = _class_probabilities(anti, ordering)
    return FloquetEigenstates(
        eigenvalues=phases[top],
        vectors=vecs,
        symmetric=sym,
        antisymmetric=anti,
        captured_weight=float(score[top].sum()),
        class_probs_symmetric=cps,
        class_probs_antisymmetric=cpa,
    )


def excitation_zz_affine_defect(lat: Lattice, basis: ConstrainedBasis) -> float:
    """Max deviation of N from an affine function of the NN sigma^z sigma^z sum.

    Within the constrained space of a uniform-coordination chain the two
    diagonals differ only by scale and a constant; the returned defect is
    exactly 0 in that case.
    """
    states = basis.states
    n_op = np.bitwise_count(states).astype(float)
    zz = np.zeros(basis.dim)
    for i, j in lat.nn_pairs:
        zi = 2.0 * ((states >> int(i)) & 1) - 1.0
        zj = 2.0 * ((states >> int(j)) & 1) - 1.0
        zz += zi * zj
    design = np.column_stack([zz, np.ones(basis.dim)])
    coef, *_ = np.linalg.lstsq(design, n_op, rcond=None)
    return float(np.abs(design @ coef - n_op).max())
