"""Stroboscopic pulsed driving: ideal-blockade evolution plus detuning kicks.

One driving period applies exp(-i tau H) followed by the diagonal kick
exp(-i theta N), where N counts excitations.  Everything here works in
dimensionless time: tau means Omega * tau, so the special spin-exchange
point sits at TAU_C = 0.755 * 2 pi regardless of the physical Rabi
frequency.  Unit conversion belongs to the CLI layer.

At theta = pi the kick anticommutes the generator (particle-hole symmetry),
so two periods form an exact many-body echo: U(pi, tau)^2 = identity.

The (eps, tau) maps take their chain or ring as a :class:`Lattice`, the one
``config.parse_config`` builds from a document's ``floquet`` section, and
share one grid function.  The PXP Hamiltonian is real symmetric
(``HamiltonianParts.dense``), so it is diagonalized once with real
eigenvectors Q, and every grid point advances together as one column of a
(dim, P) block: a period is the real GEMM Q^T @ block, a per-column multiply
by exp(-i tau E), the real GEMM Q @ block and a per-column multiply by the
kick.  ``apply_period`` is the independent path for a single state, used as
a reference: one ``evolve.propagate`` substep at zero detuning followed by
the kick.

On a ring the maps propagate in the subspace invariant under translation by
two sites and inversion (``lattice.symmetry_permutations``), as ring
quenches do: the start states, the kick and the imbalance are all
invariant, so the maps are exact there.  This takes the 14-ring from 843 to
89 states and lets rings up to 20 sites (881 states) under the dense limit;
the block-size guard counts the propagated dim.  A map of more than
``evolve.MAX_STEPS`` periods, or whose imbalance series would pass the byte
limit, is refused before its basis is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .evolve import DENSE_DIM_LIMIT, MAX_STEPS, build_system, propagate
from .hamiltonian import DriveProfile, HamiltonianParts
from .hilbert import ConstrainedBasis, site_bit_table
from .lattice import Lattice, PhysicalParams, symmetry_permutations

TAU_C = 0.755 * math.tau

# a map holds about this many complex (dim, points) arrays at once (state,
# eigenbasis coefficients, phases, kicks, a temporary); refuse maps whose
# arrays would exceed the byte limit
_BLOCK_ARRAYS = 5
_BLOCK_BYTES_LIMIT = 1 << 30


@dataclass(frozen=True)
class PulsedParams:
    """Kick angle theta (rad), dimensionless evolution time tau = Omega*tau."""

    theta: float
    tau: float

    @classmethod
    def from_epsilon(cls, epsilon: float, tau: float) -> "PulsedParams":
        return cls(theta=math.pi + epsilon, tau=tau)


def apply_period(psi: np.ndarray, params: PulsedParams, basis: ConstrainedBasis,
                 parts_pxp: HamiltonianParts) -> np.ndarray:
    """One driving period: one Chebyshev step at zero detuning, then the kick.

    ``parts_pxp`` must be built with Omega = 1, so that the dimensionless
    ``params.tau`` is the evolution time.
    """
    if len(psi) != basis.dim or parts_pxp.dim != basis.dim:
        raise ConfigError("state, basis, and operator dimensions disagree")
    out = propagate(parts_pxp, (DriveProfile.constant(0.0),), psi, (0.0,), params.tau)
    return np.exp(-1j * params.theta * parts_pxp.diag_number) * out


def _real_matmul(a: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``a @ block`` for real ``a`` and a C-contiguous complex block, as one
    real GEMM over the block's interleaved real/imaginary columns."""
    return (a @ block.view(np.float64)).view(np.complex128)


def _pulsed_grid(lat: Lattice, epsilons, taus, initial_state: str):
    """The pulsed drive of an (eps, tau) map on the chain or ring ``lat``:
    the start block, a ``period(block)`` function, the start state
    psi0 and the imbalance weights, all in the propagated basis.

    The block holds one copy of psi0 per grid point, in row-major order;
    ``period`` applies one driving period to every column of such a block,
    column p with kick angle pi + eps and evolution time tau of its point:
    the real GEMM Q^T @ block, a per-column multiply by exp(-i tau E), the
    real GEMM Q @ block and a per-column multiply by exp(-i theta N).  The
    imbalance of every column is ``weights @ |block|**2``.

    On a ring the block lives in the start state's symmetric subspace (see
    :func:`scarsim.evolve.build_system`).  A propagated dim over the dense
    limit, or blocks over the byte limit, are refused before the dense
    eigendecomposition.
    """
    perms = symmetry_permutations(lat)
    # an orbit holds at most len(perms) states, so a larger basis cannot
    # restrict to the dense limit
    _, parts, psi0 = build_system(
        lat, "pxp", PhysicalParams(omega=1.0, v0=1.0), initial_state,
        max_dim=DENSE_DIM_LIMIT * (1 if perms is None else len(perms)))
    if perms is not None and parts.iso is None:
        raise ConfigError(
            f"{initial_state} does not lie in the ring's exact symmetric subspace"
        )
    if parts.dim > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"pulsed maps need a propagated dim <= {DENSE_DIM_LIMIT}, got {parts.dim}"
        )
    eps = np.asarray(epsilons, dtype=float)
    taus = np.asarray(taus, dtype=float)
    n_points = len(eps) * len(taus)
    if _BLOCK_ARRAYS * 16 * parts.dim * n_points > _BLOCK_BYTES_LIMIT:
        raise CapacityError(
            f"a {len(eps)}x{len(taus)} map at dim {parts.dim} needs more than "
            f"{_BLOCK_BYTES_LIMIT >> 30} GiB of state blocks"
        )
    evals, q = np.linalg.eigh(parts.dense(0.0))
    phases = np.exp(-1j * np.outer(evals, np.tile(taus, len(eps))))
    kicks = np.exp(-1j * np.outer(parts.diag_number, np.repeat(math.pi + eps, len(taus))))
    bits = site_bit_table(parts.basis)
    # imbalance = A-site mean minus B-site mean of the site occupations
    weights = bits[:, lat.sites_of(0)].mean(axis=1) - bits[:, lat.sites_of(1)].mean(axis=1)

    def period(block: np.ndarray) -> np.ndarray:
        coef = _real_matmul(q.T, block)
        coef *= phases
        out = _real_matmul(q, coef)
        out *= kicks
        return out

    return np.repeat(psi0[:, None], n_points, axis=1), period, psi0, weights


def _check_periods(n_periods: int) -> None:
    """Refuse a map of fewer than one or more than ``MAX_STEPS`` periods."""
    if n_periods < 1:
        raise ConfigError(f"n_periods: must be at least 1, got {n_periods!r}")
    if n_periods > MAX_STEPS:
        raise CapacityError(f"n_periods: {n_periods} exceeds the bound of {MAX_STEPS}")


def revival_fidelity_map(lat: Lattice, epsilons, taus, n_periods: int = 100,
                         initial_state: str = "AF1") -> np.ndarray:
    """Mean return probability after even period counts over an (eps, tau) grid
    of the PXP chain or ring ``lat``, started in ``initial_state``.

    Entry [i, j] is the average over n = 1..n_periods of the squared overlap
    of the initial state with itself after 2n driving periods at
    theta = pi + epsilons[i], tau = taus[j].
    """
    _check_periods(n_periods)
    block, period, psi0, _ = _pulsed_grid(lat, epsilons, taus, initial_state)
    acc = np.zeros(block.shape[1])
    for _ in range(n_periods):
        block = period(period(block))
        acc += np.abs(psi0.conj() @ block) ** 2
    return (acc / n_periods).reshape(len(epsilons), len(taus))


def pulsed_subharmonic_map(lat: Lattice, epsilons, taus, n_periods: int = 400,
                           initial_state: str = "AF1") -> np.ndarray:
    """Subharmonic weight of the stroboscopic imbalance over an (eps, tau) grid
    of the PXP chain or ring ``lat``, started in ``initial_state``.

    The imbalance is sampled once per driving period and fed through the
    spectral pipeline with the drive at one cycle per period, so the
    subharmonic weight is read at angular frequency pi per period.
    """
    from .analysis import fourier_spectrum, weight_at

    _check_periods(n_periods)
    if 8 * len(epsilons) * len(taus) * (n_periods + 1) > _BLOCK_BYTES_LIMIT:
        raise CapacityError(
            f"a {len(epsilons)}x{len(taus)} map of {n_periods} periods needs more "
            f"than {_BLOCK_BYTES_LIMIT >> 30} GiB of imbalance series")
    block, period, _, weights = _pulsed_grid(lat, epsilons, taus, initial_state)
    series = np.empty((block.shape[1], n_periods + 1))
    series[:, 0] = weights @ (np.abs(block) ** 2)
    for n in range(1, n_periods + 1):
        block = period(block)
        series[:, n] = weights @ (np.abs(block) ** 2)
    times = np.arange(n_periods + 1, dtype=float)
    spec = fourier_spectrum(series, times, calibration_omega=math.pi)
    return weight_at(spec, math.pi).reshape(len(epsilons), len(taus))


def excitation_zz_affine_defect(lat: Lattice, basis: ConstrainedBasis) -> float:
    """Max deviation of N from an affine function of the NN sigma^z sigma^z sum.

    Within the constrained space of a uniform-coordination chain the two
    diagonals differ only by scale and a constant; the returned defect is
    exactly 0 in that case.
    """
    n_op = np.bitwise_count(basis.states).astype(float)
    z = 2.0 * site_bit_table(basis) - 1.0
    zz = (z[:, lat.nn_pairs[:, 0]] * z[:, lat.nn_pairs[:, 1]]).sum(axis=1)
    design = np.column_stack([zz, np.ones(basis.dim)])
    coef, *_ = np.linalg.lstsq(design, n_op, rcond=None)
    return float(np.abs(design @ coef - n_op).max())
