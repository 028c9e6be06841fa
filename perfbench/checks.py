"""Output checks for the benchmark workloads.

Each check reads the files a CLI run wrote and recomputes a seeded sample
of them by a path other than the one that produced them:

* driven-chain-sweep: every point is ``ok``; one point's imbalance series
  is recomputed with the dense midpoint oracle (``dense_propagator`` at
  ``detuning_at(t + dt/2)``) over its first ``CHAIN_ORACLE_TIME`` us.  One
  dense step costs about 3.5 ms, so the whole 1 us series would add 5.5 s.
* pxp-ring-entropy: the first record interval is recomputed with
  ``scipy.sparse.linalg.expm_multiply`` on a ring Hamiltonian built here
  from scratch; its half-cut entropy comes from an SVD of the reshaped
  amplitudes.
* pulsed-subharmonic-map: one grid point is recomputed through the Krylov
  path ``floquet.apply_period`` plus ``fourier_spectrum``/``weight_at``.
  The point sits in the smallest-tau column, because the Krylov period
  cost grows with tau (about 8 s per point there, 28 s at the largest).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

TOL = 1e-8
CHAIN_ORACLE_TIME = 0.5     # us


@dataclass
class CheckResult:
    errors: list[str] = field(default_factory=list)
    oracle_err: float = 0.0     # largest deviation from the oracle

    @property
    def ok(self) -> bool:
        return not self.errors


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def differing_files(ref: Path, other: Path) -> list[str]:
    """Relative paths whose bytes differ between two output directories
    (the manifest, which carries a wall-clock time, is skipped)."""
    def files(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"}
    a, b = files(ref), files(other)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _pick(seed: int, n: int) -> int:
    return random.Random(f"check:{seed}").randrange(n)


def _imbalance(pr: np.ndarray, bits: np.ndarray, on_a: np.ndarray) -> float:
    pops = pr @ bits
    return float(pops[on_a].mean() - pops[~on_a].mean())


def _af1_state(states: np.ndarray, on_a: np.ndarray) -> np.ndarray:
    """Unit vector on the configuration with every sublattice-A site excited."""
    psi = np.zeros(len(states), dtype=complex)
    psi[np.searchsorted(states, sum(1 << int(i) for i in np.flatnonzero(on_a)))] = 1
    return psi


def _bit_table(states: np.ndarray, n_sites: int) -> np.ndarray:
    return ((states[:, None] >> np.arange(n_sites)) & 1).astype(float)


def _record(result: CheckResult, what: str, got, want) -> None:
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    result.oracle_err = max(result.oracle_err, err)
    if not err <= TOL:
        result.errors.append(f"{what}: deviation {err:.3g} from the oracle "
                             f"exceeds {TOL:g}")


# -- driven-chain-sweep ---------------------------------------------------------

def dense_midpoint_imbalance(doc: dict, omegam_over_omega: float,
                             n_steps: int) -> np.ndarray:
    """Imbalance on the record grid of the first n_steps steps, from dense
    propagators, one per substep."""
    from scarsim.evolve import dense_propagator
    from scarsim.hamiltonian import DriveProfile, build_rydberg, detuning_at
    from scarsim.hilbert import enumerate_blockaded
    from scarsim.lattice import PhysicalParams, build_lattice

    ph, dr, ev = doc["physical"], doc["drive"], doc["evolution"]
    p = PhysicalParams.from_mhz(ph["omega_mhz"], ph["v0_mhz"])
    lat = build_lattice("chain", doc["lattice"]["extent"])
    basis = enumerate_blockaded(lat)
    parts = build_rydberg(lat, basis, p)
    drive = DriveProfile.cosine(dr["delta0_over_omega"] * p.omega,
                                dr["deltam_over_omega"] * p.omega,
                                omegam_over_omega * p.omega)
    on_a = lat.sublattice == 0
    bits = _bit_table(basis.states, lat.n_sites)
    psi = _af1_state(basis.states, on_a)
    dt, stride = ev["dt"], ev["record_stride"]
    nsub = workloads.substeps(omegam_over_omega, dt)
    h = dt / nsub
    out = [_imbalance(np.abs(psi) ** 2, bits, on_a)]
    for step in range(n_steps):
        for k in range(nsub):
            t = step * dt + k * h
            psi = dense_propagator(parts, detuning_at(drive, t + h / 2), h) @ psi
        if (step + 1) % stride == 0:
            out.append(_imbalance(np.abs(psi) ** 2, bits, on_a))
    return np.array(out)


def check_chain_sweep(doc: dict, out: Path, seed: int) -> CheckResult:
    res = CheckResult()
    grid = doc["sweep"][0]["grid"]
    header, rows = read_csv(out / "aggregate.csv")
    if len(rows) != len(grid):
        res.errors.append(f"aggregate.csv has {len(rows)} points, expected {len(grid)}")
        return res
    for k, row in enumerate(rows):
        r = dict(zip(header, row))
        if r["status"] != "ok":
            res.errors.append(f"point {k}: status {r['status']}: {r['error']}")
        if float(r["drive.omegam_over_omega"]) != grid[k]:
            res.errors.append(f"point {k}: grid value {r['drive.omegam_over_omega']}")
    k = _pick(seed, len(grid))
    header, rows = read_csv(out / f"point_{k:03d}" / "quench.csv")
    ev = doc["evolution"]
    n_snap = workloads.check_time_grid(ev) // ev["record_stride"] + 1
    if len(rows) != n_snap:
        res.errors.append(f"point {k}: {len(rows)} snapshots, expected {n_snap}")
        return res
    n_steps = round(CHAIN_ORACLE_TIME / ev["dt"])
    want = dense_midpoint_imbalance(doc, grid[k], n_steps)
    got = [float(r[header.index("imbalance")]) for r in rows[:len(want)]]
    _record(res, f"point {k} imbalance", got, want)
    return res


# -- pxp-ring-entropy -----------------------------------------------------------

def ring_basis(n: int) -> np.ndarray:
    """All n-bit patterns with no two excitations adjacent on a ring."""
    s = np.arange(1 << n, dtype=np.int64)
    rotated = ((s << 1) | (s >> (n - 1))) & ((1 << n) - 1)
    return s[(s & rotated) == 0]


def ring_flip_matrix(states: np.ndarray, n: int, amplitude: float):
    import scipy.sparse as sp

    rows, cols = [], []
    for i in range(n):
        nbrs = (1 << ((i - 1) % n)) | (1 << ((i + 1) % n))
        movable = np.flatnonzero((states & nbrs) == 0)
        rows.append(movable)
        cols.append(np.searchsorted(states, states[movable] ^ (1 << i)))
    r, c = np.concatenate(rows), np.concatenate(cols)
    return sp.csr_matrix((np.full(r.shape, amplitude), (r, c)),
                         shape=(len(states), len(states)))


def half_cut_entropy(psi: np.ndarray, states: np.ndarray, n: int) -> float:
    """Entropy of sites 0..n/2-1 from the singular values of the amplitudes
    arranged as (subsystem pattern) x (complement pattern)."""
    low = states & ((1 << (n // 2)) - 1)
    high = states >> (n // 2)
    _, ia = np.unique(low, return_inverse=True)
    _, ib = np.unique(high, return_inverse=True)
    m = np.zeros((ia.max() + 1, ib.max() + 1), dtype=complex)
    m[ia, ib] = psi
    p = np.linalg.svd(m, compute_uv=False) ** 2
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def check_ring_entropy(doc: dict, out: Path, seed: int) -> CheckResult:
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    res = CheckResult()
    n = doc["lattice"]["extent"]
    ph, dr, ev = doc["physical"], doc["drive"], doc["evolution"]
    omega = math.tau * ph["omega_mhz"]
    header, rows = read_csv(out / "quench.csv")
    n_snap = workloads.check_time_grid(ev) // ev["record_stride"] + 1
    if len(rows) != n_snap:
        res.errors.append(f"quench.csv has {len(rows)} snapshots, expected {n_snap}")
        return res
    states = ring_basis(n)
    flip = ring_flip_matrix(states, n, omega / 2)
    number = sp.diags(np.bitwise_count(states).astype(float))
    on_a = np.arange(n) % 2 == 0
    bits = _bit_table(states, n)
    psi = _af1_state(states, on_a)

    def compare(row: list[str], psi: np.ndarray, label: str) -> None:
        pr = np.abs(psi) ** 2
        cols = [header.index(f"n_{i}") for i in range(n)]
        _record(res, f"{label} site populations", [float(row[c]) for c in cols],
                pr @ bits)
        _record(res, f"{label} imbalance", float(row[header.index("imbalance")]),
                _imbalance(pr, bits, on_a))
        _record(res, f"{label} half-cut entropy", float(row[header.index("S_cut0")]),
                half_cut_entropy(psi, states, n))

    compare(rows[0], psi, "t=0")
    dt, stride = ev["dt"], ev["record_stride"]
    nsub = workloads.substeps(dr["omegam_over_omega"], dt)
    h = dt / nsub
    d0, dm = dr["delta0_over_omega"] * omega, dr["deltam_over_omega"] * omega
    wm = dr["omegam_over_omega"] * omega
    for step in range(stride):
        for k in range(nsub):
            tmid = step * dt + k * h + h / 2
            delta = d0 + dm * math.cos(wm * tmid)
            psi = expm_multiply(-1j * h * (flip - delta * number), psi)
    if abs(float(rows[1][header.index("t")]) - stride * dt) > 1e-12:
        res.errors.append(f"second snapshot at t={rows[1][0]}, expected {stride * dt}")
    compare(rows[1], psi, f"t={stride * dt:g}")
    return res


# -- pulsed-subharmonic-map -----------------------------------------------------

def krylov_subharmonic_weight(fq: dict, epsilon: float, tau: float) -> float:
    from scarsim.analysis import fourier_spectrum, weight_at
    from scarsim.floquet import PulsedParams, apply_period
    from scarsim.hamiltonian import build_pxp
    from scarsim.hilbert import enumerate_blockaded
    from scarsim.lattice import PhysicalParams, build_lattice

    lat = build_lattice("chain", fq["l"], periodic=fq["boundary"] == "periodic")
    basis = enumerate_blockaded(lat)
    parts = build_pxp(lat, basis, PhysicalParams(omega=1.0, v0=1.0))
    on_a = lat.sublattice == 0
    bits = _bit_table(basis.states, lat.n_sites)
    psi = _af1_state(basis.states, on_a)
    params = PulsedParams.from_epsilon(epsilon, tau)
    series = [_imbalance(np.abs(psi) ** 2, bits, on_a)]
    for _ in range(fq["n_periods"]):
        psi = apply_period(psi, params, basis, parts)
        series.append(_imbalance(np.abs(psi) ** 2, bits, on_a))
    spec = fourier_spectrum(np.array(series), np.arange(len(series), dtype=float),
                            calibration_omega=math.pi)
    return weight_at(spec, math.pi)


def check_map(doc: dict, out: Path, seed: int) -> CheckResult:
    res = CheckResult()
    fq = doc["floquet"]
    eps = fq["epsilons"]
    taus = [math.tau * t for t in fq["taus_over_2pi"]]
    header, rows = read_csv(out / "map.csv")
    if header != ["epsilon", "tau_omega", "value"] or len(rows) != len(eps) * len(taus):
        res.errors.append(f"map.csv has header {header} and {len(rows)} rows, "
                          f"expected {len(eps) * len(taus)}")
        return res
    for k, (e, t, v) in enumerate(rows):
        i, j = divmod(k, len(taus))
        if abs(float(e) - eps[i]) > 1e-12 or abs(float(t) - taus[j]) > 1e-12:
            res.errors.append(f"row {k}: grid point ({e}, {t}) out of order")
        if not (math.isfinite(float(v)) and float(v) >= 0):
            res.errors.append(f"row {k}: weight {v} is not a finite nonnegative number")
    i = _pick(seed, len(eps))
    got = float(rows[i * len(taus)][2])
    _record(res, f"map point ({i}, 0)", got, krylov_subharmonic_weight(fq, eps[i], taus[0]))
    return res


CHECKS = {
    "driven-chain-sweep": check_chain_sweep,
    "pxp-ring-entropy": check_ring_entropy,
    "pulsed-subharmonic-map": check_map,
}
