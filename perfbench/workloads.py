"""Seeded inputs for the three benchmark workloads.

Each workload is one ``scarsim`` command fed a generated ``--config``
document.  The base documents are copied from the shipping presets named
below and kept here, so a later change to the presets does not silently
change what the benchmark measures.  The seed only moves drive parameters
and grid values inside the preset ranges; it never changes the amount of
work, so run-to-run spread reflects the program and not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DT = 0.002
# A periodic drive is resolved with at least this many steps per period
# (docs/schema.md, evolution.dt); dt is subdivided when coarser.
STEPS_PER_PERIOD = 200
OMEGA_MHZ = 4.2
V0_MHZ = 51.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # scarsim subcommand
    jobs: int | None    # --jobs for sweeps, None otherwise
    why: str


WORKLOADS = {
    # fig3c-chain physics: ~11.5k tiny Krylov steps at dim 89, so Python
    # per-step overhead (spectral_bound/offdiagonal recomputed every step)
    # and the two-process pool dominate; no entropy and no Floquet work.
    "driven-chain-sweep": Workload(
        "driven-chain-sweep", "sweep", 2,
        "9-point drive-frequency sweep on the 9-atom chain: per-step overhead "
        "and the process pool dominate"),
    # figS8-pxp-drive physics on the 22-site ring (dim 39,603): dense
    # 2^11 x 2^11 reduced-density-matrix eigensolves dominate, sparse
    # matvecs at large dim make up the rest, and the 2^22-pattern
    # enumeration makes setup visible.  Per-step overhead is negligible.
    "pxp-ring-entropy": Workload(
        "pxp-ring-entropy", "quench", None,
        "22-site PXP ring quench with half-cut entropy: large basis, dense "
        "entropy snapshots and enumeration dominate"),
    # figS9b physics on the 14-site ring (dim 843): dense period products
    # dominate and analysis spectra follow; no sparse Krylov and no
    # entropy.  It puts "propagate a state" on a different engine than the
    # two quenches, so merging the engines must show its effect on both.
    "pulsed-subharmonic-map": Workload(
        "pulsed-subharmonic-map", "floquet", None,
        "2x10 pulsed subharmonic map on the 14-site ring: dense period "
        "products and spectra dominate"),
}

# Preset grid and ranges the seeded values are drawn from.
SWEEP_GRID = (0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6)
SWEEP_RANGE = (0.8, 1.6)
RING_DRIVE = {"delta0_over_omega": (0.45, 0.55),
              "deltam_over_omega": (0.9, 1.1),
              "omegam_over_omega": (1.25, 1.41)}
MAP_EPS_RANGE = (0.0, 1.0)
MAP_TAU_RANGE = (0.3, 1.1)
MAP_ROWS, MAP_COLS = 2, 10

# Run sizes, trimmed from the presets so one CLI run takes 6-8 s on a
# 2-core desk machine and a 30 s run holds three or four of them.
CHAIN_TOTAL_TIME = 1.0
RING_TOTAL_TIME = 0.01
RING_STRIDE = 5


def substeps(omegam_over_omega: float, dt: float = DT) -> int:
    """Integrator substeps per dt that the program uses for this drive."""
    period = 1.0 / (omegam_over_omega * OMEGA_MHZ)   # us
    if dt <= period / STEPS_PER_PERIOD:
        return 1
    return math.ceil(dt * STEPS_PER_PERIOD / period)


def check_time_grid(evolution: dict) -> int:
    """Return the step count; refuse a time grid the program would truncate."""
    dt = evolution["dt"]
    stride = evolution["record_stride"]
    steps = evolution["total_time"] / dt
    n = round(steps)
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, steps):
        raise ValueError(f"total_time {evolution['total_time']} is not a whole "
                         f"multiple of dt {dt}")
    if n % stride:
        raise ValueError(f"{n} steps are not a whole multiple of record_stride "
                         f"{stride}")
    return n


def check_in_range(values, lo: float, hi: float, what: str) -> None:
    bad = [v for v in values if not lo <= v <= hi]
    if bad:
        raise ValueError(f"{what} values {bad} leave the preset range [{lo}, {hi}]")


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal bins of [lo, hi], ascending."""
    w = (hi - lo) / n
    return [lo + (k + rng.random()) * w for k in range(n)]


def _jittered_sweep_grid(rng: random.Random) -> list[float]:
    """Each preset grid value moved by up to half a grid step, staying on
    the same side of every substep boundary, so each point keeps its preset
    step count."""
    half = 0.05
    out = []
    for g in SWEEP_GRID:
        lo, hi = max(SWEEP_RANGE[0], g - half), min(SWEEP_RANGE[1], g + half)
        k = substeps(g)
        # substeps(r) = k exactly for r in ((k-1)/c, k/c] with c = dt*200*f
        c = DT * STEPS_PER_PERIOD * OMEGA_MHZ
        lo = max(lo, (k - 1) / c + 1e-9)
        hi = min(hi, k / c)
        out.append(lo + rng.random() * (hi - lo))
    return out


def _physical() -> dict:
    return {"omega_mhz": OMEGA_MHZ, "v0_mhz": V0_MHZ}


def generate(name: str, seed: int) -> dict:
    """The complete config document for one workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "driven-chain-sweep":
        grid = _jittered_sweep_grid(rng)
        doc = {
            "lattice": {"kind": "chain", "extent": 9},
            "physical": _physical(),
            "model": "rydberg",
            "drive": {"shape": "cosine", "delta0_over_omega": 0.55,
                      "deltam_over_omega": 0.55, "omegam_over_omega": 1.2},
            "initial_state": "AF1",
            "evolution": {"total_time": CHAIN_TOTAL_TIME, "dt": DT,
                          "record_stride": 2, "krylov_dim": 16},
            "sweep": [{"parameter": "drive.omegam_over_omega", "grid": grid}],
        }
    elif name == "pxp-ring-entropy":
        drive = {"shape": "cosine"}
        for key, (lo, hi) in RING_DRIVE.items():
            drive[key] = lo + rng.random() * (hi - lo)
        doc = {
            "lattice": {"kind": "chain", "extent": 22, "periodic": True},
            "physical": _physical(),
            "model": "pxp",
            "drive": drive,
            "initial_state": "AF1",
            "evolution": {"total_time": RING_TOTAL_TIME, "dt": DT,
                          "record_stride": RING_STRIDE, "krylov_dim": 16},
            "observables": {"entropy_cuts": ["half"]},
        }
    elif name == "pulsed-subharmonic-map":
        doc = {"floquet": {
            "l": 14, "boundary": "periodic", "map": "subharmonic",
            "epsilons": _stratified(rng, *MAP_EPS_RANGE, MAP_ROWS),
            "taus_over_2pi": _stratified(rng, *MAP_TAU_RANGE, MAP_COLS),
            "n_periods": 400, "initial_state": "AF1",
        }}
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    validate(name, doc)
    return doc


def validate(name: str, doc: dict) -> None:
    """Refuse a document the program would truncate or that leaves the
    preset ranges."""
    if "evolution" in doc:
        check_time_grid(doc["evolution"])
    if name == "driven-chain-sweep":
        grid = doc["sweep"][0]["grid"]
        check_in_range(grid, *SWEEP_RANGE, "omegam_over_omega")
        steps = [substeps(r) for r in grid]
        if steps != [substeps(g) for g in SWEEP_GRID]:
            raise ValueError(f"sweep grid changes the substep counts: {steps}")
    elif name == "pxp-ring-entropy":
        for key, (lo, hi) in RING_DRIVE.items():
            check_in_range([doc["drive"][key]], lo, hi, key)
        if substeps(doc["drive"]["omegam_over_omega"]) != substeps(1.33):
            raise ValueError("ring drive frequency changes the substep count")
    elif name == "pulsed-subharmonic-map":
        fq = doc["floquet"]
        check_in_range(fq["epsilons"], *MAP_EPS_RANGE, "epsilon")
        check_in_range(fq["taus_over_2pi"], *MAP_TAU_RANGE, "tau_over_2pi")


def cli_argv(name: str, config: str, out: str, jobs: int | None = None) -> list[str]:
    """Arguments after ``scarsim``; ``jobs`` overrides the workload's own."""
    wl = WORKLOADS[name]
    argv = [wl.command, "--config", config, "--out", out]
    jobs = wl.jobs if jobs is None else jobs
    if wl.command == "sweep" and jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv
