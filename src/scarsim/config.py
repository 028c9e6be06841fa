"""Experiment configuration: parsing, validation, resolution, and manifests.

Configurations are JSON documents.  Frequencies carry their unit in the key
name: ``*_mhz`` means the cyclic value/2pi convention (multiplied by 2 pi on
load), ``*_over_omega`` and ``*_over_v0`` are dimensionless multiples of the
resolved Rabi frequency or NN interaction.  ``"delta0": "opt"`` asks for the
computed optimal static detuning of the lattice.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError
from .evolve import EvolutionConfig
from .hamiltonian import DriveProfile, DriveShape
from .lattice import Lattice, PhysicalParams, build_lattice, optimal_detuning

MODELS = ("rydberg", "pxp", "sw2")
INITIAL_STATES = ("AF1", "AF2", "GGG")

_SWEEPABLE_PREFIXES = ("lattice.", "physical.", "drive.", "evolution.")

# Relative tolerance of the total_time / dt whole-multiple check.
_GRID_RTOL = 1e-9


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _numbers(values, path: str) -> tuple[float, ...]:
    """A nonempty list of numbers as floats; names the first bad entry."""
    _expect(isinstance(values, list) and len(values) > 0, path,
            "must be a nonempty list of numbers")
    for k, v in enumerate(values):
        _expect(isinstance(v, (int, float)), f"{path}[{k}]", "must be a number")
    return tuple(float(v) for v in values)


def _get(d: dict, path: str, key: str, default=None, required=False):
    if key not in d:
        _expect(not required, f"{path}.{key}", "missing required field")
        return default
    return d[key]


@dataclass(frozen=True)
class LatticeSpec:
    kind: str
    extent: float
    zigzag_nnn_ratio: float | None = None
    periodic: bool = False

    def build(self) -> Lattice:
        return build_lattice(self.kind, self.extent, self.zigzag_nnn_ratio,
                             periodic=self.periodic)


@dataclass(frozen=True)
class ObservablesSpec:
    microstates: bool = False
    entropy_cuts: tuple = ()   # entries: "half" or tuple of site indices


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    grid: tuple


@dataclass(frozen=True)
class FloquetSpec:
    l: int
    boundary: str
    map: str                  # "revival" or "subharmonic"
    epsilons: tuple
    taus: tuple               # dimensionless Omega*tau values
    n_periods: int
    initial_state: str = "AF1"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration plus the normalized raw document."""

    lattice: LatticeSpec
    physical: PhysicalParams | None
    model: str
    cutoff: float | None
    drive_raw: dict | None
    initial_state: str
    evolution: EvolutionConfig | None
    observables: ObservablesSpec
    sweep: tuple[SweepAxis, ...]
    floquet: FloquetSpec | None
    raw: dict

    def resolve_drive(self, lat: Lattice) -> DriveProfile:
        if self.drive_raw is None:
            raise ConfigError("drive: missing drive section")
        if self.physical is None:
            raise ConfigError("physical: section required to resolve a drive")
        return _resolve_drive(self.drive_raw, self.physical, lat)


def _scaled_value(d: dict, name: str, p: PhysicalParams, lat: Lattice | None,
                  path: str, allow_opt: bool = False) -> float | None:
    """Read one frequency-like quantity given in any one supported unit."""
    keys = [k for k in (f"{name}_over_omega", f"{name}_over_v0", f"{name}_mhz", name)
            if k in d]
    if not keys:
        return None
    _expect(len(keys) == 1, path, f"{name} given in more than one unit: {keys}")
    key = keys[0]
    val = d[key]
    if key == name:
        _expect(allow_opt and val == "opt", f"{path}.{key}",
                'only the literal "opt" is accepted here')
        if lat is None:
            raise ConfigError(f"{path}.{key}: cannot resolve 'opt' without a lattice")
        return optimal_detuning(lat, p)
    _expect(isinstance(val, (int, float)), f"{path}.{key}", "must be a number")
    if key.endswith("_over_omega"):
        return float(val) * p.omega
    if key.endswith("_over_v0"):
        return float(val) * p.v0
    return math.tau * float(val)


def _resolve_drive(d: dict, p: PhysicalParams, lat: Lattice) -> DriveProfile:
    """Build the drive; parse_config has already checked its shape."""
    path = "drive"
    shape = d["shape"]
    delta0 = _scaled_value(d, "delta0", p, lat, path, allow_opt=True)
    _expect(delta0 is not None, path, "delta0 is required")
    if shape == "constant":
        return DriveProfile.constant(delta0)
    deltam = _scaled_value(d, "deltam", p, lat, path)
    omegam = _scaled_value(d, "omegam", p, lat, path)
    _expect(deltam is not None and omegam is not None, path,
            f"{shape} drive needs deltam and omegam")
    factory = DriveProfile.cosine if shape == "cosine" else DriveProfile.square
    return factory(delta0, deltam, omegam)


def _parse_lattice(d: dict) -> LatticeSpec:
    path = "lattice"
    _expect(isinstance(d, dict), path, "must be an object")
    kind = _get(d, path, "kind", required=True)
    extent = _get(d, path, "extent", required=True)
    _expect(isinstance(extent, (int, float)) and extent > 0, f"{path}.extent",
            "must be a positive number")
    ratio = d.get("zigzag_nnn_ratio")
    _expect(ratio is None or isinstance(ratio, (int, float)),
            f"{path}.zigzag_nnn_ratio", "must be a number")
    periodic = d.get("periodic", False)
    _expect(isinstance(periodic, bool), f"{path}.periodic", "must be true or false")
    return LatticeSpec(kind=kind, extent=extent, zigzag_nnn_ratio=ratio,
                       periodic=periodic)


def _parse_evolution(d: dict) -> EvolutionConfig:
    """EvolutionConfig checks each field; the parser adds the time-grid checks.

    A total_time that is not a whole multiple of dt, or a record_stride that
    does not divide the step count, would be silently truncated by the
    integrator, so both are rejected here (with a relative tolerance, since
    e.g. 0.7 / 0.002 is 349.99999999999994).
    """
    path = "evolution"
    _expect(isinstance(d, dict), path, "must be an object")
    ev = EvolutionConfig(total_time=_get(d, path, "total_time", required=True),
                         dt=d.get("dt", 0.002),
                         record_stride=d.get("record_stride", 1),
                         krylov_dim=d.get("krylov_dim", 16))
    ratio = ev.total_time / ev.dt
    n_steps = round(ratio)
    _expect(abs(ratio - n_steps) <= _GRID_RTOL * ratio,
            f"{path}.total_time",
            f"must be a whole multiple of dt = {ev.dt} (ratio {ratio!r})")
    _expect(n_steps % ev.record_stride == 0, f"{path}.record_stride",
            f"must divide the step count {n_steps}")
    return ev


def _parse_observables(d: dict) -> ObservablesSpec:
    path = "observables"
    cuts = []
    for k, cut in enumerate(d.get("entropy_cuts", [])):
        if cut == "half":
            cuts.append("half")
        elif isinstance(cut, list) and all(isinstance(s, int) for s in cut):
            _expect(len(cut) > 0, f"{path}.entropy_cuts[{k}]", "cut must be nonempty")
            cuts.append(tuple(cut))
        else:
            raise ConfigError(
                f'{path}.entropy_cuts[{k}]: must be "half" or a list of site indices'
            )
    return ObservablesSpec(microstates=bool(d.get("microstates", False)),
                           entropy_cuts=tuple(cuts))


def _parse_sweep(entries: list) -> tuple[SweepAxis, ...]:
    axes = []
    for k, ent in enumerate(entries):
        path = f"sweep[{k}]"
        _expect(isinstance(ent, dict), path, "must be an object")
        par = _get(ent, path, "parameter", required=True)
        _expect(isinstance(par, str) and par.startswith(_SWEEPABLE_PREFIXES),
                f"{path}.parameter",
                f"must start with one of {_SWEEPABLE_PREFIXES}")
        grid = _get(ent, path, "grid", required=True)
        _expect(isinstance(grid, list) and len(grid) > 0, f"{path}.grid",
                "must be a nonempty list")
        axes.append(SweepAxis(parameter=par, grid=tuple(grid)))
    _expect(len(axes) <= 2, "sweep", "at most two sweep axes are supported")
    return tuple(axes)


def _parse_floquet(d: dict) -> FloquetSpec:
    path = "floquet"
    _expect(isinstance(d, dict), path, "must be an object")
    l = _get(d, path, "l", required=True)
    _expect(isinstance(l, int) and l >= 1, f"{path}.l", "must be an integer >= 1")
    boundary = _get(d, path, "boundary", "periodic")
    _expect(boundary in ("open", "periodic"), f"{path}.boundary",
            "must be 'open' or 'periodic'")
    kind = _get(d, path, "map", required=True)
    _expect(kind in ("revival", "subharmonic"), f"{path}.map",
            "must be 'revival' or 'subharmonic'")
    eps = _numbers(_get(d, path, "epsilons", required=True), f"{path}.epsilons")
    if "taus_omega" in d:
        taus = _numbers(d["taus_omega"], f"{path}.taus_omega")
    elif "taus_over_2pi" in d:
        taus = tuple(math.tau * t for t in
                     _numbers(d["taus_over_2pi"], f"{path}.taus_over_2pi"))
    else:
        raise ConfigError(f"{path}: needs taus_omega or taus_over_2pi")
    n_per = d.get("n_periods", 100 if kind == "revival" else 400)
    _expect(isinstance(n_per, int) and n_per >= 1, f"{path}.n_periods",
            "must be an integer >= 1")
    init = d.get("initial_state", "AF1")
    _expect(init in INITIAL_STATES, f"{path}.initial_state",
            f"must be one of {INITIAL_STATES}")
    return FloquetSpec(l=l, boundary=boundary, map=kind, epsilons=eps, taus=taus,
                       n_periods=n_per, initial_state=init)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw configuration document."""
    _expect(isinstance(doc, dict), "config", "top level must be an object")
    known = {"lattice", "physical", "model", "cutoff", "drive", "initial_state",
             "evolution", "observables", "sweep", "floquet"}
    for key in doc:
        _expect(key in known, key, "unknown top-level field")

    floquet = _parse_floquet(doc["floquet"]) if "floquet" in doc else None

    lattice = _parse_lattice(_get(doc, "config", "lattice", required=floquet is None,
                                  default={"kind": "chain", "extent": 9})) \
        if ("lattice" in doc or floquet is None) else None
    if lattice is None:
        lattice = LatticeSpec(kind="chain", extent=floquet.l,
                              periodic=floquet.boundary == "periodic")

    physical = None
    if "physical" in doc:
        pd = doc["physical"]
        _expect(isinstance(pd, dict), "physical", "must be an object")
        om = _get(pd, "physical", "omega_mhz", required=True)
        v0 = _get(pd, "physical", "v0_mhz", required=True)
        _expect(isinstance(om, (int, float)), "physical.omega_mhz", "must be a number")
        _expect(isinstance(v0, (int, float)), "physical.v0_mhz", "must be a number")
        try:
            physical = PhysicalParams.from_mhz(float(om), float(v0))
        except ConfigError as exc:
            raise ConfigError(f"physical: {exc}") from exc

    model = doc.get("model", "rydberg")
    _expect(model in MODELS, "model", f"must be one of {MODELS}")

    cutoff = doc.get("cutoff")
    if cutoff is not None:
        _expect(isinstance(cutoff, (int, float)) and cutoff >= 1, "cutoff",
                "must be a number >= 1")
        cutoff = float(cutoff)

    drive_raw = doc.get("drive")
    if drive_raw is not None:
        _expect(isinstance(drive_raw, dict), "drive", "must be an object")
        shape = _get(drive_raw, "drive", "shape", required=True)
        _expect(shape in [s.value for s in DriveShape], "drive.shape",
                f"unknown shape {shape!r}")
        for name in ("delta0", "deltam", "omegam"):
            keys = [k for k in (f"{name}_over_omega", f"{name}_over_v0",
                                f"{name}_mhz", name) if k in drive_raw]
            _expect(len(keys) <= 1, "drive",
                    f"{name} given in more than one unit: {keys}")

    initial_state = doc.get("initial_state", "AF1")
    _expect(initial_state in INITIAL_STATES, "initial_state",
            f"must be one of {INITIAL_STATES}")

    evolution = _parse_evolution(doc["evolution"]) if "evolution" in doc else None
    observables = _parse_observables(doc.get("observables", {}))
    if observables.microstates:
        _expect(lattice.kind in ("chain", "zigzag_chain"), "observables.microstates",
                "microstate grouping is only defined for chains")
    sweep = _parse_sweep(doc.get("sweep", []))

    return ExperimentConfig(
        lattice=lattice, physical=physical, model=model, cutoff=cutoff,
        drive_raw=drive_raw, initial_state=initial_state, evolution=evolution,
        observables=observables, sweep=sweep, floquet=floquet,
        raw=normalize_document(doc),
    )


def normalize_document(doc: dict) -> dict:
    """Canonical JSON-ready form (key-sorted deep copy with tuples as lists)."""
    return json.loads(json.dumps(doc, sort_keys=True))


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, sort_keys=True, indent=2) + "\n"


def config_hash(doc: dict) -> str:
    """Deterministic hash of the semantic content of a config document."""
    canon = json.dumps(normalize_document(doc), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def set_by_path(doc: dict, path: str, value) -> dict:
    """Return a copy of the document with one dotted field replaced."""
    out = json.loads(json.dumps(doc))
    parts = path.split(".")
    cur = out
    for p in parts[:-1]:
        if p not in cur or not isinstance(cur[p], dict):
            cur[p] = {}
        cur = cur[p]
    cur[parts[-1]] = value
    return out


@dataclass
class RunManifest:
    """Provenance record for one command invocation."""

    config_hash: str
    toolkit_version: str
    outputs: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    status: str = "complete"
    error: str | None = None

    def to_json(self) -> str:
        doc = {
            "config_hash": self.config_hash,
            "toolkit_version": self.toolkit_version,
            "outputs": sorted(self.outputs),
            "wall_clock_s": self.wall_clock_s,
            "status": self.status,
        }
        if self.error is not None:
            doc["error"] = self.error
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
