"""Experiment configuration: parsing, validation and resolution.

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
from dataclasses import dataclass

from .errors import ConfigError, GeometryError, is_int, is_number
from .evolve import EvolutionConfig
from .hamiltonian import DriveProfile, DriveShape
from .lattice import (
    COUNTED_KINDS,
    Lattice,
    PhysicalParams,
    build_lattice,
    optimal_detuning,
)
from .tables import json_text

MODELS = ("rydberg", "pxp")
INITIAL_STATES = ("AF1", "AF2", "GGG")

_SWEEPABLE_PREFIXES = ("lattice.", "physical.", "drive.", "evolution.")
# sections that a document with a floquet section may not have
_FLOQUET_REFUSES = ("lattice", "physical", "model", "drive", "evolution",
                    "observables", "sweep")

# A drive quantity carries its unit in its key; the bare key takes only "opt".
_UNITS = ("_over_omega", "_over_v0", "_mhz", "")
_DRIVE_QUANTITIES = ("delta0", "deltam", "omegam")
_DRIVE_FIELDS = {"shape"} | {q + u for q in _DRIVE_QUANTITIES for u in _UNITS}


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _numbers(values, path: str) -> tuple[float, ...]:
    """A nonempty list of numbers as floats; names the first bad entry."""
    _expect(isinstance(values, list) and len(values) > 0, path,
            "must be a nonempty list of numbers")
    for k, v in enumerate(values):
        _expect(is_number(v), f"{path}[{k}]", "must be a number")
    return tuple(float(v) for v in values)


def _get(d: dict, path: str, key: str, default=None, required=False):
    if key not in d:
        _expect(not required, f"{path}.{key}", "missing required field")
        return default
    return d[key]


def _fields(d, path: str, known) -> None:
    """Check that section ``d`` is an object with no field outside ``known``."""
    _expect(isinstance(d, dict), path, "must be an object")
    for key in d:
        _expect(key in known, f"{path}.{key}", "unknown field")


@dataclass(frozen=True)
class ObservablesSpec:
    microstates: bool = False
    entropy_cuts: tuple[tuple[int, ...], ...] = ()   # "half" already expanded


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    grid: tuple


@dataclass(frozen=True)
class FloquetSpec:
    map: str                  # "revival" or "subharmonic"
    epsilons: tuple
    taus: tuple               # dimensionless Omega*tau values
    n_periods: int


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration resolved to the objects a run uses, plus the
    normalized raw document.  A floquet document's lattice is the chain or
    ring of ``floquet.l`` and its start state is ``initial_state``."""

    lattice: Lattice
    physical: PhysicalParams | None
    model: str
    drive: DriveProfile | None
    initial_state: str
    evolution: EvolutionConfig | None
    observables: ObservablesSpec
    sweep: tuple[SweepAxis, ...]
    floquet: FloquetSpec | None
    raw: dict


def _scaled_value(d: dict, name: str, p: PhysicalParams, lat: Lattice,
                  path: str) -> float | None:
    """Read one frequency-like quantity given in any one supported unit."""
    keys = [name + unit for unit in _UNITS if name + unit in d]
    if not keys:
        return None
    _expect(len(keys) == 1, path, f"{name} given in more than one unit: {keys}")
    key = keys[0]
    val = d[key]
    if key == name:
        _expect(name == "delta0" and val == "opt", f"{path}.{key}",
                'only the literal "opt" is accepted here')
        return optimal_detuning(lat, p)
    _expect(is_number(val), f"{path}.{key}", "must be a number")
    if key.endswith("_over_omega"):
        return float(val) * p.omega
    if key.endswith("_over_v0"):
        return float(val) * p.v0
    return math.tau * float(val)


def _resolve_drive(d, p: PhysicalParams | None, lat: Lattice) -> DriveProfile:
    """The drive section in rad/us; delta0, deltam and omegam are read and
    checked for every shape, although a constant drive uses delta0 only."""
    path = "drive"
    _expect(isinstance(d, dict), path, "must be an object")
    shape = _get(d, path, "shape", required=True)
    _expect(shape in [s.value for s in DriveShape], f"{path}.shape",
            f"unknown shape {shape!r}")
    _fields(d, path, _DRIVE_FIELDS)
    _expect(p is not None, "physical", "section required to resolve a drive")
    delta0, deltam, omegam = (_scaled_value(d, name, p, lat, path)
                              for name in _DRIVE_QUANTITIES)
    _expect(delta0 is not None, path, "delta0 is required")
    if shape == "constant":
        return DriveProfile.constant(delta0)
    _expect(deltam is not None and omegam is not None, path,
            f"{shape} drive needs deltam and omegam")
    return DriveProfile(shape, delta0, deltam, omegam)


def _parse_lattice(d) -> Lattice:
    path = "lattice"
    _fields(d, path, ("kind", "extent", "zigzag_nnn_ratio", "periodic"))
    kind = _get(d, path, "kind", required=True)
    extent = _get(d, path, "extent", required=True)
    _expect(is_number(extent) and extent > 0, f"{path}.extent",
            "must be a positive number")
    _expect(kind not in COUNTED_KINDS or float(extent).is_integer(), f"{path}.extent",
            f"must be a whole number for kind {kind!r}")
    ratio = d.get("zigzag_nnn_ratio")
    _expect(ratio is None or is_number(ratio),
            f"{path}.zigzag_nnn_ratio", "must be a number")
    periodic = d.get("periodic", False)
    _expect(isinstance(periodic, bool), f"{path}.periodic", "must be true or false")
    try:
        return build_lattice(kind, extent, ratio, periodic=periodic)
    except (ConfigError, GeometryError) as exc:
        # build_lattice names the parameter, which is the field of this section
        raise type(exc)(f"{path}.{exc}") from exc


def _parse_physical(d) -> PhysicalParams:
    path = "physical"
    _fields(d, path, ("omega_mhz", "v0_mhz"))
    om = _get(d, path, "omega_mhz", required=True)
    v0 = _get(d, path, "v0_mhz", required=True)
    _expect(is_number(om), f"{path}.omega_mhz", "must be a number")
    _expect(is_number(v0), f"{path}.v0_mhz", "must be a number")
    try:
        return PhysicalParams.from_mhz(float(om), float(v0))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_evolution(d) -> EvolutionConfig:
    """The known fields; EvolutionConfig checks their values and the time grid."""
    path = "evolution"
    _fields(d, path, ("total_time", "dt", "record_stride", "krylov_dim"))
    _get(d, path, "total_time", required=True)
    return EvolutionConfig(**d)


def _parse_observables(d, lat: Lattice) -> ObservablesSpec:
    path = "observables"
    _fields(d, path, ("microstates", "entropy_cuts"))
    microstates = d.get("microstates", False)
    _expect(isinstance(microstates, bool), f"{path}.microstates",
            "must be true or false")
    _expect(not microstates or lat.kind in ("chain", "zigzag_chain"),
            f"{path}.microstates", "microstate grouping is only defined for chains")
    entries = d.get("entropy_cuts", [])
    _expect(isinstance(entries, list), f"{path}.entropy_cuts", "must be a list")
    cuts = []
    n = lat.n_sites
    for k, cut in enumerate(entries):
        at = f"{path}.entropy_cuts[{k}]"
        if cut == "half":
            _expect(n >= 2, at, '"half" needs a lattice of at least 2 sites')
            cuts.append(tuple(range(n // 2)))
        elif isinstance(cut, list) and all(is_int(s) for s in cut):
            _expect(len(cut) > 0, at, "cut must be nonempty")
            bad = [s for s in cut if not 0 <= s < n]
            _expect(not bad, at, f"sites {bad} lie outside 0..{n - 1}")
            _expect(len(set(cut)) < n, at, f"cut covers all {n} sites")
            cuts.append(tuple(cut))
        else:
            raise ConfigError(f'{at}: must be "half" or a list of site indices')
    return ObservablesSpec(microstates=microstates, entropy_cuts=tuple(cuts))


def _parse_sweep(entries) -> tuple[SweepAxis, ...]:
    _expect(isinstance(entries, list), "sweep", "must be a list of axes")
    axes = []
    for k, ent in enumerate(entries):
        path = f"sweep[{k}]"
        _fields(ent, path, ("parameter", "grid"))
        par = _get(ent, path, "parameter", required=True)
        _expect(isinstance(par, str) and par.startswith(_SWEEPABLE_PREFIXES),
                f"{path}.parameter",
                f"must start with one of {_SWEEPABLE_PREFIXES}")
        _expect(par not in [ax.parameter for ax in axes], f"{path}.parameter",
                f"{par!r} is already swept by another axis")
        grid = _get(ent, path, "grid", required=True)
        _expect(isinstance(grid, list) and len(grid) > 0, f"{path}.grid",
                "must be a nonempty list")
        axes.append(SweepAxis(parameter=par, grid=tuple(grid)))
    _expect(len(axes) <= 2, "sweep", "at most two sweep axes are supported")
    return tuple(axes)


def _parse_floquet(d, initial_state: str | None) -> tuple[Lattice, str, FloquetSpec]:
    """The floquet section's chain or ring, start state and map.  The start
    state defaults to the document's ``initial_state``, and a document that
    sets both to different states is refused."""
    path = "floquet"
    _fields(d, path, ("l", "boundary", "map", "epsilons", "taus_omega",
                      "taus_over_2pi", "n_periods", "initial_state"))
    l = _get(d, path, "l", required=True)
    _expect(is_int(l) and l >= 1, f"{path}.l", "must be an integer >= 1")
    boundary = _get(d, path, "boundary", "periodic")
    _expect(boundary in ("open", "periodic"), f"{path}.boundary",
            "must be 'open' or 'periodic'")
    _expect(boundary == "open" or l >= 3, f"{path}.l",
            "a periodic chain needs at least 3 sites")
    kind = _get(d, path, "map", required=True)
    _expect(kind in ("revival", "subharmonic"), f"{path}.map",
            "must be 'revival' or 'subharmonic'")
    eps = _numbers(_get(d, path, "epsilons", required=True), f"{path}.epsilons")
    units = [key for key in ("taus_omega", "taus_over_2pi") if key in d]
    _expect(len(units) > 0, path, "needs taus_omega or taus_over_2pi")
    values = [_numbers(d[key], f"{path}.{key}") for key in units]
    _expect(len(units) == 1, path, f"tau given in more than one unit: {units}")
    taus = values[0] if units[0] == "taus_omega" else tuple(math.tau * t for t in values[0])
    n_per = d.get("n_periods", 100 if kind == "revival" else 400)
    _expect(is_int(n_per) and n_per >= 1, f"{path}.n_periods",
            "must be an integer >= 1")
    init = d.get("initial_state", initial_state or "AF1")
    _expect(init in INITIAL_STATES, f"{path}.initial_state",
            f"must be one of {INITIAL_STATES}")
    _expect(initial_state in (None, init), f"{path}.initial_state",
            f"{init!r} differs from initial_state {initial_state!r}")
    lattice = build_lattice("chain", l, periodic=boundary == "periodic")
    return lattice, init, FloquetSpec(map=kind, epsilons=eps, taus=taus,
                                      n_periods=n_per)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw configuration document and build what a run uses."""
    _fields(doc, "config", ("lattice", "physical", "model", "drive", "initial_state",
                            "evolution", "observables", "sweep", "floquet"))
    initial_state = doc.get("initial_state", "AF1")
    _expect(initial_state in INITIAL_STATES, "initial_state",
            f"must be one of {INITIAL_STATES}")
    floquet = None
    if "floquet" in doc:
        # the map builds its own PXP chain from the floquet section
        refused = [key for key in _FLOQUET_REFUSES if key in doc]
        _expect(not refused, "config",
                f"a floquet document takes none of these sections: {', '.join(refused)}")
        lattice, initial_state, floquet = _parse_floquet(doc["floquet"],
                                                         doc.get("initial_state"))
    else:
        lattice = _parse_lattice(_get(doc, "config", "lattice", required=True))

    physical = _parse_physical(doc["physical"]) if "physical" in doc else None

    # a floquet document has no model section: its map runs PXP
    model = doc.get("model", "pxp" if floquet is not None else "rydberg")
    _expect(model in MODELS, "model", f"must be one of {MODELS}")

    drive = doc.get("drive")
    if drive is not None:
        drive = _resolve_drive(drive, physical, lattice)

    evolution = _parse_evolution(doc["evolution"]) if "evolution" in doc else None
    if drive is not None and drive.shape is not DriveShape.CONSTANT \
            and evolution is not None:
        # the spectrum of the records must reach the subharmonic omegam / 2
        nyquist = math.pi / (evolution.dt * evolution.record_stride)
        _expect(nyquist >= drive.omegam / 2, "evolution.record_stride",
                "the records' Nyquist frequency pi / (dt record_stride) = "
                f"{nyquist:.6g} rad/us lies below omegam / 2 = "
                f"{drive.omegam / 2:.6g} rad/us")
    observables = _parse_observables(doc.get("observables", {}), lattice)
    sweep = _parse_sweep(doc.get("sweep", []))

    return ExperimentConfig(
        lattice=lattice, physical=physical, model=model,
        drive=drive, initial_state=initial_state, evolution=evolution,
        observables=observables, sweep=sweep, floquet=floquet,
        raw=normalize_document(doc),
    )


def normalize_document(doc: dict) -> dict:
    """Canonical JSON-ready form (key-sorted deep copy with tuples as lists)."""
    return json.loads(json.dumps(doc, sort_keys=True))


def serialize_config(cfg: ExperimentConfig) -> str:
    return json_text(cfg.raw)


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
