"""Command-line front end.

    scarsim lattice|quench|sweep|floquet|analyze [--config F | --preset NAME]
            [--out DIR] [--jobs N] ...

Exit codes: 0 success, 2 configuration problem, 3 capacity guard,
4 numerical guard.  Output files are byte-deterministic for identical
configurations (the manifest's wall-clock field aside).  A run that fails
once its document is loaded still writes ``manifest.json`` with status
``error``.

A sweep groups the grid points that differ only in their drive and need
the same substep count, on lattices of at most 12 sites and at most 6
points per group; each group runs as one block propagation, every other
point runs on its own, and ``--jobs N`` (N >= 1) spreads the groups over
worker processes.  Neither the grouping nor the output bytes depend on N.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    RIGIDITY_GRID,
    fit_damped_cosine,
    fit_decay_plane,
    fit_to_json,
    fourier_spectrum,
    imbalance,
    microstate_matrix,
    microstate_matrix_to_csv,
    plane_to_json,
    spectrum_to_csv,
    subharmonic_rigidity,
    subharmonic_weight,
    weight_at,
)
from .config import (
    ExperimentConfig,
    RunManifest,
    config_hash,
    parse_config,
    serialize_config,
    set_by_path,
)
from .errors import (
    CapacityError,
    ConfigError,
    GeometryError,
    NumericalError,
    ScarsimError,
    is_number,
)
from .evolve import (
    QuenchResult,
    _g17,
    _run_block,
    quench_from_csv,
    quench_to_csv,
    run_quench,
    substep_count,
)
from .floquet import pulsed_subharmonic_map, revival_fidelity_map
from .hamiltonian import DriveProfile, DriveShape, build_pxp, build_rydberg, build_sw2
from .hilbert import (
    enumerate_blockaded,
    named_state,
    order_microstates,
    reflection_grouping,
)
from .lattice import (
    REF_ALPHA,
    REF_BETA,
    blockade_radius,
    decay_predictors,
    lattice_to_json,
    optimal_detuning,
    predict_lifetime,
)
from .presets import NOTES, get_preset, preset_names

_REF_INV_TAU0 = 0.4


def _csv_field(s: str) -> str:
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _grid_field(v) -> str:
    """A sweep grid value as a CSV cell: numbers exactly, booleans as JSON
    writes them, anything else as text."""
    if isinstance(v, bool):
        return json.dumps(v)
    return _g17(v) if is_number(v) else _csv_field(str(v))


def _load_document(args) -> dict:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.preset:
        try:
            return get_preset(args.preset)
        except KeyError:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(preset_names())}"
            ) from None
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _build_system(cfg: ExperimentConfig):
    """Basis, Hamiltonian parts and initial state of the configured lattice."""
    lat = cfg.lattice
    basis = enumerate_blockaded(lat)
    if cfg.model == "rydberg":
        parts = build_rydberg(lat, basis, cfg.physical, cutoff=cfg.cutoff)
    elif cfg.model == "pxp":
        parts = build_pxp(lat, basis, cfg.physical)
    else:
        parts = build_sw2(lat, basis, cfg.physical)
    return basis, parts, named_state(lat, basis, cfg.initial_state)


def _geometry_report(cfg: ExperimentConfig) -> dict:
    lat = cfg.lattice
    report: dict = {
        "kind": lat.kind,
        "n_sites": lat.n_sites,
        "n_sublattice_a": int((lat.sublattice == 0).sum()),
        "n_sublattice_b": int((lat.sublattice == 1).sum()),
        "periodic": lat.periodic,
    }
    if cfg.physical is not None:
        p = cfg.physical
        dq = optimal_detuning(lat, p)
        x, y = decay_predictors(lat, p)
        rb, arb = blockade_radius(p)
        report.update({
            "omega_rad_us": p.omega,
            "v0_rad_us": p.v0,
            "delta_q_opt_rad_us": dq,
            "delta_q_opt_over_v0": dq / p.v0,
            "delta_q_opt_over_omega": dq / p.omega,
            "x_mhz": x,
            "y_mhz": y,
            "rb_over_a": rb,
            "a_over_rb": arb,
            "predicted_tau_us": predict_lifetime(
                x, y, REF_ALPHA, REF_BETA, 1.0 / _REF_INV_TAU0),
        })
    return report


def _run(command, doc: dict, out: Path, *args) -> int:
    """Parse ``doc``, run one command on it, and write the files it returns
    (relative path -> text) plus ``resolved_config.json`` and ``manifest.json``.

    When parsing or the command raises a :class:`ScarsimError`, only
    ``manifest.json`` is written, with status ``error`` and the error, and
    the exception propagates to :func:`main`, which picks the exit code."""
    t0 = time.perf_counter()

    def write_manifest(outputs, status, error=None) -> None:
        manifest = RunManifest(config_hash=config_hash(doc), toolkit_version=__version__,
                               outputs=list(outputs),
                               wall_clock_s=time.perf_counter() - t0,
                               status=status, error=error)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(manifest.to_json())

    try:
        cfg = parse_config(doc)
        files, status, message = command(cfg, *args)
    except ScarsimError as exc:
        write_manifest([], "error", f"{type(exc).__name__}: {exc}")
        raise
    files["resolved_config.json"] = serialize_config(cfg)
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    write_manifest(files, status)
    print(message)
    return 0


def cmd_lattice(cfg: ExperimentConfig) -> tuple[dict, str, str]:
    report = json.dumps(_geometry_report(cfg), sort_keys=True, indent=2)
    files = {"lattice.json": lattice_to_json(cfg.lattice) + "\n",
             "geometry.json": report + "\n"}
    return files, "complete", report


def _analyze_quench(result: QuenchResult, drive: DriveProfile) -> tuple[dict, str | None]:
    """Fit and spectral summary; returns (analysis dict, spectrum csv or None)."""
    analysis: dict = {}
    series = imbalance(result)
    try:
        fit = fit_damped_cosine(series, result.times)
        analysis["fit"] = json.loads(fit_to_json(fit))
    except ScarsimError as exc:
        analysis["fit_error"] = str(exc)
    spectrum_csv = None
    if drive.shape in (DriveShape.COSINE, DriveShape.SQUARE):
        spec = fourier_spectrum(series, result.times,
                                calibration_omega=drive.omegam / 2.0)
        spectrum_csv = spectrum_to_csv(spec)
        analysis["omegam_rad"] = drive.omegam
        analysis["subharmonic_weight"] = subharmonic_weight(spec, drive.omegam)
        analysis["fourth_subharmonic_weight"] = subharmonic_weight(
            spec, drive.omegam, order=4)
        if drive.omegam <= spec.omegas[-1]:
            analysis["harmonic_weight"] = weight_at(spec, drive.omegam)
        analysis["peak_omega"] = spec.peak_omega()
    elif len(result.times) >= 20:
        spec = fourier_spectrum(series, result.times)
        spectrum_csv = spectrum_to_csv(spec)
        analysis["peak_omega"] = spec.peak_omega()
    return analysis, spectrum_csv


def _run_single_quench(cfg: ExperimentConfig):
    """Basis and quench result of one configured quench."""
    if cfg.evolution is None:
        raise ConfigError("evolution: section is required for quench runs")
    if cfg.drive is None:
        raise ConfigError("drive: section is required for quench runs")
    basis, parts, psi0 = _build_system(cfg)
    result = run_quench(cfg.lattice, basis, parts, cfg.drive, psi0, cfg.evolution,
                        entropy_cuts=cfg.observables.entropy_cuts,
                        record_probs=cfg.observables.microstates)
    return basis, result


def cmd_quench(cfg: ExperimentConfig) -> tuple[dict, str, str]:
    basis, result = _run_single_quench(cfg)
    analysis, spectrum_csv = _analyze_quench(result, cfg.drive)
    files = {"quench.csv": quench_to_csv(result),
             "lattice.json": lattice_to_json(cfg.lattice) + "\n",
             "analysis.json": json.dumps(analysis, sort_keys=True, indent=2) + "\n"}
    if spectrum_csv is not None:
        files["spectrum.csv"] = spectrum_csv
    if cfg.observables.microstates:
        ordering = order_microstates(reflection_grouping(basis, cfg.lattice))
        matrix = microstate_matrix(result, ordering)
        files["microstates.csv"] = microstate_matrix_to_csv(result.times, matrix)
    return files, "complete", \
        f"quench complete: {len(result.times)} snapshots, dim {basis.dim}"


def _sweep_points(cfg: ExperimentConfig) -> list[dict]:
    """Grid points in deterministic order (first axis outer, second inner)."""
    axes = cfg.sweep
    if not axes:
        raise ConfigError("sweep: at least one axis is required")
    points = []
    if len(axes) == 1:
        for v in axes[0].grid:
            points.append({axes[0].parameter: v})
    else:
        for v0 in axes[0].grid:
            for v1 in axes[1].grid:
                points.append({axes[0].parameter: v0, axes[1].parameter: v1})
    return points


def _point_doc(doc_json: str, overrides: dict) -> dict:
    doc = json.loads(doc_json)
    for path, value in overrides.items():
        doc = set_by_path(doc, path, value)
    return doc


def _error_row(exc: Exception) -> dict:
    """The aggregate row of a failed sweep point; unexpected exceptions,
    not only ScarsimErrors, also print their traceback to stderr."""
    if not isinstance(exc, ScarsimError):
        traceback.print_exception(exc)
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _sweep_row(cfg: ExperimentConfig, basis, result: QuenchResult) -> dict:
    """The aggregate row of one finished sweep point."""
    analysis, _ = _analyze_quench(result, cfg.drive)
    x, y = decay_predictors(cfg.lattice, cfg.physical)
    row: dict = {"status": "ok", "error": "", "dim": basis.dim, "x_mhz": x, "y_mhz": y}
    fit = analysis.get("fit")
    if fit is not None and fit.get("converged"):
        row["omega_tilde"] = fit["omega_tilde"]
        row["tau"] = fit["tau"]
        row["inv_tau"] = 1.0 / fit["tau"]
    row["sub_weight"] = analysis.get("subharmonic_weight")
    row["harm_weight"] = analysis.get("harmonic_weight")
    row["fourth_weight"] = analysis.get("fourth_subharmonic_weight")
    row["quench_csv"] = quench_to_csv(result)
    return row


def _sweep_worker(cfg: ExperimentConfig) -> dict:
    """Run one parsed sweep point on its own; returns its aggregate row.

    Never raises: any exception becomes an error row (see
    :func:`_error_row`), so one bad point cannot abort the sweep.
    """
    try:
        basis, result = _run_single_quench(cfg)
        return _sweep_row(cfg, basis, result)
    except Exception as exc:
        return _error_row(exc)


def _group_worker(cfgs: list[ExperimentConfig]) -> list[dict]:
    """Run the parsed points of one sweep group as one block; one row each.

    The points share everything but their drive (see :func:`_sweep_groups`),
    so the basis and the Hamiltonian are built once and every drive becomes
    one column of :func:`scarsim.evolve._run_block`.  A group of one, or a
    group that raises anywhere, runs its points one by one through
    :func:`_sweep_worker`, so a bad point still gives exactly one error row.
    """
    if len(cfgs) > 1:
        try:
            cfg = cfgs[0]
            basis, parts, psi0 = _build_system(cfg)
            results = _run_block(cfg.lattice, basis, parts, [c.drive for c in cfgs],
                                 psi0, cfg.evolution,
                                 entropy_cuts=cfg.observables.entropy_cuts,
                                 record_probs=cfg.observables.microstates)
            return [_sweep_row(c, basis, r) for c, r in zip(cfgs, results)]
        except Exception as exc:
            if not isinstance(exc, ScarsimError):
                traceback.print_exc()
            print(f"sweep: a group of {len(cfgs)} points failed "
                  f"({type(exc).__name__}: {exc}); running its points one by one",
                  file=sys.stderr)
    return [_sweep_worker(cfg) for cfg in cfgs]


# Sweep points share a block only on lattices of at most this many sites
# (dim <= 377 on a chain).  There the per-step overhead, not the sparse
# products, dominates a column's step, and a 6-column block step costs
# 0.35 (dim 89) to 0.57 (dim 377) of six single-state steps; at dim 4181 it
# costs 0.94 (all measured on one core of a 2-core x86 VM), so larger
# lattices keep one point per task and their points spread over the workers.
_BLOCK_MAX_SITES = 12

# A group wider than this is split into near-equal blocks, so that a long
# drive axis still spreads over the workers.
_BLOCK_WIDTH = 6


def _sweep_groups(cfgs: list) -> list[list[int]]:
    """Point indices grouped for :func:`_group_worker`, groups in order of
    their first point.

    ``cfgs`` holds each point's parsed config, or the exception its parse
    raised.  Points whose documents are equal apart from ``drive``, whose
    drives need the same substep count and whose lattice has at most
    ``_BLOCK_MAX_SITES`` sites share a group; a group of more than
    ``_BLOCK_WIDTH`` points is split into near-equal consecutive blocks.
    Every other point (one that did not parse, lacks a drive or an
    evolution section, or has a larger lattice) is a group of its own.  The
    rule does not depend on ``--jobs``.
    """
    groups: dict = {}
    for k, cfg in enumerate(cfgs):
        if isinstance(cfg, Exception) or cfg.drive is None or cfg.evolution is None \
                or cfg.lattice.n_sites > _BLOCK_MAX_SITES:
            key = k
        else:
            rest = {name: sec for name, sec in cfg.raw.items() if name != "drive"}
            key = (json.dumps(rest, sort_keys=True),
                   substep_count(cfg.drive, cfg.evolution.dt))
        groups.setdefault(key, []).append(k)
    blocks = []
    for group in groups.values():
        n = -(-len(group) // _BLOCK_WIDTH)
        blocks += [group[len(group) * i // n:len(group) * (i + 1) // n] for i in range(n)]
    return blocks


_AGG_COLUMNS = ("dim", "omega_tilde", "tau", "inv_tau", "sub_weight",
                "harm_weight", "fourth_weight", "x_mhz", "y_mhz")


def cmd_sweep(cfg: ExperimentConfig, jobs: int | None) -> tuple[dict, str, str]:
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs: must be an integer >= 1, got {jobs}")
    points = _sweep_points(cfg)
    doc_json = json.dumps(cfg.raw, sort_keys=True)
    # each point is parsed here, once; a point that does not parse gets its
    # error row here and every other point goes to a worker in its group
    cfgs: list = []
    for pt in points:
        try:
            cfgs.append(parse_config(_point_doc(doc_json, pt)))
        except Exception as exc:
            cfgs.append(exc)
    rows: list = [_error_row(c) if isinstance(c, Exception) else None for c in cfgs]
    groups = [g for g in _sweep_groups(cfgs) if rows[g[0]] is None]
    payloads = [[cfgs[k] for k in group] for group in groups]
    if jobs == 1:
        group_rows = [_group_worker(pl) for pl in payloads]
    else:
        # no more workers than groups: each group is one task
        workers = min(jobs or os.cpu_count() or 1, max(len(payloads), 1))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            group_rows = list(pool.map(_group_worker, payloads))
    for group, grows in zip(groups, group_rows):
        for k, row in zip(group, grows):
            rows[k] = row

    files: dict = {}
    axis_names = [ax.parameter for ax in cfg.sweep]
    header = ["point"] + axis_names + ["status", "error"] + list(_AGG_COLUMNS)
    lines = [",".join(header)]
    for k, (pt, row) in enumerate(zip(points, rows)):
        csv_text = row.pop("quench_csv", None)
        if csv_text is not None:
            files[f"point_{k:03d}/quench.csv"] = csv_text
        vals = [str(k)] + [_grid_field(pt[name]) for name in axis_names]
        vals += [row["status"], _csv_field(row.get("error", ""))]
        for col in _AGG_COLUMNS:
            v = row.get(col)
            vals.append("" if v is None else _g17(v))
        lines.append(",".join(vals))
    files["aggregate.csv"] = "\r\n".join(lines) + "\r\n"

    rigidity_csv = _rigidity_table(cfg, points, rows)
    if rigidity_csv is not None:
        files["rigidity.csv"] = rigidity_csv
    n_err = sum(1 for r in rows if r["status"] != "ok")
    return files, "complete" if n_err == 0 else "partial", \
        f"sweep complete: {len(points)} points, {n_err} failed"


def _rigidity_table(cfg: ExperimentConfig, points: list[dict],
                    rows: list[dict]) -> str | None:
    """Aggregate subharmonic weights into rigidity when the drive-frequency
    axis matches the fixed 11-point grid exactly."""
    freq_axis = None
    other_axis = None
    for ax in cfg.sweep:
        if ax.parameter == "drive.omegam_over_omega" and \
                len(ax.grid) == len(RIGIDITY_GRID) and \
                all(is_number(v) for v in ax.grid) and \
                np.allclose(ax.grid, RIGIDITY_GRID, atol=1e-9):
            freq_axis = ax
        else:
            other_axis = ax
    if freq_axis is None:
        return None
    groups: dict = {}
    for pt, row in zip(points, rows):
        if row["status"] != "ok" or row.get("sub_weight") is None:
            return None
        key = pt[other_axis.parameter] if other_axis else ""
        groups.setdefault(key, []).append(row["sub_weight"])
    name = other_axis.parameter if other_axis else "group"
    lines = [f"{name},rigidity"]
    for key, ws in groups.items():
        if len(ws) != len(RIGIDITY_GRID):
            return None
        rigidity = subharmonic_rigidity(freq_axis.grid, ws)
        lines.append(f"{_grid_field(key) if key != '' else ''},{_g17(rigidity)}")
    return "\r\n".join(lines) + "\r\n"


def cmd_floquet(cfg: ExperimentConfig) -> tuple[dict, str, str]:
    if cfg.floquet is None:
        raise ConfigError("floquet: section is required for the floquet command")
    fq = cfg.floquet
    fn = revival_fidelity_map if fq.map == "revival" else pulsed_subharmonic_map
    values = fn(fq.l, fq.boundary, fq.epsilons, fq.taus,
                n_periods=fq.n_periods, initial_state=fq.initial_state)
    lines = ["epsilon,tau_omega,value"]
    for i, eps in enumerate(fq.epsilons):
        for j, tau in enumerate(fq.taus):
            lines.append(f"{_g17(eps)},{_g17(tau)},{_g17(values[i, j])}")
    meta = {"l": fq.l, "boundary": fq.boundary, "map": fq.map,
            "n_periods": fq.n_periods, "initial_state": fq.initial_state,
            "epsilons": list(fq.epsilons), "taus_omega": list(fq.taus)}
    files = {"map.csv": "\r\n".join(lines) + "\r\n",
             "map_meta.json": json.dumps(meta, sort_keys=True, indent=2) + "\n"}
    return files, "complete", \
        f"floquet map complete: {values.shape[0]}x{values.shape[1]} points"


def cmd_analyze(paths: list[str], mode: str, out: Path | None,
                omegam_rad: float | None) -> int:
    for raw_path in paths:
        path = Path(raw_path)
        if not path.exists():
            raise ConfigError(f"input file not found: {path}")
        dest = out if out is not None else path.parent
        dest.mkdir(parents=True, exist_ok=True)
        stem = path.stem
        if mode == "fit":
            result = quench_from_csv(path.read_text())
            fit = fit_damped_cosine(imbalance(result), result.times)
            (dest / f"{stem}_fit.json").write_text(fit_to_json(fit))
            print(fit_to_json(fit), end="")
        elif mode == "spectrum":
            result = quench_from_csv(path.read_text())
            calib = omegam_rad / 2.0 if omegam_rad else None
            spec = fourier_spectrum(imbalance(result), result.times,
                                    calibration_omega=calib)
            (dest / f"{stem}_spectrum.csv").write_text(spectrum_to_csv(spec))
            summary = {"peak_omega": spec.peak_omega()}
            if omegam_rad:
                summary["subharmonic_weight"] = subharmonic_weight(spec, omegam_rad)
                summary["fourth_subharmonic_weight"] = subharmonic_weight(
                    spec, omegam_rad, order=4)
            (dest / f"{stem}_analysis.json").write_text(
                json.dumps(summary, sort_keys=True, indent=2) + "\n")
            print(json.dumps(summary, sort_keys=True, indent=2))
        elif mode == "plane":
            pts = _plane_points_from_aggregate(path.read_text())
            fit = fit_decay_plane(pts)
            (dest / f"{stem}_plane.json").write_text(plane_to_json(fit))
            print(plane_to_json(fit), end="")
        else:
            raise ConfigError(f"unknown analyze mode {mode!r}")
    return 0


def _plane_points_from_aggregate(text: str) -> list[tuple[float, float, float]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    try:
        ix, iy, iv = (header.index(c) for c in ("x_mhz", "y_mhz", "inv_tau"))
        istat = header.index("status")
    except ValueError as exc:
        raise ConfigError(f"aggregate file lacks required columns: {exc}") from exc
    pts = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if cells[istat] != "ok" or not cells[iv]:
            continue
        pts.append((float(cells[ix]), float(cells[iy]), float(cells[iv])))
    if len(pts) < 3:
        raise ConfigError("aggregate contains fewer than 3 fitted points")
    return pts


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scarsim",
        description="Quench dynamics and driven stabilization in blockaded atom arrays",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, jobs=False):
        sp.add_argument("--config", help="path to a JSON configuration")
        sp.add_argument("--preset", help="name of a shipping preset")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--list-presets", action="store_true",
                        help="list preset names and exit")
        if jobs:
            sp.add_argument("--jobs", type=int, default=None,
                            help="worker processes for sweep groups (>= 1; "
                                 "default: the core count)")

    add_common(sub.add_parser("lattice", help="geometry report and serialization"))
    add_common(sub.add_parser("quench", help="run a single quench"))
    add_common(sub.add_parser("sweep", help="run a parameter sweep"), jobs=True)
    add_common(sub.add_parser("floquet", help="pulsed-drive revival/subharmonic maps"))

    an = sub.add_parser("analyze", help="re-analyze stored results")
    an.add_argument("paths", nargs="+", help="stored quench.csv / aggregate.csv files")
    an.add_argument("--mode", required=True, choices=("fit", "spectrum", "plane"))
    an.add_argument("--out", default=None, help="output directory (default: alongside)")
    an.add_argument("--omegam-rad", type=float, default=None,
                    help="drive frequency in rad/us for weight columns")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args.paths, args.mode,
                               Path(args.out) if args.out else None,
                               args.omegam_rad)
        if args.list_presets:
            for name in preset_names():
                note = NOTES.get(name, "")
                print(f"{name}\t{note}")
            return 0
        doc = _load_document(args)
        # looked up in the module globals at call time, so a wrapped cmd_* runs
        extra = (args.jobs,) if args.command == "sweep" else ()
        return _run(globals()[f"cmd_{args.command}"], doc, Path(args.out), *extra)
    except (ConfigError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
