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
points per group; every other point is a group of one.  Every group, like
a quench, runs as one ``evolve.run_block`` call, a failed group of several
reruns its points as groups of one, and ``--jobs N`` (N >= 1) spreads the
groups over worker processes.  Workers only propagate; the calling
process analyses each group's points as the group comes back.  Neither the
grouping nor the output bytes depend on N.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import itertools
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
    Spectrum,
    fit_damped_cosine,
    fit_decay_plane,
    fit_to_json,
    imbalance,
    microstate_matrix,
    microstate_matrix_to_csv,
    plane_to_json,
    spectral_grid,
    spectral_summary,
    spectrum_to_csv,
    subharmonic_rigidity,
    weight_at,
)
from .config import (
    ExperimentConfig,
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
    build_system,
    quench_from_csv,
    quench_to_csv,
    run_block,
    substep_count,
)
from .floquet import pulsed_subharmonic_map, revival_fidelity_map
from .hamiltonian import DriveProfile, DriveShape
from .hilbert import reflection_grouping
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
from .tables import csv_text, json_text, number_cell, read_csv

_REF_INV_TAU0 = 0.4


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

    When parsing or the command raises, only ``manifest.json`` is written,
    with status ``error`` and the error, and the exception propagates to
    :func:`main`, which picks the exit code."""
    t0 = time.perf_counter()

    def write_manifest(outputs, status, error=None) -> None:
        manifest = {"config_hash": config_hash(doc), "toolkit_version": __version__,
                    "outputs": sorted(outputs), "wall_clock_s": time.perf_counter() - t0,
                    "status": status}
        if error is not None:
            manifest["error"] = error
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(json_text(manifest))

    try:
        cfg = parse_config(doc)
        files, status, message = command(cfg, *args)
    except Exception as exc:
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
    report = json_text(_geometry_report(cfg))
    files = {"lattice.json": lattice_to_json(cfg.lattice), "geometry.json": report}
    return files, "complete", report.rstrip()


def _analyze_quench(result: QuenchResult,
                    drive: DriveProfile) -> tuple[dict, Spectrum | None]:
    """Fit and spectral summary; returns (analysis dict, spectrum or None)."""
    analysis: dict = {}
    series = imbalance(result)
    try:
        fit = fit_damped_cosine(series, result.times)
        analysis["fit"] = json.loads(fit_to_json(fit))
    except ScarsimError as exc:
        analysis["fit_error"] = str(exc)
    spec = None
    if drive.shape in (DriveShape.COSINE, DriveShape.SQUARE):
        spec, summary = spectral_summary(series, result.times, drive.omegam)
        analysis.update(summary, omegam_rad=drive.omegam)
        if drive.omegam <= spec.omegas[-1]:
            analysis["harmonic_weight"] = weight_at(spec, drive.omegam)
    elif len(result.times) >= 20:
        spec, summary = spectral_summary(series, result.times)
        analysis.update(summary)
    return analysis, spec


def _run_quenches(cfgs: list[ExperimentConfig], record_probs: bool):
    """The basis and one quench result per config, for configured quenches
    that differ only in their drive (see :func:`_sweep_groups`).

    The basis and the Hamiltonian are built once, and every drive becomes
    one column of :func:`scarsim.evolve.run_block`.
    """
    cfg = cfgs[0]
    if cfg.evolution is None:
        raise ConfigError("evolution: section is required for quench runs")
    if cfg.drive is None:
        raise ConfigError("drive: section is required for quench runs")
    basis, parts, psi0 = build_system(cfg.lattice, cfg.model, cfg.physical,
                                      cfg.initial_state)
    results = run_block(cfg.lattice, basis, parts, [c.drive for c in cfgs], psi0,
                        cfg.evolution, entropy_cuts=cfg.observables.entropy_cuts,
                        record_probs=record_probs)
    return basis, results


def cmd_quench(cfg: ExperimentConfig) -> tuple[dict, str, str]:
    basis, (result,) = _run_quenches([cfg], cfg.observables.microstates)
    analysis, spec = _analyze_quench(result, cfg.drive)
    files = {"quench.csv": quench_to_csv(result),
             "lattice.json": lattice_to_json(cfg.lattice),
             "analysis.json": json_text(analysis)}
    if spec is not None:
        files["spectrum.csv"] = spectrum_to_csv(spec)
    if cfg.observables.microstates:
        ordering = reflection_grouping(basis, cfg.lattice)
        matrix = microstate_matrix(result, ordering)
        files["microstates.csv"] = microstate_matrix_to_csv(result.times, matrix)
    return files, "complete", \
        f"quench complete: {len(result.times)} snapshots, dim {basis.dim}"


def _sweep_points(cfg: ExperimentConfig) -> list[dict]:
    """Grid points in deterministic order (first axis outer, second inner)."""
    axes = cfg.sweep
    if not axes:
        raise ConfigError("sweep: at least one axis is required")
    names = [ax.parameter for ax in axes]
    return [dict(zip(names, values))
            for values in itertools.product(*(ax.grid for ax in axes))]


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


def _sweep_row(cfg: ExperimentConfig, dim: int, result: QuenchResult) -> dict:
    """The aggregate row of one propagated sweep point: its fit, spectral
    weights and ``quench.csv``, computed in the calling process.

    The propagation succeeded, so the status is ``ok`` even when the fit
    is refused or does not converge; then ``error`` says why the fit
    columns are blank.
    """
    analysis, _ = _analyze_quench(result, cfg.drive)
    x, y = decay_predictors(cfg.lattice, cfg.physical)
    row: dict = {"status": "ok", "error": "", "dim": dim, "x_mhz": x, "y_mhz": y}
    fit = analysis.get("fit")
    if fit is not None and fit.get("converged"):
        row["omega_tilde"] = fit["omega_tilde"]
        row["tau"] = fit["tau"]
        row["inv_tau"] = 1.0 / fit["tau"]
    else:
        row["error"] = "fit: " + analysis.get("fit_error", "did not converge")
    row["sub_weight"] = analysis.get("subharmonic_weight")
    row["harm_weight"] = analysis.get("harmonic_weight")
    row["fourth_weight"] = analysis.get("fourth_subharmonic_weight")
    row["quench_csv"] = quench_to_csv(result)
    return row


def _sweep_worker(cfgs: list[ExperimentConfig]) -> list:
    """Propagate the parsed points of one sweep group as one block (see
    :func:`_run_quenches`); one (basis dimension, quench result) per point,
    or its error row.  No row reads microstate probabilities, so none are
    recorded.

    Never raises, so one bad point cannot abort the sweep: a group of one
    that raises gets its error row (see :func:`_error_row`), and a larger
    group that raises reruns each of its points as a group of one.
    """
    try:
        basis, results = _run_quenches(cfgs, record_probs=False)
        return [(basis.dim, r) for r in results]
    except Exception as exc:
        if len(cfgs) == 1:
            return [_error_row(exc)]
        if not isinstance(exc, ScarsimError):
            traceback.print_exc()
        print(f"sweep: a group of {len(cfgs)} points failed "
              f"({type(exc).__name__}: {exc}); running its points one by one",
              file=sys.stderr)
    return [out for cfg in cfgs for out in _sweep_worker([cfg])]


# Sweep points share a block only on lattices of at most this many sites
# (dim <= 377 on a chain).  There the per-step overhead, not the sparse
# products, dominates a column's step, and a 6-column block step costs
# 0.33 (dim 89) to 0.61-0.66 (dim 377) of six single-state steps; at dim
# 4181 it costs 1.17-1.25 (all measured on one core of a 2-core x86 VM,
# with one series per step as a record interval passes it), so larger
# lattices keep one point per task and their points spread over the workers.
_BLOCK_MAX_SITES = 12

# A group wider than this is split into near-equal blocks, so that a long
# drive axis still spreads over the workers.
_BLOCK_WIDTH = 6


def _sweep_groups(cfgs: list) -> list[list[int]]:
    """Point indices grouped for :func:`_sweep_worker`, groups in order of
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


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the platform
    has one), the default worker count of a sweep."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    def analyse(group: list[int], outputs: list) -> None:
        # a point whose analysis raises gets its error row; nothing reruns
        for k, out in zip(group, outputs):
            try:
                rows[k] = out if isinstance(out, dict) else _sweep_row(cfgs[k], *out)
            except Exception as exc:
                rows[k] = _error_row(exc)

    if jobs == 1:
        for group in groups:
            analyse(group, _sweep_worker([cfgs[k] for k in group]))
    else:
        # no more workers than groups: each group is one task, analysed
        # here as it comes back while the workers propagate the rest
        workers = min(jobs or _usable_cpus(), max(len(groups), 1))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            tasks = {pool.submit(_sweep_worker, [cfgs[k] for k in group]): group
                     for group in groups}
            for task in concurrent.futures.as_completed(tasks):
                analyse(tasks[task], task.result())

    files: dict = {}
    axis_names = [ax.parameter for ax in cfg.sweep]
    header = ["point"] + axis_names + ["status", "error"] + list(_AGG_COLUMNS)
    table = []
    for k, (pt, row) in enumerate(zip(points, rows)):
        quench_csv = row.pop("quench_csv", None)
        if quench_csv is not None:
            files[f"point_{k:03d}/quench.csv"] = quench_csv
        table.append([k] + [pt[name] for name in axis_names]
                     + [row["status"], row.get("error", "")]
                     + [row.get(col) for col in _AGG_COLUMNS])
    files["aggregate.csv"] = csv_text(header, table)

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
    table = []
    for key, ws in groups.items():
        if len(ws) != len(RIGIDITY_GRID):
            return None
        table.append([key, subharmonic_rigidity(freq_axis.grid, ws)])
    return csv_text([name, "rigidity"], table)


def cmd_floquet(cfg: ExperimentConfig) -> tuple[dict, str, str]:
    if cfg.floquet is None:
        raise ConfigError("floquet: section is required for the floquet command")
    fq, lat = cfg.floquet, cfg.lattice
    fn = revival_fidelity_map if fq.map == "revival" else pulsed_subharmonic_map
    values = fn(lat, fq.epsilons, fq.taus, n_periods=fq.n_periods,
                initial_state=cfg.initial_state)
    table = [[eps, tau, v] for eps, row in zip(fq.epsilons, values.tolist())
             for tau, v in zip(fq.taus, row)]
    meta = {"l": lat.n_sites, "boundary": "periodic" if lat.periodic else "open",
            "map": fq.map, "n_periods": fq.n_periods,
            "initial_state": cfg.initial_state,
            "epsilons": list(fq.epsilons), "taus_omega": list(fq.taus)}
    files = {"map.csv": csv_text(["epsilon", "tau_omega", "value"], table),
             "map_meta.json": json_text(meta)}
    return files, "complete", \
        f"floquet map complete: {values.shape[0]}x{values.shape[1]} points"


def cmd_analyze(paths: list[str], mode: str, out: Path | None,
                omegam_rad: float | None) -> int:
    """Re-analyze stored files.  Every path is analysed before any output is
    written, an error names the path it came from, and two paths whose
    outputs would land on the same files are refused."""
    if mode not in ("fit", "spectrum", "plane"):
        raise ConfigError(f"unknown analyze mode {mode!r}")
    if omegam_rad is not None and not 0 < omegam_rad < np.inf:
        raise ConfigError(f"--omegam-rad {omegam_rad:g}: must be a positive finite number")
    owners: dict = {}
    done = []
    for raw_path in paths:
        path = Path(raw_path)
        if not path.exists():
            raise ConfigError(f"input file not found: {path}")
        dest = out if out is not None else path.parent
        other = owners.setdefault((dest, path.stem), path)
        if other != path:
            raise ConfigError(f"{other} and {path} would write the same "
                              f"{path.stem}_{mode} outputs in {dest}")
        try:
            done.append((dest, *_analyze_file(path, mode, omegam_rad)))
        except ScarsimError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    for dest, files, summary in done:
        dest.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (dest / name).write_text(text)
        print(summary, end="")
    return 0


def _analyze_file(path: Path, mode: str, omegam_rad: float | None) -> tuple[dict, str]:
    """The files (name -> text) that ``analyze`` writes for one stored file,
    and the summary it prints."""
    stem = path.stem
    if mode == "plane":
        text = plane_to_json(fit_decay_plane(
            _parse_stored(path, _plane_points_from_aggregate)))
        return {f"{stem}_plane.json": text}, text
    result = _parse_stored(path, quench_from_csv)
    if mode == "fit":
        text = fit_to_json(fit_damped_cosine(imbalance(result), result.times))
        return {f"{stem}_fit.json": text}, text
    if omegam_rad is not None:
        # the weights are read at omegam / 2, which must lie on the grid
        top = float(spectral_grid(result.times)[-1])
        if omegam_rad / 2 > top:
            raise ConfigError(
                f"--omegam-rad {omegam_rad:g}: omegam / 2 = {omegam_rad / 2:g} rad/us "
                f"lies above the spectral grid, which ends at {top:.6g} rad/us")
    spec, summary = spectral_summary(imbalance(result), result.times, omegam_rad)
    text = json_text(summary)
    return {f"{stem}_spectrum.csv": spectrum_to_csv(spec),
            f"{stem}_analysis.json": text}, text


def _parse_stored(path: Path, parse):
    """``parse(text)`` of a stored file; a malformed or undecodable file is a ConfigError."""
    try:
        return parse(path.read_text())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _plane_points_from_aggregate(text: str) -> list[tuple[float, float, float]]:
    header, rows = read_csv(text, "aggregate", ("status", "x_mhz", "y_mhz", "inv_tau"))
    istat, iv = header.index("status"), header.index("inv_tau")
    cols = [(header.index(c), c) for c in ("x_mhz", "y_mhz", "inv_tau")]
    pts = [tuple(number_cell(r[k], "aggregate", c) for k, c in cols)
           for r in rows if r[istat] == "ok" and r[iv]]
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
                                 "default: the CPUs this process may run on)")

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


def entry() -> int:
    """Entry point of ``python -m scarsim.cli`` and the ``scarsim`` script.

    Freezes what the imports made first, so that neither later collections
    nor the one at interpreter exit walk it, and freezes again after the
    run, so that the exit collection does not walk what the run made either
    (such as the scipy modules and CSR kernel that a stepping command loads
    at its first product); ``main`` leaves the collector alone for
    in-process callers."""
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
