"""Tests of the benchmark itself: output checks, span arithmetic, inputs.

    python3 -m pytest perfbench -q

The output checks are exercised on small versions of each workload (a
2-point 0.5 us sweep, a 10-site ring, an 8-site map), run in-process.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracer
import workloads
from scarsim.cli import main as scarsim_main
from scarsim.config import parse_config


def _run_cli(tmp_path: Path, command: str, doc: dict) -> Path:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "sweep":
        argv += ["--jobs", "1"]
    assert scarsim_main(argv) == 0
    return out


def _corrupt(path: Path, column: str, row: int, delta: float) -> None:
    header, rows = checks.read_csv(path)
    k = header.index(column)
    rows[row][k] = repr(float(rows[row][k]) + delta)
    path.write_text("\r\n".join(",".join(r) for r in [header] + rows) + "\r\n")


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    doc = workloads.generate("driven-chain-sweep", 7)
    doc["sweep"][0]["grid"] = doc["sweep"][0]["grid"][3:5]
    doc["evolution"]["total_time"] = checks.CHAIN_ORACLE_TIME
    return doc, _run_cli(tmp_path_factory.mktemp("sweep"), "sweep", doc)


@pytest.fixture(scope="module")
def small_ring(tmp_path_factory):
    doc = workloads.generate("pxp-ring-entropy", 7)
    doc["lattice"]["extent"] = 10
    return doc, _run_cli(tmp_path_factory.mktemp("ring"), "quench", doc)


@pytest.fixture(scope="module")
def small_map(tmp_path_factory):
    doc = workloads.generate("pulsed-subharmonic-map", 7)
    doc["floquet"].update(l=8, n_periods=60)
    doc["floquet"]["taus_over_2pi"] = doc["floquet"]["taus_over_2pi"][:3]
    return doc, _run_cli(tmp_path_factory.mktemp("map"), "floquet", doc)


def _copy_outputs(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_sweep_check_accepts_and_rejects_corrupt_quench_csv(small_sweep, tmp_path):
    doc, out = small_sweep
    good = checks.check_chain_sweep(doc, out, seed=1)
    assert good.ok, good.errors
    assert good.oracle_err <= checks.TOL
    bad = _copy_outputs(out, tmp_path / "bad")
    for k in range(2):
        _corrupt(bad / f"point_{k:03d}" / "quench.csv", "imbalance", 40, 1e-6)
    res = checks.check_chain_sweep(doc, bad, seed=1)
    assert not res.ok and res.oracle_err > checks.TOL


def test_sweep_check_rejects_failed_point(small_sweep, tmp_path):
    doc, out = small_sweep
    bad = _copy_outputs(out, tmp_path / "bad")
    agg = bad / "aggregate.csv"
    agg.write_text(agg.read_text().replace(",ok,", ",error,", 1))
    assert not checks.check_chain_sweep(doc, bad, seed=1).ok


@pytest.mark.parametrize("column", ["S_cut0", "n_3", "imbalance"])
def test_ring_check_accepts_and_rejects_corrupt_quench_csv(small_ring, tmp_path, column):
    doc, out = small_ring
    good = checks.check_ring_entropy(doc, out, seed=1)
    assert good.ok, good.errors
    assert good.oracle_err <= checks.TOL
    bad = _copy_outputs(out, tmp_path / "bad")
    _corrupt(bad / "quench.csv", column, 1, 1e-7)
    assert not checks.check_ring_entropy(doc, bad, seed=1).ok


def test_map_check_accepts_and_rejects_corrupt_map_csv(small_map, tmp_path):
    doc, out = small_map
    good = checks.check_map(doc, out, seed=1)
    assert good.ok, good.errors
    assert good.oracle_err <= checks.TOL
    bad = _copy_outputs(out, tmp_path / "bad")
    n_rows = len(doc["floquet"]["epsilons"]) * len(doc["floquet"]["taus_over_2pi"])
    for row in range(n_rows):
        _corrupt(bad / "map.csv", "value", row, 1e-6)
    res = checks.check_map(doc, bad, seed=1)
    assert not res.ok and res.oracle_err > checks.TOL


def test_outputs_compare_byte_for_byte(small_ring, tmp_path):
    _, out = small_ring
    copy_dir = _copy_outputs(out, tmp_path / "copy")
    (copy_dir / "manifest.json").write_text("{}")
    assert checks.differing_files(out, copy_dir) == []
    _corrupt(copy_dir / "quench.csv", "nA", 0, 1e-15)
    assert checks.differing_files(out, copy_dir) == ["quench.csv"]


# -- span arithmetic -----------------------------------------------------------

SPANS = [
    ["cli.main", 0.0, 10.0, -1],                        # 0
    ["evolve.propagate_step", 1.0, 4.0, 0],             # 1
    ["hamiltonian.HamiltonianParts.spectral_bound", 1.5, 2.5, 1],
    ["hamiltonian.HamiltonianParts.offdiagonal", 2.0, 3.0, 1],   # overlaps 2
    ["evolve.propagate_step", 5.0, 6.0, 0],             # 4, no children
    ["analysis.fourier_spectrum", 7.0, 12.0, 0],        # runs past its parent
]


def test_union_length_merges_overlaps_and_gaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.75)]) == 3.0


def test_self_time_subtracts_covered_child_time():
    selfs = tracer.self_times(SPANS)
    # children of the root cover [1,4], [5,6] and [7,10] once clipped
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 3.0)
    # overlapping children [1.5,2.5] and [2,3] cover 1.5 of [1,4]
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_tree():
    m = tracer.layer_metrics(SPANS, {"hilbert.dim": 89})
    assert m["evolve.steps"] == 2
    assert m["evolve.step_self_s"] == pytest.approx(1.5 + 1.0)
    assert m["hamiltonian.spectral_bound_calls"] == 1
    assert m["hamiltonian.spectral_bound_s"] == pytest.approx(1.0)
    assert m["hamiltonian.offdiagonal_calls"] == 1
    assert m["analysis.spectrum_s"] == pytest.approx(5.0)
    assert m["hilbert.dim"] == 89
    assert m["floquet.periods"] == 0


def test_recorder_nests_spans_and_counts_at_boundaries():
    rec = tracer.Recorder()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = rec.wrap("m.inner", inner)
    assert rec.wrap("m.outer", outer)(1) == 4
    (n0, s0, e0, p0), (n1, s1, e1, p1) = rec.spans
    assert (n0, p0, n1, p1) == ("m.outer", -1, "m.inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_traced_run_wraps_callers_lookups(tmp_path):
    here = Path(__file__).resolve().parent
    doc = workloads.generate("pxp-ring-entropy", 7)
    doc["lattice"]["extent"] = 10
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(here.parent / "src"))
    subprocess.run([sys.executable, str(here / "tracer.py"), str(spans_path), "quench",
                    "--config", str(cfg), "--out", str(tmp_path / "out")],
                   env=env, check=True, capture_output=True, timeout=120)
    data = json.loads(spans_path.read_text())
    names = [s[0] for s in data["spans"]]
    by_index = dict(enumerate(data["spans"]))
    # run_quench looks these up in scarsim.evolve's globals
    step = names.index("evolve.propagate_step")
    assert by_index[by_index[step][3]][0] == "evolve.run_quench"
    assert "evolve.entanglement_entropy" in names
    assert "lattice.build_lattice" in names   # reached through scarsim.config
    m = tracer.layer_metrics(data["spans"], data["counts"])
    assert m["evolve.steps"] == 15            # 5 steps x 3 substeps
    assert m["evolve.snapshots"] == 2
    assert m["hilbert.dim"] == 123
    assert m["hamiltonian.spectral_bound_calls"] == 15


# -- seeded inputs ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_valid(name):
    a, b = workloads.generate(name, 11), workloads.generate(name, 11)
    assert a == b
    assert workloads.generate(name, 12) != a
    parse_config(copy.deepcopy(a))   # the program accepts it


def test_sweep_seeds_keep_the_substep_counts():
    want = [workloads.substeps(g) for g in workloads.SWEEP_GRID]
    for seed in range(50):
        grid = workloads.generate("driven-chain-sweep", seed)["sweep"][0]["grid"]
        assert [workloads.substeps(r) for r in grid] == want
        assert grid == sorted(grid)


@pytest.mark.parametrize("total_time,stride", [(0.011, 1), (0.0125, 5), (0.012, 5)])
def test_time_grid_rejects_truncated_runs(total_time, stride):
    with pytest.raises(ValueError):
        workloads.check_time_grid({"total_time": total_time, "dt": 0.002,
                                   "record_stride": stride})


def test_time_grid_accepts_whole_multiples():
    assert workloads.check_time_grid({"total_time": 0.01, "dt": 0.002,
                                      "record_stride": 5}) == 5


def test_validate_rejects_grid_outside_preset_range():
    doc = workloads.generate("pulsed-subharmonic-map", 3)
    doc["floquet"]["taus_over_2pi"][-1] = 1.2
    with pytest.raises(ValueError):
        workloads.validate("pulsed-subharmonic-map", doc)


def test_benchmark_json_matches_the_emitted_metrics():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert set(tracer.layer_metrics([], {})) <= {m["name"] for m in spec["per_layer"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
