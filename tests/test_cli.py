import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scarsim
from scarsim.cli import main
from scarsim.config import (
    config_hash,
    normalize_document,
    parse_config,
    serialize_config,
    set_by_path,
)
from scarsim.errors import ConfigError, NumericalError
from scarsim.presets import PRESETS, get_preset, preset_names


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_QUENCH = {
    "lattice": {"kind": "chain", "extent": 7},
    "physical": {"omega_mhz": 4.2, "v0_mhz": 51.0},
    "model": "rydberg",
    "drive": {"shape": "cosine", "delta0_over_omega": 0.55,
              "deltam_over_omega": 0.55, "omegam_over_omega": 1.2},
    "initial_state": "AF1",
    "evolution": {"total_time": 1.0, "dt": 0.002, "record_stride": 2},
    "observables": {"microstates": True, "entropy_cuts": ["half"]},
}


class TestConfigParsing:
    def test_round_trip_identity(self):
        cfg = parse_config(SMALL_QUENCH)
        again = parse_config(json.loads(serialize_config(cfg)))
        assert again.raw == cfg.raw
        assert config_hash(again.raw) == config_hash(SMALL_QUENCH)

    def test_hash_ignores_key_order(self):
        reordered = json.loads(json.dumps(SMALL_QUENCH))
        reordered["model"] = reordered.pop("model")
        assert config_hash(reordered) == config_hash(SMALL_QUENCH)

    def test_hash_is_hashlib_sha256(self):
        """The built-in SHA-256 gives hashlib's digests."""
        import hashlib
        docs = [SMALL_QUENCH, {}, {"a": [1, 2.5, None, True]},
                {"lattice": {"kind": "chain", "extent": 9}, "note": "\u00e9\u4e2d"}]
        for doc in docs:
            canon = json.dumps(normalize_document(doc), sort_keys=True,
                               separators=(",", ":"))
            assert config_hash(doc) == hashlib.sha256(canon.encode()).hexdigest()

    def test_unit_variants(self):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["drive"] = {"shape": "constant", "delta0_mhz": 2.0}
        cfg = parse_config(doc)
        assert cfg.drive.delta0 == pytest.approx(math.tau * 2.0)
        doc["drive"] = {"shape": "constant", "delta0_over_v0": 0.017}
        cfg = parse_config(doc)
        assert cfg.drive.delta0 == pytest.approx(0.017 * cfg.physical.v0)
        doc["drive"] = {"shape": "constant", "delta0": "opt"}
        cfg = parse_config(doc)
        from scarsim.lattice import optimal_detuning
        assert cfg.drive.delta0 == pytest.approx(
            optimal_detuning(cfg.lattice, cfg.physical))

    def test_rejections(self):
        for model in ("ising", "sw2"):
            bad = json.loads(json.dumps(SMALL_QUENCH))
            bad["model"] = model
            with pytest.raises(ConfigError, match="model"):
                parse_config(bad)
        bad = json.loads(json.dumps(SMALL_QUENCH))
        bad["drive"] = {"shape": "pulsed", "theta": 3.14, "tau_omega": 1.0}
        with pytest.raises(ConfigError, match="unknown shape 'pulsed'"):
            parse_config(bad)
        bad = json.loads(json.dumps(SMALL_QUENCH))
        bad["lattice"]["kind"] = "square"
        with pytest.raises(ConfigError, match="microstates"):
            parse_config(bad)
        bad = json.loads(json.dumps(SMALL_QUENCH))
        bad["drive"] = {"shape": "cosine", "delta0_over_omega": 0.5,
                        "delta0_mhz": 1.0, "deltam_over_omega": 0.5,
                        "omegam_over_omega": 1.2}
        with pytest.raises(ConfigError, match="more than one unit"):
            parse_config(bad)
        bad = json.loads(json.dumps(SMALL_QUENCH))
        bad["typo_section"] = {}
        with pytest.raises(ConfigError, match="typo_section"):
            parse_config(bad)


class TestSectionChecks:
    """Malformed or misspelled section contents exit 2 and name the field."""

    @pytest.mark.parametrize("command,section,value,field", [
        ("quench", "observables", [], "observables"),
        ("quench", "observables", {"microstates": "false"}, "observables.microstates"),
        ("quench", "observables", {"entropy_cuts": "half"}, "observables.entropy_cuts"),
        ("sweep", "sweep", 5, "sweep"),
        ("sweep", "sweep", [{"parameter": "drive.omegam_over_omega", "grid": [1.0],
                             "gird": [2.0]}], "sweep[0].gird"),
        ("lattice", "drive", {"shape": "constant", "delta0_mhz": 1.0,
                              "deltam_over_omega": "x"}, "drive.deltam_over_omega"),
        ("lattice", "drive", {"shape": "constant", "delta0_mhz": 1.0, "phase": 0.0},
         "drive.phase"),
        # JSON booleans are not numbers
        ("lattice", "drive", {"shape": "constant", "delta0_mhz": True},
         "drive.delta0_mhz"),
        ("quench", "observables", {"entropy_cuts": [[0, True]]},
         "observables.entropy_cuts[0]"),
        ("quench", "cutoff", True, "cutoff"),
        # JSON NaN and Infinity are not numbers either
        ("quench", "drive", {**SMALL_QUENCH["drive"], "deltam_over_omega": float("nan")},
         "drive.deltam_over_omega"),
        # two axes on one parameter would overwrite each other's values
        ("sweep", "sweep", [
            {"parameter": "drive.delta0_over_omega", "grid": [0.1, 0.2]},
            {"parameter": "drive.delta0_over_omega", "grid": [0.5, 0.6, 0.7]}],
         "sweep[1].parameter"),
        # the interaction range is not configurable: every pair in the patch counts
        ("quench", "cutoff", 2.5, "config.cutoff"),
        # cuts are checked against the 7-site lattice when the document is parsed
        ("quench", "observables", {"entropy_cuts": [[30]]},
         "observables.entropy_cuts[0]"),
        ("quench", "observables", {"entropy_cuts": ["half", [-1, 2]]},
         "observables.entropy_cuts[1]"),
        ("quench", "observables", {"entropy_cuts": [[6, 5, 4, 3, 2, 1, 0, 3]]},
         "observables.entropy_cuts[0]"),
    ])
    def test_malformed_section_exits_2(self, tmp_path, capsys, command, section,
                                       value, field):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc[section] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        # no data file, only the manifest of the failed run
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("ConfigError: ")
        assert f"{field}:" in manifest["error"]

    def test_half_cut_of_one_site_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["lattice"]["extent"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["quench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "observables.entropy_cuts[0]: " in capsys.readouterr().err

    def test_sweep_with_a_bad_cut_builds_nothing(self, tmp_path, capsys, monkeypatch):
        import scarsim.cli as cli

        built = []
        monkeypatch.setattr(cli, "build_system", lambda *a, **k: built.append(a))
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {"entropy_cuts": [[30]]}
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [1.0, 1.2]}]
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--jobs", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "observables.entropy_cuts[0]: sites [30] lie outside 0..6" \
            in capsys.readouterr().err
        assert built == []

    def test_drive_without_physical_exits_2(self, tmp_path, capsys):
        doc = {"lattice": {"kind": "chain", "extent": 7},
               "drive": {"shape": "constant", "delta0_over_omega": 0.5}}
        cfg = write_config(tmp_path, doc)
        for command in ("lattice", "quench"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "physical:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["evolution", "drive"])
    def test_quench_without_section_exits_2(self, tmp_path, capsys, section):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        del doc[section]
        out = tmp_path / "o"
        assert main(["quench", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert f"{section}: section is required" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_sweep_without_drive_gives_error_rows(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        del doc["drive"]
        doc["observables"] = {}
        doc["sweep"] = [{"parameter": "physical.v0_mhz", "grid": [45.0, 51.0]}]
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert [ln.split(",")[2:4] for ln in lines[1:]] == \
            [["error", "ConfigError: drive: section is required for quench runs"]] * 2

    def test_sweep_over_unknown_field_gives_error_rows(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        doc["sweep"] = [{"parameter": "evolution.record_strid", "grid": [1, 2]}]
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["error", "error"]
        assert all("evolution.record_strid: unknown field" in ln for ln in lines[1:])


class TestPresets:
    def test_all_presets_parse(self):
        for name in preset_names():
            parse_config(get_preset(name))

    def test_records_resolve_the_subharmonic(self):
        # every driven preset point records at least 14 times faster than
        # the spectrum needs to reach omegam / 2
        for name in preset_names():
            doc = get_preset(name)
            axes = doc.get("sweep", [])
            for values in itertools.product(*(ax["grid"] for ax in axes)):
                point_doc = doc
                for ax, value in zip(axes, values):
                    point_doc = set_by_path(point_doc, ax["parameter"], value)
                cfg = parse_config(point_doc)
                if cfg.drive is None or cfg.drive.omegam == 0 or cfg.evolution is None:
                    continue
                ev = cfg.evolution
                nyquist = math.pi / (ev.dt * ev.record_stride)
                assert nyquist >= 14 * cfg.drive.omegam / 2, (name, values)

    def test_table_parameters_exact(self):
        d = PRESETS["fig3b-drive"]
        assert d["physical"] == {"omega_mhz": 4.2, "v0_mhz": 120.0}
        assert d["drive"]["omegam_over_omega"] == 1.24
        assert d["drive"]["delta0_over_omega"] == 0.85
        assert d["drive"]["deltam_over_omega"] == 0.98
        d = PRESETS["fig3d-drive"]
        assert d["physical"]["v0_mhz"] == 51.0
        assert d["drive"]["omegam_over_omega"] == 1.15
        assert d["drive"]["delta0_over_omega"] == 0.55
        d = PRESETS["figS8-pxp-drive"]
        assert d["model"] == "pxp"
        assert d["drive"] == {"shape": "cosine", "delta0_over_omega": 0.5,
                              "deltam_over_omega": 1.0, "omegam_over_omega": 1.33}
        assert PRESETS["figS9a"]["floquet"]["l"] == 14
        assert PRESETS["figS9b"]["floquet"]["n_periods"] == 400
        grid = PRESETS["fig4d-chain"]["sweep"][1]["grid"]
        assert grid == [0.75, 0.85, 0.95, 1.05, 1.15, 1.25, 1.35, 1.45, 1.55,
                        1.65, 1.75]
        assert PRESETS["fig4d-chain"]["sweep"][0]["grid"] == [3, 5, 7, 9, 11,
                                                              13, 15, 17]


class TestLatticeCommand:
    def test_chain_report_values(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["lattice", "--preset", "fig2-chain", "--out", str(out)]) == 0
        report = json.loads((out / "geometry.json").read_text())
        assert abs(report["delta_q_opt_over_v0"] - 0.0173) < 2e-4
        assert report["predicted_tau_us"] == pytest.approx(0.9, rel=0.15)

    def test_square_and_honeycomb_reports(self, tmp_path):
        out = tmp_path / "sq"
        assert main(["lattice", "--preset", "fig2-square", "--out", str(out)]) == 0
        report = json.loads((out / "geometry.json").read_text())
        assert report["n_sites"] == 49
        assert report["delta_q_opt_over_v0"] == pytest.approx(0.33, rel=0.03)
        out = tmp_path / "hc"
        assert main(["lattice", "--preset", "fig1-honeycomb", "--out", str(out)]) == 0
        report = json.loads((out / "geometry.json").read_text())
        assert report["delta_q_opt_over_v0"] == pytest.approx(0.15, rel=0.03)

    @pytest.mark.parametrize("lattice,field", [
        ({"kind": "chain", "extent": 8, "periodic": "false"}, "lattice.periodic"),
        ({"kind": "chain", "extent": 8, "periodic": 0}, "lattice.periodic"),
        ({"kind": "zigzag_chain", "extent": 9, "zigzag_nnn_ratio": "x"},
         "lattice.zigzag_nnn_ratio"),
        ({"kind": "chain", "extent": 8, "perodic": True}, "lattice.perodic"),
        ({"kind": "chain", "extent": True}, "lattice.extent"),
        ({"kind": "zigzag_chain", "extent": 9, "zigzag_nnn_ratio": True},
         "lattice.zigzag_nnn_ratio"),
        # chains and patches count sites or cells, so a fractional extent
        # would be truncated
        ({"kind": "chain", "extent": 9.7}, "lattice.extent"),
        ({"kind": "square", "extent": 3.9}, "lattice.extent"),
        # refusals of build_lattice name the field too
        ({"kind": "triangle", "extent": 4}, "lattice.kind:"),
        ({"kind": "zigzag_chain", "extent": 9, "zigzag_nnn_ratio": 2.5},
         "lattice.zigzag_nnn_ratio:"),
        ({"kind": "square", "extent": 4, "periodic": True}, "lattice.periodic:"),
        ({"kind": "chain", "extent": 2, "periodic": True}, "lattice.extent:"),
    ])
    def test_malformed_lattice_exits_2(self, tmp_path, capsys, lattice, field):
        cfg = write_config(tmp_path, {"lattice": lattice})
        assert main(["lattice", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o" / "lattice.json").exists()

    def test_list_presets(self, capsys, tmp_path):
        assert main(["lattice", "--list-presets"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(preset_names())


class TestQuenchCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUENCH)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["quench", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["quench", "--config", cfg, "--out", str(out2)]) == 0
        names = ["quench.csv", "spectrum.csv", "analysis.json", "microstates.csv",
                 "lattice.json", "resolved_config.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["config_hash"] == config_hash(SMALL_QUENCH)
        assert sorted(manifest["outputs"]) == sorted(names)
        analysis = json.loads((out1 / "analysis.json").read_text())
        assert "subharmonic_weight" in analysis
        header = (out1 / "quench.csv").read_text().splitlines()[0].split(",")
        assert header[:4] == ["t", "nA", "nB", "imbalance"]
        assert "S_cut0" in header

    def test_sw2_and_square_drive_models(self, tmp_path, capsys):
        """The square drive runs.  The second-order ``sw2`` model is no
        longer built: a document that asks for it exits 2 by field name,
        and only the manifest is written."""
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["model"] = "sw2"
        out = tmp_path / "sw2"
        assert main(["quench", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "model:" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("ConfigError: model:")
        doc["model"] = "rydberg"
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.4
        doc["drive"]["shape"] = "square"
        out = tmp_path / "sq"
        assert main(["quench", "--config", write_config(tmp_path, doc, "sq.json"),
                     "--out", str(out)]) == 0
        assert (out / "spectrum.csv").exists()

    @pytest.mark.parametrize("key,value", [("dt", "x"), ("record_stride", 2.5),
                                           ("krylov_dim", "16"), ("record_strid", 5),
                                           ("total_time", True), ("dt", True),
                                           ("record_stride", True),
                                           ("krylov_dim", True),
                                           ("total_time", float("inf")),
                                           pytest.param("total_time", 10**400,
                                                        id="total_time-10**400"),
                                           # total_time / dt overflows to inf
                                           pytest.param("dt", 1e-320,
                                                        id="dt-step-count-overflows"),
                                           # records every 0.25 us reach 12.6
                                           # rad/us, below omegam / 2 = 15.8
                                           pytest.param("record_stride", 125,
                                                        id="record_stride-undersampled")])
    def test_malformed_evolution_exits_2(self, tmp_path, capsys, key, value):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["evolution"][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["quench", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert f"evolution.{key}" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "q" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert f"evolution.{key}" in manifest["error"]

    @pytest.mark.parametrize("key,value", [("omega_mhz", "x"), ("v0_mhz", [51.0]),
                                           ("v0", 51.0), ("omega_mhz", True),
                                           ("v0_mhz", False)])
    def test_malformed_physical_exits_2(self, tmp_path, capsys, key, value):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["physical"][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["quench", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert f"physical.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("total_time,stride,field", [
        (0.011, 1, "evolution.total_time"),    # would silently run to t = 0.012
        (1.0, 3, "evolution.record_stride"),   # 500 steps
    ])
    def test_truncated_time_grid_exits_2(self, tmp_path, capsys, total_time,
                                         stride, field):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["evolution"].update(total_time=total_time, record_stride=stride)
        cfg = write_config(tmp_path, doc)
        assert main(["quench", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert field in capsys.readouterr().err

    def test_time_grid_tolerates_rounding(self):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["evolution"].update(total_time=0.7, dt=0.002, record_stride=50)
        assert 0.7 / 0.002 == 349.99999999999994
        assert parse_config(doc).evolution.total_time == 0.7

    def test_exit_codes(self, tmp_path):
        bad = write_config(tmp_path, {"lattice": {"kind": "nope", "extent": 2}},
                           "bad.json")
        assert main(["quench", "--config", bad, "--out", str(tmp_path / "x")]) == 2
        assert main(["quench", "--preset", "fig1-honeycomb",
                     "--out", str(tmp_path / "y")]) == 3
        missing = str(tmp_path / "absent.json")
        assert main(["quench", "--config", missing]) == 2
        assert main(["quench", "--config", bad, "--preset", "fig2-chain"]) == 2


def damped_quench_rows() -> list[str]:
    """Lines of a stored quench table whose imbalance is a damped cosine."""
    t = np.arange(60) * 0.05
    n_a = 0.5 + 0.4 * np.exp(-t / 2.0) * np.cos(5.0 * t)
    return ["t,nA,nB,imbalance"] + [f"{ti!r},{a!r},{1 - a!r},{2 * a - 1!r}"
                                    for ti, a in zip(t.tolist(), n_a.tolist())]


class TestAnalyzeCommand:
    def test_reanalysis_bit_stable(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUENCH)
        out = tmp_path / "run"
        assert main(["quench", "--config", cfg, "--out", str(out)]) == 0
        inline = json.loads((out / "analysis.json").read_text())
        redo = tmp_path / "redo"
        assert main(["analyze", str(out / "quench.csv"), "--mode", "fit",
                     "--out", str(redo)]) == 0
        refit = json.loads((redo / "quench_fit.json").read_text())
        assert refit == inline["fit"]
        assert main(["analyze", str(out / "quench.csv"), "--mode", "spectrum",
                     "--omegam-rad", repr(inline["omegam_rad"]),
                     "--out", str(redo)]) == 0
        assert (redo / "quench_spectrum.csv").read_bytes() == \
            (out / "spectrum.csv").read_bytes()
        summary = json.loads((redo / "quench_analysis.json").read_text())
        assert summary["subharmonic_weight"] == inline["subharmonic_weight"]

    def test_plane_mode(self, tmp_path):
        rows = ["point,a,status,error,x_mhz,y_mhz,inv_tau"]
        for k, (x, y) in enumerate([(0.2, 0.3), (1.0, 0.1), (0.4, 1.2), (0.7, 0.9)]):
            rows.append(f"{k},0,ok,,{x!r},{y!r},{0.72 * x + 0.58 * y + 0.4!r}")
        agg = tmp_path / "aggregate.csv"
        agg.write_text("\r\n".join(rows) + "\r\n")
        assert main(["analyze", str(agg), "--mode", "plane",
                     "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "aggregate_plane.json").read_text())
        assert fit["alpha"] == pytest.approx(0.72, abs=1e-9)
        assert fit["beta"] == pytest.approx(0.58, abs=1e-9)

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "junk.csv"
        bad.write_text("not,a,quench\r\n1,2,3\r\n")
        assert main(["analyze", str(bad), "--mode", "fit"]) == 2

    def test_binary_file_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "B.csv"
        binary.write_bytes(b"t,nA,nB\r\n\xff\xfe\r\n")
        assert main(["analyze", str(binary), "--mode", "fit"]) == 2
        err = capsys.readouterr().err
        assert f"{binary}: " in err and "codec can't decode" in err

    def test_empty_aggregate_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "EMPTY.csv"
        empty.write_text("")
        assert main(["analyze", str(empty), "--mode", "plane"]) == 2
        assert f"{empty}: empty aggregate file" in capsys.readouterr().err

    def test_error_names_path_and_nothing_is_written(self, tmp_path, capsys):
        """A failure on any path exits with its own code, names that path,
        and leaves no output of the paths before it."""
        rows = damped_quench_rows()
        good = tmp_path / "good.csv"
        good.write_text("\r\n".join(rows) + "\r\n")
        short = tmp_path / "short.csv"
        short.write_text("\r\n".join(rows[:11]) + "\r\n")
        assert main(["analyze", str(good), "--mode", "fit"]) == 0
        (tmp_path / "good_fit.json").unlink()
        capsys.readouterr()
        assert main(["analyze", str(good), str(short), "--mode", "fit"]) == 2
        assert f"{short}: need at least 20 samples" in capsys.readouterr().err
        assert not (tmp_path / "good_fit.json").exists()

        agg = tmp_path / "line.csv"
        agg.write_text("status,x_mhz,y_mhz,inv_tau\r\n" + "".join(
            f"ok,{x!r},{2 * x!r},{0.5 + x!r}\r\n" for x in (0.1, 0.2, 0.3)))
        assert main(["analyze", str(agg), "--mode", "plane"]) == 4
        assert f"{agg}: design matrix is rank deficient" in capsys.readouterr().err
        assert not (tmp_path / "line_plane.json").exists()

    def test_colliding_outputs_exit_2_and_nothing_is_written(self, tmp_path, capsys):
        """Two inputs with one stem and one destination would overwrite each
        other's outputs; in different destinations they do not."""
        paths = [tmp_path / "a" / "quench.csv", tmp_path / "b" / "quench.csv"]
        for path in paths:
            path.parent.mkdir()
            path.write_text("\r\n".join(damped_quench_rows()) + "\r\n")
        dest = tmp_path / "x"
        assert main(["analyze", *map(str, paths), "--mode", "fit",
                     "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert f"{paths[0]} and {paths[1]}" in err
        assert not dest.exists()
        assert main(["analyze", *map(str, paths), "--mode", "fit"]) == 0
        assert all((p.parent / "quench_fit.json").exists() for p in paths)

    def test_quoted_cells_in_aggregate(self, tmp_path):
        """RFC 4180 quoting: a grid or error cell may hold a comma, a quote
        and a line break, and the plane fit still reads every ok row."""
        rows = ['point,drive.shape,status,error,x_mhz,y_mhz,inv_tau']
        for k, (x, y) in enumerate([(0.2, 0.3), (1.0, 0.1), (0.4, 1.2), (0.7, 0.9)]):
            rows.append(f'{k},"a,\r\nb",ok,,{x!r},{y!r},{0.72 * x + 0.58 * y + 0.4!r}')
        rows.append('4,"x\ny",error,"ConfigError: drive.shape: ""x\ny"",\r\nno",,,')
        agg = tmp_path / "aggregate.csv"
        agg.write_text("\r\n".join(rows) + "\r\n")
        assert main(["analyze", str(agg), "--mode", "plane"]) == 0
        fit = json.loads((tmp_path / "aggregate_plane.json").read_text())
        assert fit["alpha"] == pytest.approx(0.72, abs=1e-9)
        assert fit["beta"] == pytest.approx(0.58, abs=1e-9)
        assert fit["inv_tau0"] == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("row,problem", [
        ("0.002,abc,0.1,0.9,0.1", "quench file: column nA holds 'abc', not a number"),
        ("0.002,0.9", "quench file: line 3 has 2 cell(s) but the header has 5"),
        ("0.002,0.9,0.1,0.9,0.1,999,junk",
         "quench file: line 3 has 7 cell(s) but the header has 5"),
    ], ids=["non-numeric", "short-row", "long-row"])
    def test_malformed_quench_cell_exits_2(self, tmp_path, capsys, row, problem):
        stored = tmp_path / "Q.csv"
        stored.write_text(f"t,nA,nB,n_0,n_1\r\n0,1,0,1,0\r\n{row}\r\n")
        assert main(["analyze", str(stored), "--mode", "fit"]) == 2
        assert f"{stored}: {problem}" in capsys.readouterr().err


    @pytest.mark.parametrize("mode", ["spectrum", "fit"])
    def test_nonfinite_quench_cell_exits_2(self, tmp_path, capsys, mode):
        rows = damped_quench_rows()
        cells = rows[30].split(",")
        cells[1] = "nan"
        rows[30] = ",".join(cells)
        stored = tmp_path / "quench.csv"
        stored.write_text("\r\n".join(rows) + "\r\n")
        assert main(["analyze", str(stored), "--mode", mode,
                     "--omegam-rad", "5.0"]) == 2
        assert f"{stored}: quench file: column nA holds 'nan', not a finite number" \
            in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["quench.csv"]

    def test_nonfinite_aggregate_cell_exits_2(self, tmp_path, capsys):
        rows = ["point,a,status,error,x_mhz,y_mhz,inv_tau"]
        for k, (x, y) in enumerate([(0.2, 0.3), (1.0, 0.1), (0.4, 1.2), (0.7, 0.9)]):
            rows.append(f"{k},0,ok,,{x!r},{y!r},{0.72 * x + 0.58 * y + 0.4!r}")
        rows[2] = rows[2].replace(",1.0,", ",inf,")
        agg = tmp_path / "aggregate.csv"
        agg.write_text("\r\n".join(rows) + "\r\n")
        assert main(["analyze", str(agg), "--mode", "plane"]) == 2
        assert f"{agg}: aggregate file: column x_mhz holds 'inf', not a finite number" \
            in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["aggregate.csv"]

    def test_omegam_above_spectral_grid_exits_2(self, tmp_path, capsys):
        """Records 0.004 us apart, as a fig3d-drive quench.csv has, give a
        grid up to pi / 0.004 = 785.4 rad/us: --omegam-rad 2000 reads its
        weights at 1000 rad/us, past the grid, and is refused by name; 1570,
        whose half lies on the grid, runs."""
        t = np.arange(300) * 0.004
        n_a = 0.5 + 0.4 * np.cos(5.0 * t)
        stored = tmp_path / "quench.csv"
        stored.write_text("\r\n".join(["t,nA,nB"] + [
            f"{ti!r},{a!r},{1 - a!r}" for ti, a in zip(t.tolist(), n_a.tolist())]) + "\r\n")
        assert main(["analyze", str(stored), "--mode", "spectrum",
                     "--omegam-rad", "2000"]) == 2
        assert f"{stored}: --omegam-rad 2000: omegam / 2 = 1000 rad/us lies above " \
            "the spectral grid, which ends at 785.398 rad/us" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["quench.csv"]
        assert main(["analyze", str(stored), "--mode", "spectrum",
                     "--omegam-rad", "1570"]) == 0

    @pytest.mark.parametrize("value", ["0", "-3", "nan"])
    def test_omegam_not_positive_finite_exits_2(self, tmp_path, capsys, value):
        """0 was once ignored, and -3 and nan refused only as frequencies
        off the spectral grid; each is refused by name before any file is
        read, so the message carries no file name."""
        t = np.arange(300) * 0.004
        stored = tmp_path / "quench.csv"
        stored.write_text("\r\n".join(["t,nA,nB"] + [
            f"{ti!r},0.5,0.5" for ti in t.tolist()]) + "\r\n")
        assert main(["analyze", str(stored), "--mode", "spectrum",
                     "--omegam-rad", value]) == 2
        assert capsys.readouterr().err == f"configuration error: --omegam-rad " \
            f"{float(value):g}: must be a positive finite number\n"
        assert [p.name for p in tmp_path.iterdir()] == ["quench.csv"]


class TestSweepCommand:
    def test_partial_failure_and_order(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.6
        doc["sweep"] = [{"parameter": "lattice.extent", "grid": [5, 49, 7]}]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("0,5,ok")
        assert lines[2].startswith("1,49,error")
        assert "CapacityError" in lines[2]
        assert lines[3].startswith("2,7,ok")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        assert (out / "point_000" / "quench.csv").exists()
        assert not (out / "point_001").exists()

    def test_malformed_point_is_an_error_row(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        doc["sweep"] = [{"parameter": "evolution.record_stride", "grid": [1, "x"]}]
        cfg = write_config(tmp_path, doc)
        outs = [tmp_path / "j1", tmp_path / "j2"]
        for jobs, out in zip(("1", "2"), outs):
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--jobs", jobs]) == 0
            lines = (out / "aggregate.csv").read_text().strip().splitlines()
            assert len(lines) == 3
            assert lines[1].startswith("0,1,ok,")
            assert lines[2].startswith("1,x,error,ConfigError: evolution.record_stride")
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == "partial"
        assert (outs[0] / "aggregate.csv").read_bytes() == \
            (outs[1] / "aggregate.csv").read_bytes()

    def test_undersampled_drive_point_is_an_error_row(self, tmp_path):
        # records every 0.01 us reach 314 rad/us: omegam = 25 Omega puts
        # omegam / 2 above that, and the point is refused before it runs
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"].update(total_time=0.4, record_stride=5)
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega",
                         "grid": [1.2, 25.0, 1.1]}]
        cfg = write_config(tmp_path, doc)
        outs = [tmp_path / "j1", tmp_path / "j2"]
        for jobs, out in zip(("1", "2"), outs):
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--jobs", jobs]) == 0
            lines = (out / "aggregate.csv").read_text().strip().splitlines()
            assert [ln.split(",")[2] for ln in lines[1:]] == ["ok", "error", "ok"]
            assert lines[2].startswith("1,25,error,ConfigError: evolution.record_stride")
            assert not (out / "point_001").exists()
        assert (outs[0] / "aggregate.csv").read_bytes() == \
            (outs[1] / "aggregate.csv").read_bytes()

    def test_sweep_of_malformed_points_only(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["sweep"] = [{"parameter": "evolution.record_stride", "grid": ["x"]}]
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--jobs", "2"]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["error"]
        assert json.loads((out / "manifest.json").read_text())["status"] == "partial"

    def test_truncated_time_grid_point_is_an_error_row(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["sweep"] = [{"parameter": "evolution.total_time", "grid": [0.2, 0.011]}]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert lines[1].startswith("0,0.20000000000000001,ok,")
        assert lines[2].startswith(
            "1,0.010999999999999999,error,ConfigError: evolution.total_time")

    def test_rigidity_skips_non_numeric_grid(self):
        import scarsim.cli as cli

        doc = json.loads(json.dumps(SMALL_QUENCH))
        grid = [0.75, 0.85, 0.95, 1.05, 1.15, 1.25, 1.35, 1.45, 1.55, 1.65, "x"]
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": grid}]
        cfg = parse_config(doc)
        rows = [{"status": "ok", "sub_weight": 0.1}] * len(grid)
        assert cli._rigidity_table(cfg, cli._sweep_points(cfg), rows) is None

    def test_boolean_grid_values_written_as_json(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["lattice"]["extent"] = 6
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.1
        doc["sweep"] = [{"parameter": "lattice.periodic", "grid": [False, True]}]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert lines[0].startswith("point,lattice.periodic,status,")
        assert lines[1].startswith("0,false,ok,")
        assert lines[2].startswith("1,true,ok,")

    def test_worker_records_any_exception(self, monkeypatch, capsys):
        import scarsim.cli as cli

        def boom(cfgs, record_probs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "_run_quenches", boom)
        (row,) = cli._sweep_worker([parse_config(SMALL_QUENCH)])
        assert row["status"] == "error"
        assert row["error"] == "ZeroDivisionError: division by zero"
        assert "Traceback" in capsys.readouterr().err

    def test_parallel_matches_serial(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.6
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [1.0, 1.2]}]
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "aggregate.csv").read_bytes() == \
            (out2 / "aggregate.csv").read_bytes()

    def test_rigidity_aggregation(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["lattice"]["extent"] = 5
        doc["observables"] = {}
        doc["evolution"] = {"total_time": 1.5, "dt": 0.002, "record_stride": 2}
        doc["sweep"] = [{
            "parameter": "drive.omegam_over_omega",
            "grid": [0.75, 0.85, 0.95, 1.05, 1.15, 1.25, 1.35, 1.45, 1.55,
                     1.65, 1.75],
        }]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "rig"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "rigidity.csv").read_text().strip().splitlines()
        assert lines[0].endswith("rigidity")
        assert len(lines) == 2


    def test_refused_fit_keeps_status_ok_and_says_why(self, tmp_path):
        """At omegam = 0.90 Omega the 1 us window of the 9-site chain spans
        under two periods of the guessed frequency, so the fit is refused:
        the point stays ok (it propagated), its fit cells stay blank and
        its error cell gives the fit's reason."""
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["lattice"]["extent"] = 9
        doc["observables"] = {}
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [0.9]}]
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--jobs", "1"]) == 0
        header, row = (out / "aggregate.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["status"] == "ok"
        assert cells["error"] == "fit: window must span at least two oscillation periods"
        assert cells["omega_tilde"] == cells["tau"] == cells["inv_tau"] == ""
        assert float(cells["sub_weight"]) > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"

    def test_unconverged_fit_says_so(self, tmp_path, monkeypatch):
        import scarsim.cli as cli
        from scarsim.analysis import DampedCosineFit

        monkeypatch.setattr(cli, "fit_damped_cosine", lambda values, times: DampedCosineFit(
            y0=0.0, c=0.1, omega_tilde=1.0, tau=2.0, converged=False))
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [1.2]}]
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--jobs", "1"]) == 0
        header, row = (out / "aggregate.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["status"], cells["error"], cells["tau"]) == \
            ("ok", "fit: did not converge", "")

    def test_default_jobs_counts_the_usable_cpus(self, tmp_path, monkeypatch):
        """Without --jobs a sweep steps in one process per CPU in the
        process's affinity mask (capped by the group count), not per CPU of
        the host: the calling process and two workers for three CPUs."""
        import concurrent.futures

        import scarsim.cli as cli

        workers = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["lattice"]["extent"] = 5
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.02
        # points that differ beyond their drive are groups of their own
        doc["sweep"] = [{"parameter": "physical.v0_mhz", "grid": [40.0, 45.0, 50.0, 55.0]}]
        assert cli._usable_cpus() == 3
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 0
        assert workers == [2]


class TestFailedRunManifest:
    """A run that fails after its document is loaded still writes a manifest."""

    def test_config_error_manifest(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["drive"]["shape"] = "sawtooth"
        out = tmp_path / "o"
        assert main(["quench", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "drive.shape" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "ConfigError: drive.shape: unknown shape 'sawtooth'"
        assert manifest["outputs"] == []
        assert manifest["config_hash"] == config_hash(doc)

    def test_capacity_error_manifest(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["lattice"]["extent"] = 49
        doc["observables"] = {}
        out = tmp_path / "o"
        assert main(["quench", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("CapacityError: constrained basis of 49 sites")

    def test_step_count_over_the_bound_exits_3(self, tmp_path, capsys):
        """5e302 steps pass every grid check but are refused at parse time,
        before the quench steps."""
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["evolution"].update(total_time=1e300, dt=0.002)
        out = tmp_path / "o"
        assert main(["quench", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 3
        assert "evolution.total_time" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("CapacityError: evolution.total_time: ")

    def test_unexpected_error_manifest(self, tmp_path, monkeypatch):
        """Any exception, not only a ScarsimError, replaces an earlier run's
        manifest and still propagates, so the process exits 1 with its
        traceback."""
        import scarsim.cli as cli

        def boom(cfg):
            raise ZeroDivisionError("division by zero")

        out = tmp_path / "o"
        cfg = write_config(tmp_path, SMALL_QUENCH)
        assert main(["lattice", "--config", cfg, "--out", str(out)]) == 0
        monkeypatch.setattr(cli, "cmd_quench", boom)
        with pytest.raises(ZeroDivisionError):
            main(["quench", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "ZeroDivisionError: division by zero"
        assert manifest["outputs"] == []

    def test_success_has_no_error_field(self, tmp_path):
        out = tmp_path / "lat"
        assert main(["lattice", "--preset", "fig2-chain", "--out", str(out)]) == 0
        assert "error" not in json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_refuses_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    assert main(["sweep", "--preset", "fig3c-chain", "--jobs", jobs,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --jobs:")
    assert not (out / "aggregate.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith("ConfigError: --jobs:")


def _data_files(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


class TestSweepGroups:
    """Points that differ only in their drive run as one block per substep count."""

    @staticmethod
    def _two_axis_doc():
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        # substep counts at dt = 0.002: 2, 2, 3, 3
        doc["sweep"] = [{"parameter": "physical.v0_mhz", "grid": [25.0, 51.0]},
                        {"parameter": "drive.omegam_over_omega",
                         "grid": [0.8, 1.0, 1.2, 1.6]}]
        return doc

    @staticmethod
    def _parsed_points(doc) -> list:
        import scarsim.cli as cli

        cfg = parse_config(doc)
        doc_json = json.dumps(cfg.raw, sort_keys=True)
        return [parse_config(cli._point_doc(doc_json, pt)) for pt in cli._sweep_points(cfg)]

    def test_groups_follow_v0_and_substep_count(self):
        import scarsim.cli as cli

        cfgs = self._parsed_points(self._two_axis_doc())
        assert cli._sweep_groups(cfgs) == [[0, 1], [2, 3], [4, 5], [6, 7]]
        cfgs[5] = ConfigError("drive.omegam_over_omega: must be a number")
        assert cli._sweep_groups(cfgs) == [[0, 1], [2, 3], [4], [5], [6, 7]]

    def test_large_lattices_run_point_by_point(self):
        import scarsim.cli as cli

        doc = self._two_axis_doc()
        doc["sweep"][0] = {"parameter": "lattice.extent",
                           "grid": [cli._BLOCK_MAX_SITES, cli._BLOCK_MAX_SITES + 1]}
        assert cli._sweep_groups(self._parsed_points(doc)) == \
            [[0, 1], [2, 3], [4], [5], [6], [7]]

    def test_wide_groups_split_into_near_equal_blocks(self):
        import scarsim.cli as cli

        doc = self._two_axis_doc()
        del doc["sweep"][0]
        # 15 drive amplitudes, all at one substep count
        doc["sweep"][0] = {"parameter": "drive.deltam_over_omega",
                           "grid": [0.1 * k for k in range(15)]}
        assert cli._BLOCK_WIDTH == 6
        assert cli._sweep_groups(self._parsed_points(doc)) == \
            [list(range(0, 5)), list(range(5, 10)), list(range(10, 15))]

    def test_each_point_is_parsed_and_analyzed_once(self, tmp_path, monkeypatch):
        import scarsim.cli as cli

        calls = {"parse_config": 0, "_analyze_quench": 0}

        def counting(name):
            fn = getattr(cli, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        doc = self._two_axis_doc()
        # the 13-site points run one by one, the 7-site ones as blocks
        doc["sweep"][0] = {"parameter": "lattice.extent", "grid": [7, 13]}
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0
        # the whole document once, then each of the 8 points once
        assert calls == {"parse_config": 9, "_analyze_quench": 8}

    def test_blocks_write_the_bytes_of_per_point_runs(self, tmp_path, monkeypatch):
        import scarsim.cli as cli

        cfg = write_config(tmp_path, self._two_axis_doc())
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"j{jobs}"
            assert main(["sweep", "--config", cfg, "--out", str(outs[jobs]),
                         "--jobs", jobs]) == 0
        sweep_worker = cli._sweep_worker
        with monkeypatch.context() as m:
            # every point a group of one
            m.setattr(cli, "_sweep_worker",
                      lambda cfgs: [out for c in cfgs for out in sweep_worker([c])])
            outs["points"] = tmp_path / "points"
            assert main(["sweep", "--config", cfg, "--out", str(outs["points"]),
                         "--jobs", "1"]) == 0
        files = {k: _data_files(v) for k, v in outs.items()}
        assert len(files["1"]) == 10        # 8 quench.csv, aggregate, resolved config
        assert files["1"] == files["2"] == files["points"]

    def test_failing_group_leaves_one_error_row(self, tmp_path, monkeypatch, capsys):
        import scarsim.evolve

        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega",
                         "grid": [1.2, 1.3, 1.4]}]
        cfg = write_config(tmp_path, doc)
        clean = tmp_path / "clean"
        assert main(["sweep", "--config", cfg, "--out", str(clean), "--jobs", "1"]) == 0
        bad_omegam = 1.3 * parse_config(doc).physical.omega
        detuning_at = scarsim.evolve.detuning_at

        def broken(drive, t):
            if drive.omegam == bad_omegam:
                raise NumericalError("injected")
            return detuning_at(drive, t)

        monkeypatch.setattr(scarsim.evolve, "detuning_at", broken)
        out = tmp_path / "bad"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        assert "a group of 3 points failed (NumericalError: injected)" in \
            capsys.readouterr().err
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["ok", "error", "ok"]
        assert lines[2].split(",")[3] == "NumericalError: injected"
        for k in (0, 2):
            name = f"point_{k:03d}/quench.csv"
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        assert not (out / "point_001").exists()


    def test_failing_analysis_leaves_one_error_row(self, tmp_path, monkeypatch, capsys):
        """Workers only propagate: a point whose analysis raises in the calling
        process gets its error row, and its group is not run again."""
        import scarsim.cli as cli

        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega",
                         "grid": [1.2, 1.3, 1.4]}]
        cfg = write_config(tmp_path, doc)
        clean = tmp_path / "clean"
        assert main(["sweep", "--config", cfg, "--out", str(clean), "--jobs", "1"]) == 0
        bad_omegam = 1.3 * parse_config(doc).physical.omega
        analyze, sweep_worker = cli._analyze_quench, cli._sweep_worker
        runs = []

        def broken(result, drive):
            if drive.omegam == bad_omegam:
                raise NumericalError("injected")
            return analyze(result, drive)

        def counted(cfgs):
            # a rerun would call the counted worker once per point
            runs.append(len(cfgs))
            return sweep_worker(cfgs)

        monkeypatch.setattr(cli, "_analyze_quench", broken)
        monkeypatch.setattr(cli, "_sweep_worker", counted)
        out = tmp_path / "bad"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        assert runs == [3]
        assert "failed" not in capsys.readouterr().err
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["ok", "error", "ok"]
        assert lines[2].split(",")[3] == "NumericalError: injected"
        for k in (0, 2):
            name = f"point_{k:03d}/quench.csv"
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        assert not (out / "point_001").exists()



class TestSweepScheduler:
    """--jobs N steps groups in N processes: the calling process and
    N - 1 workers."""

    @staticmethod
    def _doc(grid):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        # points that differ beyond their drive are groups of their own
        doc["sweep"] = [{"parameter": "physical.v0_mhz", "grid": grid}]
        return doc

    @staticmethod
    def _record_pids(monkeypatch, log: Path, caller_s=0.0, worker_s=0.0):
        """Make every process that steps a group append its pid to ``log``,
        after sleeping ``caller_s`` in the calling process and ``worker_s``
        in a worker."""
        import time

        import scarsim.cli as cli

        sweep_worker, caller = cli._sweep_worker, os.getpid()

        def recorded(cfgs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(caller_s if os.getpid() == caller else worker_s)
            return sweep_worker(cfgs)

        monkeypatch.setattr(cli, "_sweep_worker", recorded)
        return caller

    def test_one_job_starts_no_pool(self, tmp_path, monkeypatch):
        import scarsim.cli as cli

        def no_pool(*args, **kwargs):
            raise AssertionError("--jobs 1 started a pool")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
        log = tmp_path / "pids"
        caller = self._record_pids(monkeypatch, log)
        out = tmp_path / "o"
        assert main(["sweep", "--config", write_config(tmp_path, self._doc([45.0, 51.0, 55.0])),
                     "--out", str(out), "--jobs", "1"]) == 0
        assert log.read_text().split() == [str(caller)] * 3
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"

    def test_caller_and_worker_both_step(self, tmp_path, monkeypatch):
        """The worker starts the first group at once and holds it for 0.5 s;
        meanwhile the calling process steps the last group and takes back
        at least one more that the worker has not started."""
        log = tmp_path / "pids"
        caller = self._record_pids(monkeypatch, log, caller_s=0.1, worker_s=0.5)
        grid = [40.0, 45.0, 48.0, 51.0, 55.0, 60.0]
        assert main(["sweep", "--config", write_config(tmp_path, self._doc(grid)),
                     "--out", str(tmp_path / "o"), "--jobs", "2"]) == 0
        pids = log.read_text().split()
        assert len(pids) == 6 and len(set(pids)) == 2
        assert pids.count(str(caller)) >= 2

    def test_data_files_do_not_depend_on_jobs(self, tmp_path, monkeypatch, capsys):
        """A point that does not parse, a point whose propagation raises (in
        a block and in a group of one) and groups of one give the same data
        files at one, two and three processes, and one progress line per
        group."""
        import scarsim.evolve

        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        # extent 7: one block of two; extent 13: two groups of one
        doc["sweep"] = [{"parameter": "lattice.extent", "grid": [7, 13, "x"]},
                        {"parameter": "drive.omegam_over_omega", "grid": [1.2, 1.3]}]
        bad_omegam = 1.3 * parse_config(doc).physical.omega
        detuning_at = scarsim.evolve.detuning_at

        def broken(drive, t):
            if drive.omegam == bad_omegam:
                raise NumericalError("injected")
            return detuning_at(drive, t)

        monkeypatch.setattr(scarsim.evolve, "detuning_at", broken)
        cfg = write_config(tmp_path, doc)
        files = {}
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"j{jobs}"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
            files[jobs] = _data_files(out)
            progress = [ln for ln in capsys.readouterr().err.splitlines()
                        if ln.startswith("sweep: points ")]
            assert sorted(ln.split(":")[1] for ln in progress) == \
                [" points 0,1", " points 2", " points 3"]
            assert progress[-1].endswith("(6/6 points done)")
        statuses = [ln.split(",")[3] for ln in
                    files["1"]["aggregate.csv"].decode().splitlines()[1:]]
        assert statuses == ["ok", "error", "ok", "error", "error", "error"]
        assert files["1"] == files["2"] == files["3"]

    def test_worker_that_dies_fails_the_sweep(self, tmp_path):
        """A worker that exits mid-group breaks the pool: the sweep raises
        BrokenProcessPool, writes an error manifest and does not hang (the
        subprocess must exit within two minutes)."""
        out = tmp_path / "o"
        argv = ["sweep", "--config", write_config(tmp_path, self._doc([45.0, 51.0])),
                "--out", str(out), "--jobs", "2"]
        code = f"""
import os, time, scarsim.cli as c
caller, sweep_worker = os.getpid(), c._sweep_worker
def dying(cfgs):
    if os.getpid() != caller:
        os._exit(1)
    time.sleep(0.3)
    return sweep_worker(cfgs)
c._sweep_worker = dying
try:
    c.main({argv!r})
except Exception as exc:
    print(type(exc).__name__)
"""
        assert _python_stdout(code).splitlines()[-1] == "BrokenProcessPool"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("BrokenProcessPool:")
        assert not (out / "aggregate.csv").exists()

def _python_stdout(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on these
    sources, which must exit within two minutes."""
    src = str(Path(scarsim.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_cli_import_defers_optional_scipy_modules():
    code = ("import sys, scarsim.cli; print([m for m in ('scipy.linalg', "
            "'scipy.optimize', 'scipy.sparse', 'scipy.spatial', 'scipy.special') "
            "if m in sys.modules])")
    assert _python_stdout(code).strip() == "[]"


def test_quench_leaves_openssl_unloaded(tmp_path):
    """Config hashes use CPython's built-in SHA-256, so a quench process
    never loads ``_hashlib`` (OpenSSL, 3.6 MB resident)."""
    try:
        import _sha2  # noqa: F401
    except ImportError:
        pytest.importorskip("_sha256")
    argv = ["quench", "--config", write_config(tmp_path, SMALL_QUENCH),
            "--out", str(tmp_path / "o")]
    code = ("import sys, scarsim.cli as c; "
            f"code = c.main({argv!r}); print(code, '_hashlib' in sys.modules)")
    assert _python_stdout(code).splitlines()[-1] == "0 False"


def test_ring_isometry_leaves_numpy_ma_unloaded():
    """Permuting basis states loads no numpy.ma, which a flag-free
    np.unique imports (about 15 ms)."""
    code = ("import sys; from scarsim.lattice import build_lattice, symmetry_permutations; "
            "from scarsim.hilbert import enumerate_blockaded, symmetric_isometry; "
            "lat = build_lattice('chain', 10, periodic=True); "
            "symmetric_isometry(enumerate_blockaded(lat), symmetry_permutations(lat)); "
            "print('numpy.ma' in sys.modules)")
    assert _python_stdout(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("command, loads", [
    ("floquet", False), ("lattice", False), ("analyze", False), ("sweep", False),
    ("quench", False)])
def test_only_processes_that_step_load_scipy_sparse(tmp_path, command, loads):
    """Operators are numpy arrays and a sparse product loads only scipy's
    compiled CSR kernel: the pulsed map (dense), the lattice report,
    ``analyze --mode fit``, the parent of a ``--jobs 2`` sweep and a quench
    that steps never import scipy.sparse."""
    out = tmp_path / "o"
    if command in ("floquet", "lattice"):
        preset = "figS9b" if command == "floquet" else "fig3d-drive"
        argv = [command, "--preset", preset, "--out", str(out)]
    elif command == "analyze":
        stored = tmp_path / "quench.csv"
        stored.write_text("\r\n".join(damped_quench_rows()) + "\r\n")
        argv = ["analyze", str(stored), "--mode", "fit", "--out", str(out)]
    else:
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.1
        if command == "sweep":
            doc["sweep"] = [{"parameter": "physical.v0_mhz", "grid": [45.0, 51.0]}]
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        argv += ["--jobs", "2"] if command == "sweep" else []
    code = ("import sys, scarsim.cli as c; "
            f"code = c.main({argv!r}); print(code, 'scipy.sparse' in sys.modules)")
    assert _python_stdout(code).splitlines()[-1] == f"0 {loads}"


def test_kernel_loaded_by_quench_keeps_scipys_products(tmp_path):
    """After a quench has stepped without scipy.sparse, importing it works
    as usual, and ``op @ x`` on a state and a block, taken before that
    import, equals scipy's ``op.matrix @ x`` bit for bit."""
    doc = json.loads(json.dumps(SMALL_QUENCH))
    doc["observables"] = {}
    doc["evolution"]["total_time"] = 0.02
    argv = ["quench", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
    code = f"""
import sys, numpy as np, scarsim.cli as c
from scarsim.hamiltonian import build_rydberg
from scarsim.hilbert import enumerate_blockaded
from scarsim.lattice import PhysicalParams, build_lattice
code = c.main({argv!r})
lat = build_lattice("chain", 9)
op = build_rydberg(lat, enumerate_blockaded(lat), PhysicalParams.from_mhz(4.2, 51.0)).flip
rng = np.random.default_rng(0)
xs = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((op.dim,), (op.dim, 5))]
products = [op @ x for x in xs]
loaded = "scipy.sparse" in sys.modules
import scipy.sparse
same = [np.array_equal(p.view(float), (op.matrix @ x).view(float)) for p, x in zip(products, xs)]
print(code, loaded, same)
"""
    assert _python_stdout(code).splitlines()[-1] == "0 False [True, True]"


def test_ring_quench_leaves_scipy_special_unloaded(tmp_path):
    """Stepping a ring quench in its symmetric subspace loads no
    scipy.special.  The 0.02 us window records too few samples to fit;
    test_fitting_process_leaves_fit_modules_unloaded covers the fits."""
    doc = {"lattice": {"kind": "chain", "extent": 10, "periodic": True},
           "physical": {"omega_mhz": 4.2, "v0_mhz": 51.0}, "model": "pxp",
           "drive": {"shape": "cosine", "delta0_over_omega": 0.5,
                     "deltam_over_omega": 1.0, "omegam_over_omega": 1.33},
           "initial_state": "AF1",
           "evolution": {"total_time": 0.02, "dt": 0.002, "record_stride": 5},
           "observables": {"entropy_cuts": ["half"]}}
    cfg = write_config(tmp_path, doc)
    code = ("import sys, scarsim.cli as c; "
            f"code = c.main(['quench', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "print(code, 'scipy.special' in sys.modules)")
    assert _python_stdout(code).splitlines()[-1] == "0 False"


def test_group_worker_leaves_fit_modules_unloaded():
    """A sweep worker propagates a block and records no microstate
    probabilities; the parent fits the points, whose 1 us windows are long
    enough to fit, so the worker loads neither scipy.optimize nor
    scipy.special."""
    doc = json.loads(json.dumps(SMALL_QUENCH))
    docs = []
    for omegam in (1.2, 1.3):
        doc["drive"]["omegam_over_omega"] = omegam
        docs.append(json.loads(json.dumps(doc)))
    code = ("import json, sys, scarsim.cli as c; from scarsim.config import parse_config; "
            f"out = c._sweep_worker([parse_config(d) for d in json.loads({json.dumps(docs)!r})]); "
            "print([o[1].probs for o in out], "
            "[m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules])")
    assert _python_stdout(code).splitlines()[-1] == "[None, None] []"


@pytest.mark.parametrize("command", ["quench", "sweep", "analyze"])
def test_fitting_process_leaves_fit_modules_unloaded(tmp_path, command):
    """The damped-cosine fit is numpy alone: a quench that fits its
    imbalance, a sweep parent that fits each point as its group comes back
    and ``analyze --mode fit`` load neither scipy.optimize nor
    scipy.special."""
    doc = json.loads(json.dumps(SMALL_QUENCH))
    out = tmp_path / "o"
    if command == "quench":
        argv = ["quench", "--config", write_config(tmp_path, doc), "--out", str(out)]
    elif command == "sweep":
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [1.2, 1.3]}]
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out),
                "--jobs", "2"]
    else:
        stored = tmp_path / "quench.csv"
        stored.write_text("\r\n".join(damped_quench_rows()) + "\r\n")
        argv = ["analyze", str(stored), "--mode", "fit", "--out", str(out)]
    code = ("import sys, scarsim.cli as c; "
            f"code = c.main({argv!r}); "
            "print(code, [m for m in ('scipy.optimize', 'scipy.special') "
            "if m in sys.modules])")
    assert _python_stdout(code).splitlines()[-1] == "0 []"
    # the process did fit
    if command == "quench":
        assert json.loads((out / "analysis.json").read_text())["fit"]["converged"]
    elif command == "sweep":
        header, *rows = (out / "aggregate.csv").read_text().splitlines()
        tau = header.split(",").index("tau")
        assert len(rows) == 2 and all(float(r.split(",")[tau]) > 0 for r in rows)
    else:
        assert json.loads((out / "quench_fit.json").read_text())["converged"]


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    import gc

    # in-process callers of main keep a normal collector
    before = gc.get_freeze_count()
    assert main(["lattice", "--preset", "fig2-chain", "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == before
    # the process entry freezes what the imports made before it runs main
    code = ("import gc, sys, scarsim.cli as c; sys.argv = ['scarsim', 'lattice', "
            "'--list-presets']; c.entry(); print(gc.get_freeze_count() > 0)")
    assert _python_stdout(code).splitlines()[-1] == "True"


def test_process_entry_freezes_what_the_run_made(tmp_path):
    """A stepping quench loads scipy's CSR kernel during its run, but not
    scipy.sparse; the entry freezes again afterwards, so the collection at
    interpreter exit walks none of what the run made (gc.get_objects lists
    only unfrozen objects)."""
    doc = json.loads(json.dumps(SMALL_QUENCH))
    doc["observables"] = {}
    doc["evolution"]["total_time"] = 0.02
    cfg = write_config(tmp_path, doc)
    code = ("import gc, sys, scarsim.cli as c; sys.argv = ['scarsim', 'quench', "
            f"'--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]; c.entry(); "
            "print(len(gc.get_objects()) < 100, 'scipy.sparse' in sys.modules)")
    assert _python_stdout(code).splitlines()[-1] == "True False"


class TestFloquetCommand:
    def test_echo_smoke_map(self, tmp_path):
        doc = {"floquet": {"l": 8, "boundary": "periodic", "map": "revival",
                           "epsilons": [0.0], "taus_over_2pi": [0.4, 0.755],
                           "n_periods": 10}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "fl"
        assert main(["floquet", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "map.csv").read_text().strip().splitlines()
        assert lines[0] == "epsilon,tau_omega,value"
        values = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert np.allclose(values, 1.0, atol=1e-9)
        meta = json.loads((out / "map_meta.json").read_text())
        assert meta["l"] == 8 and meta["map"] == "revival"

    @pytest.mark.parametrize("key,value,field", [
        ("l", "x", "floquet.l"),
        ("epsilons", [0.0, "x"], "floquet.epsilons[1]"),
        ("taus_over_2pi", "0.5", "floquet.taus_over_2pi"),
        ("taus_omega", [None], "floquet.taus_omega[0]"),
        ("n_periods", 2.5, "floquet.n_periods"),
        ("n_period", 3, "floquet.n_period"),
        ("l", True, "floquet.l"),
        ("epsilons", [0.0, True], "floquet.epsilons[1]"),
        ("taus_over_2pi", [False], "floquet.taus_over_2pi[0]"),
        ("n_periods", True, "floquet.n_periods"),
        ("epsilons", [float("nan")], "floquet.epsilons[0]"),
        ("l", 2, "floquet.l:"),
        ("boundary", "twisted", "floquet.boundary"),
    ])
    def test_malformed_floquet_exits_2(self, tmp_path, capsys, key, value, field):
        doc = {"floquet": {"l": 8, "boundary": "periodic", "map": "revival",
                           "epsilons": [0.0], "taus_over_2pi": [0.4],
                           "n_periods": 10}}
        doc["floquet"][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["floquet", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert field in manifest["error"]

    @pytest.mark.parametrize("sections", [
        "lattice", "physical", "model", "drive", "evolution", "observables", "sweep",
        # a 10-chain Rydberg document that once ran an 8-ring PXP map, alone
        # and with the physical section that a Rydberg quench would need
        "lattice,model", "lattice,physical,model",
    ])
    @pytest.mark.parametrize("command", ["floquet", "lattice"])
    def test_other_sections_exit_2(self, tmp_path, capsys, command, sections):
        """The map builds its own PXP chain or ring from the floquet section,
        so a section that would describe another system is refused."""
        other = {**SMALL_QUENCH, "lattice": {"kind": "chain", "extent": 10},
                 "sweep": [{"parameter": "physical.v0_mhz", "grid": [45.0]}]}
        doc = {"floquet": {"l": 8, "boundary": "periodic", "map": "revival",
                           "epsilons": [0.0], "taus_over_2pi": [0.4],
                           "n_periods": 10}}
        doc.update((name, other[name]) for name in sections.split(","))
        out = tmp_path / "x"
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        want = ("config: a floquet document takes none of these sections: "
                + sections.replace(",", ", "))
        assert want in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error" and want in manifest["error"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_top_level_initial_state_is_the_default(self, tmp_path):
        """GGG keeps both sublattices equally filled, so its stroboscopic
        imbalance and subharmonic weight are 0, where AF1's are not."""
        values = {}
        for state in ("AF1", "GGG"):
            doc = {"initial_state": state,
                   "floquet": {"l": 8, "boundary": "periodic", "map": "subharmonic",
                               "epsilons": [0.1], "taus_over_2pi": [0.755],
                               "n_periods": 40}}
            assert parse_config(doc).initial_state == state
            out = tmp_path / state
            assert main(["floquet", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 0
            assert json.loads((out / "map_meta.json").read_text())["initial_state"] \
                == state
            line = (out / "map.csv").read_text().strip().splitlines()[1]
            values[state] = float(line.split(",")[2])
        assert values["GGG"] == 0.0 and values["AF1"] > 0.5
        # one state named in both places is accepted
        doc["floquet"]["initial_state"] = "GGG"
        assert parse_config(doc).initial_state == "GGG"

    @pytest.mark.parametrize("name", ["figS9a", "figS9b"])
    def test_model_is_the_maps_pxp(self, name):
        """The map always runs PXP, and the parsed config says so."""
        assert parse_config(get_preset(name)).model == "pxp"

    def test_conflicting_initial_states_exit_2(self, tmp_path, capsys):
        doc = {"initial_state": "GGG",
               "floquet": {"l": 8, "boundary": "periodic", "map": "revival",
                           "epsilons": [0.0], "taus_over_2pi": [0.4],
                           "n_periods": 10, "initial_state": "AF1"}}
        cfg = write_config(tmp_path, doc)
        assert main(["floquet", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "floquet.initial_state: 'AF1' differs from initial_state 'GGG'" in err
        assert not (tmp_path / "x" / "map.csv").exists()

    def test_taus_in_two_units_exits_2(self, tmp_path, capsys):
        doc = {"floquet": {"l": 8, "boundary": "periodic", "map": "revival",
                           "epsilons": [0.0], "taus_omega": [1.0],
                           "taus_over_2pi": [0.4, 0.5], "n_periods": 10}}
        cfg = write_config(tmp_path, doc)
        assert main(["floquet", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "floquet: tau given in more than one unit" in capsys.readouterr().err
        assert not (tmp_path / "x" / "map.csv").exists()

    def test_capacity_guard(self, tmp_path):
        doc = {"floquet": {"l": 22, "boundary": "periodic", "map": "revival",
                           "epsilons": [0.0], "taus_over_2pi": [0.5],
                           "n_periods": 2}}
        cfg = write_config(tmp_path, doc)
        assert main(["floquet", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    def test_period_count_over_the_bound_exits_3(self, tmp_path):
        """Refused before the series of 10**13 periods is allocated."""
        doc = {"floquet": {"l": 10, "boundary": "periodic", "map": "subharmonic",
                           "epsilons": [0.0], "taus_over_2pi": [0.5],
                           "n_periods": 10**13}}
        out = tmp_path / "x"
        assert main(["floquet", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("CapacityError: n_periods: 10000000000000")


def _assert_manifest_lists_every_file(out):
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert set(manifest["outputs"]) == written - {"manifest.json"}
    assert len(manifest["outputs"]) == len(set(manifest["outputs"]))
    return manifest


class TestRunnerBookkeeping:
    def test_lattice_outputs(self, tmp_path):
        out = tmp_path / "lat"
        assert main(["lattice", "--preset", "fig2-chain", "--out", str(out)]) == 0
        manifest = _assert_manifest_lists_every_file(out)
        assert set(manifest["outputs"]) == {"lattice.json", "geometry.json",
                                            "resolved_config.json"}
        assert manifest["status"] == "complete"

    def test_floquet_outputs(self, tmp_path):
        doc = {"floquet": {"l": 8, "map": "revival", "epsilons": [0.0],
                           "taus_over_2pi": [0.4], "n_periods": 2}}
        out = tmp_path / "fl"
        assert main(["floquet", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        manifest = _assert_manifest_lists_every_file(out)
        assert set(manifest["outputs"]) == {"map.csv", "map_meta.json",
                                            "resolved_config.json"}
        assert manifest["config_hash"] == config_hash(doc)

    def test_two_point_sweep_outputs(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_QUENCH))
        doc["observables"] = {}
        doc["evolution"]["total_time"] = 0.2
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [1.0, 1.2]}]
        out = tmp_path / "sw"
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--jobs", "1"]) == 0
        manifest = _assert_manifest_lists_every_file(out)
        assert set(manifest["outputs"]) == {
            "point_000/quench.csv", "point_001/quench.csv", "aggregate.csv",
            "resolved_config.json"}
        assert manifest["status"] == "complete"


class TestNormalization:
    def test_normalize_document_is_pure(self):
        doc = {"b": [1, 2], "a": {"y": 1, "x": 2}}
        norm = normalize_document(doc)
        assert norm == {"a": {"x": 2, "y": 1}, "b": [1, 2]}
        assert normalize_document(norm) == norm


class TestFullBasisOperatorFreed:
    """A ring quench, a ring sweep group and a ring pulsed map never build
    the full-basis flip operator: the builder returns the restricted parts,
    which every step propagates."""

    @staticmethod
    def _ring_doc():
        doc = get_preset("figS8-pxp-drive")
        doc["lattice"]["extent"] = 12
        doc["evolution"]["total_time"] = 0.01
        doc["observables"] = {}
        return doc

    @pytest.fixture
    def watch(self, monkeypatch):
        """The dimension of the parts each build_pxp call returned and of
        the operator each propagation got; building the full-basis flip
        operator raises."""
        import scarsim.evolve as evolve
        import scarsim.hamiltonian as hamiltonian

        built, steps = [], []
        build, propagate = hamiltonian.build_pxp, evolve.propagate

        def spy_build(*args):
            parts = build(*args)
            built.append(parts.dim)
            return parts

        def spy_propagate(parts, *args):
            steps.append(parts.dim)
            return propagate(parts, *args)

        def refuse(*args):
            raise AssertionError("full-basis flip operator built")

        monkeypatch.setattr(hamiltonian, "build_pxp", spy_build)
        monkeypatch.setattr(hamiltonian, "_flip_operator", refuse)
        monkeypatch.setattr(evolve, "propagate", spy_propagate)
        return built, steps

    def test_quench(self, tmp_path, watch):
        built, steps = watch
        cfg = write_config(tmp_path, self._ring_doc())
        assert main(["quench", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert built == [47] and steps and set(steps) == {47}

    def test_sweep_group(self, tmp_path, watch):
        built, steps = watch
        doc = self._ring_doc()
        # both drives take 3 substeps per dt, so the two points form one group
        doc["sweep"] = [{"parameter": "drive.omegam_over_omega", "grid": [1.2, 1.33]}]
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--jobs", "1",
                     "--out", str(tmp_path / "o")]) == 0
        # 5 steps at stride 5: one propagation of the group's block
        assert built == [47] and steps == [47]

    def test_pulsed_map(self, watch):
        from scarsim.floquet import _pulsed_grid
        from scarsim.lattice import build_lattice

        built, _ = watch
        ring = build_lattice("chain", 14, periodic=True)
        block, *_ = _pulsed_grid(ring, [0.0], [1.0], "AF1")
        assert block.shape == (89, 1) and built == [89]
