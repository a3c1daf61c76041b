import dataclasses
import json
import os

import numpy as np
import pytest

from homlab import cli
from homlab.cli import main, parse_config
from homlab.ensemble import ExperimentPlan


def _write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_defaults_when_missing(self):
        want = {"dimension": 2, "grid": 64, "grids": (16, 32, 64),
                "lambda": 0.25, "gamma": 2.5, "skew": 0.0, "delta": 0.0625,
                "deltas": (), "radii": (), "realizations": 8, "master_seed": 0,
                "tol": 1e-9, "max_iter": 100000, "constant": 0,
                "beta": None, "region": 40.5, "fd_step": 1e-5}
        cfg = parse_config(None)
        assert cfg == want
        assert ({k: type(v) for k, v in cfg.items()}
                == {k: type(v) for k, v in want.items()})

    def test_every_plan_field_has_one_key(self):
        fields = sorted(name for _, name in cli._PLAN_KEYS.values())
        assert fields == sorted(f.name for f in dataclasses.fields(
            ExperimentPlan) if f.name != "kind")
        for kind in ("scaling", "growth"):
            assert (cli._plan_from_config(parse_config(None), kind)
                    == ExperimentPlan(kind=kind))

    def test_parse_types_and_comments(self, tmp_path):
        path = _write(tmp_path, """
# comment line
dimension = 2
grid = 16          # trailing comment
radii = 2, 4
lambda = 0.3
""")
        cfg = parse_config(path)
        assert cfg["grid"] == 16
        assert cfg["radii"] == (2.0, 4.0)
        assert cfg["lambda"] == 0.3

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, "bogus = 1\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = _write(tmp_path, "grid = twelve\n")
        with pytest.raises(ValueError):
            parse_config(path)


class TestExitCodes:
    def test_config_error_writes_manifest(self, tmp_path):
        cfg = _write(tmp_path, "bogus = 1\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out), "sample"])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "bogus" in manifest["error"]

    def test_threads_is_unknown_argument(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "--out", str(tmp_path), "sample"])
        assert exc.value.code == 2

    def test_fblock_is_unknown_kind(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "experiment", "fblock"])
        assert exc.value.code == 2

    def test_growth_radius_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, "grid = 64\nradii = 16\nrealizations = 2\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out),
                     "experiment", "growth"])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert "L/8" in manifest["error"]

    def test_one_grid_twoscale_is_config_error(self, tmp_path):
        # checked before any realization runs, so no records are written
        cfg = _write(tmp_path, "grid = 32\nrealizations = 2\ngrids = 16\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out),
                     "experiment", "twoscale"])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "two grids" in manifest["error"]
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("text, command", [
        ("grid = 32\nradii = 9\nrealizations = 2\n", ["experiment", "excess"]),
        ("grid = 32\nradii = 0.25\n", ["sample"]),
        ("grid = 31\n", ["corrector"]),
        ("lambda = 1.5\n", ["sample"]),
        ("tol = 0.5\n", ["diagnose"]),
        ("delta = 0\n", ["diagnose"]),
        ("region = 5\n", ["partition-check"]),
        ("fd_step = 0\n", ["sensitivity-check"]),
        ("region = 4.5\ngamma = 1.0\nbeta = 0\n", ["partition-check"]),
        ("region = 4.5\ngamma = 1.5\n", ["partition-check"]),
        ("region = 4.5\nbeta = -0.5\n", ["partition-check"]),
        ("dimension = 0\nregion = 4.5\nbeta = 0\n", ["partition-check"]),
        ("dimension = 1\nregion = 4.5\n", ["partition-check"]),
        ("dimension = 4\nregion = 4.5\n", ["partition-check"]),
        ("dimension = 0\nregion = 4.5\n", ["partition-check"]),
        ("fd_step = inf\n", ["sensitivity-check"]),
        ("region = inf\n", ["partition-check"]),
        ("grid = 16\ngamma = nan\n", ["sample"]),
        ("grid = 16\nskew = nan\n", ["sample"]),
        ("grid = 16\nconstant = 3\n", ["sample"]),
        ("grid = 16\nbeta = nan\n", ["sample"]),
        ("grid = 16\ngamma = inf\n", ["sample"]),
        ("grid = 16\nradii = 2, nan\n", ["sample"]),
    ])
    def test_bad_values_are_config_errors(self, tmp_path, text, command):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)] + command) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"]

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--config", str(tmp_path / "absent.cfg"), "--out",
                     str(out), "sample"])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert "absent.cfg" in manifest["error"]

    def test_numeric_error_is_runtime_failure(self, tmp_path, monkeypatch):
        def summarize(plan, records):
            raise ValueError("power-law fit needs positive data")

        monkeypatch.setattr(cli, "summarize", summarize)
        cfg = _write(tmp_path, "grid = 16\nrealizations = 2\nradii = 2, 4\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out),
                     "experiment", "scaling"])
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == "power-law fit needs positive data"

    @pytest.mark.parametrize("text, code", [
        ("grid = 16\nrealizations = 2\n", 0), ("bogus = 1\n", 2)])
    def test_manifest_records_env(self, tmp_path, monkeypatch, text, code):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        assert main(["--config", _write(tmp_path, text), "--out", str(out),
                     "sample"]) == code
        env = json.loads((out / "manifest.json").read_text())["env"]
        assert env["python"].count(".") == 2 and env["scipy"]
        assert set(env["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"}
        assert env["blas_threads"]["OMP_NUM_THREADS"] == "1"
        assert env["blas_threads"]["MKL_NUM_THREADS"] is None
        assert env["cpu_count"] == os.cpu_count()
        assert 1 <= env["affinity_cores"] <= env["cpu_count"]

    def test_manifest_env_without_affinity_call(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        out = tmp_path / "out"
        assert main(["--config", _write(tmp_path, "bogus = 1\n"), "--out",
                     str(out), "sample"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["env"]["affinity_cores"] is None

    def test_ok_manifest(self, tmp_path):
        cfg = _write(tmp_path, "grid = 16\nrealizations = 2\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out), "sample"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["schema"] == 1


class TestCommands:
    def test_sample_deterministic(self, tmp_path):
        cfg = _write(tmp_path, "grid = 16\nrealizations = 2\n")
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "sample"]) == 0
            outs.append((out / "coefficients_0000.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_sample_constant_model(self, tmp_path):
        cfg = _write(tmp_path, "grid = 16\nrealizations = 2\nconstant = 1\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "sample"]) == 0
        from homlab.lattice import load_field
        a = load_field(out / "coefficients_0000.bin").reshape(2, 2, 16, 16)
        assert np.allclose(a[0, 0], 1.0) and np.allclose(a[0, 1], 0.0)

    def test_corrector_constant(self, tmp_path):
        cfg = _write(tmp_path, "grid = 16\nconstant = 1\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "corrector"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert np.allclose(summary["a_hom"], np.eye(2), atol=1e-9)

    def test_seed_override(self, tmp_path):
        cfg = _write(tmp_path, "grid = 16\nrealizations = 2\n")
        o1, o2 = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg, "--out", str(o1), "--seed", "1", "sample"])
        main(["--config", cfg, "--out", str(o2), "--seed", "2", "sample"])
        assert ((o1 / "coefficients_0000.bin").read_bytes()
                != (o2 / "coefficients_0000.bin").read_bytes())

    def test_experiment_scaling(self, tmp_path):
        cfg = _write(tmp_path, "grid = 16\nrealizations = 2\nradii = 2, 4\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out),
                     "experiment", "scaling"])
        assert code == 0
        fits = json.loads((out / "fits.json").read_text())
        assert fits["kind"] == "scaling"
        assert (out / "records.csv").exists()

    def test_partition_check(self, tmp_path):
        cfg = _write(tmp_path, "region = 4.5\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out), "partition-check"])
        assert code == 0
        payload = json.loads((out / "partition.json").read_text())
        assert payload["C_meas"] >= 1.0
        assert payload["gamma"] == 2.5
        header = (out / "cells.csv").read_text().splitlines()[0]
        assert header == "corner0,corner1,side,diam,dist,n_sub"

    def test_partition_check_keeps_gamma(self, tmp_path):
        # 2.2 lies above d(1 - beta) = 2 but below 2.5, the value the
        # command once put in its place
        cfg = _write(tmp_path, "region = 4.5\ngamma = 2.2\nbeta = 0\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out),
                     "partition-check"]) == 0
        payload = json.loads((out / "partition.json").read_text())
        assert payload["gamma"] == 2.2

    def test_sensitivity_check(self, tmp_path):
        cfg = _write(tmp_path, "grid = 32\nskew = 0.1\ntol = 1e-12\n")
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out", str(out),
                     "sensitivity-check"])
        assert code == 0
        checks = json.loads((out / "sensitivity.json").read_text())["checks"]
        assert sorted(checks) == ["phi_skew", "phi_sym", "sigma_skew",
                                  "sigma_sym"]
        for check in checks.values():
            assert check["relative_error"] < 1e-3

    def test_diagnose(self, tmp_path):
        cfg = _write(tmp_path, "grid = 32\nradii = 2, 4\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "diagnose"]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert "r_star" in payload

    def test_diagnose_growth_rows_are_plain_floats(self, tmp_path):
        # numpy scalar reprs (np.float64(2.0)) are not CSV numbers
        cfg = _write(tmp_path, "grid = 32\nradii = 2, 4\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "diagnose"]) == 0
        header, *rows = (out / "growth.csv").read_text().splitlines()
        assert header == "radius,V,reference"
        assert [float(row.split(",")[0]) for row in rows] == [2.0, 4.0]
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 3
            assert all(np.isfinite(float(c)) for c in cells)
