import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wpsc
from wpsc.bundle import load_bundle, save_bundle
from wpsc.cli import ExperimentConfig, main, run_experiment, emit_report
from wpsc.datasets import UosSpec, generate_uos
from wpsc.errors import ConfigError


def synth_bundle(tmp_path, **kw):
    spec = dict(C=3, d=2, D=64, n_per_cluster=12, noise_sigma=0.0, seed=0)
    spec.update(kw)
    ds = generate_uos(UosSpec(**spec))
    path = tmp_path / "data.wpsc"
    save_bundle(ds, path)
    return path, ds


def base_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "bundle", "path": str(tmp_path / "data.wpsc"),
                    "name": "demo"},
        "pipeline": "single",
        "solver": {"kind": "SSC", "params": {"alpha": 10}},
        "d": 2,
        "split": {"in_fraction": 0.8, "seed": 0},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


class TestSubcommands:
    def test_synth_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "s.wpsc"
        rc = main(["synth", "--C", "2", "--d", "1", "--D", "16",
                   "--n-per-cluster", "4", "--seed", "3", "--out", str(out)])
        assert rc == 0
        ds = load_bundle(out)
        assert ds.N == 8 and ds.C == 2

    def test_wpt_writes_twenty_nodes(self, tmp_path):
        path, ds = synth_bundle(tmp_path)
        rc = main(["wpt", "--data", str(path), "--levels", "2",
                   "--out-dir", str(tmp_path / "nodes")])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "nodes").iterdir())
        assert len(files) == 20
        assert "data__AA.wpsc" in files  # <dataset>__<path>.wpsc naming
        node = load_bundle(tmp_path / "nodes" / "data__A.wpsc")
        assert node.data.shape == ds.data.shape

    def test_cluster_and_eval(self, tmp_path, capsys):
        path, ds = synth_bundle(tmp_path)
        rc = main(["cluster", "--data", str(path), "--solver", "SSC",
                   "--param", "alpha=10", "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert metrics["acc"] == 1.0
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(str(v) for v in ds.labels) + "\n")
        rc = main(["eval", "--truth", str(truth),
                   "--pred", str(tmp_path / "c" / "labels.csv")])
        assert rc == 0
        scored = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert scored["acc"] == 1.0

    def test_select_subband_command(self, tmp_path, capsys):
        path, _ = synth_bundle(tmp_path)
        rc = main(["select-subband", "--data", str(path), "--solver", "SSC",
                   "--param", "alpha=10", "--levels", "1",
                   "--out-dir", str(tmp_path / "sel")])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "sel" / "selection.csv")))
        assert len(rows) == 5
        assert rows[0]["subband"] == ""

    def test_mera_command(self, tmp_path, capsys):
        path, _ = synth_bundle(tmp_path)
        rc = main(["mera", "--data", str(path), "--lam", "10", "--rank", "12",
                   "--out-dir", str(tmp_path / "m")])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert metrics["acc"] == 1.0
        assert (tmp_path / "m" / "trace.csv").exists()

    def test_oos_command(self, tmp_path, capsys):
        from wpsc.datasets import SplitSpec, split
        path, ds = synth_bundle(tmp_path, n_per_cluster=20)
        ins, outs = split(ds, SplitSpec(0.8, 0))
        save_bundle(ins, tmp_path / "in.wpsc")
        save_bundle(outs, tmp_path / "out.wpsc")
        rc = main(["oos", "--in-data", str(tmp_path / "in.wpsc"),
                   "--out-data", str(tmp_path / "out.wpsc"), "--d", "2",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert metrics["acc"] == 1.0


class TestRun:
    def test_single_pipeline_report(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path)))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        run = report["runs"][0]
        assert run["metrics"]["in"]["acc"] == 1.0
        assert run["metrics"]["out"]["acc"] == 1.0
        assert "affinity_ambient" in run["diagnostics"]
        rows = list(csv.DictReader(open(tmp_path / "out" / "metrics.csv")))
        assert {r["phase"] for r in rows} == {"in", "out"}
        assert all(r["dataset"] == "demo" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        synth_bundle(tmp_path)
        cfg = base_config(tmp_path, pipeline="wp-mera",
                          mera={"lambda": 10.0, "R": 12})
        del cfg["solver"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_prime_in_sample_fails_fast(self, tmp_path):
        # 3 clusters x ceil(0.8*12)=10 -> 30; with 0.9 -> ceil=11 -> 33=3*11
        # use one cluster sized so n_in is prime
        ds = generate_uos(UosSpec(C=1 + 1, d=2, D=64, n_per_cluster=13,
                                  noise_sigma=0.0, seed=0))
        # make N_in = 2 * 13 = 26 -> grid (2,13) works; force prime instead:
        save_bundle(ds, tmp_path / "data.wpsc")
        cfg = base_config(tmp_path, pipeline="wp-mera",
                          mera={"lambda": 10.0, "R": 6},
                          split={"in_fraction": 1.0, "seed": 0},
                          dataset={"kind": "bundle",
                                   "path": str(tmp_path / "data.wpsc")})
        del cfg["solver"]
        # N_in = 26 is fine; shrink one cluster to make 23 (prime) total
        from wpsc.datasets import Dataset
        prime_ds = Dataset(data=ds.data[:, :23], img_h=8, img_w=8,
                           labels=np.array([0] * 13 + [1] * 10))
        save_bundle(prime_ds, tmp_path / "data.wpsc")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2

    def test_append_mode(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["run", "--config", str(cfg_path), "--append",
                     "--seed", "1"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "metrics.csv")))
        assert {r["seed"] for r in rows} == {"0", "1"}
        header_lines = [line for line in
                        (tmp_path / "out" / "metrics.csv").read_text().splitlines()
                        if line.startswith("dataset,")]
        assert len(header_lines) == 1

    def test_flag_overrides(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path)))
        out2 = tmp_path / "elsewhere"
        rc = main(["run", "--config", str(cfg_path),
                   "--output-dir", str(out2)])
        assert rc == 0
        assert (out2 / "report.json").exists()

    def test_wp_single_trace(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg = base_config(tmp_path, pipeline="wp-single", levels=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        run = report["runs"][0]
        assert run["subband"] in ("", "A", "H", "V", "D", "AA", "AH", "AV",
                                  "AD", "HA", "HH", "HV", "HD", "VA", "VH",
                                  "VV", "VD", "DA", "DH", "DV", "DD")
        assert len(run["selection"]["evaluated"]) in (5, 9)
        rows = list(csv.DictReader(open(tmp_path / "out" / "trace.csv")))
        assert len(rows) == len(run["selection"]["evaluated"])

    def test_wp_single_on_pgm_directory(self, tmp_path):
        # 5-class PGM fixture: distinct smooth patterns per class
        rng = np.random.default_rng(0)
        pgm_dir = tmp_path / "pgms"
        pgm_dir.mkdir()
        patterns = [rng.integers(40, 216, size=(8, 8)) for _ in range(5)]
        for cls, pat in enumerate(patterns, start=1):
            for i in range(8):
                img = np.clip(pat + rng.integers(-8, 9, size=(8, 8)), 0, 255)
                with open(pgm_dir / f"obj{cls}__{i}.pgm", "wb") as fh:
                    fh.write(b"P5\n8 8\n255\n" + img.astype(np.uint8).tobytes())
        cfg = {
            "dataset": {"kind": "pgm_dir", "path": str(pgm_dir),
                        "class_regex": r"obj(\d+)__", "name": "pgm5"},
            "pipeline": "wp-single",
            "solver": {"kind": "RTSC", "params": {"q": 3}},
            "levels": 2, "d": 2,
            "split": {"in_fraction": 1.0, "seed": 0},
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        run = report["runs"][0]
        assert "subband" in run and "selection" in run
        assert len(run["selection"]["evaluated"]) in (5, 9)
        rows = list(csv.DictReader(open(tmp_path / "out" / "trace.csv")))
        assert [r["subband"] for r in rows][:1] == [""]

    def test_cluster_export_matrix(self, tmp_path, capsys):
        from wpsc.bundle import load_matrix
        path, ds = synth_bundle(tmp_path)
        rc = main(["cluster", "--data", str(path), "--solver", "SSC",
                   "--param", "alpha=10", "--export-matrix",
                   "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        Z = load_matrix(tmp_path / "c" / "representation.wpsc")
        W = load_matrix(tmp_path / "c" / "affinity.wpsc")
        assert Z.shape == (ds.N, ds.N) and W.shape == (ds.N, ds.N)
        assert np.array_equal(W, W.T)

    def test_export_bundles(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg = base_config(tmp_path, pipeline="wp-single", levels=1,
                          export_bundles=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        exported = [p.name for p in out.glob("*.wpsc")]
        assert "in_s0.wpsc" in exported
        assert any("__" in name for name in exported)  # subband bundle
        inner = load_bundle(out / "in_s0.wpsc")
        assert inner.labels is not None

    def test_grid_csv_written(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=16)
        cfg = base_config(tmp_path, grid={
            "values": {"alpha": [5, 10]},
            "n_val_subsets": 2, "val_size_per_cluster": 8})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "grid.csv")))
        assert len(rows) == 2
        assert {json.loads(r["params"])["alpha"] for r in rows} == {5, 10}

    def test_grid_search_in_report(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=16)
        cfg = base_config(tmp_path, grid={
            "values": {"alpha": [5, 10]},
            "n_val_subsets": 2, "val_size_per_cluster": 8})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        run = report["runs"][0]
        assert run["grid"]["best_params"]["alpha"] in (5, 10)
        assert len(run["grid"]["table"]) == 2


class TestErrorExits:
    def test_convergence_failure_exits_4_and_flushes(self, tmp_path, capsys):
        synth_bundle(tmp_path)
        cfg = base_config(tmp_path, pipeline="wp-mera",
                          mera={"lambda": 10.0, "R": 12, "max_iter": 2},
                          seeds=[0])
        del cfg["solver"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "stage" in err and "pipeline[seed=0]" in err

    def test_partial_results_flushed_on_later_seed(self, tmp_path, capsys,
                                                   monkeypatch):
        import wpsc.pipeline as pipeline_mod
        from wpsc.errors import ConvergenceError

        synth_bundle(tmp_path)
        cfg = base_config(tmp_path, pipeline="wp-mera",
                          mera={"lambda": 10.0, "R": 12}, seeds=[0, 1],
                          split={"in_fraction": 0.75, "seed": 0})
        del cfg["solver"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        real = pipeline_mod.mera_mvsc
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ConvergenceError("forced failure", {"data": 1.0})
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "mera_mvsc", flaky)
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 4
        assert "flushed 1 completed run(s)" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["runs"]) == 1 and report["runs"][0]["seed"] == 0

    def test_mera_report_echoes_params(self, tmp_path):
        synth_bundle(tmp_path)
        cfg = base_config(tmp_path, pipeline="wp-mera",
                          mera={"lambda": 1e-4, "R": 3})
        del cfg["solver"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["mera"] == {"lambda": 1e-4, "R": 3}
        conv = report["runs"][0]["convergence"]
        assert conv["lambda"] == 1e-4 and conv["R"] == 3

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pipeline": "single"}))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        synth_bundle(tmp_path)
        cfg = base_config(tmp_path)
        cfg["bogus"] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_bad_bundle_exits_3(self, tmp_path):
        bad = tmp_path / "bad.wpsc"
        bad.write_bytes(b"garbage")
        assert main(["cluster", "--data", str(bad), "--solver", "SSC",
                     "--param", "alpha=10"]) == 3

    def test_oos_dimension_mismatch_exits_3(self, tmp_path):
        # D = 1024 in-sample model, D = 64 out-of-sample points
        synth_bundle(tmp_path, D=1024)
        (tmp_path / "data.wpsc").rename(tmp_path / "in.wpsc")
        synth_bundle(tmp_path, D=64)
        env = {**os.environ, "PYTHONPATH": str(Path(wpsc.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "wpsc.cli", "oos",
             "--in-data", str(tmp_path / "in.wpsc"),
             "--out-data", str(tmp_path / "data.wpsc"), "--d", "3",
             "--out-dir", str(tmp_path / "o")],
            env=env, capture_output=True, text=True)
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("data error:") and "D = 1024" in out.stderr

    def test_config_from_dict_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dataset": {"kind": "synthetic"},
                                        "pipeline": "nope"})


class TestRunExperimentApi:
    def test_emit_report_paths(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        results = run_experiment(cfg)
        paths = emit_report(results)
        for p in paths:
            assert p.exists()
