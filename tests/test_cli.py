import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_mera_unlabeled_prints_path(self, tmp_path, capsys):
        # like cluster and oos: no truth to score, so it names the labels file
        from wpsc.datasets import Dataset
        _, ds = synth_bundle(tmp_path)
        path = tmp_path / "bare.wpsc"
        save_bundle(Dataset(data=ds.data, img_h=ds.img_h, img_w=ds.img_w), path)
        out = tmp_path / "m"
        assert main(["mera", "--data", str(path), "--lam", "10", "--rank", "12",
                     "--out-dir", str(out)]) == 2
        assert main(["mera", "--data", str(path), "--lam", "10", "--rank", "12",
                     "--C", "3", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == f"wrote {out / 'labels.csv'}"
        assert len((out / "labels.csv").read_text().split()) == ds.N
        assert (out / "trace.csv").read_text().startswith("iteration,")

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

    def test_blas_thread_count_moves_only_final_fit_error(self, tmp_path):
        # 32x32 images make the MERA GEMMs large enough for OpenBLAS to split
        # them over two threads; both runs write to the same output path
        path, _ = synth_bundle(tmp_path, D=1024, noise_sigma=0.05)
        cfg = base_config(tmp_path, pipeline="wp-mera",
                          mera={"lambda": 10.0, "R": 12})
        del cfg["solver"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        reports, labels = [], []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(wpsc.__file__).parents[1]),
                   **{k: threads for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}}
            for argv in (["run", "--config", str(cfg_path)],
                         ["mera", "--data", str(path), "--lam", "10", "--rank", "12",
                          "--out-dir", str(tmp_path / "m")]):
                out = subprocess.run([sys.executable, "-m", "wpsc.cli", *argv],
                                     env=env, capture_output=True, text=True)
                assert out.returncode == 0, out.stderr
            reports.append(json.loads((tmp_path / "out" / "report.json").read_text()))
            labels.append((tmp_path / "m" / "labels.csv").read_text())
        assert labels[0] == labels[1]
        for report in reports:
            for run in report["runs"]:
                del run["convergence"]["final_fit_error"]
        assert reports[0] == reports[1]

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

    def test_append_into_empty_files_writes_headers(self, tmp_path):
        # an existing but empty file gets its header, whichever file it is
        synth_bundle(tmp_path, n_per_cluster=15)
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.csv").touch()
        (out / "trace.csv").touch()
        assert main([*_run_argv(tmp_path, pipeline="wp-single", levels=1), "--append"]) == 0
        for name, first in (("metrics.csv", "dataset"), ("trace.csv", "seed")):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith(first + ","), name
            assert sum(line.startswith(first + ",") for line in lines) == 1, name
            assert len(lines) > 1, name

    def test_append_refuses_other_header(self, tmp_path, monkeypatch):
        # MERA trace rows would land under the subband-selection header
        synth_bundle(tmp_path)
        argv = _run_argv(tmp_path, pipeline="wp-single", levels=1,
                         mera={"lambda": 10.0, "R": 12})
        assert main(argv) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        runs = []
        monkeypatch.setattr("wpsc.cli.run_experiment",
                            lambda cfg: runs.append(cfg) or run_experiment(cfg))
        assert main([*argv, "--append", "--pipeline", "wp-mera"]) == 2
        assert runs == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the same pipeline still appends
        assert main([*argv, "--append", "--seed", "1"]) == 0
        assert len(runs) == 1
        (out / "trace.csv").write_bytes(b"\xff\xfe\x00garbage")
        assert main([*argv, "--append"]) == 2
        assert len(runs) == 1

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

    def test_wp_single_solves_each_node_once(self, tmp_path, monkeypatch):
        # the final fit reuses the descent's labels of the chosen subband
        synth_bundle(tmp_path, n_per_cluster=15)
        solves = []
        real = wpsc.SolverSpec.solve
        monkeypatch.setattr(wpsc.SolverSpec, "solve",
                            lambda spec, X: solves.append(1) or real(spec, X))
        results = run_experiment(ExperimentConfig.from_dict(
            base_config(tmp_path, pipeline="wp-single", levels=2)))
        run = results["report"]["runs"][0]
        assert len(solves) == len(run["selection"]["evaluated"])
        assert run["metrics"]["in"]["acc"] == 1.0

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
        path, ds = synth_bundle(tmp_path)
        rc = main(["cluster", "--data", str(path), "--solver", "SSC",
                   "--param", "alpha=10", "--export-matrix",
                   "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        Z = load_bundle(tmp_path / "c" / "representation.wpsc").data
        W = load_bundle(tmp_path / "c" / "affinity.wpsc").data
        assert Z.shape == (ds.N, ds.N) and W.shape == (ds.N, ds.N)
        assert np.array_equal(W, W.T)

    def test_cluster_export_matrix_keeps_labels(self, tmp_path, capsys):
        # the export path must cluster exactly as the plain path does, IPD included
        path, _ = synth_bundle(tmp_path, noise_sigma=0.1)
        argv = ["cluster", "--data", str(path), "--solver", "SSC",
                "--param", "alpha=10", "--ipd-d", "3", "--seed", "1"]
        assert main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
        assert main([*argv, "--export-matrix", "--out-dir", str(tmp_path / "export")]) == 0
        plain = (tmp_path / "plain" / "labels.csv").read_bytes()
        assert plain == (tmp_path / "export" / "labels.csv").read_bytes()
        assert len(plain.split()) == 36

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

    def test_lrr_svd_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        synth_bundle(tmp_path)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        argv = _run_argv(tmp_path, solver={"kind": "LRR", "params": {"lambda": 10}})
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence error:") and "LRR" in err
        assert "residuals=" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("slot,value", [
        *((slot, value) for slot in (("ipd",), ("normalize",), ("export_bundles",))
          for value in ("false", 0, 1, None)),
        *((("dataset", "name"), value) for value in (0, 1, None)),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else json.dumps(v))
    def test_config_flag_and_name_types_checked(self, tmp_path, slot, value):
        # bool() coercion once made "ipd": "false" switch IPD on and exit 0
        cfg = base_config(tmp_path)
        section = cfg if len(slot) == 1 else cfg[slot[0]]
        section[slot[-1]] = value
        with pytest.raises(ConfigError, match=slot[-1]):
            ExperimentConfig.from_dict(cfg)
        assert main(["run", "--config", _write(tmp_path / "cfg.json", json.dumps(cfg))]) == 2


def _write(path, text):
    path.write_text(text)
    return str(path)


def _oos_argv(tmp_path, labels):
    data = str(tmp_path / "data.wpsc")
    return ["oos", "--in-data", data, "--out-data", data, "--d", "2", "--labels",
            _write(tmp_path / "labels.csv", "\n".join(map(str, labels)) + "\n")]


def _run_argv(tmp_path, **overrides):
    cfg = base_config(tmp_path, **overrides)
    return ["run", "--config", _write(tmp_path / "cfg.json", json.dumps(cfg))]


# case -> (exit code, argv built from the test's directory and the bundle labels)
BAD_INPUTS = {
    "oos-labels-not-integer": (3, lambda t, y: _oos_argv(t, ["1.5", *y[1:]])),
    "oos-labels-short": (3, lambda t, y: _oos_argv(t, y[:-1])),
    "oos-labels-long": (3, lambda t, y: _oos_argv(t, [*y, 0])),
    "oos-labels-gap": (3, lambda t, y: _oos_argv(t, [2 * v for v in y])),
    "eval-labels-length": (3, lambda t, y: [
        "eval", "--truth", _write(t / "truth.csv", "0\n1\n"),
        "--pred", _write(t / "pred.csv", "0\n1\n1\n")]),
    "eval-labels-not-integer": (3, lambda t, y: [
        "eval", "--truth", _write(t / "truth.csv", "0\n1\n"),
        "--pred", _write(t / "pred.csv", "0\none\n")]),
    "config-invalid-json": (2, lambda t, y: ["run", "--config", _write(t / "c.json", "{")]),
    "config-not-object": (2, lambda t, y: ["run", "--config", _write(t / "c.json", "[1]")]),
    "config-d": (2, lambda t, y: _run_argv(t, d="x")),
    "config-in-fraction": (2, lambda t, y: _run_argv(t, split={"in_fraction": "x"})),
    "config-mera-rank": (2, lambda t, y: _run_argv(t, pipeline="wp-mera",
                                                   mera={"lambda": 10, "R": "x"})),
    "config-mera-max-iter": (2, lambda t, y: _run_argv(t, pipeline="wp-mera",
                                                       mera={"lambda": 10, "R": 12,
                                                             "max_iter": 0})),
    "config-mera-lambda-nan": (2, lambda t, y: _run_argv(t, pipeline="wp-mera",
                                                         mera={"lambda": float("nan"),
                                                               "R": 12})),
    "config-seeds": (2, lambda t, y: _run_argv(t, seeds=["a"])),
    "config-uos-size": (2, lambda t, y: _run_argv(t, dataset={
        "kind": "synthetic", "uos": {"C": "x", "d": 1, "D": 16, "n_per_cluster": 6}})),
    "param-not-number": (2, lambda t, y: [
        "cluster", "--data", str(t / "data.wpsc"), "--solver", "SSC",
        "--param", "alpha=abc", "--out-dir", str(t / "c")]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_without_traceback(tmp_path, case):
    code, argv = BAD_INPUTS[case]
    _, ds = synth_bundle(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(wpsc.__file__).parents[1])}
    cmd = [sys.executable, "-m", "wpsc.cli", *argv(tmp_path, ds.labels.tolist())]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr


# Malformed values per config slot: wrong types, non-finite numbers and
# out-of-range numbers. None of them may escape main as a raw exception.
_junk = st.one_of(
    st.none(),
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
_not_a_string = st.one_of(st.none(), st.integers(), st.floats(),
                          st.lists(st.integers(), max_size=2))
_not_a_bool = st.one_of(_junk, st.integers(), st.floats(),
                        st.sampled_from(["false", "true", "0", "1"]))
BAD_CONFIG_VALUES = {
    ("d",): st.one_of(_junk, st.integers(max_value=0)),
    ("levels",): st.one_of(_junk, st.integers(max_value=0)),
    ("split", "in_fraction"): st.one_of(
        _junk, st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True)),
    ("split", "seed"): st.one_of(_junk, st.integers(max_value=-1),
                                 st.floats(0.1, 0.9)),
    ("seeds",): st.one_of(_junk, st.just([]), st.lists(_junk, min_size=1, max_size=2),
                          st.integers(max_value=-1).map(lambda v: [v])),
    ("pipeline",): st.one_of(_junk, st.text(max_size=8)).filter(
        lambda v: v not in ("single", "wp-single", "wp-mera")),
    ("solver", "kind"): st.one_of(_junk, st.text(max_size=4)).filter(
        lambda v: v not in ("SSC", "LRR", "NSN", "RTSC")),
    ("solver", "params", "alpha"): st.one_of(_junk, st.integers(max_value=0),
                                             st.floats(max_value=0.0)),
    ("solver", "tol"): st.one_of(_junk.filter(lambda v: v is not None),
                                 st.floats(max_value=0.0)),
    ("solver", "max_iter"): st.one_of(_junk.filter(lambda v: v is not None),
                                      st.integers(max_value=0), st.floats(0.1, 0.9)),
    ("dataset", "kind"): st.one_of(_junk, st.text(max_size=8)).filter(
        lambda v: v not in ("synthetic", "bundle", "idx", "pgm_dir")),
    ("dataset", "path"): st.one_of(_not_a_string,
                                   st.text("abc", min_size=1).map(lambda v: f"missing/{v}")),
    ("output_dir",): _not_a_string,
    ("ipd",): _not_a_bool,
    ("normalize",): _not_a_bool,
    ("export_bundles",): _not_a_bool,
    ("dataset", "name"): _not_a_string,
    ("mera", "lambda"): st.one_of(_junk, st.floats(max_value=0.0)),
    ("mera", "R"): st.one_of(_junk, st.integers(max_value=0)),
    ("mera", "max_iter"): st.one_of(_junk, st.integers(max_value=0)),
}
BAD_PARAMS = st.one_of(
    st.sampled_from(["alpha", "alpha=", "=10", "alpha=NaN", "alpha=Infinity",
                     "alpha=-Infinity", "alpha=1e999", "alpha=null", "alpha=[1]",
                     "alpha={}", "alpha=0", "alpha=-3"]),
    st.text(alphabet="abcxyz=", max_size=8),
    st.floats(max_value=0.0).map(lambda v: f"alpha={v!r}"),
)
fuzz = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    synth_bundle(path, C=2, d=1, D=16, n_per_cluster=6)
    return path


def _assert_clean_exit(argv):
    try:
        code = main(argv)
    except BaseException as exc:  # SystemExit included: main must return
        pytest.fail(f"{type(exc).__name__} escaped main: {exc!r}")
    assert code in (2, 3, 4)


class TestMalformedInputFuzz:
    @fuzz
    @given(data=st.data(), slot=st.sampled_from(sorted(BAD_CONFIG_VALUES)))
    def test_run_config_value(self, fuzz_dir, data, slot):
        value = data.draw(BAD_CONFIG_VALUES[slot], label=".".join(slot))
        cfg = base_config(fuzz_dir, d=1)
        if slot[0] == "mera":
            cfg.update(pipeline="wp-mera", mera={"lambda": 10, "R": 2})
        section = cfg
        for key in slot[:-1]:
            section = section[key]
        section[slot[-1]] = value
        path = fuzz_dir / "cfg.json"
        path.write_text(json.dumps(cfg))
        _assert_clean_exit(["run", "--config", str(path)])

    @fuzz
    @given(params=st.lists(BAD_PARAMS, min_size=1, max_size=2))
    def test_cluster_param(self, fuzz_dir, params):
        _assert_clean_exit(["cluster", "--data", str(fuzz_dir / "data.wpsc"),
                            "--solver", "SSC", "--out-dir", str(fuzz_dir / "c"),
                            *(f"--param={p}" for p in params)])


class TestRunExperimentApi:
    def test_echo_drops_empty_sections(self, tmp_path):
        echo = ExperimentConfig.from_dict(base_config(tmp_path)).echo()
        assert "mera" not in echo and "grid" not in echo
        assert echo["solver"] == {"kind": "SSC", "params": {"alpha": 10},
                                  "tol": 1e-6, "max_iter": 200}
        assert echo["split"] == {"in_fraction": 0.8, "seed": 0}
        assert json.loads(json.dumps(echo))["seeds"] == [0]

    def test_emit_report_paths(self, tmp_path):
        synth_bundle(tmp_path, n_per_cluster=15)
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        results = run_experiment(cfg)
        paths = emit_report(results)
        for p in paths:
            assert p.exists()


# Runs in a fresh interpreter in which importing scipy, or any scipy.*
# module, raises ImportError; argv lists come as JSON in sys.argv[1].
_NO_SCIPY_CHILD = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} blocked")
        return None

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

sys.meta_path.insert(0, BlockScipy())
import wpsc.cli
after_import = loaded()
codes = [wpsc.cli.main(argv) for argv in json.loads(sys.argv[1])]
p = wpsc.wilcoxon_signed_rank([1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0])
print(json.dumps({"after_import": after_import, "codes": codes, "p": p,
                  "after_run": loaded()}))
"""


def test_run_path_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: neither importing the CLI nor a
    # run of any pipeline, nor any other subcommand, may load a scipy module
    _, ds = synth_bundle(tmp_path, n_per_cluster=16)
    grid = {"values": {"q": [3, 5]}, "n_val_subsets": 2, "val_size_per_cluster": 8}
    configs = {
        "ssc": {},
        "lrr": {"solver": {"kind": "LRR", "params": {"lambda": 10}}},
        "nsn": {"solver": {"kind": "NSN", "params": {"k": 4, "d_max": 2}}},
        "rtsc-grid": {"solver": {"kind": "RTSC", "params": {"q": 4}}, "grid": grid},
        "wp-single": {"pipeline": "wp-single", "levels": 1},
        "wp-mera": {"pipeline": "wp-mera", "mera": {"lambda": 10, "R": 12},
                    "split": {"in_fraction": 0.75, "seed": 0}},
    }
    argvs = []
    for name, overrides in configs.items():
        cfg = base_config(tmp_path, output_dir=str(tmp_path / name), **overrides)
        if name == "wp-mera":
            del cfg["solver"]
        argvs.append(["run", "--config", _write(tmp_path / f"{name}.json",
                                                 json.dumps(cfg))])
    data = str(tmp_path / "data.wpsc")
    ssc = ["--data", data, "--solver", "SSC", "--param", "alpha=10"]
    argvs += [
        ["cluster", *ssc, "--export-matrix", "--out-dir", str(tmp_path / "cluster")],
        ["select-subband", *ssc, "--levels", "1", "--out-dir", str(tmp_path / "select")],
        ["mera", "--data", data, "--lam", "10", "--rank", "12",
         "--out-dir", str(tmp_path / "mera")],
        ["oos", "--in-data", data, "--out-data", data, "--d", "2",
         "--out-dir", str(tmp_path / "oos")],
    ]
    labels = "\n".join(map(str, ds.labels)) + "\n"
    argvs.append(["eval", "--truth", _write(tmp_path / "truth.csv", labels),
                  "--pred", _write(tmp_path / "pred.csv", labels),
                  "--out", str(tmp_path / "eval.json")])
    env = {**os.environ, "PYTHONPATH": str(Path(wpsc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, json.dumps(argvs)],
                         env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["codes"] == [0] * len(argvs), out.stderr
    assert 0.0 < result["p"] < 0.05
    assert result["after_run"] == []
    for name in configs:
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["runs"][0]["metrics"]["in"]["acc"] > 0.5, name
    for name in ("cluster", "mera", "oos"):
        assert (tmp_path / name / ("oos_labels.csv" if name == "oos" else "labels.csv")).exists()
    assert (tmp_path / "cluster" / "affinity.wpsc").exists()
    assert (tmp_path / "select" / "selection.csv").exists()
    assert json.loads((tmp_path / "eval.json").read_text())["acc"] == 1.0
