"""Experiment driver CLI.

Subcommands: synth, wpt, cluster, select-subband, mera, oos, eval, and run
(the full pipeline from a JSON config). ``run`` writes report.json,
metrics.csv, and trace.csv into the output directory; report.json is
byte-identical across reruns with the same config and seeds.

Exit codes: 0 ok, 2 config error, 3 data error, 4 convergence error.
"""

import argparse
import csv
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bundle import load_bundle, save_bundle, save_matrix
from .datasets import (Dataset, SplitSpec, UosSpec, column_normalize, generate_uos, load_idx,
                       load_pgm_dir, split, unit_columns)
from .errors import (ConfigError, ConsistencyError, ConvergenceError, DataError, Error,
                     LabelingError)
from .graph import Partition, affinity_from_representation, spectral_clustering
from .mera import FIVE_VIEW_ORDER, choose_grid, unify_views
from .metrics import evaluate
from .pipeline import SingleViewPipeline, WpMeraPipeline, five_views, run_wp_mera
from .selection import Grid, grid_search, select_subband
from .solvers import SolverSpec
from .subspace import (assign_multiview_batch, average_affinity, estimate_bases,
                       mean_principal_angle)
from .wavelet import node_matrix, wp_decompose

METRICS_HEADER = ["dataset", "pipeline", "subband", "seed", "phase",
                  "acc", "nmi", "rand", "f", "purity", "ce", "seconds"]
MERA_TRACE_HEADER = ["iteration", *(f"res_{n}" for n in FIVE_VIEW_ORDER), "fit_error", "mu"]
SELECTION_HEADER = ["order", "subband", "ce"]
GRID_HEADER = ["seed", "params", "mean_acc", "accs"]
PIPELINES = ("single", "wp-single", "wp-mera")
MERA_SUBBAND_TAG = "O+A+H+V+D"


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    dataset: dict
    pipeline: str
    solver: SolverSpec | None = None
    levels: int = 2
    d: int = 9
    ipd: bool = False
    split: SplitSpec = field(default_factory=lambda: SplitSpec(1.0, 0))
    mera: dict = field(default_factory=dict)
    grid: Grid | None = None
    seeds: tuple = (0,)
    output_dir: str = "out"
    normalize: bool = True
    export_bundles: bool = False

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw:
            raise ConfigError("config needs a 'dataset' section")
        pipeline = raw.get("pipeline", "single")
        if pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}")
        try:
            solver = grid = None
            if "solver" in raw:
                s = dict(raw["solver"])
                solver = SolverSpec(kind=s.pop("kind"), params=s.pop("params", {}), **s)
            if "grid" in raw:
                g = dict(raw["grid"])
                grid = Grid(values=g.pop("values"), **g)
            sp = raw.get("split", {})
            cfg = cls(dataset=dict(raw["dataset"]), pipeline=pipeline, solver=solver,
                      levels=int(raw.get("levels", 2)), d=int(raw.get("d", 9)),
                      ipd=raw.get("ipd", False),
                      split=SplitSpec(in_fraction=sp.get("in_fraction", 1.0),
                                      seed=sp.get("seed", 0)),
                      mera=dict(raw.get("mera", {})), grid=grid,
                      seeds=tuple(raw.get("seeds", (0,))),
                      output_dir=raw.get("output_dir", "out"),
                      normalize=raw.get("normalize", True),
                      export_bundles=raw.get("export_bundles", False))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc!r}") from exc
        if not isinstance(cfg.output_dir, str):
            raise ConfigError(f"output_dir must be a path string, got {cfg.output_dir!r}")
        for key in ("ipd", "normalize", "export_bundles"):
            if not isinstance(getattr(cfg, key), bool):
                raise ConfigError(f"{key} must be true or false, got {getattr(cfg, key)!r}")
        if not isinstance(cfg.dataset.get("name", ""), str):
            raise ConfigError(f"dataset.name must be a string, got {cfg.dataset['name']!r}")
        if pipeline == "wp-mera":
            _mera_fields(cfg.mera)
        elif solver is None:
            raise ConfigError(f"pipeline {pipeline!r} needs a solver spec")
        if not cfg.seeds or not all(isinstance(s, numbers.Integral) for s in cfg.seeds):
            raise ConfigError("seeds must be a nonempty list of integers")
        return cfg

    def validate_against(self, ds):
        """Fail fast on config/dataset inconsistencies (before any solve)."""
        if ds.labels is None:
            raise ConfigError("experiments need a labeled dataset")
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        counts = np.bincount(ds.labels)
        n_in = int(sum(math.ceil(self.split.in_fraction * c) for c in counts))
        if self.pipeline == "wp-mera":
            choose_grid(n_in)  # raises NoGridError on e.g. prime N
        if min(ds.img_h, ds.img_w) < 2 ** (self.levels if "wp" in self.pipeline else 0):
            raise ConfigError(
                f"{ds.img_h}x{ds.img_w} images too small for levels={self.levels}"
            )

    def echo(self):
        """JSON-serializable canonical form for the report."""
        return {k: v for k, v in asdict(self).items()
                if v or k not in ("solver", "grid", "mera")}


def load_dataset(spec):
    """Materialize the dataset named by a config 'dataset' section."""

    def text(key, optional=False):
        value = spec.get(key)
        if not (isinstance(value, str) or (optional and value is None)):
            raise ConfigError(f"{kind} dataset needs a string {key!r}, got {value!r}")
        return value

    kind = spec.get("kind")
    if kind == "synthetic":
        u = spec.get("uos", {})
        try:
            uspec = UosSpec(C=u["C"], d=u["d"], D=u["D"],
                            n_per_cluster=u["n_per_cluster"],
                            noise_sigma=u.get("noise_sigma", 0.0),
                            seed=u.get("seed", 0))
        except KeyError as exc:
            raise ConfigError(f"synthetic dataset needs uos.{exc.args[0]}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic dataset spec: {exc}") from exc
        ds = generate_uos(uspec)
        return ds if "name" not in spec else Dataset(
            data=ds.data, img_h=ds.img_h, img_w=ds.img_w, labels=ds.labels,
            name=spec["name"])
    if kind == "bundle":
        return load_bundle(text("path"), name=spec.get("name"))
    if kind == "idx":
        return load_idx(text("images"), text("labels", optional=True),
                        name=spec.get("name"))
    if kind == "pgm_dir":
        return load_pgm_dir(text("path"), text("class_regex"), name=spec.get("name"))
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _mera_fields(p):
    """WpMeraPipeline parameters from a config 'mera' section."""
    for key in ("lambda", "R"):
        if key not in p:
            raise ConfigError(f"wp-mera pipeline needs mera.{key}")
    out = {"lam": p["lambda"], "R": p["R"], "tol": p.get("tol", 1e-6),
           "max_iter": p.get("max_iter", 200), "sweeps": p.get("sweeps", 2)}
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in out.values()):
        raise ConfigError(f"mera parameters must be finite numbers, got {p}")
    return {**out, **{k: int(out[k]) for k in ("R", "max_iter", "sweeps")}}


def _pipeline(cfg, ds, params=None):
    """The pipeline a config runs, with grid-search ``params`` laid over its
    MERA or solver parameters."""
    params = params or {}
    if cfg.pipeline == "wp-mera":
        return WpMeraPipeline(ds.img_h, ds.img_w, **_mera_fields({**cfg.mera, **params}))
    solver = replace(cfg.solver, params={**cfg.solver.params, **params})
    return SingleViewPipeline(solver=solver, ipd_d=cfg.d if cfg.ipd else None)


def _mera_trace_row(t):
    """One MERA iteration record as a row under MERA_TRACE_HEADER."""
    return [t["iteration"], *t["view_residuals"], t["fit_error"], t["mu"]]


def _metrics_dict(truth, pred):
    rep = evaluate(truth, pred)
    d = rep.as_dict()
    d["ce"] = 1.0 - rep.acc
    return d


def _run_seed(cfg, ds, seed):
    """One full experiment run; returns (report record, csv rows, trace rows).

    Every pipeline fits the in-sample points, fits one subspace model per
    view to that partition and assigns held-out points by their nearest
    subspace over all views: one view (the data or the chosen subband)
    for the single-view pipelines, the five level-1 views for MERA.
    """
    t0 = time.perf_counter()
    rec = {"seed": seed, "pipeline": cfg.pipeline}
    trace_rows = []
    in_ds, out_ds = split(ds, SplitSpec(cfg.split.in_fraction, cfg.split.seed + seed))
    rec["split"] = {"in": in_ds.N, "out": out_ds.N}

    grid_params = None
    if cfg.grid is not None:
        grid = replace(cfg.grid, seed=cfg.grid.seed + seed)
        grid_params, table = grid_search(in_ds, grid, lambda p: _pipeline(cfg, ds, p))
        rec["grid"] = {"best_params": grid_params, "table": table}
    pipe = _pipeline(cfg, ds, grid_params)

    C = ds.C
    mera = cfg.pipeline == "wp-mera"
    if mera:
        mtrace = []
        part, tensor, in_views = pipe.fit(in_ds, C, seed, trace=mtrace)
        subband = MERA_SUBBAND_TAG
        rec["convergence"] = {"iterations": len(mtrace),
                              "final_residual": max(mtrace[-1]["view_residuals"]),
                              "final_fit_error": mtrace[-1]["fit_error"],
                              "lambda": pipe.lam, "R": pipe.R}
        trace_rows += [[seed, *_mera_trace_row(t)] for t in mtrace]
    else:
        subband = ""
        if cfg.pipeline == "wp-single":
            # the descent clusters with C = max label + 1, which the stratified
            # split keeps equal to ds.C, so its run of the chosen node is the fit
            assert in_ds.labels.max() + 1 == C, "the split lost a cluster"
            sel = select_subband(in_ds, cfg.levels, pipe, seed)
            subband = sel.chosen
            rec["selection"] = {"evaluated": [[p, ce] for p, ce in sel.evaluated],
                                "stopped_reason": sel.stopped_reason}
            trace_rows += [[seed, i, p, ce] for i, (p, ce) in enumerate(sel.evaluated)]
        X = node_matrix(in_ds, subband)
        labels = sel.labels if cfg.pipeline == "wp-single" else pipe.run(X, C, seed)
        part = Partition(labels=labels, C=C)
        in_views = [unit_columns(X)]
    rec["subband"] = subband
    metrics = {"in": _metrics_dict(in_ds.labels, part.labels)}
    if cfg.export_bundles:
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_bundle(in_ds, out_dir / f"in_s{seed}.wpsc")
        if cfg.pipeline == "wp-single":
            save_bundle(in_ds.with_data(in_views[0]),
                        out_dir / f"{in_ds.name}__{subband}_s{seed}.wpsc")
        elif mera:
            save_matrix(unify_views(tensor), out_dir / f"unified_s{seed}.wpsc")

    # out-of-sample assignment by point-to-subspace distance over all views;
    # the held-out views come before the models: the other order raised the
    # oos-grid benchmark's peak RSS by 2 MiB through heap layout alone
    out_views = five_views(out_ds) if mera else [unit_columns(node_matrix(out_ds, subband))]
    models = [estimate_bases(Xv, part, cfg.d) for Xv in in_views]
    if out_ds.N:
        metrics["out"] = _metrics_dict(out_ds.labels,
                                       assign_multiview_batch(out_views, models))
    # the first view of the single and MERA pipelines is the data itself
    ambient = (estimate_bases(unit_columns(in_ds.data), part, cfg.d)
               if cfg.pipeline == "wp-single" else models[0])
    diag = {"affinity_ambient": average_affinity(ambient)}
    diag["angle_ambient"] = mean_principal_angle(diag["affinity_ambient"])
    if cfg.pipeline == "wp-single":
        diag["affinity_subband"] = average_affinity(models[0])
        diag["angle_subband"] = mean_principal_angle(diag["affinity_subband"])
    elif mera:
        diag["affinity_views"] = {name: average_affinity(m)
                                  for name, m in zip(FIVE_VIEW_ORDER[1:], models[1:])}
    rec["metrics"] = metrics
    rec["diagnostics"] = diag
    seconds = time.perf_counter() - t0

    csv_rows = []
    for phase, m in metrics.items():
        csv_rows.append([ds.name, cfg.pipeline, subband, seed, phase,
                         f"{m['acc']:.6f}", f"{m['nmi']:.6f}", f"{m['rand']:.6f}",
                         f"{m['f']:.6f}", f"{m['purity']:.6f}", f"{m['ce']:.6f}",
                         f"{seconds:.3f}"])
    return rec, csv_rows, trace_rows


def _stage(name, fn, *args, **kwargs):
    """Run one pipeline stage; on failure, name the stage in the error."""
    try:
        return fn(*args, **kwargs)
    except Error as exc:
        exc.args = (f"[stage: {name}] {exc}",) + exc.args[1:]
        raise


def run_experiment(cfg):
    """Execute a validated config: all seeds, in -> OOS -> diagnostics.

    Returns the results dict that :func:`emit_report` serializes. On a
    mid-run failure the error names the failing stage and carries the
    completed seeds as ``exc.partial_results`` so callers can flush them.
    """
    ds = _stage("load", load_dataset, cfg.dataset)
    _stage("validate", cfg.validate_against, ds)
    if cfg.normalize:
        ds = _stage("normalize", column_normalize, ds)
    runs, csv_rows, trace_rows = [], [], []

    def results():
        report = {
            "config": cfg.echo(),
            "dataset": {"name": ds.name, "D": ds.D, "N": ds.N, "C": ds.C,
                        "img_h": ds.img_h, "img_w": ds.img_w},
            "runs": runs,
        }
        return {"report": report, "metrics_rows": csv_rows,
                "trace_rows": trace_rows, "pipeline": cfg.pipeline,
                "output_dir": cfg.output_dir}

    for seed in sorted(cfg.seeds):
        try:
            rec, rows, trows = _stage(f"pipeline[seed={seed}]",
                                      _run_seed, cfg, ds, seed)
        except Error as exc:
            exc.partial_results = results()
            raise
        runs.append(rec)
        csv_rows.extend(rows)
        trace_rows.extend(trows)
    return results()


def emit_report(results, append=False):
    """Write report.json, metrics.csv, and trace.csv; returns the paths."""
    out_dir = Path(results["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(
        json.dumps(results["report"], indent=2, sort_keys=True) + "\n")

    grid_rows = [[run["seed"], json.dumps(row["params"], sort_keys=True),
                  f"{row['mean_acc']:.6f}", ";".join(f"{a:.6f}" for a in row["accs"])]
                 for run in results["report"]["runs"] if "grid" in run
                 for row in run["grid"]["table"]]
    rows = {"metrics.csv": results["metrics_rows"], "trace.csv": results["trace_rows"],
            "grid.csv": grid_rows}
    paths = [report_path]
    for name, header in _csv_headers(results["pipeline"], bool(grid_rows)).items():
        paths.append(out_dir / name)
        _write_csv(paths[-1], header, rows[name], append)
    return tuple(paths)


def _csv_headers(pipeline, grid):
    """File name -> header of the CSV files :func:`emit_report` writes."""
    trace = MERA_TRACE_HEADER if pipeline == "wp-mera" else SELECTION_HEADER
    return {"metrics.csv": METRICS_HEADER, "trace.csv": ["seed", *trace],
            **({"grid.csv": GRID_HEADER} if grid else {})}


def _check_append(cfg):
    """Refuse a run whose rows would go under another header in a non-empty
    CSV file of its output directory (e.g. MERA trace rows under the
    subband-selection trace of an earlier run)."""
    for name, header in _csv_headers(cfg.pipeline, cfg.grid is not None).items():
        path = Path(cfg.output_dir) / name
        if path.is_file() and path.stat().st_size:
            # the headers are plain names, which the CSV writer does not quote
            with open(path, newline="", errors="replace") as fh:
                found = fh.readline(4096).rstrip("\r\n")
            if found != ",".join(header):
                raise ConfigError(f"cannot append to {path}: its header is {found!r}, "
                                  f"a {cfg.pipeline} run writes {','.join(header)!r}")


def _write_csv(path, header, rows, append=False):
    """Write ``rows`` to the CSV file ``path``, or append them to it; the
    header goes in only when the file is empty."""
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand implementations

def _read_labels_csv(path):
    try:
        vals = [int(line) for line in Path(path).read_text().split()]
    except ValueError as exc:
        raise LabelingError(f"{path}: {exc}") from None
    return np.asarray(vals, dtype=np.int64)


def _load_normalized(path, C=None, needs_C=False):
    """The bundle at ``path``, column-normalized, and its cluster count:
    ``C`` (the ``--C`` option) if given, else the number of label classes
    (None if unlabeled). With ``needs_C``, unlabeled data need ``C``."""
    ds = column_normalize(load_bundle(path))
    if needs_C and ds.labels is None and C is None:
        raise ConfigError("unlabeled data: pass --C")
    return ds, C or ds.C


def _emit_labels(path, labels, truth):
    """Write ``labels`` to the CSV file ``path``, one per line; print their
    metrics against ``truth`` and return them, or, without truth, print
    where the labels went and return None."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(str(int(v)) for v in labels) + "\n")
    if truth is None:
        print(f"wrote {path}")
        return None
    m = _metrics_dict(truth, labels)
    print(json.dumps(m, sort_keys=True))
    return m


def _cmd_synth(args):
    spec = UosSpec(C=args.C, d=args.d, D=args.D, n_per_cluster=args.n_per_cluster,
                   noise_sigma=args.sigma, seed=args.seed)
    ds = generate_uos(spec)
    save_bundle(ds, args.out)
    print(f"wrote {args.out}: D={ds.D} N={ds.N} C={ds.C} ({ds.img_h}x{ds.img_w})")


def _cmd_wpt(args):
    ds = load_bundle(args.data)
    wp = wp_decompose(ds, args.levels)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in wp.paths():
        node_ds = ds.with_data(wp[path])
        save_bundle(node_ds, out_dir / f"{ds.name}__{path}.wpsc")
    print(f"wrote {len(wp.paths())} node bundles to {out_dir}")


def _solver_from_args(args):
    params = {}
    for item in args.param or []:
        key, _, val = item.partition("=")
        if not val:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        try:
            params[key] = json.loads(val)
        except json.JSONDecodeError:
            params[key] = val
    return SolverSpec(kind=args.solver, params=params)


def _cmd_cluster(args):
    ds, C = _load_normalized(args.data, args.C, needs_C=True)
    pipe = SingleViewPipeline(solver=_solver_from_args(args), ipd_d=args.ipd_d)
    out_dir = Path(args.out_dir)
    if args.export_matrix:
        out_dir.mkdir(parents=True, exist_ok=True)
        M = pipe.representation(ds.data)
        save_matrix(M, out_dir / "representation.wpsc")
        W = affinity_from_representation(M)
        save_matrix(W, out_dir / "affinity.wpsc")
        labels = spectral_clustering(W, C, args.seed).labels
    else:
        labels = pipe.run(ds.data, C, args.seed)
    m = _emit_labels(out_dir / "labels.csv", labels, ds.labels)
    if m is not None:
        (out_dir / "metrics.json").write_text(json.dumps(m, indent=2, sort_keys=True) + "\n")


def _cmd_select_subband(args):
    from .selection import scan_all_subbands

    ds, _ = _load_normalized(args.data)
    pipe = SingleViewPipeline(solver=_solver_from_args(args), ipd_d=args.ipd_d)
    chooser = scan_all_subbands if args.exhaustive else select_subband
    sel = chooser(ds, args.levels, pipe, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "selection.csv", SELECTION_HEADER,
               ([i, p, f"{ce:.6f}"] for i, (p, ce) in enumerate(sel.evaluated)))
    print(f"chosen subband: {sel.chosen!r} ({sel.stopped_reason}); "
          f"{len(sel.evaluated)} evaluations")


def _cmd_mera(args):
    ds, C = _load_normalized(args.data, args.C, needs_C=True)
    trace = []
    part, _, _ = run_wp_mera(ds, C, lam=args.lam, R=args.rank, seed=args.seed, trace=trace)
    out_dir = Path(args.out_dir)
    _emit_labels(out_dir / "labels.csv", part.labels, ds.labels)
    _write_csv(out_dir / "trace.csv", MERA_TRACE_HEADER, map(_mera_trace_row, trace))


def _cmd_oos(args):
    in_ds, _ = _load_normalized(args.in_data)
    out_ds, _ = _load_normalized(args.out_data)
    if args.labels:  # checked as bundle labels are: one per point, no empty class
        in_ds = Dataset(data=in_ds.data, img_h=in_ds.img_h, img_w=in_ds.img_w,
                        labels=_read_labels_csv(args.labels))
    if in_ds.labels is None:
        raise ConfigError("need in-sample labels (--labels or labeled bundle)")
    model = estimate_bases(in_ds.data, Partition(labels=in_ds.labels, C=in_ds.C), args.d)
    _emit_labels(Path(args.out_dir) / "oos_labels.csv",
                 assign_multiview_batch([out_ds.data], [model]), out_ds.labels)


def _cmd_eval(args):
    truth = _read_labels_csv(args.truth)
    pred = _read_labels_csv(args.pred)
    if truth.size != pred.size:
        raise ConsistencyError(f"{truth.size} true labels but {pred.size} predicted")
    m = _metrics_dict(truth, pred)
    text = json.dumps(m, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(json.dumps(m, sort_keys=True))


# config keys that the ``run`` flags of the same dest override
_RUN_OVERRIDES = ("pipeline", "levels", "d", "seeds", "ipd", "output_dir")


def _cmd_run(args):
    try:
        raw = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    for key in _RUN_OVERRIDES:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    cfg = ExperimentConfig.from_dict(raw)
    if args.append:
        _check_append(cfg)
    try:
        results = run_experiment(cfg)
    except Error as exc:
        partial = getattr(exc, "partial_results", None)
        if partial is not None and partial["report"]["runs"]:
            paths = emit_report(partial, append=args.append)
            print(f"flushed {len(partial['report']['runs'])} completed run(s) "
                  f"to {paths[0].parent}", file=sys.stderr)
        raise
    paths = emit_report(results, append=args.append)
    for p in paths:
        print(f"wrote {p}")


def build_parser():
    ap = argparse.ArgumentParser(prog="wpsc",
                                 description="wavelet-packet-domain subspace clustering")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic UoS dataset bundle")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n-per-cluster", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("wpt", help="decompose a bundle into subband bundles")
    p.add_argument("--data", required=True)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_wpt)

    for name, fn in (("cluster", _cmd_cluster), ("select-subband", _cmd_select_subband)):
        p = sub.add_parser(name)
        p.add_argument("--data", required=True)
        p.add_argument("--solver", required=True, choices=["SSC", "LRR", "NSN", "RTSC"])
        p.add_argument("--param", action="append",
                       help="solver parameter key=value (repeatable)")
        p.add_argument("--ipd-d", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="out")
        if name == "cluster":
            p.add_argument("--C", type=int, default=None)
            p.add_argument("--export-matrix", action="store_true",
                           help="also write representation/affinity bundles")
        else:
            p.add_argument("--levels", type=int, default=2)
            p.add_argument("--exhaustive", action="store_true",
                           help="scan every node instead of the greedy descent")
        p.set_defaults(func=fn)

    p = sub.add_parser("mera", help="five-view MERA clustering")
    p.add_argument("--data", required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--C", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_mera)

    p = sub.add_parser("oos", help="assign out-of-sample points to subspaces")
    p.add_argument("--in-data", required=True)
    p.add_argument("--out-data", required=True)
    p.add_argument("--labels", default=None,
                   help="CSV of in-sample labels (default: bundle labels)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_oos)

    p = sub.add_parser("eval", help="score predicted labels against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--pipeline", choices=PIPELINES, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", dest="seeds", type=int, action="append", default=None,
                   help="override config seeds (repeatable)")
    p.add_argument("--ipd", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--output-dir", dest="output_dir", default=None)
    p.add_argument("--append", action="store_true",
                   help="append metric/trace rows instead of overwriting")
    p.set_defaults(func=_cmd_run)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc} residuals={exc.residuals}", file=sys.stderr)
        return 4
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
