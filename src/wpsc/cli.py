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
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bundle import load_bundle, save_bundle, save_matrix
from .datasets import (Dataset, SplitSpec, UosSpec, check_int, column_normalize, generate_uos,
                       load_idx, load_pgm_dir, split_in_sample)
from .errors import (ConfigError, ConsistencyError, ConvergenceError, DataError,
                     DegenerateColumnError, EmptyInputError, Error, LabelingError)
# bench/smoke.py checks that its span tracer wraps this spectral_clustering binding
from .graph import Partition, affinity_from_representation, spectral_clustering  # noqa: F401
from .mera import choose_grid, unify_views
from .metrics import evaluate
from .pipeline import (FIVE_VIEW_ORDER, MERA_TRACE_HEADER, SELECTION_HEADER, Fit,
                       SingleViewPipeline, WpMeraPipeline, _partition)
from .selection import Grid, grid_search, scan_all_subbands, select_subband
from .solvers import SolverSpec
from .subspace import average_affinity, estimate_bases, mean_principal_angle
from .wavelet import wp_decompose

METRICS_HEADER = ["dataset", "pipeline", "subband", "seed", "phase",
                  "acc", "nmi", "rand", "f", "purity", "ce", "seconds"]
GRID_HEADER = ["seed", "params", "mean_acc", "accs"]
PIPELINES = ("single", "wp-single", "wp-mera")


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    dataset: dict
    pipeline: str = "single"
    solver: SolverSpec | None = None
    levels: int = 2
    d: int = 9
    ipd: bool = False
    split: SplitSpec = field(default_factory=SplitSpec)
    mera: dict = field(default_factory=dict)
    grid: Grid | None = None
    seeds: tuple = (0,)
    output_dir: str = "out"
    export_bundles: bool = False

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}")
        for key, kind in (("dataset", dict), ("mera", dict), ("output_dir", str),
                          ("ipd", bool), ("export_bundles", bool)):
            if not isinstance(getattr(self, key), kind):
                noun = {dict: "a JSON object", str: "a string", bool: "true or false"}[kind]
                raise ConfigError(f"{key} must be {noun}, got {getattr(self, key)!r}")
        if not isinstance(self.dataset.get("name", ""), str):
            raise ConfigError(f"dataset.name must be a string, got {self.dataset['name']!r}")
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds):
            raise ConfigError(f"seeds must be a nonempty list, got {self.seeds!r}")
        self.seeds = tuple(self.seeds)
        for seed in self.seeds:
            check_int(seed, "seeds")
        for key in ("d", "levels"):
            check_int(getattr(self, key), key, 1)
        if self.pipeline != "wp-mera" and self.solver is None:
            raise ConfigError(f"pipeline {self.pipeline!r} needs a solver spec")
        for params in self.grid.points() if self.grid else [{}]:
            _pipeline(self, params)  # every grid point's pipeline fails here, not mid-run

    @classmethod
    def from_dict(cls, raw):
        """The config of a parsed JSON object; each section is built, and
        checked, by the type that uses it."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        try:
            sections = {"solver": SolverSpec, "grid": Grid, "split": SplitSpec}
            return cls(**{**raw, **{key: kind(**raw[key])
                                    for key, kind in sections.items() if key in raw}})
        except (AttributeError, TypeError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def validate_against(self, ds):
        """Fail fast on config/dataset inconsistencies (before any solve)."""
        if ds.labels is None:
            raise ConfigError("experiments need a labeled dataset")
        if not ds.N:
            raise EmptyInputError(f"{ds.name or 'dataset'}: no points")
        counts = np.bincount(ds.labels)
        n_in = int(sum(math.ceil(self.split.in_fraction * c) for c in counts))
        if self.pipeline == "wp-mera":
            choose_grid(n_in)  # raises NoGridError on e.g. prime N
        depth = {"wp-single": self.levels, "wp-mera": 1}.get(self.pipeline)  # levels transformed
        if depth and min(ds.img_h, ds.img_w) >> depth == 0:  # < 2**depth
            raise ConfigError(f"{ds.img_h}x{ds.img_w} images too small for "
                              f"{self.pipeline} at level {depth}")

    def echo(self):
        """JSON-serializable canonical form for the report; it leaves out
        ``output_dir``, so a report does not depend on where it is written."""
        return {k: v for k, v in asdict(self).items()
                if k != "output_dir" and (v or k not in ("solver", "grid", "mera"))}


def load_dataset(spec):
    """Materialize the dataset named by a config 'dataset' section."""

    def text(key, optional=False):
        value = spec.get(key)
        if not (isinstance(value, str) or (optional and value is None)):
            raise ConfigError(f"{kind} dataset needs a string {key!r}, got {value!r}")
        return value

    kind = spec.get("kind")
    keys = {"synthetic": ("uos",), "bundle": ("path",), "idx": ("images", "labels"),
            "pgm_dir": ("path", "class_regex")}  # each kind's own, besides kind and name
    if not (isinstance(kind, str) and kind in keys):
        raise ConfigError(f"unknown dataset kind {kind!r}")
    _known_keys(spec, f"{kind} dataset", ("kind", "name", *keys[kind]))
    if kind == "synthetic":
        try:
            uspec = UosSpec(**spec.get("uos", {}))
        except TypeError as exc:
            raise ConfigError(f"bad synthetic dataset spec: uos: {exc}") from exc
        ds = generate_uos(uspec)
        return ds if "name" not in spec else ds.with_data(ds.data, name=spec["name"])
    if kind == "bundle":
        return load_bundle(text("path"), name=spec.get("name"))
    if kind == "idx":
        return load_idx(text("images"), text("labels", optional=True),
                        name=spec.get("name"))
    return load_pgm_dir(text("path"), text("class_regex"), name=spec.get("name"))


def _known_keys(section, name, known):
    """Raise unless ``section`` holds only keys in ``known``."""
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")


def _pipeline(cfg, params, levels=None):
    """The pipeline a config runs, with grid-search ``params`` laid over its
    MERA or solver parameters; ``levels`` sets a single-view descent."""
    if cfg.pipeline == "wp-mera":
        mera = {**cfg.mera, **params}
        _known_keys(mera, "mera", ("lambda", "R", "tol", "max_iter", "sweeps"))
        for key in ("lambda", "R"):
            if key not in mera:
                raise ConfigError(f"wp-mera pipeline needs mera.{key}")
        return WpMeraPipeline(**{("lam" if k == "lambda" else k): v for k, v in mera.items()})
    return SingleViewPipeline(replace(cfg.solver, params={**cfg.solver.params, **params}),
                              ipd_d=cfg.d if cfg.ipd else None, levels=levels)


def _metrics_dict(truth, pred):
    rep = evaluate(truth, pred)
    return {**rep.as_dict(), "ce": 1.0 - rep.acc}


def _run_seed(cfg, ds, seed):
    """One full experiment run; returns (report record, csv rows, trace rows).

    Every pipeline fits the in-sample points, fits one subspace model per
    view of the fit to its partition and assigns held-out points by their
    nearest subspace over all views: one view (the data or the chosen
    subband) for the single-view pipelines, the five level-1 views for MERA.
    """
    t0 = time.perf_counter()
    rec = {"seed": seed, "pipeline": cfg.pipeline}
    descent = cfg.pipeline == "wp-single"
    in_ds, out_idx = split_in_sample(ds, SplitSpec(cfg.split.in_fraction, cfg.split.seed + seed))
    rec["split"] = {"in": in_ds.N, "out": out_idx.size}

    grid_params = {}
    if cfg.grid is not None:
        grid = replace(cfg.grid, seed=cfg.grid.seed + seed)
        grid_params, table = grid_search(in_ds, grid, lambda p: _pipeline(cfg, p))
        rec["grid"] = {"best_params": grid_params, "table": table}
    fit = _pipeline(cfg, grid_params, cfg.levels if descent else None).fit(in_ds, ds.C, seed)
    rec["subband"] = sub = fit.subband
    rec.update(fit.record)
    metrics = {"in": _metrics_dict(in_ds.labels, fit.labels)}
    if cfg.export_bundles:
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_bundle(in_ds, out_dir / f"in_s{seed}.wpsc")
        if descent:
            save_bundle(in_ds.with_data(fit.views[0]),
                        out_dir / f"{in_ds.name}__{sub}_s{seed}.wpsc")
        elif fit.tensor is not None:
            save_matrix(unify_views(fit.tensor), out_dir / f"unified_s{seed}.wpsc")

    models = fit.models(cfg.d)
    if out_idx.size:
        metrics["out"] = _metrics_dict(ds.labels[out_idx], fit.assign(ds, models, out_idx))
    # the first view of the single and MERA pipelines is the data itself
    ambient = estimate_bases(in_ds.unit, fit.part, cfg.d) if descent else models[0]
    diag = {"affinity_ambient": average_affinity(ambient)}
    diag["angle_ambient"] = mean_principal_angle(diag["affinity_ambient"])
    if descent:
        diag["affinity_subband"] = average_affinity(models[0])
        diag["angle_subband"] = mean_principal_angle(diag["affinity_subband"])
    elif len(models) > 1:
        diag["affinity_views"] = {name: average_affinity(m)
                                  for name, m in zip(FIVE_VIEW_ORDER[1:], models[1:])}
    rec["metrics"] = metrics
    rec["diagnostics"] = diag
    seconds = time.perf_counter() - t0

    csv_rows = [[ds.name, cfg.pipeline, sub, seed, phase,
                 *(f"{m[k]:.6f}" for k in ("acc", "nmi", "rand", "f", "purity", "ce")),
                 f"{seconds:.3f}"] for phase, m in metrics.items()]
    return rec, csv_rows, [[seed, *row] for row in fit.trace]


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
    subband-selection trace of an earlier run), or whose config differs from
    that of the directory's report.json in more than the seeds. Returns
    that report, or None if there is none."""
    out_dir = Path(cfg.output_dir)
    for name, header in _csv_headers(cfg.pipeline, cfg.grid is not None).items():
        path = out_dir / name
        if path.is_file() and path.stat().st_size:
            # the headers are plain names, which the CSV writer does not quote
            with open(path, newline="", errors="replace") as fh:
                found = fh.readline(4096).rstrip("\r\n")
            if found != ",".join(header):
                raise ConfigError(f"cannot append to {path}: its header is {found!r}, "
                                  f"a {cfg.pipeline} run writes {','.join(header)!r}")
    path = out_dir / "report.json"
    if not path.is_file():
        return None
    try:
        report = json.loads(path.read_bytes())
        config, runs = dict(report["config"]), list(report["runs"])
        seeds = list(config.pop("seeds"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot append to {path}: not a run report ({exc!r})") from None
    echo = json.loads(json.dumps(cfg.echo()))
    del echo["seeds"]
    if config != echo:
        raise ConfigError(f"cannot append to {path}: its config differs from this "
                          f"run's in more than the seeds")
    return {**report, "config": {**config, "seeds": seeds}, "runs": runs}


def _merged(prior, results):
    """``results`` with the seeds and runs of the earlier report ``prior``
    (None for no report) in front of its own."""
    if prior is None:
        return results
    report = results["report"]
    config = {**report["config"],
              "seeds": [*prior["config"]["seeds"], *report["config"]["seeds"]]}
    return {**results, "report": {**report, "config": config,
                                  "runs": prior["runs"] + report["runs"]}}


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
    if C is not None:  # before the load; spectral clustering needs two clusters
        check_int(C, "C", 2)
    ds = load_bundle(path)
    if not ds.N:
        raise EmptyInputError(f"{path}: no points")
    if C is not None and C > ds.N:  # before the solve, which spectral clustering follows
        raise ConfigError(f"C = {C} exceeds N = {ds.N}")
    ds = column_normalize(ds)
    if needs_C and ds.labels is None and C is None:
        raise ConfigError("unlabeled data: pass --C")
    return ds, C if C is not None else ds.C


def _emit_labels(path, labels, truth):
    """Write ``labels`` to the CSV file ``path``, one per line; print their
    metrics against ``truth`` and return them, or, without truth or
    labels, print where the labels went and return None."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{int(v)}\n" for v in labels))
    if truth is None or not len(labels):
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
    nodes = wp_decompose(ds, args.levels)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, X in nodes.items():
        save_bundle(ds.with_data(X), out_dir / f"{ds.name}__{path}.wpsc")
    print(f"wrote {len(nodes)} node bundles to {out_dir}")


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
    pipe = SingleViewPipeline(solver=_solver_from_args(args), ipd_d=args.ipd_d)
    ds, C = _load_normalized(args.data, args.C, needs_C=True)
    out_dir = Path(args.out_dir)
    M = pipe.representation(ds.data)
    if args.export_matrix:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_matrix(M, out_dir / "representation.wpsc")
        save_matrix(affinity_from_representation(M), out_dir / "affinity.wpsc")
    m = _emit_labels(out_dir / "labels.csv", _partition(M, C, args.seed).labels, ds.labels)
    if m is not None:
        (out_dir / "metrics.json").write_text(json.dumps(m, indent=2, sort_keys=True) + "\n")


def _cmd_select_subband(args):
    pipe = SingleViewPipeline(solver=_solver_from_args(args), ipd_d=args.ipd_d)
    ds, _ = _load_normalized(args.data)
    chooser = scan_all_subbands if args.exhaustive else select_subband
    sel = chooser(ds, args.levels, pipe, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "selection.csv", SELECTION_HEADER,
               ([i, p, f"{ce:.6f}"] for i, (p, ce) in enumerate(sel.evaluated)))
    print(f"chosen subband: {sel.chosen!r} ({sel.stopped_reason}); "
          f"{len(sel.evaluated)} evaluations")


def _cmd_mera(args):
    pipe = WpMeraPipeline(lam=args.lam, R=args.rank)
    ds, C = _load_normalized(args.data, args.C, needs_C=True)
    fit = pipe.fit(ds, C, args.seed)
    out_dir = Path(args.out_dir)
    _emit_labels(out_dir / "labels.csv", fit.labels, ds.labels)
    _write_csv(out_dir / "trace.csv", MERA_TRACE_HEADER, fit.trace)


def _cmd_oos(args):
    in_ds, _ = _load_normalized(args.in_data)
    out_ds = load_bundle(args.out_data)  # Fit.assign normalizes its columns
    if args.labels:  # checked as bundle labels are: one per point, no empty class
        in_ds = Dataset(data=in_ds.data, img_h=in_ds.img_h, img_w=in_ds.img_w,
                        labels=_read_labels_csv(args.labels))
    if in_ds.labels is None:
        raise ConfigError("need in-sample labels (--labels or labeled bundle)")
    fit = Fit(Partition(labels=in_ds.labels, C=in_ds.C), [in_ds.data])
    try:
        labels = fit.assign(out_ds, fit.models(args.d))
    except DegenerateColumnError as exc:
        raise DegenerateColumnError(f"{out_ds.name}: {exc}") from None
    _emit_labels(Path(args.out_dir) / "oos_labels.csv", labels, out_ds.labels)


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
    prior = _check_append(cfg) if args.append else None
    try:
        results = run_experiment(cfg)
    except Error as exc:
        partial = getattr(exc, "partial_results", None)
        if partial is not None and partial["report"]["runs"]:
            paths = emit_report(_merged(prior, partial), append=args.append)
            print(f"flushed {len(partial['report']['runs'])} completed run(s) "
                  f"to {paths[0].parent}", file=sys.stderr)
        raise
    paths = emit_report(_merged(prior, results), append=args.append)
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
        check_int(getattr(args, "seed", 0), "seed")  # a subcommand's --seed, before any work
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
