"""One benchmark process: set up as `wpsc run --config` does, then run the
experiment back to back for a fixed time.

Started by run.py with BLAS pinned to one thread and the checkout's
``src`` on PYTHONPATH. Prints one JSON object on stdout. With
``--setup-only`` it stops after set-up and prints only ``setup_s``, the
time since ``--t0`` (a ``time.monotonic`` reading taken by the parent just
before it started this process).
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads


class LabelCapture:
    """Keeps the (truth, pred) pairs passed to ``wpsc.metrics.evaluate``.

    Wraps every binding of the function, as the tracer does. With
    ``fault`` set, every out-of-sample prediction is replaced by label 0
    before the program scores it: a deliberately wrong output for the smoke
    test, whose ACC is the share of the largest cluster, far below the floor.
    """

    def __init__(self, n_out, fault=None):
        import wpsc.metrics

        self.calls = []
        original = wpsc.metrics.evaluate

        def evaluate(truth, pred, *args, **kwargs):
            truth, pred = np.array(truth), np.array(pred)
            if fault == "constant-labels" and len(truth) == n_out:
                pred = np.zeros_like(pred)
            self.calls.append((truth, pred))
            return original(truth, pred, *args, **kwargs)

        for module, key in spans.bindings(original):
            setattr(module, key, evaluate)


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, by library file name."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--job", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import wpsc
    from wpsc import cli

    if Path(args.src).resolve() not in Path(wpsc.__file__).resolve().parents:
        print(f"wpsc imported from {wpsc.__file__}, not {args.src}", file=sys.stderr)
        return 3
    job = json.loads(Path(args.job).read_text())
    cfg = cli.ExperimentConfig.from_dict(job["config"])
    ds = cli.load_dataset(cfg.dataset)
    cfg.validate_against(ds)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = workloads.WORKLOADS[job["workload"]]
    label_counts = np.asarray(job["label_counts"])
    capture = LabelCapture(workloads.out_of_sample_size(workload, label_counts),
                           job.get("fault"))
    report_path = Path(cfg.output_dir) / "report.json"
    tracer = spans.Tracer() if args.trace else None

    def run_once():
        return cli.emit_report(cli.run_experiment(cfg))

    def measured_run(traced):
        """One gated run; returns (seconds, record, root span or None)."""
        capture.calls.clear()
        report_path.unlink(missing_ok=True)
        root = None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                first = len(tracer.spans)
                tracer.span("bench.run", run_once)
                root = tracer.spans[first]
            else:
                run_once()
            report_bytes = report_path.read_bytes()
        except Exception as exc:  # any program failure is a failed run
            elapsed = time.perf_counter() - t0
            return elapsed, {"failures": [f"{type(exc).__name__}: {exc}"]}, None
        finally:
            if traced:
                tracer.remove()
        elapsed = time.perf_counter() - t0
        try:
            problems, summary = workloads.check_run(
                workload, report_bytes, capture.calls, label_counts)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems, summary = [f"report.json malformed: {exc!r}"], {}
        return elapsed, {"failures": problems, **summary}, root

    times = {False: [], True: []}
    roots, mera_iters, iterations = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        elapsed, record, root = measured_run(traced)
        times[traced].append(elapsed)
        ref = next((it["report_sha256"] for it in iterations if "report_sha256" in it), None)
        if ref and record.get("report_sha256", ref) != ref:
            record["failures"].append("report.json differs from the first identical run")
        if root is not None and "mera_iterations" in record:
            roots.append(root)
            mera_iters.append(record["mera_iterations"])
        iterations.append({"traced": traced, "run_s": elapsed, **record})
        # stop before a run that would end after the window, once there
        # is at least one untraced (and, when tracing, one traced) run
        untraced_next = tracer is None or len(iterations) % 2 == 0
        guess = statistics.median(times[not untraced_next] or times[untraced_next])
        have_all = times[False] and (tracer is None or times[True])
        if have_all and time.perf_counter() - start + guess > args.seconds:
            break

    good = [it for it in iterations if not it["failures"]]
    scored = [it for it in iterations if "acc_in" in it]
    result = {
        "setup_s": setup_s,
        "run_s": statistics.median(times[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_in": statistics.fmean(it["acc_in"] for it in scored) if scored else 0.0,
        "acc_out": statistics.fmean(it["acc_out"] for it in scored) if scored else 0.0,
        "attempted": len(iterations),
        "failed": len(iterations) - len(good),
        "failures": sorted({f for it in iterations for f in it["failures"]})[:20],
        "iterations": iterations,
        "environment": environment(),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer, roots, mera_iters) if roots else {}
        layers["trace.overhead_s"] = (
            statistics.median(times[True]) - statistics.median(times[False]), "s")
        result["layers"] = layers
        result["unmeasured"] = tracer.unmeasured
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
