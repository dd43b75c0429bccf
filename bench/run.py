"""Benchmark of `wpsc run`: end-to-end time, memory and accuracy per
workload, and per-layer time from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload wp-ssc --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` and written as a
``.wpsc`` bundle under ``.bench_work/`` before anything is timed. Each
process below is started fresh with BLAS pinned to one thread, one at a
time (a closed loop of one client):

* one unmeasured set-up to fill the file cache and compile bytecode,
* ``SETUP_PROBES`` processes that only set up: import ``wpsc``, read the
  config, load and validate the bundle; one before the measuring worker
  and the rest after it. ``setup_s`` is the median of their times and the
  measuring worker's own set-up,
* the measuring worker, which runs ``run_experiment`` + ``emit_report``
  back to back for ``--seconds`` and gates every run (see
  ``workloads.check_run``). With ``--trace 1`` it alternates untraced and
  traced runs and reports per-layer metrics instead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, with the environment block,
input and output hashes and every run, goes to
``.bench_work/records/<workload>-seed<seed>-trace<trace>.json``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, so inputs never depend on it
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 3
SETUP_ALLOWANCE_S = 60  # data generation, set-up probes and the last run


def spawn(args, env, deadline):
    """Run one worker to completion and return its JSON output."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--t0", repr(t0), *args],
        env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; 'tiny' is for the harness smoke test")
    ap.add_argument("--fault", choices=("constant-labels",), default=None,
                    help="inject a wrong output (harness smoke test)")
    args = ap.parse_args()

    deadline = time.monotonic() + args.seconds + SETUP_ALLOWANCE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "wpsc" / "__init__.py").is_file():
        print(f"no program source at {src / 'wpsc'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes[args.scale]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    records = root / ".bench_work" / "records"
    work.mkdir(parents=True)
    records.mkdir(exist_ok=True)
    try:
        X, labels = workloads.generate(workload, size, args.seed)
        bundle = work / "input.wpsc"
        input_sha = workloads.write_bundle(bundle, X, labels)
        job = {"workload": workload.name,
               "config": workload.config(bundle, work / "out"),
               "label_counts": np.bincount(labels).tolist(),
               "fault": args.fault}
        (work / "job.json").write_text(json.dumps(job))
        env = dict(os.environ, PYTHONPATH=str(src))
        common = ["--job", str(work / "job.json"), "--src", str(src)]

        def probe():
            return spawn(common + ["--setup-only"], env, deadline)["setup_s"]

        # host speed drifts over tens of seconds, so the set-up probes
        # straddle the measuring window instead of sitting together
        probe()  # warm-up, not measured
        setup = [probe()]
        res = spawn(common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)], env, deadline)
        setup += [probe() for _ in range(SETUP_PROBES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(res["setup_s"])

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "acc_in": {"value": res["acc_in"], "unit": "fraction"},
            "acc_out": {"value": res["acc_out"], "unit": "fraction"},
        }
    for msg in res["failures"]:
        print(f"failed check: {msg}", file=sys.stderr)
    for name in res.get("unmeasured", []):
        print(f"unmeasured: {name} (target not found in wpsc)", file=sys.stderr)
    record = {"workload": workload.name, "seed": args.seed,
              "scale": args.scale, "size": dataclasses.asdict(size),
              "input_sha256": input_sha, "setup_s_samples": setup,
              "config": job["config"], **res, "metrics": metrics}
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
