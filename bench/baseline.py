"""Run the benchmark on several seeds per workload and summarise it.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Runs BENCHMARK.json's command once per workload and seed with tracing off,
then once per workload with tracing on (first seed). For every end-to-end
metric it reports the per-seed values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
flagging a spread above a third of the metric's bound. The output also
holds the environment block of the first run and ``"claim": null``: a
baseline claims no gain.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run([*spec["command"], *args], stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                    help="inclusive range such as 1-10")
    ap.add_argument("--out", default=None, help="write the summary here")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "claim": None, "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        results = [run(spec, name, s, 0) for s in args.seeds]
        traced = run(spec, name, args.seeds[0], 1)
        record = Path(".bench_work/records") / f"{name}-seed{args.seeds[0]}-trace0.json"
        summary.setdefault("environment", json.loads(record.read_text())["environment"])
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"], "values": values}
            ok = spread <= m["bound"] / 3
            steady &= ok
            print(f"{name:9s} {m['name']:12s} median {med:10.4f} {m['unit']:8s} "
                  f"spread {spread:6.3f} (bound {m['bound']}){'' if ok else '  WIDE'}")
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "spread above a third of a bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
