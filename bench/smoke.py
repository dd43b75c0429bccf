"""Harness smoke test.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that every listed metric is printed with its unit, that a
deliberately wrong output (constant out-of-sample labels) counts as a
failed run, that a directory without the program fails without a result,
and that the tracer wraps every binding and reports a missing target as
unmeasured. Run from the root of a checkout (about two minutes):

    python3 bench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(command, args, cwd=None):
    """Run the benchmark command; returns (exit code, last stdout line as
    JSON, or None)."""
    proc = subprocess.run([*command, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def check_tracer(problems):
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(BENCH))
    import spans
    import wpsc.cli
    import wpsc.graph

    tracer = spans.Tracer()
    original = wpsc.graph.spectral_clustering
    tracer.install()
    try:
        if wpsc.cli.spectral_clustering is original:
            problems.append("tracer missed the wpsc.cli binding of spectral_clustering")
    finally:
        tracer.remove()
    if wpsc.cli.spectral_clustering is not original:
        problems.append("tracer did not restore wpsc.cli.spectral_clustering")
    kmeans = wpsc.graph.kmeans
    del wpsc.graph.kmeans
    try:
        tracer.install()
        tracer.remove()
    finally:
        wpsc.graph.kmeans = kmeans
    if "graph.kmeans" not in tracer.unmeasured:
        problems.append("a missing target was not reported as unmeasured")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    check_tracer(problems)
    for w in spec["workloads"]:
        name = w["name"]
        common = ["--workload", name, "--seed", "0", "--seconds", "2", "--scale", "tiny"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(spec["command"], common + ["--trace", str(trace)])
            where = f"{name} trace={trace}"
            if code != 0 or out is None or set(out) != RESULT_KEYS:
                problems.append(f"{where}: exit {code}, result {out!r}")
                continue
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{where}: not correct: {out}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            for k, v in out["metrics"].items():
                if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{where}: {k} is not a finite number")
        code, out = bench(spec["command"], common + ["--trace", "0", "--fault", "constant-labels"])
        if out is None or out["correct"] or out["failed"] != out["attempted"]:
            problems.append(f"{name}: constant labels were not counted as failed runs: {out}")

    Path(".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        args = ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                "--seconds", "2", "--trace", "0"]
        code, out = bench(spec["command"], args, cwd=bare)
        if code == 0 or out is not None:
            problems.append(f"without the program: exit {code}, result {out!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
