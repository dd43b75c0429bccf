"""Benchmark workloads: seeded inputs, the `wpsc run` config, and the
correctness gate applied to every run.

The inputs are generated here, not by ``wpsc.generate_uos``, and written
in the ``.wpsc`` bundle layout by this module, so a change to the program
cannot change what it is measured on. All images are 32x32 (D=1024).
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

SIDE = 32
D = SIDE * SIDE
BUNDLE_MAGIC = b"WPSC1\n"
BUNDLE_HEADER = struct.Struct("<IIIIB")
ACC_FLOOR = 0.95  # every probe run reached 1.0 in and out of sample
MERA_MAX_ITER = 200
NOISE = 0.05  # Gaussian noise-to-signal column-norm ratio


@dataclass(frozen=True)
class Size:
    """Union-of-subspaces shape: C clusters of n points on d-dim subspaces."""

    C: int
    d: int
    n: int


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict          # scale name -> Size
    in_fraction: float
    stripes: float       # high-frequency contamination-to-signal norm ratio
    run: dict            # pipeline-specific part of the run config

    def config(self, bundle_path, output_dir):
        """The JSON config `wpsc run --config` would read for this workload."""
        return {"dataset": {"kind": "bundle", "path": str(bundle_path),
                            "name": self.name},
                **self.run,
                "split": {"in_fraction": self.in_fraction, "seed": 0},
                "seeds": [0],
                "output_dir": str(output_dir)}


# Full sizes make one `wpsc run` take 1.5-2 s on a 2-core x86 VM with one
# BLAS thread, so a 30 s window holds about 15 runs. "tiny" is for the
# harness smoke test only.
WORKLOADS = {
    w.name: w for w in (
        # The stripes ruin ambient SSC but vanish in the level-1 low-pass
        # band, so the greedy descent evaluates all 1+4J=9 nodes and picks
        # an A... node; SSC's ADMM loop does ~90% of the work.
        Workload(
            name="wp-ssc",
            sizes={"full": Size(C=4, d=5, n=20), "tiny": Size(C=3, d=3, n=10)},
            in_fraction=0.8, stripes=2.0,
            run={"pipeline": "wp-single", "levels": 2, "d": 5,
                 "solver": {"kind": "SSC", "params": {"alpha": 10}}},
        ),
        # N_in = 60 on a 6x10 grid; mera_mvsc does ~98% of the work, the
        # solvers layer none, five-view OOS about 1%.
        Workload(
            name="wp-mera",
            sizes={"full": Size(C=5, d=5, n=16), "tiny": Size(C=3, d=3, n=8)},
            in_fraction=0.75, stripes=0.0,
            run={"pipeline": "wp-mera", "d": 5,
                 "mera": {"lambda": 10, "R": 12, "max_iter": MERA_MAX_ITER}},
        ),
        # COIL20-like C=20, d=9 with 3x more held-out than in-sample points:
        # single-view OOS assignment and the k-means of 13 small spectral
        # clusterings (3 q values x 4 validation subsets, then the final
        # one) dominate.
        Workload(
            name="oos-grid",
            sizes={"full": Size(C=20, d=9, n=60), "tiny": Size(C=4, d=3, n=40)},
            in_fraction=0.25, stripes=0.0,
            run={"pipeline": "single", "d": 9,
                 "solver": {"kind": "RTSC", "params": {"q": 10}},
                 "grid": {"values": {"q": [5, 10, 20]}, "n_val_subsets": 4,
                          "val_size_per_cluster": 10, "seed": 0}},
        ),
    )
}


def generate(workload, size, seed):
    """Seeded D x N data and labels for one workload.

    Each cluster spans the Q factor of a Gaussian D x d matrix with
    Gaussian coefficients; noise is scaled so that ``NOISE`` is the
    noise-to-signal column-norm ratio. ``stripes`` adds per-column
    patterns (-1)^i a_j + (-1)^j b_i, which the level-1 Haar low-pass
    band removes exactly. Columns are shuffled.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(size.C):
        basis, _ = np.linalg.qr(rng.standard_normal((D, size.d)))
        blocks.append(basis @ rng.standard_normal((size.d, size.n)))
    X = np.hstack(blocks)
    N = X.shape[1]
    X += NOISE * math.sqrt(size.d / D) * rng.standard_normal(X.shape)
    if workload.stripes:
        alt = (-1.0) ** np.arange(SIDE)
        pat = (alt[None, :, None] * rng.standard_normal((N, 1, SIDE))
               + alt[None, None, :] * rng.standard_normal((N, SIDE, 1)))
        P = pat.reshape(N, D).T
        P *= workload.stripes * np.linalg.norm(X, axis=0) / np.linalg.norm(P, axis=0)
        X += P
    labels = np.repeat(np.arange(size.C), size.n)
    perm = rng.permutation(N)
    return X[:, perm], labels[perm]


def write_bundle(path, X, labels):
    """Write data in the WPSC1 bundle layout; returns the file's sha256."""
    D_, N = X.shape
    payload = b"".join((
        BUNDLE_MAGIC,
        BUNDLE_HEADER.pack(D_, N, SIDE, SIDE, 1),
        np.asarray(X, dtype="<f8").tobytes(order="F"),
        np.asarray(labels, dtype="<u4").tobytes(),
    ))
    path.write_bytes(payload)
    return hashlib.sha256(payload).hexdigest()


def accuracy(truth, pred):
    """Clustering accuracy under the best one-to-one label matching."""
    # imported here so that the benchmark's own imports stay out of setup_s
    from scipy.optimize import linear_sum_assignment

    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    k = int(max(truth.max(), pred.max())) + 1
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    rows, cols = linear_sum_assignment(-counts)
    return float(counts[rows, cols].sum()) / truth.size


def out_of_sample_size(workload, label_counts):
    """Held-out points of the stratified split: N_c - ceil(f * N_c) each."""
    return int(sum(c - math.ceil(workload.in_fraction * c) for c in label_counts))


def check_run(workload, report_bytes, evals, label_counts):
    """Correctness gate for one `wpsc run`; returns (failures, summary).

    ``evals`` are the (truth, pred) pairs the program scored, in call
    order; the pair before each out-of-sample scoring is the in-sample one.
    ``label_counts`` is the bincount of the bundle's labels. A report that
    does not parse raises ValueError, KeyError, TypeError or AttributeError.
    """
    failures = []
    runs = json.loads(report_bytes)["runs"]
    C = len(label_counts)
    n_out = out_of_sample_size(workload, label_counts)
    outs = [i for i, (t, _) in enumerate(evals) if i > 0 and len(t) == n_out]
    pairs = [(evals[i - 1], evals[i]) for i in outs]
    if len(runs) != len(pairs):
        failures.append(f"{len(runs)} runs in report.json but {len(pairs)} "
                        f"in/out label pairs scored")
    accs_in, accs_out, preds = [], [], []
    for run, ((t_in, p_in), (t_out, p_out)) in zip(runs, pairs):
        seed = run.get("seed")
        for tag, t, p in (("in", t_in, p_in), ("out", t_out, p_out)):
            preds.append(p)
            if p.shape != t.shape or p.size == 0 or p.min() < 0 or p.max() >= C:
                failures.append(f"seed {seed}: {tag} labels out of range or misshapen")
                continue
            acc = accuracy(t, p)
            (accs_in if tag == "in" else accs_out).append(acc)
            if acc < ACC_FLOOR:
                failures.append(f"seed {seed}: acc_{tag} {acc:.4f} < {ACC_FLOOR}")
            reported = run.get("metrics", {}).get(tag, {}).get("acc")
            if reported is None or abs(reported - acc) > 1e-9:
                failures.append(f"seed {seed}: report acc_{tag} {reported} != "
                                f"{acc} from the labels")
        truth_counts = np.bincount(np.concatenate([t_in, t_out]), minlength=C)
        if not np.array_equal(truth_counts, label_counts):
            failures.append(f"seed {seed}: in+out truth is not the input labeling")
        if workload.run["pipeline"] == "wp-single":
            sub = run.get("subband", "")
            if not sub.startswith("A"):
                failures.append(f"seed {seed}: subband {sub!r} not in the low-pass branch")
        if workload.run["pipeline"] == "wp-mera":
            iters = run.get("convergence", {}).get("iterations", MERA_MAX_ITER)
            if iters >= MERA_MAX_ITER:
                failures.append(f"seed {seed}: MERA did not converge")
    digest = hashlib.sha256()
    for p in preds:
        digest.update(np.asarray(p, dtype="<i8").tobytes())
    summary = {
        "acc_in": float(np.mean(accs_in)) if accs_in else 0.0,
        "acc_out": float(np.mean(accs_out)) if accs_out else 0.0,
        "labels_sha256": digest.hexdigest(),
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
        "mera_iterations": sum(r.get("convergence", {}).get("iterations", 0)
                               for r in runs),
    }
    return failures, summary
