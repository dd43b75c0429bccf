"""Five-view MERA clustering with out-of-sample assignment.

Builds the (original, A, H, V, D) five-view representation of a synthetic
image dataset, learns the joint self-representation tensor with the
low-rank MERA network, clusters the unified representation spectrally,
and assigns held-out points by the multi-view point-to-subspace rule.

Run:  python3 demos/03_five_view_mera.py
"""

import numpy as np

import wpsc

ds = wpsc.column_normalize(
    wpsc.generate_uos(wpsc.UosSpec(C=3, d=2, D=64, n_per_cluster=16,
                                   noise_sigma=0.05, seed=1)))
ins, outs = wpsc.split(ds, wpsc.SplitSpec(in_fraction=0.75, seed=1))
print(f"in-sample N={ins.N}, out-of-sample N={outs.N}, C={ds.C}")

pipe = wpsc.WpMeraPipeline(lam=10.0, R=12)
fit = pipe.fit(ins, ds.C, seed=1)
conv = fit.record["convergence"]
print(f"\nADMM converged in {conv['iterations']} iterations; final per-view "
      f"residual {conv['final_residual']:.2e}, MERA fit error "
      f"{conv['final_fit_error']:.2e}")

in_acc = wpsc.evaluate(ins.labels, fit.labels).acc
print(f"in-sample accuracy: {in_acc:.3f}")

# the unified representation is the mean over the view mode
unified = wpsc.unify_views(fit.tensor)
same = ins.labels[:, None] == ins.labels[None, :]
off_mass = np.abs(unified)[~same].sum() / np.abs(unified).sum()
print(f"off-block mass of the unified representation: {off_mass:.4f}")

# out-of-sample points: one subspace model per view, fitted to the shared
# partition; the held-out points get the same five views, each view
# proposes its closest subspace, and the globally nearest one wins
out_pred = fit.assign(outs, fit.models(d=2))
out_acc = wpsc.evaluate(outs.labels, out_pred).acc
print(f"out-of-sample accuracy: {out_acc:.3f}")

report = wpsc.evaluate(outs.labels, out_pred)
print("\nout-of-sample metrics:",
      {k: round(v, 3) for k, v in report.as_dict().items()})
