"""Tour of the non-decimated Haar wavelet-packet transform.

Generates a small synthetic image dataset, walks the quaternary subband
tree, and verifies the transform's three key properties numerically:
perfect reconstruction, the tight-frame energy identity, and preservation
of the union-of-subspaces structure in every subband.

Run:  python3 demos/01_wavelet_packets_tour.py
"""

import numpy as np

import wpsc

ds = wpsc.generate_uos(wpsc.UosSpec(C=3, d=2, D=64, n_per_cluster=10, seed=0))
print(f"dataset: D={ds.D} ({ds.img_h}x{ds.img_w} images), N={ds.N}, C={ds.C}")
print(f"rank(X) = {np.linalg.matrix_rank(ds.data, tol=1e-8)} (= C*d)")

# one image through the level-1 filter bank
img = ds.images()[0]
a, h, v, d = wpsc.haar_analysis_2d(img, level=1)
energy_in = np.sum(img ** 2)
energy_out = sum(np.sum(s ** 2) for s in (a, h, v, d))
print(f"\nlevel-1 energies sum to {energy_out / energy_in:.12f} x input "
      "(tight frame: 4)")

rec = wpsc.haar_synthesis_2d(a, h, v, d, level=1)
print(f"reconstruction error: {np.abs(rec - img).max():.2e}")

# the full two-level packet tree: 4 + 16 = 20 subband matrices by path
wp = wpsc.wp_decompose(ds, J=2)
print(f"\nJ=2 packet tree holds {len(wp)} nodes:")
print(" ", " ".join(wp))

# every subband keeps the subspace structure (same rank bound)
print("\nrank of each level-1 subband matrix (input rank is 6):")
for path in ("A", "H", "V", "D"):
    print(f"  {path}: rank = {np.linalg.matrix_rank(wp[path], tol=1e-8)}")

print("\nchildren of 'A':", [path for path in wp if path[:-1] == "A"])
