"""Clustering evaluation metrics and the Wilcoxon signed-rank test.

All five metrics live in [0, 1] and are invariant under bijective
relabeling of either argument.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class MetricsReport:
    acc: float
    nmi: float
    rand: float
    f_score: float
    purity: float

    def as_dict(self):
        return {"acc": self.acc, "nmi": self.nmi, "rand": self.rand,
                "f": self.f_score, "purity": self.purity}


def _contingency(truth, pred):
    t_vals, t = np.unique(truth, return_inverse=True)
    p_vals, p = np.unique(pred, return_inverse=True)
    table = np.zeros((t_vals.size, p_vals.size), dtype=np.int64)
    np.add.at(table, (t, p), 1)
    return table


def evaluate(truth, pred):
    """Score a predicted labeling against ground truth.

    ACC maximizes the match fraction over label bijections: the Hungarian
    method with potentials on the contingency table, in numpy, unless each
    true class has its own most frequent predicted label
    (``_max_matching``). NMI uses sqrt(H_t * H_p) normalization; Rand and F
    count agreeing pairs; purity takes the dominant truth class per
    predicted cluster.
    """
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    if truth.shape != pred.shape:
        raise ParameterError("truth and pred must have equal length")
    n = truth.size
    if n < 2:
        raise ParameterError("need at least 2 points")
    M = _contingency(truth, pred)

    rows, cols = _max_matching(M)
    acc = M[rows, cols].sum() / n

    pt = M.sum(axis=1) / n
    pp = M.sum(axis=0) / n
    pj = M / n
    nz = pj > 0
    mi = float(np.sum(pj[nz] * (np.log(pj[nz]) - np.log(np.outer(pt, pp)[nz]))))
    ht = -float(np.sum(pt[pt > 0] * np.log(pt[pt > 0])))
    hp = -float(np.sum(pp[pp > 0] * np.log(pp[pp > 0])))
    denom = np.sqrt(ht * hp)
    nmi = max(0.0, min(1.0, mi / denom)) if denom > 0 else 0.0

    def _pairs(counts):
        return float(np.sum(counts * (counts - 1) // 2))

    total = n * (n - 1) / 2
    tp = _pairs(M)
    fp = _pairs(M.sum(axis=0)) - tp
    fn = _pairs(M.sum(axis=1)) - tp
    tn = total - tp - fp - fn
    rand = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp > 0 else 0.0
    rec = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0

    purity = float(M.max(axis=0).sum()) / n
    return MetricsReport(acc=float(acc), nmi=float(nmi), rand=float(rand),
                         f_score=float(f), purity=float(purity))


def _max_matching(M):
    """Rows and columns of a maximum-weight matching of a nonnegative table,
    sorted by row: the row argmaxes when r <= c and they are distinct (the
    sum of the row maxima bounds every matching), else ``_hungarian``'s."""
    best = M.argmax(axis=1)
    if len(M) <= M.shape[1] and np.unique(best).size == len(M):
        return np.arange(len(M)), best
    return _hungarian(M)


def _hungarian(M):
    """Rows and columns of a maximum-weight matching of a nonnegative table.

    The Hungarian method with potentials (Kuhn 1955), one shortest
    augmenting path per row, O(k^3) for k = max(M.shape), with the inner
    loop vectorized over columns. A rectangular table is padded with zeros
    to k x k, and the pairs of padding are dropped, so min(r, c) pairs
    remain, sorted by row. The sums and differences of integer counts held
    in float64 are exact, so the optimum is too.
    """
    r, c = M.shape
    k = max(r, c)
    cost = np.zeros((k, k))
    cost[:r, :c] = -M  # minimize the negated counts
    u = np.zeros(k)  # row potentials
    v = np.zeros(k + 1)  # column potentials; column k is the root of each path
    row_of = np.full(k + 1, -1)  # row matched to each column
    for i in range(k):
        row_of[k] = i
        j0 = k
        minv = np.full(k, np.inf)  # least reduced cost into each column
        way = np.full(k, k)  # previous column on the shortest path
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j0] != -1:
            used[j0] = True
            i0 = row_of[j0]
            free = np.flatnonzero(~used[:k])
            cur = cost[i0, free] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free[better]] = cur[better]
            way[free[better]] = j0
            j1 = free[np.argmin(minv[free])]
            delta = minv[j1]
            done = np.flatnonzero(used)
            u[row_of[done]] += delta
            v[done] -= delta
            minv[free] -= delta
            j0 = j1
        while j0 != k:  # flip the matching along the path
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = np.argsort(row_of[:k])  # every row is matched: a permutation
    rows = np.flatnonzero(col_of[:r] < c)
    return rows, col_of[rows]


def wilcoxon_signed_rank(a, b):
    """Two-sided Wilcoxon signed-rank test p-value for paired samples.

    Zero differences are dropped (classic treatment; p = 1 if none remain),
    tied absolute differences get average ranks, and the p-value comes from
    the normal approximation with tie and continuity corrections. Requires
    at least 5 nonzero differences.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ParameterError("paired samples must have equal length")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return 1.0
    if n < 5:
        raise ParameterError("need >= 5 nonzero differences")
    # average ranks: a group of c tied values ending at rank R (the running
    # count) shares the mean rank R - (c - 1) / 2
    _, group, tie_counts = np.unique(np.abs(diff), return_inverse=True,
                                     return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[group]
    w_plus = float(ranks[diff > 0].sum())
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    if var <= 0:
        return 1.0
    dev = w_plus - mean
    z = (dev - 0.5 * np.sign(dev)) / np.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))  # two-sided normal tail
    return float(min(max(p, np.nextafter(0, 1)), 1.0))
