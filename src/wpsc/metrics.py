"""Clustering evaluation metrics and the Wilcoxon signed-rank test.

All five metrics live in [0, 1] and are invariant under bijective
relabeling of either argument.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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

    ACC maximizes the match fraction over label bijections (Hungarian
    assignment on the contingency table); NMI uses sqrt(H_t * H_p)
    normalization; Rand and F count agreeing pairs; purity takes the
    dominant truth class per predicted cluster.
    """
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    if truth.shape != pred.shape:
        raise ParameterError("truth and pred must have equal length")
    n = truth.size
    if n < 2:
        raise ParameterError("need at least 2 points")
    M = _contingency(truth, pred)

    rows, cols = linear_sum_assignment(M, maximize=True)
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


def wilcoxon_signed_rank(a, b):
    """Two-sided Wilcoxon signed-rank test p-value for paired samples.

    Zero differences are dropped (classic treatment; p = 1 if none remain),
    tied absolute differences get average ranks, and the p-value comes from
    the normal approximation with tie and continuity corrections. Requires
    at least 5 nonzero differences.
    """
    # imported here: scipy.stats costs about 0.5 s of every start-up and
    # only the Wilcoxon test needs it
    from scipy.stats import norm, rankdata

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
    ranks = rankdata(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    if var <= 0:
        return 1.0
    dev = w_plus - mean
    z = (dev - 0.5 * np.sign(dev)) / np.sqrt(var)
    p = 2.0 * norm.sf(abs(z))
    return float(min(max(p, np.nextafter(0, 1)), 1.0))
