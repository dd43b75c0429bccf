import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import linear_sum_assignment

from wpsc import metrics
from wpsc.errors import ParameterError
from wpsc.metrics import _max_matching, evaluate, wilcoxon_signed_rank


# -- brute-force oracles ------------------------------------------------------

def acc_oracle(truth, pred):
    """Exhaustive search over label bijections."""
    k = max(truth.max(), pred.max()) + 1
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, (mapped == truth).sum())
    return best / truth.size


def pair_counts_oracle(truth, pred):
    tp = fp = fn = tn = 0
    n = truth.size
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            tp += same_t and same_p
            fp += (not same_t) and same_p
            fn += same_t and not same_p
            tn += (not same_t) and (not same_p)
    return tp, fp, fn, tn


def nmi_oracle(truth, pred):
    n = truth.size
    mi = 0.0
    for t in np.unique(truth):
        for p in np.unique(pred):
            joint = np.sum((truth == t) & (pred == p)) / n
            if joint > 0:
                pt = np.sum(truth == t) / n
                pp = np.sum(pred == p) / n
                mi += joint * np.log(joint / (pt * pp))
    def ent(x):
        _, counts = np.unique(x, return_counts=True)
        f = counts / n
        return -np.sum(f * np.log(f))
    ht, hp = ent(truth), ent(pred)
    return mi / np.sqrt(ht * hp) if ht > 0 and hp > 0 else 0.0


class TestEvaluate:
    def test_relabeled_prediction_is_perfect(self):
        rep = evaluate([0, 0, 1, 1], [1, 1, 0, 0])
        assert (rep.acc, rep.nmi, rep.rand, rep.f_score, rep.purity) == \
            (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_half_match_case(self):
        rep = evaluate([0, 0, 1, 1], [0, 1, 0, 1])
        assert rep.acc == pytest.approx(0.5, abs=1e-12)
        assert rep.rand == pytest.approx(1 / 3, abs=1e-12)
        assert rep.nmi == pytest.approx(0.0, abs=1e-12)

    def test_constant_prediction(self):
        truth = np.array([0, 0, 0, 1, 1, 2])
        rep = evaluate(truth, np.zeros(6, dtype=int))
        assert rep.purity == pytest.approx(3 / 6)
        assert rep.nmi == 0.0

    def test_against_bruteforce_oracles(self):
        rng = np.random.default_rng(0)
        total = n_checked = 0
        for _ in range(200):
            n = rng.integers(2, 9)
            ct, cp = rng.integers(1, 4, size=2)
            truth = rng.integers(0, ct, size=n)
            pred = rng.integers(0, cp, size=n)
            rep = evaluate(truth, pred)
            assert rep.acc == pytest.approx(acc_oracle(truth, pred), abs=1e-12)
            tp, fp, fn, tn = pair_counts_oracle(truth, pred)
            total_pairs = n * (n - 1) / 2
            assert rep.rand == pytest.approx((tp + tn) / total_pairs, abs=1e-12)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert rep.f_score == pytest.approx(f, abs=1e-12)
            assert rep.nmi == pytest.approx(nmi_oracle(truth, pred), abs=1e-12)
            n_checked += 1
        assert n_checked == 200

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=30)
        pred = rng.integers(0, 3, size=30)
        base = evaluate(truth, pred)
        perm = np.array([2, 0, 1])
        again = evaluate(perm[truth], pred)
        for field in ("acc", "nmi", "rand", "f_score", "purity"):
            assert getattr(base, field) == pytest.approx(getattr(again, field),
                                                         abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=25)
        b = rng.integers(0, 4, size=25)
        assert evaluate(a, b).nmi == pytest.approx(evaluate(b, a).nmi, abs=1e-12)
        assert evaluate(a, b).rand == pytest.approx(evaluate(b, a).rand, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            evaluate([0, 1], [0, 1, 1])

    def test_acc_equals_purity_when_map_is_bijection(self):
        # constructed case: same cluster counts, purity map is a bijection
        truth = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        pred = np.array([1, 1, 0, 2, 2, 0, 0, 0])
        rep = evaluate(truth, pred)
        assert rep.acc == pytest.approx(rep.purity, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.integers(0, 3, size=12)
            p = rng.integers(0, 3, size=12)
            rep = evaluate(t, p)
            for v in (rep.acc, rep.nmi, rep.rand, rep.f_score, rep.purity):
                assert 0.0 <= v <= 1.0


@st.composite
def count_tables(draw):
    """Integer tables from 1 x 1 to 25 x 25 with few distinct values (heavy
    ties) and some all-zero rows and columns."""
    r, c = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    top = draw(st.sampled_from([1, 2, 3, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.integers(0, top + 1, size=(r, c))
    M[rng.random(r) < draw(st.sampled_from([0.0, 0.3]))] = 0
    M[:, rng.random(c) < draw(st.sampled_from([0.0, 0.3]))] = 0
    return M


class TestMaxMatching:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(M=count_tables())
    def test_matches_linear_sum_assignment(self, M):
        rows, cols = _max_matching(M)
        want_rows, want_cols = linear_sum_assignment(M, maximize=True)
        assert M[rows, cols].sum() == M[want_rows, want_cols].sum()
        assert len(rows) == len(cols) == min(M.shape)
        assert len(set(rows.tolist())) == len(set(cols.tolist())) == min(M.shape)
        assert rows.min() >= 0 and rows.max() < M.shape[0]
        assert cols.min() >= 0 and cols.max() < M.shape[1]

    def test_permuted_diagonal(self):
        perm = np.random.default_rng(0).permutation(20)
        M = np.zeros((20, 20), dtype=np.int64)
        M[np.arange(20), perm] = 45
        rows, cols = _max_matching(M)
        assert np.array_equal(rows, np.arange(20)) and np.array_equal(cols, perm)

    def test_distinct_row_maxima_skip_the_hungarian_method(self, monkeypatch):
        # a permuted diagonal (with stray counts) is matched by its row
        # argmaxes; once two rows share an argmax, the Hungarian method runs
        calls = []
        real = metrics._hungarian
        monkeypatch.setattr(metrics, "_hungarian", lambda M: calls.append(1) or real(M))
        perm = np.random.default_rng(1).permutation(20)
        M = np.zeros((20, 23), dtype=np.int64)
        M[np.arange(20), perm] = 45
        M[3, perm[4]] = 7
        rows, cols = _max_matching(M)
        assert not calls
        assert np.array_equal(rows, np.arange(20)) and np.array_equal(cols, perm)
        M[5, perm[6]] = 50  # rows 5 and 6 now both peak in column perm[6]
        want_rows, want_cols = linear_sum_assignment(M, maximize=True)
        rows, cols = _max_matching(M)
        assert calls == [1]
        assert M[rows, cols].sum() == M[want_rows, want_cols].sum()
        _max_matching(M.T)  # more rows than columns
        assert calls == [1, 1]


class TestWilcoxon:
    def test_identical_samples(self):
        assert wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_constant_shift_extreme(self):
        b = np.arange(20, dtype=float)  # differences exactly 1.0 -> one tie group
        a = b + 1.0
        p = wilcoxon_signed_rank(a, b)
        assert p < 0.001
        # frozen from the normal-approximation oracle:
        # W+ = 210, mean 105, var 717.5 - (20^3-20)/48 = 551.25
        z = (210 - 105 - 0.5) / np.sqrt(551.25)
        assert p == pytest.approx(2 * stats.norm.sf(z), rel=1e-12)

    def test_matches_scipy_approx(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.standard_normal(15)
            b = a + 0.4 * rng.standard_normal(15)
            ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                                 alternative="two-sided", mode="approx").pvalue
            assert wilcoxon_signed_rank(a, b) == pytest.approx(ref, rel=1e-10)

    def test_monte_carlo_calibration(self):
        rng = np.random.default_rng(6)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            a = rng.standard_normal(25)
            b = rng.standard_normal(25)
            rejections += wilcoxon_signed_rank(a, b) < 0.05
        assert 0.03 <= rejections / trials <= 0.07

    def test_too_few_nonzero_differences(self):
        with pytest.raises(ParameterError):
            wilcoxon_signed_rank([1, 2, 3, 4], [0, 1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            wilcoxon_signed_rank([1, 2], [1, 2, 3])
