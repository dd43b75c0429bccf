import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import make_uos
from wpsc.datasets import Dataset
from wpsc.errors import ConvergenceError, DegenerateDataError, ParameterError
from wpsc.pipeline import SingleViewPipeline
from wpsc.solvers import (
    SolverSpec,
    _shrink_columns,
    _soft,
    _svt,
    solve_lrr,
    solve_nsn,
    solve_rtsc,
    solve_ssc,
)
from wpsc.wavelet import node_matrix


def lasso_oracle(X, i, lam, tol=1e-12, max_sweeps=100_000):
    """Column-i SSC subproblem, min ||z||_1 + lam/2 ||x_i - X z||^2 with
    z_i = 0, by cyclic coordinate descent run until no coordinate moves by
    more than ``tol`` in a sweep."""
    x, N = X[:, i], X.shape[1]
    z = np.zeros(N)
    r = x.copy()  # residual x - X z
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(N):
            if j == i:
                continue
            a = X[:, j]
            rho = a @ r + (a @ a) * z[j]
            new = np.sign(rho) * max(abs(rho) - 1.0 / lam, 0.0) / (a @ a)
            r -= a * (new - z[j])
            moved = max(moved, abs(new - z[j]))
            z[j] = new
        if moved <= tol:
            return z
    raise AssertionError(f"coordinate descent did not reach {tol} in {max_sweeps} sweeps")


def reference_coherence_floor(X):
    """mu_e = min_i max_{j != i} |x_i' x_j|, the SSC lambda scale."""
    G = np.abs(X.T @ X)
    np.fill_diagonal(G, -np.inf)
    return float(G.max(axis=1).min())


def fused_reference_solve_ssc(X, alpha, mode="noise", affine=False, tol=1e-6, max_iter=200,
                              objective_trace=None):
    """The fused scaled-dual ADMM loop of ``solve_ssc`` on one matrix, before
    it took stacks: a verbatim copy, kept as the bit-for-bit reference."""
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ParameterError("SSC input must be finite")
    N = X.shape[1]
    if N < 2:
        raise ParameterError("SSC needs at least two columns")
    if mode not in ("noise", "outlier"):
        raise ParameterError(f"unknown SSC mode {mode!r}")
    mu_e = reference_coherence_floor(X)
    if mu_e == 0.0:
        raise DegenerateDataError(
            "all columns mutually orthogonal; self-expression is degenerate"
        )
    lam = alpha / mu_e
    rho = lam
    lam_xtx = lam * (X.T @ X)
    M = lam_xtx + rho * np.eye(N)
    if affine:
        M += rho
    # M >= rho I and rho = lam, so cond(M) <= 1 + ||X||^2 (+ N when affine)
    # and the explicit inverse is accurate
    Minv = np.linalg.inv(M)
    P = Minv @ lam_xtx
    rMinv = rho * Minv
    thr = 1.0 / rho

    if mode == "outlier":
        norms1 = np.sort(np.abs(X).sum(axis=0))[::-1]
        mu_err = norms1[1]
        if mu_err == 0.0:
            raise DegenerateDataError("data has no mass for the outlier term")
        lam_err = alpha / mu_err
        Q = Minv @ (lam * X.T)
    if affine:
        rMinv_1 = rMinv.sum(axis=1)
        w = np.zeros(N)

    C = np.zeros((N, N))
    E = np.zeros_like(X)
    U = np.zeros((N, N))
    A = np.empty((N, N))
    T = np.empty((N, N))
    for _ in range(max_iter):
        np.subtract(C, U, out=T)
        np.matmul(rMinv, T, out=A)
        A += P
        if mode == "outlier":
            A -= np.matmul(Q, E, out=T)
        if affine:
            np.multiply(rMinv_1[:, None], 1.0 - w, out=T)
            A += T
        np.add(A, U, out=T)
        np.clip(T, -thr, thr, out=C)
        np.subtract(T, C, out=C)
        C.flat[::N + 1] = 0.0
        if mode == "outlier":
            E = _soft(X - X @ A, lam_err / lam)
        gap = np.subtract(A, C, out=T)
        U += gap
        res = np.abs(gap, out=T).max()
        if affine:
            col_gap = A.sum(axis=0) - 1.0
            w += col_gap
            res = max(res, np.abs(col_gap).max())
        if objective_trace is not None:
            obj = np.abs(C).sum() + 0.5 * lam * np.sum((X - X @ C - E) ** 2)
            if mode == "outlier":
                obj += lam_err * np.abs(E).sum()
            objective_trace.append(float(obj))
        if res < tol:
            break
    return C


def reference_solve_ssc(X, alpha, mode="noise", affine=False, tol=1e-6, max_iter=200,
                        objective_trace=None):
    """The ADMM loop of ``solve_ssc`` with an unscaled dual, a full N x N
    right-hand side per iteration and the ``sign * max`` soft-threshold:
    a verbatim copy, kept as the reference."""
    X = np.asarray(X, dtype=np.float64)
    N = X.shape[1]
    mu_e = reference_coherence_floor(X)
    lam = alpha / mu_e
    rho = lam
    lam_xtx = lam * (X.T @ X)
    M = lam_xtx + rho * np.eye(N)
    if affine:
        M += rho * np.ones((N, N))
    Minv = np.linalg.inv(M)

    lam_err = None
    if mode == "outlier":
        norms1 = np.sort(np.abs(X).sum(axis=0))[::-1]
        mu_err = norms1[1] if N > 1 else norms1[0]
        lam_err = alpha / mu_err

    C = np.zeros((N, N))
    E = np.zeros_like(X)
    Lam = np.zeros((N, N))
    delta = np.zeros(N)
    ones = np.ones((N, N))
    for _ in range(max_iter):
        data = lam * (X.T @ (X - E)) if mode == "outlier" else lam_xtx
        rhs = data + rho * C - Lam
        if affine:
            rhs += rho * ones - np.outer(np.ones(N), delta)
        A = Minv @ rhs
        C = _soft(A + Lam / rho, 1.0 / rho)
        np.fill_diagonal(C, 0.0)
        if mode == "outlier":
            E = _soft(X - X @ A, lam_err / lam)
        Lam += rho * (A - C)
        res = np.abs(A - C).max()
        if affine:
            aff_res = np.abs(A.sum(axis=0) - 1.0).max()
            delta += rho * (A.sum(axis=0) - 1.0)
            res = max(res, aff_res)
        if objective_trace is not None:
            obj = np.abs(C).sum() + 0.5 * lam * np.sum((X - X @ C - E) ** 2)
            if mode == "outlier":
                obj += lam_err * np.abs(E).sum()
            objective_trace.append(float(obj))
        if res < tol:
            break
    np.fill_diagonal(C, 0.0)
    return C


def assert_ssc_iterations(n, X, *args, **kw):
    """``solve_ssc(X, *args, **kw)`` runs exactly n iterations: stopped
    after n it returns its result, stopped after n - 1 it does not."""
    full = solve_ssc(X, *args, **kw)
    assert np.array_equal(solve_ssc(X, *args, max_iter=n, **kw), full)
    assert not np.array_equal(solve_ssc(X, *args, max_iter=n - 1, **kw), full)


def striped_images(C=4, d=4, n=12, side=32, seed=0):
    """Unit-norm unions of subspaces on side x side images plus per-image
    stripes (-1)^i a_j + (-1)^j b_i at twice the signal norm: ambient SSC
    sees mostly stripes, which the level-1 Haar low-pass band removes."""
    rng = np.random.default_rng(seed)
    D = side * side
    blocks = []
    for _ in range(C):
        basis, _ = np.linalg.qr(rng.standard_normal((D, d)))
        blocks.append(basis @ rng.standard_normal((d, n)))
    X = np.hstack(blocks)
    N = X.shape[1]
    alt = (-1.0) ** np.arange(side)
    pat = (alt[None, :, None] * rng.standard_normal((N, 1, side))
           + alt[None, None, :] * rng.standard_normal((N, side, 1)))
    P = pat.reshape(N, D).T
    X += P * (2.0 * np.linalg.norm(X, axis=0) / np.linalg.norm(P, axis=0))
    X /= np.linalg.norm(X, axis=0)
    return Dataset(data=X, img_h=side, img_w=side, labels=np.repeat(np.arange(C), n))


class TestSscMatchesReference:
    """The fused scaled-dual loop against the unscaled reference loop."""

    MODES = [("noise", False), ("noise", True), ("outlier", False)]


    @pytest.mark.parametrize("mode,affine", MODES)
    @pytest.mark.parametrize("case", ["uos-noisy", "striped-A", "striped-root"])
    def test_same_iterates(self, mode, affine, case):
        # striped-root stops on tol (111-129 iterations), the others at max_iter
        if case == "uos-noisy":
            X = make_uos(C=4, d=3, D=40, n=12, sigma=0.2, seed=3).data
        else:
            ds = striped_images(seed=1)
            X = ds.data if case == "striped-root" else node_matrix(ds, "A")
            X = X / np.linalg.norm(X, axis=0)
        trace = []
        got = solve_ssc(X, 10.0, mode=mode, affine=affine)
        want = reference_solve_ssc(X, 10.0, mode=mode, affine=affine, objective_trace=trace)
        assert_ssc_iterations(len(trace), X, 10.0, mode=mode, affine=affine)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        assert np.all(np.diag(got) == 0.0)

    @pytest.mark.parametrize("mode,affine", MODES)
    def test_same_labels_on_striped_images(self, mode, affine, monkeypatch):
        ds = striped_images(seed=2)
        spec = SolverSpec("SSC", {"alpha": 10, "mode": mode, "affine": affine})
        pipe = SingleViewPipeline(spec)
        for path in ("", "A", "AA"):
            X = node_matrix(ds, path)
            got = pipe.run(X, 4, seed=0)
            with monkeypatch.context() as m:
                m.setattr("wpsc.solvers.solve_ssc", reference_solve_ssc)
                want = pipe.run(X, 4, seed=0)
            assert np.array_equal(got, want), path


def stack_of(members, order):
    """B x D x N stack whose members are laid out in ``order`` ('C' or 'F')."""
    if order == "C":
        return np.stack(members)
    return np.stack([X.T for X in members]).transpose(0, 2, 1)


class TestSscStack:
    """Stacked solves against the one-matrix fused loop, bit for bit."""

    MODES = [("noise", False), ("noise", True), ("outlier", False), ("outlier", True)]

    @staticmethod
    def _members():
        # two striped roots stop on tol (111-129 iterations at 1e-6), the
        # A node runs into max_iter
        one, two = striped_images(seed=1), striped_images(seed=2)
        A = node_matrix(one, "A")
        return [one.data, A / np.linalg.norm(A, axis=0), two.data]

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("mode,affine", MODES)
    def test_members_equal_lone_solves(self, mode, affine, order):
        members = [np.asarray(X, order=order) for X in self._members()]
        got = solve_ssc(stack_of(members, order), 10.0, mode=mode, affine=affine,
                        max_iter=150)
        assert got.shape == (3, 48, 48)
        lengths = []
        for b, X in enumerate(members):
            trace = []
            want = fused_reference_solve_ssc(X, 10.0, mode=mode, affine=affine,
                                             max_iter=150, objective_trace=trace)
            assert np.array_equal(got[b], want), b
            lengths.append(len(trace))
        # members leave the stack at different iterations
        assert min(lengths) < 150 and max(lengths) == 150, lengths

    @pytest.mark.parametrize("mode,affine", MODES)
    def test_layout_sensitive_shape(self, mode, affine):
        # at D=40, N=130 a BLAS product of a row-major and of a column-major
        # copy of X can differ in the last bit; each member keeps its layout
        rng = np.random.default_rng(4)
        members = []
        for b in range(3):
            X = rng.standard_normal((40, 130)) + 0.4 * b * rng.standard_normal((40, 1))
            members.append(X / np.linalg.norm(X, axis=0))
        for order in "CF":
            laid = [np.asarray(X, order=order) for X in members]
            got = solve_ssc(stack_of(laid, order), 10.0, mode=mode, affine=affine,
                            tol=1e-3, max_iter=60)
            for b, X in enumerate(laid):
                want = fused_reference_solve_ssc(X, 10.0, mode=mode, affine=affine,
                                                 tol=1e-3, max_iter=60)
                assert np.array_equal(got[b], want), (order, b)

    @pytest.mark.parametrize("mode,affine", MODES)
    def test_batch_of_one_is_the_matrix_call(self, mode, affine):
        X = self._members()[1]
        trace = []
        lone = solve_ssc(X, 10.0, mode=mode, affine=affine)
        want = fused_reference_solve_ssc(X, 10.0, mode=mode, affine=affine,
                                         objective_trace=trace)
        assert lone.shape == (48, 48) and np.array_equal(lone, want)
        assert_ssc_iterations(len(trace), X, 10.0, mode=mode, affine=affine)
        assert np.array_equal(solve_ssc(X[None], 10.0, mode=mode, affine=affine)[0], lone)

    def test_stack_input_checks(self):
        X = self._members()[0]
        with pytest.raises(ParameterError):
            solve_ssc(np.empty((0, 48, 48)), 10.0)
        with pytest.raises(DegenerateDataError):
            solve_ssc(np.stack([np.full((4, 4), 0.5), np.eye(4)]), 10.0)
        bad = np.stack([X, X])
        bad[1, 0, 0] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            solve_ssc(bad, 10.0)

    @pytest.mark.parametrize("spec", [
        SolverSpec("SSC", {"alpha": 10, "mode": "outlier"}),
        SolverSpec("LRR", {"lambda": 1.0}),
        SolverSpec("NSN", {"k": 4, "d_max": 2}),
        SolverSpec("RTSC", {"q": 4}),
    ])
    def test_spec_solves_each_member(self, spec):
        members = [make_uos(C=2, d=2, D=20, n=8, sigma=0.05, seed=s).data for s in (1, 2)]
        got = spec.solve(np.stack(members))
        assert got.shape == (2, 16, 16)
        for b, X in enumerate(members):
            assert np.array_equal(got[b], spec.solve(X))


class TestSsc:
    def test_orthogonal_lines_subspace_preserving(self, tiny_two_lines):
        X, labels = tiny_two_lines
        Z = solve_ssc(X, 10.0)
        for i in range(6):
            for j in range(6):
                if labels[i] != labels[j]:
                    assert abs(Z[i, j]) < 1e-6

    @staticmethod
    def _generic_instance():
        # small generic instance with its SSC lambda = 10 / mu_e
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 8))
        X /= np.linalg.norm(X, axis=0)
        G = np.abs(X.T @ X)
        np.fill_diagonal(G, -np.inf)
        return X, 10.0 / G.max(axis=1).min()

    def test_matches_convex_oracle(self):
        # compare each column with the LASSO oracle
        X, lam = self._generic_instance()
        Z = solve_ssc(X, 10.0, tol=1e-10, max_iter=5000)
        for i in range(8):
            ref = lasso_oracle(X, i, lam)
            assert np.abs(Z[:, i] - ref).max() < 5e-5

    def test_satisfies_lasso_kkt(self):
        # subgradient optimality of each column's lasso
        # min ||z||_1 + lam/2 ||x_i - X z||^2 s.t. z_i = 0:
        # g_j = lam x_j'(x_i - X z) equals sign(z_j) on the support and
        # lies in [-1, 1] off it, for every j != i
        X, lam = self._generic_instance()
        Z = solve_ssc(X, 10.0, tol=1e-10, max_iter=5000)
        for i in range(8):
            z = Z[:, i]
            g = lam * X.T @ (X[:, i] - X @ z)
            others = np.arange(8) != i
            on = others & (z != 0.0)
            off = others & (z == 0.0)
            assert np.all(np.abs(g[on] - np.sign(z[on])) <= 1e-6)
            assert np.all(np.abs(g[off]) <= 1.0 + 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        X = make_uos(C=2, d=2, D=16, n=6, seed=1).data.copy()
        X[3, 2] = bad
        with pytest.raises(ParameterError, match="finite"):
            solve_ssc(X, 5.0)

    def test_duplicate_columns_dominate(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 6))
        X[:, 3] = X[:, 1]
        X /= np.linalg.norm(X, axis=0)
        Z = solve_ssc(X, 20.0)
        assert np.argmax(np.abs(Z[:, 1])) == 3
        assert np.argmax(np.abs(Z[:, 3])) == 1

    def test_exact_zero_diagonal(self):
        X = make_uos(C=2, d=2, D=16, n=6, seed=1).data
        Z = solve_ssc(X, 5.0)
        assert np.all(np.diag(Z) == 0.0)
        assert np.all(np.isfinite(Z))
        # soft-thresholding as T - clip(T) gives +0.0, never -0.0
        zeros = Z[Z == 0.0]
        assert zeros.size > len(Z) and not np.any(np.signbit(zeros))

    def test_degenerate_orthogonal_columns(self):
        with pytest.raises(DegenerateDataError):
            solve_ssc(np.eye(4), 10.0)

    def test_objective_non_increasing(self):
        # the objective of the reference loop, whose iterates are the library's
        ds = make_uos(C=5, d=5, D=100, n=20, sigma=0.3, seed=0)
        trace = []
        want = fused_reference_solve_ssc(ds.data, 10.0, objective_trace=trace)
        assert np.array_equal(solve_ssc(ds.data, 10.0), want)
        trace = np.asarray(trace)
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, trace[:-1]))

    def test_subspace_preserving_off_block_mass(self):
        ds = make_uos(C=5, d=5, D=100, n=20, sigma=0.0, seed=3)
        Z = solve_ssc(ds.data, 10.0)
        same = ds.labels[:, None] == ds.labels[None, :]
        off = np.abs(Z)[~same].sum()
        assert off / np.abs(Z).sum() < 1e-4

    def test_affine_mode_column_sums(self):
        ds = make_uos(C=3, d=2, D=30, n=8, seed=5)
        Z = solve_ssc(ds.data, 20.0, affine=True, tol=1e-8, max_iter=1000)
        assert np.abs(Z.sum(axis=0) - 1.0).max() < 1e-4

    def test_outlier_mode_recovers_support(self, tiny_two_lines):
        X, labels = tiny_two_lines
        Z = solve_ssc(X, 10.0, mode="outlier")
        assert np.all(np.diag(Z) == 0.0)
        for i in range(6):
            for j in range(6):
                if labels[i] != labels[j]:
                    assert abs(Z[i, j]) < 1e-6


def reference_solve_lrr(X, lam, tol=1e-6, max_iter=500, objective_trace=None):
    """Reference LRR loop: ``solve_lrr`` with a Cholesky factor of X'X + I
    and one ``cho_solve`` per iteration in place of the explicit inverse."""
    X = np.asarray(X, dtype=np.float64)
    N = X.shape[1]
    mu, rho, mu_max = 1e-3, 1.1, 1e10
    XtX = X.T @ X
    factor = cho_factor(XtX + np.eye(N))
    Z = np.zeros((N, N))
    J = np.zeros((N, N))
    E = np.zeros_like(X)
    Y1 = np.zeros_like(X)
    Y2 = np.zeros((N, N))
    for _ in range(max_iter):
        J = _svt(Z + Y2 / mu, 1.0 / mu)
        Z = cho_solve(factor, XtX - X.T @ E + J + (X.T @ Y1 - Y2) / mu)
        E = _shrink_columns(X - X @ Z + Y1 / mu, lam / mu)
        res_data = X - X @ Z - E
        Y1 += mu * res_data
        Y2 += mu * (Z - J)
        mu = min(mu * rho, mu_max)
        if objective_trace is not None:
            nuc = float(np.linalg.svd(J, compute_uv=False).sum())
            feas = X - X @ J
            objective_trace.append(nuc + lam * float(np.linalg.norm(feas, axis=0).sum()))
        r1 = np.abs(X - X @ J - E).max()
        r2 = np.abs(Z - J).max()
        if max(r1, r2) < tol:
            return J
    raise ConvergenceError(
        f"LRR did not converge in {max_iter} iterations",
        residuals={"data": r1, "coupling": r2},
    )


def assert_lrr_iterations(n, X, *args, **kw):
    """``solve_lrr(X, *args, **kw)`` converges in exactly n iterations: it
    returns with ``max_iter=n`` and raises with ``max_iter=n - 1``."""
    solve_lrr(X, *args, max_iter=n, **kw)
    with pytest.raises(ConvergenceError):
        solve_lrr(X, *args, max_iter=n - 1, **kw)


class TestLrr:
    def _low_rank_data(self, seed, D=30, N=40, r=3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((D, r)) @ rng.standard_normal((r, N))
        return X / np.linalg.norm(X, axis=0), r

    @pytest.mark.parametrize("case", ["low-rank", "uos-noisy", "uos-outlier-lambda"])
    def test_matches_cholesky_reference(self, case):
        # one GEMM with (X'X + I)^-1 per iteration in place of a cho_solve
        if case == "low-rank":
            X, lam = self._low_rank_data(5)[0], 10.0
        elif case == "uos-noisy":
            X, lam = make_uos(C=3, d=3, D=40, n=15, sigma=0.1, seed=1).data, 1.0
        else:
            X, lam = make_uos(C=4, d=2, D=30, n=12, sigma=0.3, seed=2).data, 0.3
        trace = []
        got = solve_lrr(X, lam)
        want = reference_solve_lrr(X, lam, objective_trace=trace)
        assert_lrr_iterations(len(trace), X, lam)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_noiseless_closed_form(self):
        # the noiseless large-lambda solution is the shape-interaction matrix
        X, r = self._low_rank_data(0)
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        V = Vt[: (s > 1e-8 * s[0]).sum()]
        Z = solve_lrr(X, 10.0)
        assert np.abs(Z - V.T @ V).max() < 1e-4

    def test_rank_at_singular_value_cutoff(self):
        X, r = self._low_rank_data(1)
        Z = solve_lrr(X, 10.0)
        assert (np.linalg.svd(Z, compute_uv=False) > 1e-8).sum() == r

    def test_symmetric_psd(self):
        X, _ = self._low_rank_data(2)
        Z = solve_lrr(X, 10.0)
        assert np.abs(Z - Z.T).max() < 1e-6
        w = np.linalg.eigvalsh((Z + Z.T) / 2)
        assert w.min() > -1e-6

    def test_orthonormal_columns_feasibility_bound(self):
        rng = np.random.default_rng(3)
        X, _ = np.linalg.qr(rng.standard_normal((20, 8)))
        Z = solve_lrr(X, 5.0)
        E = X - X @ Z
        obj = np.linalg.svd(Z, compute_uv=False).sum() \
            + 5.0 * np.linalg.norm(E, axis=0).sum()
        assert obj <= 8 + 1e-3

    def test_non_convergence_raises_with_residuals(self):
        X, _ = self._low_rank_data(4)
        with pytest.raises(ConvergenceError) as exc:
            solve_lrr(X, 10.0, max_iter=3)
        assert set(exc.value.residuals) == {"data", "coupling"}

    def test_svd_failure_is_convergence_error(self, monkeypatch):
        # LAPACK's SVD can fail to converge on a finite iterate; that must
        # surface as a typed error carrying the last residuals
        X, _ = self._low_rank_data(4)
        svd, calls = np.linalg.svd, []

        def failing_svd(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceError, match="iteration 2") as exc:
            solve_lrr(X, 10.0)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
        monkeypatch.undo()
        with pytest.raises(ConvergenceError) as ref:
            solve_lrr(X, 10.0, max_iter=2)
        assert exc.value.residuals == ref.value.residuals

    @pytest.mark.xfail(
        reason="inexact ALM with the pinned mu-schedule oscillates by ~1e-3 "
               "near convergence; strict 1e-8-slack monotonicity is unattainable",
        strict=True)
    def test_objective_non_increasing_strict(self):
        # the objective of the reference loop, whose iterates match the
        # library's on this input (test_objective_decreasing_envelope, seed 0)
        X, _ = self._low_rank_data(0)
        trace = []
        reference_solve_lrr(X, 10.0, objective_trace=trace)
        trace = np.asarray(trace)
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, trace[:-1]))

    def test_objective_decreasing_envelope(self):
        # what actually holds: decay within a small multiplicative envelope,
        # on the objective of the reference loop, whose iterates match the library's
        for seed in range(3):
            X, _ = self._low_rank_data(seed)
            trace = []
            want = reference_solve_lrr(X, 10.0, objective_trace=trace)
            assert np.abs(solve_lrr(X, 10.0) - want).max() <= 1e-11 * np.abs(want).max()
            trace = np.asarray(trace)
            running_min = np.minimum.accumulate(trace)
            assert np.all(trace <= 1.01 * running_min + 1e-12)
            assert trace[-1] < 0.05 * trace[0]


class TestNsn:
    def test_orthogonal_lines_all_intra(self, tiny_two_lines):
        X, labels = tiny_two_lines
        W = solve_nsn(X, k=2, d_max=1)
        for i in range(6):
            neighbors = np.flatnonzero(W[i])
            assert len(neighbors) >= 2
            assert np.all(labels[neighbors] == labels[i])

    def test_k1_picks_max_cosine_partner(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 7))
        X /= np.linalg.norm(X, axis=0)
        W = solve_nsn(X, k=1, d_max=1)
        G = np.abs(X.T @ X)
        np.fill_diagonal(G, -np.inf)
        for i in range(7):
            j = int(np.argmax(G[i]))
            assert W[i, j] == 1.0 or W[j, i] == 1.0

    def test_symmetric_binary_zero_diag(self):
        X = make_uos(C=3, d=2, D=20, n=6, seed=7).data
        W = solve_nsn(X, k=3, d_max=2)
        assert np.array_equal(W, W.T)
        assert set(np.unique(W)) <= {0.0, 1.0}
        assert np.all(np.diag(W) == 0.0)

    def test_parameter_validation(self):
        X = make_uos(C=2, d=1, D=9, n=3, seed=0).data
        with pytest.raises(ParameterError):
            solve_nsn(X, k=2, d_max=3)
        with pytest.raises(ParameterError):
            solve_nsn(X, k=6, d_max=1)


class TestRtsc:
    def test_duplicates_are_mutual_neighbors(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 5))
        X[:, 2] = -X[:, 0]  # same line: angular distance 0
        X /= np.linalg.norm(X, axis=0)
        W = solve_rtsc(X, q=1)
        assert W[0, 2] == pytest.approx(1.0)
        assert W[2, 0] == pytest.approx(1.0)

    def test_orthogonal_never_beats_non_orthogonal(self):
        X = np.zeros((4, 3))
        X[0, 0] = 1.0
        X[1, 1] = 1.0  # orthogonal to column 0
        X[:2, 2] = [np.cos(0.3), np.sin(0.3)]  # close to column 0
        W = solve_rtsc(X, q=1)
        assert W[0, 2] > 0 and W[0, 1] == 0.0

    def test_hand_dataset_matches_angle_oracle(self):
        # N=4: exhaustive pairwise angle table picks each point's q=2 graph
        thetas = [0.0, 0.1, 0.8, 1.3]
        X = np.array([[np.cos(t), np.sin(t)] for t in thetas]).T
        W = solve_rtsc(X, q=2)
        S = np.abs(X.T @ X)
        angles = np.arccos(np.clip(S, 0, 1))
        np.fill_diagonal(angles, np.inf)
        expect = np.zeros((4, 4))
        for i in range(4):
            nn = np.argsort(angles[i], kind="stable")[:2]
            expect[i, nn] = S[i, nn]
        expect = np.maximum(expect, expect.T)
        np.fill_diagonal(expect, 0.0)
        assert np.allclose(W, expect, atol=1e-12)

    def test_scale_invariance_after_normalization(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 6))
        scales = rng.uniform(0.1, 10.0, size=6)
        A = X / np.linalg.norm(X, axis=0)
        B = (X * scales) / np.linalg.norm(X * scales, axis=0)
        assert np.allclose(solve_rtsc(A, 2), solve_rtsc(B, 2), atol=1e-12)
        assert np.allclose(solve_nsn(A, 2, 1), solve_nsn(B, 2, 1), atol=1e-12)

    @pytest.mark.parametrize("values", ["gauss", "sign"])
    def test_neighbors_match_stable_argsort(self, values):
        # +-1 columns give only a few distinct angles, so most neighbours tie
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 40))
        if values == "sign":
            X = np.sign(X)
        X /= np.linalg.norm(X, axis=0)
        N = X.shape[1]
        S = np.clip(np.abs(X.T @ X), 0.0, 1.0)
        angles = np.arccos(S)
        np.fill_diagonal(angles, np.inf)
        for q in (1, 5, 10, 20, N - 1):
            nn = np.argsort(angles, axis=1, kind="stable")[:, :q]
            expect = np.zeros((N, N))
            np.put_along_axis(expect, nn, np.take_along_axis(S, nn, axis=1), axis=1)
            expect = np.maximum(expect, expect.T)
            np.fill_diagonal(expect, 0.0)
            assert np.array_equal(solve_rtsc(X, q), expect), q


class TestSolverSpec:
    def test_required_params(self):
        with pytest.raises(ParameterError):
            SolverSpec("SSC", {})
        with pytest.raises(ParameterError):
            SolverSpec("LRR", {"lambda": -1})
        with pytest.raises(ParameterError):
            SolverSpec("BOGUS", {})
        with pytest.raises(ParameterError, match="'k' must be an integer"):
            SolverSpec("NSN", {"k": 4.5, "d_max": 2})  # once truncated to 4

    @pytest.mark.parametrize("kind,params", [
        ("SSC", {"alpha": 10, "mdoe": "outlier"}),
        ("LRR", {"lambda": 1.0, "alpha": 10}),
        ("NSN", {"k": 4, "d_max": 2, "q": 3}),
        ("RTSC", {"q": 4, "qq": 3}),
    ])
    def test_unknown_params_rejected(self, kind, params):
        # a misspelt key once fell back to the default silently
        with pytest.raises(ParameterError, match="takes no parameter"):
            SolverSpec(kind, params)

    @pytest.mark.parametrize("params", [
        {"alpha": 10, "affine": "false"},  # once coerced by bool() to True
        {"alpha": 10, "affine": 0},
        {"alpha": 10, "affine": None},
        {"alpha": 10, "mode": "outleir"},
        {"alpha": 10, "mode": None},
    ], ids=["affine-str", "affine-int", "affine-none", "mode-typo", "mode-none"])
    def test_ssc_option_values_checked(self, params):
        bad = params.get("mode", params.get("affine"))
        with pytest.raises(ParameterError, match=repr(bad)):
            SolverSpec("SSC", params)

    @pytest.mark.parametrize("affine", [False, True])
    def test_ssc_affine_passes_through(self, tiny_two_lines, affine):
        X, _ = tiny_two_lines
        spec = SolverSpec("SSC", {"alpha": 10, "affine": affine, "mode": "noise"})
        assert np.array_equal(spec.solve(X), solve_ssc(X, 10, affine=affine))

    @pytest.mark.parametrize("spec,direct", [
        (SolverSpec("SSC", {"alpha": 10, "mode": "outlier", "affine": True}, tol=1e-3,
                    max_iter=40),
         lambda X: solve_ssc(X, 10, mode="outlier", affine=True, tol=1e-3, max_iter=40)),
        (SolverSpec("LRR", {"lambda": 1.0}, tol=1e-4, max_iter=300),
         lambda X: solve_lrr(X, 1.0, tol=1e-4, max_iter=300)),
        (SolverSpec("NSN", {"k": 4, "d_max": 2}), lambda X: solve_nsn(X, 4, 2)),
        (SolverSpec("RTSC", {"q": 4}), lambda X: solve_rtsc(X, 4)),
    ], ids=["SSC", "LRR", "NSN", "RTSC"])
    def test_spec_equals_the_direct_call(self, spec, direct):
        # LRR's lambda goes in as lam, and each iterative kind gets the spec's
        # stopping rule; with the defaults the SSC and LRR results differ
        X = make_uos(C=2, d=2, D=20, n=8, sigma=0.05, seed=1).data
        assert np.array_equal(spec.solve(X), direct(X))

    @pytest.mark.parametrize("kind,params", [("NSN", {"k": 4, "d_max": 2}), ("RTSC", {"q": 4})])
    @pytest.mark.parametrize("setting", [{"tol": 1e-3}, {"max_iter": 5}],
                             ids=["tol", "max_iter"])
    def test_greedy_kinds_refuse_a_stopping_rule(self, kind, params, setting):
        # both once took a tol and a max_iter that they never read
        (key,) = setting
        with pytest.raises(ParameterError, match=f"{kind} does not iterate and takes no {key}"):
            SolverSpec(kind, params, **setting)
        # the defaults, which report.json echoes, may be spelt out
        default = SolverSpec(kind, params)
        assert SolverSpec(kind, params, tol=1e-6, max_iter=0) == default
        assert (default.tol, default.max_iter) == (1e-6, 0)

    def test_dispatch(self, tiny_two_lines):
        X, _ = tiny_two_lines
        for spec in (SolverSpec("SSC", {"alpha": 10}),
                     SolverSpec("NSN", {"k": 2, "d_max": 1}),
                     SolverSpec("RTSC", {"q": 2})):
            M = spec.solve(X)
            assert M.shape == (6, 6)
