import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import wpsc
from conftest import make_uos
from wpsc.errors import ConvergenceError, NoGridError, ParameterError
from wpsc.mera import (
    ALM_MU0,
    ALM_MU_MAX,
    ALM_RHO,
    MeraFactors,
    _disentangle,
    _fold,
    _layer,
    _procrustes,
    _top_core,
    _unfold,
    choose_grid,
    mera_contract,
    mera_fit,
    mera_mvsc,
    reshape_from_5d,
    reshape_to_5d,
    unify_views,
)
from wpsc.pipeline import WpMeraPipeline, five_views
from wpsc.solvers import _shrink_columns

def contract_oracle(f):
    """Loop-based network evaluation, independent of einsum."""
    I1, I2, R = f.W1.shape
    I3, I4, I5, _ = f.W2.shape
    out = np.zeros((I1, I2, I3, I4, I5))
    for x in range(I1):
        for y in range(I2):
            for z in range(I3):
                for d in range(I4):
                    for e in range(I5):
                        acc = 0.0
                        for a in range(I2):
                            for b in range(I3):
                                for r in range(R):
                                    for s in range(R):
                                        acc += (f.W1[x, a, r] * f.W2[b, d, e, s]
                                                * f.U1[a, b, y, z] * f.B[r, s])
                        out[x, y, z, d, e] = acc
    return out


def reference_cholesky_mera_mvsc(views, lam, R, tol=1e-6, max_iter=200, sweeps=2,
                                 trace=None):
    """The ADMM loop of ``mera_mvsc`` before it kept one memory layout,
    reused ``Xv @ Z`` for the gaps and took the fit's last contraction:
    a verbatim copy, kept as the reference."""
    if not views:
        raise ParameterError("need at least one view")
    views = [np.asarray(Xv, dtype=np.float64) for Xv in views]
    N = views[0].shape[1]
    if any(Xv.shape[1] != N for Xv in views):
        raise ParameterError("all views must share the number of columns N")
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    V = len(views)
    A_dim, Q_dim = choose_grid(N)
    shape = (A_dim, Q_dim, A_dim, Q_dim, V)
    if not 1 <= R <= min(N, N * V):
        raise ParameterError(f"R = {R} exceeds min unfolding rank {N}")

    gram = [Xv.T @ Xv for Xv in views]
    factor = [cho_factor(G + np.eye(N)) for G in gram]
    Z = np.zeros((N, N, V))
    Zhat = np.zeros((N, N, V))
    E = [np.zeros_like(Xv) for Xv in views]
    M1 = [np.zeros_like(Xv) for Xv in views]
    M2 = np.zeros((N, N, V))
    mu = ALM_MU0
    factors = None
    for it in range(max_iter):
        for v, Xv in enumerate(views):
            rhs = Xv.T @ (Xv - E[v] + M1[v] / mu) + Zhat[:, :, v] - M2[:, :, v] / mu
            Z[:, :, v] = cho_solve(factor[v], rhs)
            E[v] = _shrink_columns((Xv - Xv @ Z[:, :, v] + M1[v] / mu).T, lam / mu).T
        consensus = reshape_to_5d(Z + M2 / mu, shape)
        factors = mera_fit(consensus, R, max_iter=sweeps,
                           init=factors, tol=0.0)
        Zhat = reshape_from_5d(mera_contract(factors), shape)
        gaps = [Xv - Xv @ Z[:, :, v] - E[v] for v, Xv in enumerate(views)]
        res_views = [float(np.abs(g).max()) for g in gaps]
        res_consensus = float(np.abs(Z - Zhat).max())
        for v in range(V):
            M1[v] += mu * gaps[v]
        M2 += mu * (Z - Zhat)
        if trace is not None:
            trace.append({
                "iteration": it,
                "view_residuals": res_views,
                "residual_consensus": res_consensus,
                "fit_error": factors.fit_errors[-1],
                "mu": mu,
            })
        mu = min(mu * ALM_RHO, ALM_MU_MAX)
        if max(res_views) < tol and res_consensus < tol:
            return Zhat
    raise ConvergenceError(
        f"MERA multi-view ADMM did not converge in {max_iter} iterations",
        residuals={"data": max(res_views), "consensus": res_consensus},
    )


def reference_mera_mvsc(views, lam, R, tol=1e-6, max_iter=200, sweeps=2, trace=None):
    """``mera_mvsc`` as it was before it ran in one working set, when each
    outer iteration allocated its N x N x V arrays afresh and every view
    had E, W and a scratch of its own: a verbatim copy of the loop, without
    the argument checks, kept as the reference for the bits."""
    views = [np.ascontiguousarray(Xv, dtype=np.float64) for Xv in views]
    N, V = views[0].shape[1], len(views)
    A_dim, Q_dim = choose_grid(N)
    dims = (A_dim, Q_dim, A_dim, Q_dim, V)
    inverse = [np.linalg.inv(Xv.T @ Xv + np.eye(N)) for Xv in views]
    Z = np.zeros((N, N, V))
    Zhat = np.zeros((N, N, V))
    E = [np.zeros_like(Xv) for Xv in views]
    W = [np.zeros_like(Xv) for Xv in views]
    work = [np.empty_like(Xv) for Xv in views]
    M2 = np.zeros((N, N, V))
    mu = ALM_MU0
    factors = None
    for it in range(max_iter):
        mu_next = min(mu * ALM_RHO, ALM_MU_MAX)
        res_views = []
        for v, Xv in enumerate(views):
            S = work[v]
            np.subtract(Xv, E[v], out=S)
            S += W[v]
            Zv = inverse[v] @ (Xv.T @ S + Zhat[:, :, v] - M2[:, :, v] / mu)
            Z[:, :, v] = Zv
            np.matmul(Xv, Zv, out=S)
            np.subtract(Xv, S, out=S)
            S += W[v]
            norms = np.sqrt(np.einsum("dn,dn->d", S, S))
            keep = np.maximum(0.0, 1.0 - (lam / mu) / np.where(norms > 0, norms, 1.0))
            np.multiply(S, keep[:, None], out=E[v])
            S *= (1.0 - keep)[:, None]
            gap = np.subtract(S, W[v], out=W[v])
            res_views.append(float(np.abs(gap).max()))
            S *= mu / mu_next
            W[v], work[v] = S, gap
        consensus = reshape_to_5d(Z + M2 / mu, dims)
        factors = reference_unfolded_mera_fit(consensus, R, max_iter=sweeps,
                                              init=factors, tol=0.0)
        Zhat = reshape_from_5d(factors.contraction, dims)
        gap_consensus = Z - Zhat
        res_consensus = float(np.abs(gap_consensus).max())
        M2 += mu * gap_consensus
        if trace is not None:
            trace.append({
                "iteration": it,
                "view_residuals": res_views,
                "residual_consensus": res_consensus,
                "fit_error": factors.fit_errors[-1],
                "mu": mu,
            })
        mu = mu_next
        if max(res_views) < tol and res_consensus < tol:
            return Zhat
    raise ConvergenceError(
        f"MERA multi-view ADMM did not converge in {max_iter} iterations",
        residuals={"data": max(res_views), "consensus": res_consensus},
    )


def reference_unfolded_mera_fit(Y, R, tol=1e-8, max_iter=100, init=None):
    """The sweeps of ``mera_fit`` as they were before they shared one
    scratch, when every unfolding, difference and disentangled product was
    a fresh array: a verbatim copy, without the argument checks."""
    Y = np.asarray(Y, dtype=np.float64)
    I1, I2, I3, I4, I5 = Y.shape
    Yr = _unfold(Y)
    if init is None:
        U, _, Vt = np.linalg.svd(Y.reshape(I1 * I2, I3 * I4 * I5), full_matrices=False)
        factors = MeraFactors(U[:, :R].reshape(I1, I2, R), Vt[:R].T.reshape(I3, I4, I5, R),
                              np.eye(I2 * I3).reshape(I2, I3, I2, I3), np.zeros((R, R)))
        factors.B = _top_core(Yr, factors)
    else:
        factors = MeraFactors(init.W1.copy(), init.W2.copy(), init.U1.copy(),
                              init.B.copy(), contraction=init.contraction)
    factors.check()
    if factors.contraction is None:
        factors.contraction = mera_contract(factors)
    err = float(np.linalg.norm(Yr - _unfold(factors.contraction)))
    factors.fit_errors = [err]
    K = _layer(factors)
    for _ in range(max_iter):
        U1 = _procrustes(K @ Yr.T)
        factors.U1 = U1.reshape(factors.U1.shape)
        Yp = _disentangle(Yr, factors)
        W1 = _procrustes(Yp @ factors.W2.reshape(-1, R) @ factors.B.T)
        W1tYp = W1.T @ Yp
        W2 = _procrustes(W1tYp.T @ factors.B)
        factors.W1, factors.W2 = W1.reshape(I1, I2, R), W2.reshape(I3, I4, I5, R)
        factors.B = W1tYp @ W2
        factors.check()
        K = _layer(factors)
        Yhat_r = U1.T @ K
        factors.contraction = _fold(Yhat_r, Y.shape)
        new_err = float(np.linalg.norm(Yr - Yhat_r))
        factors.fit_errors.append(new_err)
        if err - new_err < tol * max(err, 1e-300):
            break
        err = new_err
    return factors


def _einsum(spec, *operands):
    # the greedy path that mera_fit's cached-path einsum took
    return np.einsum(spec, *operands, optimize=True)


def reference_contract(factors):
    return _einsum("xar,bdes,abyz,rs->xyzde",
                   factors.W1, factors.W2, factors.U1, factors.B)


def _reference_top_core(Y, factors):
    return _einsum("xyzde,xar,bdes,abyz->rs",
                   Y, factors.W1, factors.W2, factors.U1)


def _reference_procrustes(env, rows_shape):
    mat = env.reshape(int(np.prod(rows_shape)), -1)
    U, _, Vt = np.linalg.svd(mat, full_matrices=False)
    return (U @ Vt).reshape(env.shape)


def _reference_fit_error(Y, factors):
    factors.contraction = reference_contract(factors)
    return float(np.linalg.norm(Y - factors.contraction))


def _reference_hosvd_init(Y, R):
    I1, I2, I3, I4, I5 = Y.shape
    mat = Y.reshape(I1 * I2, I3 * I4 * I5)
    U, _, Vt = np.linalg.svd(mat, full_matrices=False)
    W1 = U[:, :R].reshape(I1, I2, R)
    W2 = Vt[:R].T.reshape(I3, I4, I5, R)
    U1 = np.eye(I2 * I3).reshape(I2, I3, I2, I3)
    factors = MeraFactors(W1=W1, W2=W2, U1=U1, B=np.zeros((R, R)))
    factors.B = _reference_top_core(Y, factors)
    return factors


def reference_mera_fit(Y, R, tol=1e-8, max_iter=100, init=None):
    """``mera_fit`` as it was when every sweep ran five 4-operand einsums
    on the 5-way tensor: a verbatim copy, with its helpers renamed, kept as
    the reference."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 5 or Y.shape[0] != Y.shape[2] or Y.shape[1] != Y.shape[3]:
        raise ParameterError("expected a 5-way tensor with I1 = I3, I2 = I4")
    I1, I2, I3, I4, I5 = Y.shape
    if not 1 <= R <= min(I1 * I2, I3 * I4 * I5):
        raise ParameterError(
            f"R = {R} outside [1, {min(I1 * I2, I3 * I4 * I5)}]"
        )
    if init is None:
        factors = _reference_hosvd_init(Y, R)
    else:
        if init.B.shape != (R, R):
            raise ParameterError("warm start has a different rank")
        # the factors are copied unchanged, so their contraction still holds
        factors = MeraFactors(W1=init.W1.copy(), W2=init.W2.copy(),
                              U1=init.U1.copy(), B=init.B.copy(),
                              contraction=init.contraction)
    factors.check()
    if factors.contraction is None:
        factors.contraction = reference_contract(factors)
    err = float(np.linalg.norm(Y - factors.contraction))
    factors.fit_errors = [err]
    for _ in range(max_iter):
        env_u = _einsum("xyzde,xar,bdes,rs->abyz",
                        Y, factors.W1, factors.W2, factors.B)
        factors.U1 = _reference_procrustes(env_u, env_u.shape[:2])
        env_w1 = _einsum("xyzde,bdes,abyz,rs->xar",
                         Y, factors.W2, factors.U1, factors.B)
        factors.W1 = _reference_procrustes(env_w1, env_w1.shape[:2])
        env_w2 = _einsum("xyzde,xar,abyz,rs->bdes",
                         Y, factors.W1, factors.U1, factors.B)
        factors.W2 = _reference_procrustes(env_w2, env_w2.shape[:3])
        factors.B = _reference_top_core(Y, factors)
        factors.check()
        new_err = _reference_fit_error(Y, factors)
        factors.fit_errors.append(new_err)
        if err - new_err < tol * max(err, 1e-300):
            break
        err = new_err
    return factors


def random_isometric_factors(dims, R, seed):
    I1, I2, I3, I4, I5 = dims
    rng = np.random.default_rng(seed)

    def orth(m, n):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        return q[:, :n]

    return MeraFactors(
        W1=orth(I1 * I2, R).reshape(I1, I2, R),
        W2=orth(I3 * I4 * I5, R).reshape(I3, I4, I5, R),
        U1=orth(I2 * I3, I2 * I3).reshape(I2, I3, I2, I3),
        B=rng.standard_normal((R, R)),
    )


class TestChooseGrid:
    def test_examples(self):
        assert choose_grid(100) == (10, 10)
        assert choose_grid(72) == (8, 9)
        assert choose_grid(36) == (6, 6)

    def test_prime_has_no_grid(self):
        with pytest.raises(NoGridError):
            choose_grid(13)

    def test_too_small(self):
        with pytest.raises(ParameterError):
            choose_grid(3)

    def test_matches_divisor_scan(self):
        # reference: the largest divisor a in [2, isqrt(N)] gives (a, N // a)
        for N in range(4, 1500):
            best = max((a for a in range(2, math.isqrt(N) + 1) if N % a == 0), default=None)
            if best is None:
                with pytest.raises(NoGridError):
                    choose_grid(N)
            else:
                assert choose_grid(N) == (best, N // best)


class TestReshape:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((12, 12, 5))
        shape = (3, 4, 3, 4, 5)
        assert np.array_equal(reshape_from_5d(reshape_to_5d(Z, shape), shape), Z)

    def test_index_arithmetic_oracle(self):
        # column-major digit split: n = i1 + I1*i2, m = i3 + I3*i4
        I1, I2, V = 2, 2, 3
        shape = (I1, I2, I1, I2, V)
        N = I1 * I2
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((N, N, V))
        Y = reshape_to_5d(Z, shape)
        for n in range(N):
            for m in range(N):
                for v in range(V):
                    assert Y[n % I1, n // I1, m % I1, m // I1, v] == Z[n, m, v]

    def test_spec_single_entry(self):
        # 1-based Z(2,3,v) lands at 0-based (i1=1, i2=0, i3=0, i4=1)
        shape = (2, 2, 2, 2, 1)
        Z = np.zeros((4, 4, 1))
        Z[1, 2, 0] = 7.0
        Y = reshape_to_5d(Z, shape)
        assert Y[1, 0, 0, 1, 0] == 7.0

    def test_zero_maps_to_zero(self):
        shape = (2, 3, 2, 3, 2)
        Y = reshape_to_5d(np.zeros((6, 6, 2)), shape)
        assert not Y.any()


class TestContract:
    def test_full_rank_identity_factors_reproduce_input(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((2, 2, 2, 2, 1))
        f = MeraFactors(
            W1=np.eye(4).reshape(2, 2, 4),
            W2=np.eye(4).reshape(2, 2, 1, 4),
            U1=np.eye(4).reshape(2, 2, 2, 2),
            B=np.zeros((4, 4)),
        )
        f.B = _top_core(_unfold(Y), f)
        assert np.abs(mera_contract(f) - Y).max() <= 1e-12

    def test_zero_core_gives_zero(self):
        f = random_isometric_factors((2, 3, 2, 3, 2), 3, seed=3)
        f.B = np.zeros_like(f.B)
        assert not mera_contract(f).any()

    def test_isometries_preserve_core_norm(self):
        f = random_isometric_factors((3, 4, 3, 4, 5), 5, seed=4)
        Yhat = mera_contract(f)
        assert np.linalg.norm(Yhat) == pytest.approx(np.linalg.norm(f.B),
                                                     rel=1e-10)

    def test_matches_loop_oracle(self):
        f = random_isometric_factors((2, 2, 2, 2, 2), 2, seed=5)
        assert np.abs(mera_contract(f) - contract_oracle(f)).max() <= 1e-12

    @pytest.mark.parametrize("dims,R", [((3, 4, 3, 4, 5), 4), ((6, 10, 6, 10, 5), 12)])
    def test_matches_einsum_reference(self, dims, R):
        f = random_isometric_factors(dims, R, seed=13)
        expected = reference_contract(f)
        assert np.abs(mera_contract(f) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("dims,R", [((2, 3, 2, 3, 1), 1), ((3, 4, 3, 4, 5), 4),
                                        ((6, 10, 6, 10, 5), 12)])
    def test_top_core_is_adjoint_of_contraction(self, dims, R):
        # <L(B), Y> = <B, L*(Y)> for the layer map L
        f = random_isometric_factors(dims, R, seed=18)
        Y = np.random.default_rng(19).standard_normal(dims)
        lhs = np.vdot(mera_contract(f), Y)
        assert lhs == pytest.approx(np.vdot(f.B, _top_core(_unfold(Y), f)), rel=1e-12)


class TestMeraFit:
    def test_zero_tensor_zero_error(self):
        factors = mera_fit(np.zeros((2, 3, 2, 3, 2)), R=2)
        assert factors.fit_errors[0] == 0.0

    def test_generate_and_refit(self):
        dims, R = (3, 4, 3, 4, 5), 4
        truth = random_isometric_factors(dims, R, seed=6)
        Y = mera_contract(truth)
        factors = mera_fit(Y, R=R, max_iter=50)
        errs = np.asarray(factors.fit_errors)
        rel = errs / np.linalg.norm(Y)
        assert rel[-1] <= rel[0]
        assert np.all(np.diff(errs) <= 1e-8)  # monotone non-increasing

    def test_full_rank_exact(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((2, 2, 2, 2, 1))
        factors = mera_fit(Y, R=4)
        rel = factors.fit_errors[-1] / np.linalg.norm(Y)
        assert rel <= 1e-8

    def test_keeps_contraction_of_final_factors(self):
        rng = np.random.default_rng(15)
        factors = mera_fit(rng.standard_normal((3, 3, 3, 3, 4)), R=5, max_iter=3)
        assert np.array_equal(factors.contraction, mera_contract(factors))

    def test_warm_start_reuses_kept_contraction(self, monkeypatch):
        import wpsc.mera as mera_mod
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((3, 3, 3, 3, 4))
        start = mera_fit(Y, R=5, max_iter=2)
        Y2 = Y + 0.1 * rng.standard_normal(Y.shape)
        cold = mera_fit(Y2, R=5, max_iter=2, tol=0.0,
                        init=MeraFactors(start.W1, start.W2, start.U1, start.B))
        calls = []
        real = mera_mod.mera_contract
        monkeypatch.setattr(mera_mod, "mera_contract",
                            lambda *a: calls.append(1) or real(*a))
        warm = mera_fit(Y2, R=5, max_iter=2, tol=0.0, init=start)
        assert calls == []  # the warm start and the sweeps stay on the unfolding
        assert warm.fit_errors == cold.fit_errors
        assert np.array_equal(warm.contraction, cold.contraction)

    def test_isometry_invariants_after_fit(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((3, 3, 3, 3, 4))
        factors = mera_fit(Y, R=5, max_iter=20)
        assert factors.isometry_defect() <= 1e-8

    # at (2, 3, 2, 3, 1) and R = 1 the environment of U1 has rank 4 of 6, so
    # the completion of U1 beyond it is rounding noise in both fits; the
    # contraction pins the part of U1 that the fit depends on
    @pytest.mark.parametrize("dims,R,names", [
        ((6, 10, 6, 10, 5), 12, ("W1", "W2", "U1", "B")),
        ((3, 4, 3, 4, 2), 5, ("W1", "W2", "U1", "B")),
        ((2, 3, 2, 3, 1), 1, ("W1", "W2", "B")),
    ])
    def test_matches_einsum_reference_fit(self, dims, R, names):
        rng = np.random.default_rng(20)
        Y = rng.standard_normal(dims)
        Y2 = Y + 0.1 * rng.standard_normal(dims)

        def assert_close(got, ref):
            assert len(got.fit_errors) == len(ref.fit_errors)
            for name in (*names, "fit_errors", "contraction"):
                a, b = np.asarray(getattr(got, name)), np.asarray(getattr(ref, name))
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

        cold, ref_cold = mera_fit(Y, R, max_iter=30), reference_mera_fit(Y, R, max_iter=30)
        assert_close(cold, ref_cold)
        # both warm starts begin from the reference's factors and contraction
        start = MeraFactors(ref_cold.W1, ref_cold.W2, ref_cold.U1, ref_cold.B,
                            contraction=ref_cold.contraction)
        assert_close(mera_fit(Y2, R, max_iter=2, tol=0.0, init=start),
                     reference_mera_fit(Y2, R, max_iter=2, tol=0.0, init=start))

    def test_warm_start_of_other_shape_is_parameter_error(self):
        rng = np.random.default_rng(17)
        start = mera_fit(rng.standard_normal((3, 4, 3, 4, 2)), R=5, max_iter=2)
        for dims in [(4, 3, 4, 3, 2), (3, 4, 3, 4, 5), (2, 4, 2, 4, 2)]:
            with pytest.raises(ParameterError, match="warm start"):
                mera_fit(rng.standard_normal(dims), R=5, init=start)
        wrong_u1 = MeraFactors(start.W1, start.W2, np.eye(4).reshape(2, 2, 2, 2), start.B)
        with pytest.raises(ParameterError, match="warm start"):
            mera_fit(rng.standard_normal((3, 4, 3, 4, 2)), R=5, init=wrong_u1)

    def test_r_too_large(self):
        with pytest.raises(ParameterError):
            mera_fit(np.zeros((2, 2, 2, 2, 1)), R=5)

    @pytest.mark.parametrize("kw", [{"R": 3.0}, {"R": True}, {"max_iter": 2.5},
                                    {"max_iter": -1}, {"tol": float("nan")}, {"tol": -1e-8}])
    def test_bad_parameter_is_parameter_error(self, kw):
        with pytest.raises(ParameterError):
            mera_fit(np.zeros((2, 3, 2, 3, 2)), **{"R": 2, **kw})

    def test_zero_sweeps_return_the_start(self):
        Y = np.random.default_rng(21).standard_normal((2, 3, 2, 3, 2))
        factors = mera_fit(Y, R=2, max_iter=0)
        assert len(factors.fit_errors) == 1
        assert np.array_equal(factors.contraction, mera_contract(factors))


class TestUnifyViews:
    def test_single_view_returns_slice(self):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((4, 4, 1))
        assert np.array_equal(unify_views(Z), Z[:, :, 0])

    def test_opposite_slices_cancel(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((5, 5))
        Z = np.stack([M, -M], axis=2)
        assert np.abs(unify_views(Z)).max() == 0.0

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((6, 6, 5))
        direct = sum(Z[:, :, v] for v in range(5)) / 5.0
        assert np.abs(unify_views(Z) - direct).max() <= 1e-14


class TestMeraMvsc:
    def test_identical_views_noiseless(self):
        ds = make_uos(C=3, d=2, D=40, n=12, seed=0)
        X = ds.data
        tensor = mera_mvsc([X] * 5, lam=10.0, R=12)
        for v in range(5):
            resid = np.linalg.norm(X - X @ tensor[:, :, v])
            assert resid / np.linalg.norm(X) < 1e-3
        W = wpsc.affinity_from_representation(unify_views(tensor))
        part = wpsc.spectral_clustering(W, 3, seed=0)
        assert wpsc.evaluate(ds.labels, part.labels).acc == 1.0

    def test_large_lambda_kills_error_term(self):
        ds = make_uos(C=3, d=2, D=40, n=12, seed=1)
        X = ds.data
        tensor = mera_mvsc([X] * 5, lam=1e6, R=12)
        for v in range(5):
            resid = np.linalg.norm(X - X @ tensor[:, :, v])
            assert resid / np.linalg.norm(X) < 1e-4

    @pytest.mark.xfail(
        reason="ADMM residuals oscillate by small factors between iterations; "
               "strict elementwise monotonicity after burn-in does not hold",
        strict=False)
    def test_residuals_strictly_non_increasing_after_burn_in(self):
        ds = make_uos(C=3, d=2, D=64, n=12, seed=0)
        trace = WpMeraPipeline(lam=10.0, R=12).fit(ds, 3, seed=0).iterations
        res = np.array([max(t["view_residuals"]) for t in trace])[5:]
        assert np.all(np.diff(res) <= 0)

    def test_residual_envelope_after_burn_in(self):
        # what holds robustly: residuals stay within 2x of the running
        # minimum and decay by orders of magnitude overall
        for seed in range(3):
            ds = make_uos(C=3, d=2, D=64, n=12, seed=seed)
            trace = WpMeraPipeline(lam=10.0, R=12).fit(ds, 3, seed=seed).iterations
            res = np.array([max(t["view_residuals"]) for t in trace])[5:]
            running_min = np.minimum.accumulate(res)
            assert np.all(res <= 2.0 * np.maximum(running_min, 1e-300))
            assert res[-1] < 1e-2 * res[0]

    def test_five_view_oos_gap_small(self):
        # out-of-sample accuracy tracks in-sample accuracy on a noisy split
        from wpsc.datasets import SplitSpec, split

        gaps = []
        for seed in range(4):
            ds = make_uos(C=3, d=2, D=64, n=16, sigma=0.05, seed=seed)
            ins, outs = split(ds, SplitSpec(0.8, seed))
            fit = WpMeraPipeline(lam=10.0, R=12).fit(ins, ds.C, seed=seed)
            in_acc = wpsc.evaluate(ins.labels, fit.labels).acc
            out_pred = fit.assign(outs, fit.models(2))
            out_acc = wpsc.evaluate(outs.labels, out_pred).acc
            gaps.append(abs(in_acc - out_acc))
        assert np.mean(gaps) <= 0.05

    def test_non_convergence_raises(self):
        ds = make_uos(C=3, d=2, D=40, n=12, seed=2)
        with pytest.raises(ConvergenceError) as exc:
            mera_mvsc([ds.data] * 5, lam=10.0, R=6, max_iter=2)
        assert "data" in exc.value.residuals

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_reference_loop(self, seed, order):
        # the scaled dual and the explicit inverse change rounding only:
        # measured rel. max|dZ| 1.7e-13, same iterations and labels
        ds = make_uos(C=3, d=2, D=256, n=12, sigma=0.05, seed=seed)
        views = [np.asarray(Xv, order=order) for Xv in five_views(ds)]
        got_trace, ref_trace = [], []
        got = mera_mvsc(views, lam=10.0, R=12, trace=got_trace)
        ref = reference_cholesky_mera_mvsc(views, lam=10.0, R=12, trace=ref_trace)
        assert len(got_trace) == len(ref_trace) > 1
        assert got.shape == ref.shape == (36, 36, 5)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel <= 1e-11

        def labels(tensor):
            W = wpsc.affinity_from_representation(unify_views(tensor))
            return wpsc.spectral_clustering(W, 3, 0).labels

        assert np.array_equal(labels(got), labels(ref))

    def test_output_independent_of_view_layout(self):
        ds = make_uos(C=3, d=2, D=256, n=12, sigma=0.05, seed=0)
        runs = []
        for order in ("C", "F"):
            views = [np.asarray(Xv, order=order) for Xv in five_views(ds)]
            copies = [Xv.copy() for Xv in views]
            trace = []
            tensor = mera_mvsc(views, lam=10.0, R=12, trace=trace)
            assert all(np.array_equal(a, b) for a, b in zip(views, copies))
            runs.append((tensor, repr(trace)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_matches_reference_loop_past_mu_cap(self):
        # mu reaches ALM_MU_MAX near iteration 80, where the dual rescale
        # factor mu / mu_next becomes 1
        ds = make_uos(C=3, d=2, D=256, n=12, sigma=0.05, seed=0)
        views = five_views(ds)
        got_trace, ref_trace = [], []
        for solve, trace in ((mera_mvsc, got_trace),
                             (reference_cholesky_mera_mvsc, ref_trace)):
            with pytest.raises(ConvergenceError):
                solve(views, lam=10.0, R=12, tol=0.0, max_iter=100, trace=trace)
        assert len(got_trace) == len(ref_trace) == 100
        assert got_trace[-1]["mu"] == ALM_MU_MAX
        for got, ref in zip(got_trace, ref_trace):
            assert np.allclose(got["view_residuals"], ref["view_residuals"],
                               rtol=0.0, atol=1e-12)
            for key in ("residual_consensus", "fit_error"):
                assert got[key] == pytest.approx(ref[key], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("lam,rows", [(1e-5, None), (10.0, None),
                                          (10.0, (256, 100, 128, 256, 37))],
                             ids=["shrink-from-start", "shrink-mid-run", "mixed-D"])
    def test_bits_match_fresh_array_loop(self, lam, rows):
        # E keeps rows from iteration 0 at lam = 1e-5 and from about
        # iteration 36 at lam = 10; views of different D share one scratch
        ds = make_uos(C=3, d=2, D=256, n=12, sigma=0.05, seed=0)
        views = five_views(ds)
        if rows is not None:
            views = [Xv[:D] for Xv, D in zip(views, rows)]
        got_trace, ref_trace = [], []
        got = mera_mvsc(views, lam=lam, R=12, trace=got_trace)
        ref = reference_mera_mvsc(views, lam=lam, R=12, trace=ref_trace)
        assert len(got_trace) > 1
        assert np.array_equal(got, ref)
        assert got_trace == ref_trace
        # the column-major tensor averages to the same bits
        assert np.array_equal(unify_views(got), unify_views(ref))

    @pytest.mark.parametrize("kw", [{"max_iter": 0}, {"max_iter": -1},
                                    {"lam": float("nan")}, {"lam": float("inf")},
                                    {"R": 0}, {"max_iter": 2.5}, {"sweeps": 1.5},
                                    {"sweeps": 0}, {"R": 3.0}, {"R": True},
                                    {"lam": True}, {"tol": -1e-6}, {"tol": "1e-6"}])
    def test_bad_parameter_is_parameter_error(self, kw):
        # a float count once escaped as a TypeError, and sweeps = 0 ran
        # without a sweep into a ConvergenceError
        ds = make_uos(C=3, d=2, D=40, n=12, seed=2)
        args = {"lam": 10.0, "R": 6, **kw}
        with pytest.raises(ParameterError):
            mera_mvsc([ds.data] * 5, **args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_view_is_parameter_error(self, bad):
        ds = make_uos(C=3, d=2, D=40, n=12, seed=2)
        X = ds.data.copy()
        X[3, 7] = bad
        with pytest.raises(ParameterError, match="finite"):
            mera_mvsc([ds.data, X], lam=10.0, R=6)

    def test_prime_n_no_grid(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10, 13))
        with pytest.raises(NoGridError):
            mera_mvsc([X], lam=1.0, R=2)

    def test_deterministic(self):
        ds = make_uos(C=3, d=2, D=40, n=12, seed=3)
        a = mera_mvsc([ds.data] * 5, lam=10.0, R=8)
        b = mera_mvsc([ds.data] * 5, lam=10.0, R=8)
        assert np.array_equal(a, b)
