"""Low-rank MERA approximation of the multi-view self-representation tensor.

The N x N x V self-representation tensor is reshaped (column-major digit
split N -> (A, Q)) into a 5-way tensor Y[I1, I2, I3, I4, I5] with
I1 = I3 = A, I2 = I4 = Q, I5 = V. The network approximates Y with two
isometries W1 (I1, I2, R) and W2 (I3, I4, I5, R), one disentangler
U1 (I2, I3, I2, I3), and a top core B (R, R):

    Yhat[x, y, z, d, e] = sum_{a b r s} W1[x, a, r] W2[b, d, e, s]
                                        U1[a, b, y, z] B[r, s]

With isometric factors the layer map is an isometry of B, so the optimal
top core is the adjoint contraction of Y and the alternating Procrustes
sweeps decrease the fit error monotonically. Every contraction is a GEMM
on one unfolding of Y, the (y z) x (x d e) matrix

    Yr[y * I3 + z, (x * I4 + d) * I5 + e] = Y[x, y, z, d, e],

on which the network is Yhat_r = U1^T K, with K = W1 B W2^T regrouped as
(a b) x (x d e) and U1 read as the (a b) x (y z) matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .datasets import check_int, check_real, most_square_shape
from .errors import ConsistencyError, ConvergenceError, NoGridError, ParameterError

ALM_MU0 = 1e-4
ALM_RHO = 1.5
ALM_MU_MAX = 1e10
FIVE_VIEW_ORDER = ("O", "A", "H", "V", "D")


@dataclass
class MeraFactors:
    """Network factors; ``fit_errors`` and ``isometry_defects`` log the
    per-sweep Frobenius error and worst orthonormality deviation, and
    ``contraction`` holds :func:`mera_contract` of the factors as they were
    when the last fit error was measured (None before that)."""

    W1: np.ndarray
    W2: np.ndarray
    U1: np.ndarray
    B: np.ndarray
    fit_errors: list = field(default_factory=list)
    isometry_defects: list = field(default_factory=list)
    contraction: np.ndarray | None = None

    def isometry_defect(self):
        """Worst deviation of the factor unfoldings from orthonormality."""
        m = self.U1.shape[0] * self.U1.shape[1]
        unfoldings = (self.W1.reshape(-1, self.W1.shape[-1]),
                      self.W2.reshape(-1, self.W2.shape[-1]), self.U1.reshape(m, m))
        return float(max(np.abs(a.T @ a - np.eye(a.shape[1])).max() for a in unfoldings))

    def check(self):
        defect = self.isometry_defect()
        self.isometry_defects.append(defect)
        if defect > 1e-8:
            raise ConsistencyError(f"MERA factor unfoldings deviate from isometry by {defect:.3e}")


def choose_grid(N):
    """Most-square factorization N = A*Q with 2 <= A <= Q.

    Prime N has no such pair and raises NoGridError (the caller must
    resize the sample set).
    """
    if N < 4:
        raise ParameterError("need N >= 4")
    A, Q = most_square_shape(N)
    if A < 2:
        raise NoGridError(f"N = {N} admits no A x Q grid with A, Q >= 2")
    return A, Q


def reshape_to_5d(Z, dims):
    """Reshape an N x N x V tensor into the 5-way MERA layout of mode sizes
    ``dims`` = (A, Q, A, Q, V), with N = A*Q.

    Row index n splits column-major as n = i1 + I1*i2 and column index m
    as m = i3 + I3*i4; the inverse reshape restores the input exactly.
    """
    Z = np.asarray(Z, dtype=np.float64)
    N = dims[0] * dims[1]
    if tuple(dims[2:4]) != tuple(dims[:2]) or Z.shape != (N, N, dims[4]):
        raise ParameterError(f"tensor shape {Z.shape} does not match grid {dims}")
    return Z.reshape(dims, order="F")


def reshape_from_5d(Y, dims):
    """Inverse of :func:`reshape_to_5d`."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != tuple(dims):
        raise ParameterError(f"tensor shape {Y.shape} != {dims}")
    N = dims[0] * dims[1]
    return Y.reshape((N, N, dims[4]), order="F")


def _unfold(Y):
    I1, I2, I3, I4, I5 = Y.shape
    return Y.transpose(1, 2, 0, 3, 4).reshape(I2 * I3, I1 * I4 * I5)


def _fold(Yr, dims):
    I1, I2, I3, I4, I5 = dims
    return Yr.reshape(I2, I3, I1, I4, I5).transpose(2, 0, 1, 3, 4)


def _layer(f):
    # K = W1 B W2^T, (x a) x (b d e), regrouped as (a b) x (x d e)
    (I1, I2, R), I3 = f.W1.shape, f.W2.shape[0]
    K = f.W1.reshape(-1, R) @ f.B @ f.W2.reshape(-1, R).T
    return K.reshape(I1, I2, I3, -1).transpose(1, 2, 0, 3).reshape(I2 * I3, -1)


def _disentangle(Yr, f, out=None):
    # Y' = U1 Yr (into ``out``), (a b) x (x d e), regrouped as (x a) x (b d e)
    (I1, I2, _), I3 = f.W1.shape, f.W2.shape[0]
    Yp = np.matmul(f.U1.reshape(I2 * I3, -1), Yr, out=out)
    return Yp.reshape(I2, I3, I1, -1).transpose(2, 0, 1, 3).reshape(I1 * I2, -1)


def mera_contract(factors):
    """Evaluate the network: U1^T K, folded from the unfolding to 5 ways."""
    dims = factors.W1.shape[:2] + factors.W2.shape[:3]
    return _fold(factors.U1.reshape(dims[1] * dims[2], -1).T @ _layer(factors), dims)


def _top_core(Yr, f):
    # W1^T Y' W2, the adjoint of the layer map applied to Yr: the optimal core
    return f.W1.reshape(-1, len(f.B)).T @ _disentangle(Yr, f) @ f.W2.reshape(-1, len(f.B))


def _procrustes(env):
    U, _, Vt = np.linalg.svd(env, full_matrices=False)
    return U @ Vt


def mera_fit(Y, R, tol=1e-8, max_iter=100, init=None):
    """Fit MERA factors to a 5-way tensor by alternating Procrustes sweeps.

    Starts from the truncated HOSVD of the paired-mode unfoldings (or from
    ``init``, whose kept contraction then gives the first fit error), then
    per sweep updates U1, W1, W2 via the SVD of their environment matrices
    and recomputes the top core. Stops when the relative fit improvement
    drops below ``tol`` or after ``max_iter`` sweeps. Isometry invariants
    are verified every sweep, to 1e-8. A ``Y`` that folds a row-major
    unfolding (as :func:`mera_mvsc` builds it) is read without a copy.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 5 or Y.shape[0] != Y.shape[2] or Y.shape[1] != Y.shape[3]:
        raise ParameterError("expected a 5-way tensor with I1 = I3, I2 = I4")
    check_int(R, "R", 1)
    check_int(max_iter, "max_iter")
    check_real(tol, "tol", zero=True)
    I1, I2, I3, I4, I5 = Y.shape
    if not 1 <= R <= min(I1 * I2, I3 * I4 * I5):
        raise ParameterError(f"R = {R} outside [1, {min(I1 * I2, I3 * I4 * I5)}]")
    Yr = _unfold(Y)
    if init is None:  # truncated HOSVD of the (x y) x (z d e) unfolding
        U, _, Vt = np.linalg.svd(Y.reshape(I1 * I2, I3 * I4 * I5), full_matrices=False)
        factors = MeraFactors(U[:, :R].reshape(I1, I2, R), Vt[:R].T.reshape(I3, I4, I5, R),
                              np.eye(I2 * I3).reshape(I2, I3, I2, I3), np.zeros((R, R)))
        factors.B = _top_core(Yr, factors)
    else:
        need = ((I1, I2, R), (I3, I4, I5, R), (I2, I3, I2, I3), (R, R))
        if tuple(np.shape(a) for a in (init.W1, init.W2, init.U1, init.B)) != need:
            raise ParameterError(f"warm start does not fit a {Y.shape} tensor at R = {R}")
        # the factors are copied unchanged, so their contraction still holds
        factors = MeraFactors(init.W1.copy(), init.W2.copy(), init.U1.copy(),
                              init.B.copy(), contraction=init.contraction)
    factors.check()
    if factors.contraction is None:
        factors.contraction = mera_contract(factors)
    # one scratch of Yr's shape takes U1 Yr and every fit difference
    work = np.empty(Yr.shape)
    np.subtract(Y, factors.contraction, out=_fold(work, Y.shape))
    err = float(np.linalg.norm(work))
    factors.fit_errors = [err]
    K = _layer(factors)
    for _ in range(max_iter):
        U1 = _procrustes(K @ Yr.T)
        factors.U1 = U1.reshape(factors.U1.shape)
        factors.contraction = K = None  # both go stale here; free them for the new ones
        Yp = _disentangle(Yr, factors, out=work)
        W1 = _procrustes(Yp @ factors.W2.reshape(-1, R) @ factors.B.T)
        W1tYp = W1.T @ Yp  # shared by the W2 environment and the top core
        del Yp
        W2 = _procrustes(W1tYp.T @ factors.B)
        factors.W1, factors.W2 = W1.reshape(I1, I2, R), W2.reshape(I3, I4, I5, R)
        factors.B = W1tYp @ W2
        factors.check()
        K = _layer(factors)
        Yhat_r = U1.T @ K
        factors.contraction = _fold(Yhat_r, Y.shape)
        new_err = float(np.linalg.norm(np.subtract(Yr, Yhat_r, out=work)))
        factors.fit_errors.append(new_err)
        if err - new_err < tol * max(err, 1e-300):
            break
        err = new_err
    return factors


def unify_views(Z):
    """The unified representation: an N x N x V tensor's mean over its views."""
    Z = np.asarray(Z)
    if Z.ndim != 3:
        raise ParameterError("expected an N x N x V tensor")
    return Z.mean(axis=2)


def mera_mvsc(views, lam, R, tol=1e-6, max_iter=200, sweeps=2, trace=None):
    """Multi-view self-expressive clustering with a low-rank MERA prior.

    Augmented-Lagrangian ADMM over per-view representation matrices Z^v,
    per-view errors E^v (row-wise l2,1 shrinkage), and the MERA factors
    fitted to the reshaped consensus tensor. The view constraints
    X^v = X^v Z^v + E^v keep their dual in scaled form, W^v = M1^v / mu
    (Boyd et al. 2011, section 3.1.1): with S = X^v - X^v Z^v + W^v, the
    E-step is E^v = S * s row-wise with s = max(0, 1 - (lam/mu) / ||S_row||),
    and the dual step W^v <- (W^v + gap) * mu / mu_next is M1 += mu * gap
    divided by the next mu. Deterministic, and the output does not depend
    on the memory layout of the views.

    Parameters
    ----------
    views : list of (D_v, N) arrays sharing N.
    lam : float, weight of the error term.
    R : int, MERA top rank.
    tol : float, stop when data and consensus residuals drop below this.
    max_iter : int, outer ADMM iterations.
    sweeps : int, MERA refinement sweeps per outer iteration.
    trace : optional list collecting per-iteration dict records
        (iteration, per-view and consensus residuals, MERA fit error, mu).

    Returns
    -------
    The MERA-reconstructed N x N x V self-representation tensor, column-major.
    """
    if not views:
        raise ParameterError("need at least one view")
    check_real(lam, "lambda")
    check_int(R, "R", 1)
    check_real(tol, "tol", zero=True)
    check_int(max_iter, "max_iter", 1)
    check_int(sweeps, "sweeps", 1)
    views = [np.ascontiguousarray(Xv, dtype=np.float64) for Xv in views]
    N = views[0].shape[1]
    if any(Xv.shape[1] != N for Xv in views):
        raise ParameterError("all views must share the number of columns N")
    if not all(np.isfinite(Xv).all() for Xv in views):
        raise ParameterError("MERA views must be finite")
    V = len(views)
    A_dim, Q_dim = choose_grid(N)
    dims = (A_dim, Q_dim, A_dim, Q_dim, V)
    if R > N:
        raise ParameterError(f"R = {R} outside [1, {N}], the min unfolding rank")

    # G + I has all eigenvalues >= 1, so the explicit inverse is accurate
    inverse = [np.linalg.inv(Xv.T @ Xv + np.eye(N)) for Xv in views]
    # one working set: column-major Z, Zhat and M2 (contiguous view slices),
    # the consensus and its gap in a row-major unfolding that mera_fit reads
    # without a copy, and one D x N scratch for all views
    Z, Zhat, M2 = (np.zeros((N, N, V), order="F") for _ in range(3))
    Z5, Zhat5, M25 = (reshape_to_5d(T, dims) for T in (Z, Zhat, M2))
    consensus = _fold(np.empty((Q_dim * A_dim, A_dim * Q_dim * V)), dims)
    scratch = np.empty((max(Xv.shape[0] for Xv in views), N))
    E = [np.zeros_like(Xv) for Xv in views]
    W = [np.zeros_like(Xv) for Xv in views]
    mu = ALM_MU0
    factors = None
    for it in range(max_iter):
        mu_next = min(mu * ALM_RHO, ALM_MU_MAX)
        res_views = []
        for v, Xv in enumerate(views):
            S = scratch[:Xv.shape[0]]
            np.subtract(Xv, E[v], out=S)
            S += W[v]
            Zv = inverse[v] @ (Xv.T @ S + Zhat[:, :, v] - M2[:, :, v] / mu)
            Z[:, :, v] = Zv
            # S = (Xv - Xv Z) + W, shrunk row-wise into E
            np.matmul(Xv, Zv, out=S)
            np.subtract(Xv, S, out=S)
            S += W[v]
            norms = np.sqrt(np.einsum("dn,dn->d", S, S))
            keep = np.maximum(0.0, 1.0 - (lam / mu) / np.where(norms > 0, norms, 1.0))
            np.multiply(S, keep[:, None], out=E[v])
            S *= (1.0 - keep)[:, None]  # S (1 - s) = W + gap
            gap = np.subtract(S, W[v], out=W[v])
            res_views.append(float(np.abs(gap, out=gap).max()))
            # M1 += mu * gap, stored divided by the next mu
            np.multiply(S, mu / mu_next, out=W[v])
        np.divide(M25, mu, out=consensus)
        consensus += Z5
        factors = mera_fit(consensus, R, max_iter=sweeps,
                           init=factors, tol=0.0)
        np.copyto(Zhat5, factors.contraction)
        # Zhat holds the contraction now, which the next warm start reads
        factors.contraction = Zhat5
        gap_consensus = np.subtract(Z5, Zhat5, out=consensus)
        M25 += np.multiply(mu, gap_consensus, out=Z5)  # Z is rebuilt before it is read
        res_consensus = float(np.abs(gap_consensus, out=gap_consensus).max())
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
