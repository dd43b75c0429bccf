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
sweeps decrease the fit error monotonically.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConsistencyError, ConvergenceError, NoGridError, ParameterError

ALM_MU0 = 1e-4
ALM_RHO = 1.5
ALM_MU_MAX = 1e10
FIVE_VIEW_ORDER = ("O", "A", "H", "V", "D")


@dataclass(frozen=True)
class MeraShape:
    """Mode sizes of the 5-way tensor and the shared top rank R."""

    A_dim: int
    Q_dim: int
    V: int
    R: int

    def __post_init__(self):
        if min(self.A_dim, self.Q_dim, self.V, self.R) < 1:
            raise ParameterError("all MERA mode sizes must be positive")

    @property
    def N(self):
        return self.A_dim * self.Q_dim

    @property
    def dims(self):
        return (self.A_dim, self.Q_dim, self.A_dim, self.Q_dim, self.V)


@dataclass
class MeraFactors:
    """Network factors; ``fit_errors`` and ``isometry_defects`` log the
    per-sweep Frobenius error and worst orthonormality deviation."""

    W1: np.ndarray
    W2: np.ndarray
    U1: np.ndarray
    B: np.ndarray
    fit_errors: list = field(default_factory=list)
    isometry_defects: list = field(default_factory=list)

    def isometry_defect(self):
        """Worst deviation of the factor unfoldings from orthonormality."""
        w1 = self.W1.reshape(-1, self.W1.shape[-1])
        w2 = self.W2.reshape(-1, self.W2.shape[-1])
        m = self.U1.shape[0] * self.U1.shape[1]
        u1 = self.U1.reshape(m, m)
        defects = [
            np.abs(w1.T @ w1 - np.eye(w1.shape[1])).max(),
            np.abs(w2.T @ w2 - np.eye(w2.shape[1])).max(),
            np.abs(u1.T @ u1 - np.eye(m)).max(),
        ]
        return float(max(defects))

    def check(self, tol=1e-8):
        defect = self.isometry_defect()
        self.isometry_defects.append(defect)
        if defect > tol:
            raise ConsistencyError(
                f"MERA factor unfoldings deviate from isometry by {defect:.3e}"
            )


@dataclass(frozen=True)
class SelfRepTensor:
    """Stack of per-view N x N representation matrices."""

    Z: np.ndarray
    view_names: tuple = ()

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=np.float64)
        if Z.ndim != 3 or Z.shape[0] != Z.shape[1]:
            raise ParameterError("self-representation tensor must be N x N x V")
        if not np.all(np.isfinite(Z)):
            raise ParameterError("self-representation tensor must be finite")
        if self.view_names and len(self.view_names) != Z.shape[2]:
            raise ParameterError("view_names length must match V")
        object.__setattr__(self, "Z", Z)

    @property
    def V(self):
        return self.Z.shape[2]


def choose_grid(N):
    """Most-square factorization N = A*Q with 2 <= A <= Q.

    Prime N has no such pair and raises NoGridError (the caller must
    resize the sample set).
    """
    if N < 4:
        raise ParameterError("need N >= 4")
    best = None
    for a in range(2, int(math.isqrt(N)) + 1):
        if N % a == 0:
            best = a
    if best is None:
        raise NoGridError(f"N = {N} admits no A x Q grid with A, Q >= 2")
    return best, N // best


def reshape_to_5d(Z, shape):
    """Reshape an N x N x V tensor into the 5-way MERA layout.

    Row index n splits column-major as n = i1 + I1*i2 and column index m
    as m = i3 + I3*i4; the inverse reshape restores the input exactly.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape != (shape.N, shape.N, shape.V):
        raise ParameterError(
            f"tensor shape {Z.shape} does not match grid {shape.dims}"
        )
    return Z.reshape(shape.dims, order="F")


def reshape_from_5d(Y, shape):
    """Inverse of :func:`reshape_to_5d`."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != shape.dims:
        raise ParameterError(f"tensor shape {Y.shape} != {shape.dims}")
    return Y.reshape((shape.N, shape.N, shape.V), order="F")


def mera_contract(factors, shape=None):
    """Evaluate the network: layer tensor contracted with the top core."""
    Yhat = np.einsum("xar,bdes,abyz,rs->xyzde",
                     factors.W1, factors.W2, factors.U1, factors.B,
                     optimize=True)
    if shape is not None and Yhat.shape != shape.dims:
        raise ParameterError(f"contracted shape {Yhat.shape} != {shape.dims}")
    return Yhat


def _top_core(Y, factors):
    # adjoint of the layer map applied to Y: the optimal core for fixed factors
    return np.einsum("xyzde,xar,bdes,abyz->rs",
                     Y, factors.W1, factors.W2, factors.U1, optimize=True)


def _procrustes(env, rows_shape):
    mat = env.reshape(int(np.prod(rows_shape)), -1)
    U, _, Vt = np.linalg.svd(mat, full_matrices=False)
    return (U @ Vt).reshape(env.shape)


def _fit_error(Y, factors):
    return float(np.linalg.norm(Y - mera_contract(factors)))


def _hosvd_init(Y, R):
    I1, I2, I3, I4, I5 = Y.shape
    mat = Y.reshape(I1 * I2, I3 * I4 * I5)
    U, _, Vt = np.linalg.svd(mat, full_matrices=False)
    W1 = U[:, :R].reshape(I1, I2, R)
    W2 = Vt[:R].T.reshape(I3, I4, I5, R)
    U1 = np.eye(I2 * I3).reshape(I2, I3, I2, I3)
    factors = MeraFactors(W1=W1, W2=W2, U1=U1, B=np.zeros((R, R)))
    factors.B = _top_core(Y, factors)
    return factors


def mera_fit(Y, R, tol=1e-8, max_iter=100, init=None, check_tol=1e-8):
    """Fit MERA factors to a 5-way tensor by alternating Procrustes sweeps.

    Starts from the truncated HOSVD of the paired-mode unfoldings (or from
    ``init``), then per sweep updates U1, W1, W2 via the SVD of their
    environment tensors and recomputes the top core. Stops when the
    relative fit improvement drops below ``tol`` or after ``max_iter``
    sweeps. Isometry invariants are verified every sweep.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 5 or Y.shape[0] != Y.shape[2] or Y.shape[1] != Y.shape[3]:
        raise ParameterError("expected a 5-way tensor with I1 = I3, I2 = I4")
    I1, I2, I3, I4, I5 = Y.shape
    if not 1 <= R <= min(I1 * I2, I3 * I4 * I5):
        raise ParameterError(
            f"R = {R} outside [1, {min(I1 * I2, I3 * I4 * I5)}]"
        )
    if init is None:
        factors = _hosvd_init(Y, R)
    else:
        if init.B.shape != (R, R):
            raise ParameterError("warm start has a different rank")
        factors = MeraFactors(W1=init.W1.copy(), W2=init.W2.copy(),
                              U1=init.U1.copy(), B=init.B.copy())
    factors.check(check_tol)
    err = _fit_error(Y, factors)
    factors.fit_errors = [err]
    for _ in range(max_iter):
        env_u = np.einsum("xyzde,xar,bdes,rs->abyz",
                          Y, factors.W1, factors.W2, factors.B, optimize=True)
        factors.U1 = _procrustes(env_u, env_u.shape[:2])
        env_w1 = np.einsum("xyzde,bdes,abyz,rs->xar",
                           Y, factors.W2, factors.U1, factors.B, optimize=True)
        factors.W1 = _procrustes(env_w1, env_w1.shape[:2])
        env_w2 = np.einsum("xyzde,xar,abyz,rs->bdes",
                           Y, factors.W1, factors.U1, factors.B, optimize=True)
        factors.W2 = _procrustes(env_w2, env_w2.shape[:3])
        factors.B = _top_core(Y, factors)
        factors.check(check_tol)
        new_err = _fit_error(Y, factors)
        factors.fit_errors.append(new_err)
        if err - new_err < tol * max(err, 1e-300):
            break
        err = new_err
    return factors


def unify_views(tensor):
    """Element-wise mean over the view mode (the unified representation)."""
    Z = tensor.Z if isinstance(tensor, SelfRepTensor) else np.asarray(tensor)
    if Z.ndim != 3:
        raise ParameterError("expected an N x N x V tensor")
    return Z.mean(axis=2)


def _row_shrink(M, tau):
    norms = np.linalg.norm(M, axis=1)
    scale = np.maximum(0.0, 1.0 - tau / np.where(norms > 0, norms, 1.0))
    return M * scale[:, None]


def mera_mvsc(views, lam, R, tol=1e-6, max_iter=200, sweeps=2, trace=None):
    """Multi-view self-expressive clustering with a low-rank MERA prior.

    Augmented-Lagrangian ADMM over per-view representation matrices Z^v,
    per-view errors E^v (row-wise l2,1 shrinkage), and the MERA factors
    fitted to the reshaped consensus tensor. Deterministic.

    Parameters
    ----------
    views : list of (D_v, N) arrays sharing N.
    lam : float, weight of the error term.
    R : int, MERA top rank.
    tol : float, stop when data and consensus residuals drop below this.
    max_iter : int, outer ADMM iterations.
    sweeps : int, MERA refinement sweeps per outer iteration.
    trace : optional list collecting per-iteration dict records
        (iteration, per-view residuals, MERA fit error, mu).

    Returns
    -------
    SelfRepTensor holding the MERA-reconstructed N x N x V estimate.
    """
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
    shape = MeraShape(A_dim=A_dim, Q_dim=Q_dim, V=V, R=R)
    if R > min(N, N * V):
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
            E[v] = _row_shrink(Xv - Xv @ Z[:, :, v] + M1[v] / mu, lam / mu)
        consensus = reshape_to_5d(Z + M2 / mu, shape)
        factors = mera_fit(consensus, R, max_iter=sweeps,
                           init=factors, tol=0.0)
        Zhat = reshape_from_5d(mera_contract(factors, shape), shape)
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
                "residual_fro": float(np.sqrt(sum(np.sum(g ** 2) for g in gaps))),
                "residual_consensus": res_consensus,
                "fit_error": factors.fit_errors[-1],
                "mu": mu,
            })
        mu = min(mu * ALM_RHO, ALM_MU_MAX)
        if max(res_views) < tol and res_consensus < tol:
            names = FIVE_VIEW_ORDER if V == 5 else ()
            return SelfRepTensor(Z=Zhat, view_names=names)
    raise ConvergenceError(
        f"MERA multi-view ADMM did not converge in {max_iter} iterations",
        residuals={"data": max(res_views), "consensus": res_consensus},
    )
