"""Self-expressive and neighborhood clustering backends.

Every solver takes a D x N matrix whose columns are the data points and
returns an N x N representation or affinity matrix; through
:meth:`SolverSpec.solve`, each also takes a B x D x N stack of such
matrices and returns the B x N x N stack of results. SSC and LRR are
iterative convex programs (ADMM / inexact ALM); NSN and RTSC are greedy
neighborhood constructions. All are deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .datasets import check_int, check_real
from .errors import ConvergenceError, DegenerateDataError, ParameterError
from .graph import _smallest

# kind -> (required params, optional params, default max_iter); a default
# of 0 marks a kind that does not iterate, and so takes no tol or max_iter
_KINDS = {"SSC": (("alpha",), ("mode", "affine"), 200), "LRR": (("lambda",), (), 500),
          "NSN": (("k", "d_max"), (), 0), "RTSC": (("q",), (), 0)}


@dataclass(frozen=True)
class SolverSpec:
    """Declarative solver choice: kind, parameters, and stopping rule."""

    kind: str
    params: dict = field(default_factory=dict)
    tol: float = 1e-6
    max_iter: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown solver kind {self.kind!r}")
        required, optional, default_iter = _KINDS[self.kind]
        unknown = set(self.params) - {*required, *optional}
        if unknown:
            raise ParameterError(f"{self.kind} takes no parameter(s) "
                                 f"{sorted(map(str, unknown))}")
        for key in required:
            if key not in self.params:
                raise ParameterError(f"{self.kind} requires parameter {key!r}")
            value = self.params[key]
            if self.kind in ("NSN", "RTSC"):  # neighbour counts and a dimension
                check_int(value, f"{self.kind} parameter {key!r}", 1)
            else:
                check_real(value, f"{self.kind} parameter {key!r}")
        if not isinstance(self.params.get("affine", False), bool):
            raise ParameterError(f"SSC parameter 'affine' must be true or false, "
                                 f"got {self.params['affine']!r}")
        if self.params.get("mode", "noise") not in ("noise", "outlier"):
            raise ParameterError(f"unknown SSC mode {self.params['mode']!r}")
        if self.kind == "NSN" and self.params["d_max"] > self.params["k"]:
            raise ParameterError("NSN needs d_max <= k")
        check_real(self.tol, "tol")
        if self.max_iter is None:
            object.__setattr__(self, "max_iter", default_iter)
        # an iterative solver needs an iteration, a greedy one takes none
        check_int(self.max_iter, f"{self.kind} max_iter", min(default_iter, 1))
        if not default_iter and (self.tol, self.max_iter) != (1e-6, 0):  # it would not read them
            key = "tol" if self.tol != 1e-6 else "max_iter"
            raise ParameterError(f"{self.kind} does not iterate and takes no {key}")

    def solve(self, X):
        """Run the configured solver on a D x N column-data matrix, or on
        each member of a B x D x N stack of them (returning a B x N x N
        stack): SSC solves a stack in one ADMM loop whose members get the
        bits they get alone, the other solvers one member at a time."""
        # looked up at each call, so a wrapper bound to the name is the one called
        solver = globals()[f"solve_{self.kind.lower()}"]
        kwargs = {("lam" if k == "lambda" else k): v for k, v in self.params.items()}
        if self.max_iter:  # 0 for a kind that does not iterate
            kwargs.update(tol=self.tol, max_iter=self.max_iter)
        if self.kind == "SSC" or np.ndim(X) != 3:
            return solver(X, **kwargs)
        return np.stack([solver(x, **kwargs) for x in X])


def _soft(M, tau):
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def _coherence_floor(G):
    """mu_e = min_i max_{j != i} |x_i' x_j| of each member of a stack of
    Gram matrices G = X'X, the SSC lambda scale."""
    G = np.abs(G)
    d = np.arange(G.shape[-1])
    G[:, d, d] = -np.inf
    return G.max(axis=2).min(axis=1)


def solve_ssc(X, alpha, mode="noise", affine=False, tol=1e-6, max_iter=200):
    """Sparse subspace clustering by ADMM, of one matrix or of a stack.

    Solves min ||C||_1 + (lam/2) ||X - XC||_F^2 s.t. diag(C) = 0, with
    lam = alpha / mu_e and mu_e = min_i max_{j!=i} |x_i' x_j|. The ADMM
    penalty is held fixed at rho = lam, so the system M = lam X'X + rho I
    (+ rho 11' when affine) never changes: M is inverted once, and with the
    scaled dual U = Lambda / rho (Boyd et al. 2011, sec. 3.1.1) each
    iteration is

        A = P + (rho M^-1)(C - U),   P = M^-1 lam X'X,
        C = T - clip(T, -1/rho, 1/rho),   T = A + U,   diag(C) = 0,
        U += A - C,

    one N x N GEMM plus element-wise work in reused N x N buffers.
    ``affine`` adds the constraint 1'C = 1', whose correction to A is the
    rank-one (rho M^-1 1)(1 - w)' with w the scaled dual of the column sums;
    ``mode='outlier'`` adds an l1 error term E (threshold
    alpha / min_i max_{j!=i} ||x_j||_1) so that X ~ XC + E, which subtracts
    (M^-1 lam X') E from A each iteration. The Gram matrix X'X is formed
    once and serves both mu_e and the system.

    A B x D x N stack of same-shaped problems runs in one loop, one numpy
    call per step for the whole stack, each member with its own lam, rho
    and error threshold. ``np.matmul`` calls the same GEMM on each member
    of a stack as on a lone matrix and the element-wise work is the same,
    so each member gets the bits it gets alone: a member leaves the stack
    once its own residual drops below ``tol``, after exactly the iterations
    it runs alone.

    Parameters
    ----------
    X : (D, N) array, or (B, D, N) stack, with unit-norm columns.
    alpha : float, regularization strength relative to the coherence floor.
    mode : 'noise' or 'outlier'.
    affine : bool, add the affine-combination constraint.
    tol : float, stop when the primal residual inf-norm drops below this.
    max_iter : int.

    Returns
    -------
    (N, N) representation matrix, or (B, N, N) stack of them, with an
    exactly zero diagonal; its zero entries are +0.0.
    """
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 2
    if single:
        X = X[None]
    if X.ndim != 3 or not X.shape[0]:
        raise ParameterError(f"SSC takes a D x N matrix or a B x D x N stack, "
                             f"got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ParameterError("SSC input must be finite")
    B, _, N = X.shape
    if N < 2:
        raise ParameterError("SSC needs at least two columns")
    if mode not in ("noise", "outlier"):
        raise ParameterError(f"unknown SSC mode {mode!r}")
    outlier = mode == "outlier"
    G = np.matmul(X.transpose(0, 2, 1), X)
    mu_e = _coherence_floor(G)
    if not mu_e.all():
        raise DegenerateDataError("all columns mutually orthogonal; self-expression is degenerate")
    lam = (alpha / mu_e)[:, None, None]
    rho = lam
    lam_xtx = np.multiply(lam, G, out=G)
    M = lam_xtx + rho * np.eye(N)
    if affine:
        M += rho
    # M >= rho I and rho = lam, so cond(M) <= 1 + ||X||^2 (+ N when affine)
    # and the explicit inverse is accurate
    Minv = np.linalg.inv(M)
    P = np.matmul(Minv, lam_xtx)
    rMinv = rho * Minv
    thr = 1.0 / rho
    neg_thr = -thr

    if outlier:
        mu_err = np.sort(np.abs(X).sum(axis=1), axis=1)[:, -2]
        if not mu_err.all():
            raise DegenerateDataError("data has no mass for the outlier term")
        err_thr = (alpha / mu_err)[:, None, None] / lam
        Q = np.matmul(Minv, lam * X.transpose(0, 2, 1))
        E = np.zeros_like(X)
    if affine:
        rMinv_1 = rMinv.sum(axis=2)
        w = np.zeros((B, N))
    del G, lam_xtx, M, Minv

    members = np.arange(B)
    C = np.zeros((B, N, N))
    out = C  # a member that leaves early gets its row of out before C shrinks
    U = np.zeros((B, N, N))
    A = np.empty((B, N, N))
    T = np.empty((B, N, N))
    for it in range(max_iter):
        np.subtract(C, U, out=T)
        np.matmul(rMinv, T, out=A)
        A += P
        if outlier:
            A -= np.matmul(Q, E, out=T)
        if affine:
            np.multiply(rMinv_1[:, :, None], (1.0 - w)[:, None, :], out=T)
            A += T
        np.add(A, U, out=T)
        T.clip(neg_thr, thr, out=C)
        np.subtract(T, C, out=C)
        C.reshape(len(C), N * N)[:, ::N + 1] = 0.0
        if outlier:
            E = _soft(X - np.matmul(X, A), err_thr)
        gap = np.subtract(A, C, out=T)
        U += gap
        res = np.abs(gap, out=T).max(axis=(1, 2))
        if affine:
            col_gap = A.sum(axis=1) - 1.0
            w += col_gap
            res = np.maximum(res, np.abs(col_gap).max(axis=1))
        done = res < tol
        if it + 1 < max_iter and not done.any():
            continue
        if it + 1 == max_iter or done.all():
            if C is not out:
                out[members] = C
            break
        out[members[done]] = C[done]
        keep = ~done  # indexing keeps each member's memory layout
        members = members[keep]
        C, U, A, T, P, rMinv, thr, neg_thr = (
            a[keep] for a in (C, U, A, T, P, rMinv, thr, neg_thr))
        if outlier:
            X, E, Q, err_thr = (a[keep] for a in (X, E, Q, err_thr))
        if affine:
            rMinv_1, w = rMinv_1[keep], w[keep]
    return out[0] if single else out


def _svt(M, tau):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > tau
    return (U[:, keep] * (s[keep] - tau)) @ Vt[keep]


def _shrink_columns(M, tau):
    norms = np.linalg.norm(M, axis=0)
    scale = np.maximum(0.0, 1.0 - tau / np.where(norms > 0, norms, 1.0))
    return M * scale


def solve_lrr(X, lam, tol=1e-6, max_iter=500):
    """Low-rank representation by inexact ALM.

    Solves min ||Z||_* + lam ||E||_{2,1} s.t. X = XZ + E (column-wise
    l2,1 norm: corrupted samples). Returns the singular-value-thresholded
    iterate, so trailing singular values of the result are exactly zero.
    Raises ConvergenceError (with the last residuals) if max_iter is
    exhausted or an SVD of the iterate fails to converge.
    """
    X = np.asarray(X, dtype=np.float64)
    N = X.shape[1]
    if N < 2:
        raise ParameterError("LRR needs at least two columns")
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    mu, rho, mu_max = 1e-3, 1.1, 1e10
    XtX = X.T @ X
    # XtX + I has all eigenvalues >= 1: invert it once, one GEMM per step
    inv = np.linalg.inv(XtX + np.eye(N))
    Z = np.zeros((N, N))
    E = np.zeros_like(X)
    Y1 = np.zeros_like(X)
    Y2 = np.zeros((N, N))
    r1 = r2 = np.inf
    for it in range(max_iter):
        try:
            J = _svt(Z + Y2 / mu, 1.0 / mu)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LRR stopped at iteration {it}: {exc}",
                                   residuals={"data": r1, "coupling": r2}) from exc
        Z = inv @ (XtX - X.T @ E + J + (X.T @ Y1 - Y2) / mu)
        gap = X - X @ Z
        E = _shrink_columns(gap + Y1 / mu, lam / mu)
        res_data = gap - E
        Y1 += mu * res_data
        Y2 += mu * (Z - J)
        mu = min(mu * rho, mu_max)
        r1 = np.abs(X - X @ J - E).max()
        r2 = np.abs(Z - J).max()
        if max(r1, r2) < tol:
            return J
    raise ConvergenceError(
        f"LRR did not converge in {max_iter} iterations",
        residuals={"data": r1, "coupling": r2},
    )


def solve_nsn(X, k, d_max):
    """Nearest subspace neighbor affinity.

    For each point, greedily grows an orthonormal basis starting from the
    point itself: each step adds the point with the largest projection
    norm onto the current span, extending the span until it reaches d_max
    dimensions. The k selected neighbors per point give a binary affinity,
    OR-symmetrized, zero diagonal.
    """
    X = np.asarray(X, dtype=np.float64)
    N = X.shape[1]
    if not 1 <= d_max <= k < N:
        raise ParameterError("need 1 <= d_max <= k < N")
    W = np.zeros((N, N))
    for i in range(N):
        xi = X[:, i]
        nrm = np.linalg.norm(xi)
        if nrm == 0.0:
            raise DegenerateDataError(f"zero column {i}")
        Q = (xi / nrm)[:, None]
        taken = np.zeros(N, dtype=bool)
        taken[i] = True
        for _ in range(k):
            proj = np.linalg.norm(Q.T @ X, axis=0)
            proj[taken] = -np.inf
            j = int(np.argmax(proj))
            taken[j] = True
            W[i, j] = 1.0
            if Q.shape[1] < d_max:
                r = X[:, j] - Q @ (Q.T @ X[:, j])
                rn = np.linalg.norm(r)
                if rn > 1e-10:
                    Q = np.hstack([Q, (r / rn)[:, None]])
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W


def solve_rtsc(X, q):
    """Robust thresholding affinity on the angular q-nearest-neighbor graph.

    Distances are s(x_i, x_j) = arccos(|<x_i, x_j>|) on unit-norm columns;
    the q nearest neighbors of each point, ties toward the smaller index
    (``graph._smallest``, a partition rather than a sort), get edge weight
    |<x_i, x_j>|, max-symmetrized, zero diagonal.
    """
    X = np.asarray(X, dtype=np.float64)
    N = X.shape[1]
    if not 1 <= q < N:
        raise ParameterError("need 1 <= q < N")
    S = np.clip(np.abs(X.T @ X), 0.0, 1.0)
    angle = np.arccos(S)
    np.fill_diagonal(angle, np.inf)
    W = np.where(_smallest(angle, q, axis=1), S, 0.0)
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W
