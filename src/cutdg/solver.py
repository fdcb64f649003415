"""Linear solve, rescaling and condition-number estimation.

Sparse matrices are scipy CSR throughout. The solver is a conjugate
gradient with an additive two-level preconditioner, point Jacobi plus an
exact solve on continuous P1, whose iteration count does not grow as h
shrinks. Condition numbers of the rescaled system use a dense symmetric
eigensolve at desk scale and a hand-rolled Lanczos / inverse-iteration
pair beyond it, which also serves as the independent cross-check of the
dense route.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import DegenerateMatrixError, SolverError
from .forms import AssembledSystem

DENSE_EIG_LIMIT = 6000
# two-level CG takes 38-57 iterations from 498 to 262k dofs, so this cap
# only bounds the work of a failing solve
SOLVE_MAX_ITER = 400
# reliable-update interval of pcg, sqrt(eps) (van der Vorst and Ye, 2000)
REPLACE = 1.5e-8
EPS = np.finfo(float).eps


def preconditioner(matrix: sp.spmatrix,
                   prolongation: sp.spmatrix | None = None):
    """r -> D^-1 r + P (P^T A P)^-1 P^T r, with D the diagonal of A and
    the coarse matrix factorized once; point Jacobi alone without a
    prolongation. Raises SolverError when the coarse matrix is singular.
    """
    diag = matrix.diagonal()
    # zero diagonal entries (possible under ablation) fall back to the
    # identity; pcg's breakdown check handles indefiniteness
    inv_diag = 1.0 / np.where(diag == 0.0, 1.0, diag)
    if prolongation is None:
        return lambda r: inv_diag * r
    p = prolongation
    try:
        lu = spla.splu((p.T @ matrix @ p).tocsc())
    except RuntimeError as exc:
        raise SolverError(f"coarse matrix is singular: {exc}") from exc
    return lambda r: inv_diag * r + p @ lu.solve(p.T @ r)


def pcg(matrix: sp.spmatrix, rhs: np.ndarray, rel_tol: float = 1e-10,
        max_iter: int | None = None, precondition=None):
    """Preconditioned conjugate gradient (Jacobi by default).

    Returns (x, iterations, converged); converged means the true residual
    ||rhs - A x|| is at most rel_tol ||rhs|| or, if rel_tol asks for
    less, eps || |A| |x| ||, the rounding level of A x. At every REPLACE
    drop of the recursive residual, and when it meets the target, the
    update is folded into x and the true residual replaces the recursive
    one, which rounding makes drift (reliable update); a missed target
    then restarts CG from x. Default max_iter: 20 n.
    """
    n = rhs.shape[0]
    max_iter = 20 * n if max_iter is None else max_iter
    precondition = precondition or preconditioner(matrix)
    x, update, r = np.zeros(n), np.zeros(n), rhs.copy()
    target = rel_tol * np.linalg.norm(rhs)
    reference = np.linalg.norm(r)
    if reference <= target:
        return x, 0, True
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    for k in range(1, max_iter + 1):
        ap = matrix @ p
        pap = p @ ap
        if pap <= 0.0 or not np.isfinite(pap):
            return x + update, k, False  # breakdown: not positive definite
        alpha = rz / pap
        update += alpha * p
        r -= alpha * ap
        norm = np.linalg.norm(r)
        restart = norm <= target
        if restart or norm <= REPLACE * reference:
            x += update
            update[:] = 0.0
            r = rhs - matrix @ x
            reference = np.linalg.norm(r)
            if reference <= target or (restart and reference <= EPS
                                       * np.linalg.norm(abs(matrix) @ abs(x))):
                return x, k, True
        z = precondition(r)
        rz_new = r @ z
        p = z if restart else z + (rz_new / rz) * p
        rz = rz_new
    return x + update, max_iter, False


def solve(system: AssembledSystem, rel_tol: float = 1e-10,
          max_iter: int = SOLVE_MAX_ITER) -> np.ndarray:
    """Solve the assembled system to a true relative residual of rel_tol
    (see ``pcg``) by CG with the two-level preconditioner on the system's
    prolongation, or Jacobi alone for a system without one.

    Raises SolverError on a singular coarse matrix, a CG breakdown or
    when max_iter is reached (expected when the stabilization is ablated).
    """
    a = system.matrix
    x, iterations, converged = pcg(
        a, system.rhs, rel_tol, max_iter,
        preconditioner(a, system.prolongation))
    if not converged:
        cause = ("hit its iteration cap" if iterations == max_iter else
                 f"broke down at iteration {iterations} (not positive "
                 "definite)")
        raise SolverError(f"conjugate gradient {cause} short of the "
                          f"relative residual {rel_tol:.1e}")
    return x


def rescaled_matrix(system: AssembledSystem,
                    scaling: str = "symmetric") -> sp.csr_matrix:
    """Surface-block rescaling that balances the bulk and surface norms.

    ``symmetric``: D A D with D = diag(1 on bulk dofs, h^(1/4) on surface
    dofs), so surface-surface entries scale by h^(1/2) and coupling
    entries by h^(1/4). ``left``: the one-sided variant diag(1, h^(1/2)) A;
    it is similar to the symmetric one (D^-1 (D^2 A) D = D A D) and has
    the same spectrum but is not symmetric.
    """
    exponent = {"symmetric": 0.25, "left": 0.5}.get(scaling)
    if exponent is None:
        raise ValueError(f"unknown scaling {scaling!r}")
    d = np.ones(system.dofmap.ndof)
    d[system.dofmap.n_bulk:] = system.h ** exponent
    dm = sp.diags(d)
    if scaling == "left":
        return (dm @ system.matrix).tocsr()
    return (dm @ system.matrix @ dm).tocsr()


def lanczos_largest(matrix: sp.spmatrix, max_iter: int = 200,
                    tol: float = 1e-10, seed: int = 0) -> float:
    """Largest-magnitude eigenvalue of a symmetric matrix via Lanczos
    with full reorthogonalization."""
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = [q]
    alphas, betas = [], []
    previous = None
    for k in range(min(max_iter, n)):
        u = matrix @ q
        alpha = q @ u
        u -= alpha * q
        if betas:
            u -= betas[-1] * basis[-2]
        # full reorthogonalization against all Lanczos vectors
        qmat = np.column_stack(basis)
        u -= qmat @ (qmat.T @ u)
        alphas.append(alpha)
        beta = np.linalg.norm(u)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ext = float(np.max(np.abs(np.linalg.eigvalsh(t))))
        if previous is not None and abs(ext - previous) <= tol * abs(ext):
            return ext
        previous = ext
        if beta == 0.0:
            return ext
        betas.append(beta)
        q = u / beta
        basis.append(q)
    return previous


def smallest_magnitude(matrix: sp.spmatrix, max_iter: int = 200,
                       tol: float = 1e-10, seed: int = 1) -> float:
    """Smallest-magnitude eigenvalue via shift-free inverse iteration
    (one sparse LU factorization, then repeated solves)."""
    n = matrix.shape[0]
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise DegenerateMatrixError(f"matrix is numerically singular: {exc}") \
            from exc
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    previous = None
    for _ in range(max_iter):
        y = lu.solve(x)
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            raise DegenerateMatrixError("inverse iteration broke down")
        x = y / ny
        lam = x @ (matrix @ x)
        if previous is not None and abs(lam - previous) <= tol * abs(lam):
            return abs(lam)
        previous = lam
    return abs(previous)


def condition_number(matrix: sp.spmatrix, zero_threshold: float = 1e-12,
                     dense_limit: int = DENSE_EIG_LIMIT):
    """Spectral condition number: largest over smallest nonzero
    eigenvalue magnitude of a symmetric matrix.

    Eigenvalues with |lambda| <= zero_threshold * |lambda|_max count as
    zero. Dense symmetric eigensolve up to ``dense_limit`` unknowns,
    Lanczos plus inverse iteration beyond (positive definite matrices
    only on that path, which raises on singular input). Returns (kappa,
    lambda_min_nonzero, lambda_max, nullity), where nullity is the number
    of eigenvalues counted as zero: kappa is that of the nonzero spectrum
    only, so the true condition number is infinite whenever nullity > 0.
    """
    n = matrix.shape[0]
    if n <= dense_limit:
        eigs = np.abs(scipy.linalg.eigvalsh(np.asarray(matrix.todense())))
        lam_max = float(eigs.max())
        nonzero = eigs[eigs > zero_threshold * lam_max]
        if nonzero.size == 0:
            raise DegenerateMatrixError("all eigenvalues fall below the "
                                        "zero threshold")
        lam_min = float(nonzero.min())
        nullity = n - nonzero.size
    else:
        lam_max = lanczos_largest(matrix)
        lam_min = smallest_magnitude(matrix)
        if lam_min <= zero_threshold * lam_max:
            raise DegenerateMatrixError("smallest eigenvalue estimate falls "
                                        "below the zero threshold")
        nullity = 0
    return lam_max / lam_min, lam_min, lam_max, nullity


def deflated_generalized_extremes(a: sp.spmatrix, b: sp.spmatrix,
                                  rel_cut: float = 1e-10):
    """Smallest and largest generalized eigenvalue of (A, B) after
    deflating the numerical null space of the positive semidefinite B."""
    bd = np.asarray(b.todense())
    w, v = np.linalg.eigh(bd)
    keep = w > rel_cut * w.max()
    if not np.any(keep):
        raise DegenerateMatrixError("right-hand Gram matrix is numerically "
                                    "zero")
    basis = v[:, keep] / np.sqrt(w[keep])[None, :]
    core = basis.T @ (np.asarray(a.todense()) @ basis)
    eigs = np.linalg.eigvalsh(core)
    return float(eigs.min()), float(eigs.max())
