"""Linear solve, rescaling and condition-number estimation.

Sparse matrices are scipy CSR throughout. The solver is a conjugate
gradient with an additive two-level preconditioner, point Jacobi plus an
exact solve on continuous P1; its iteration count grows slowly as h
shrinks: 40, 40, 44, 43, 61, 58, 72 and 77 iterations at levels 0-7 of
the convergence study. It sums its dot products and norms in numpy's
pairwise order, so its solution does not depend on the BLAS thread
count. Condition numbers of the rescaled system come from sparse ARPACK
eigensolves: lambda_max directly, the smallest nonzero |lambda| by
shift-invert, through one sparse LU in the caller's dof order, after an
explicit null basis is deflated. The stability
constants come from one dense generalized eigensolve per pencil.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import DegenerateMatrixError, SolverError
from .forms import AssembledSystem

# two-level CG takes 40-72 iterations from 498 to 1.04M dofs (77 at 4.1M),
# so this cap only bounds the work of a failing solve
SOLVE_MAX_ITER = 400
# reliable-update interval of pcg, sqrt(eps) (van der Vorst and Ye, 2000)
REPLACE = 1.5e-8
EPS = np.finfo(float).eps
# shift-invert shift of condition_number, relative to lambda_max. The
# eigenvalue nearest the shift has at most twice the shift more magnitude
# than the smallest nonzero one (none more for a positive semidefinite
# matrix). Smaller shifts let an undeflated null space spoil the shifted
# LU: at level 0 without a null basis, 1e-10 keeps lambda_min to 3e-11
# and 1e-12 loses it to 3e-6.
SHIFT = 1e-10
# ARPACK's relative tolerance on lambda_max in condition_number: 1e-12
# took 1,000 matvecs where machine precision took 1,540 on the 20 matrices
# of a level-1 sweep of five positions, and moved no lambda_max by more
# than 2.3e-15 relative
LAM_MAX_TOL = 1e-12
# eigenvalues of magnitude at most this times the largest count as zero
ZERO_THRESHOLD = 1e-12
# bytes the two dense float64 copies of a pencil may take: the coercivity
# pencils of the property suite have 3,177 dofs at level 2 (0.16 GB) and
# 11,235 at level 3 (2.0 GB, then an O(n^3) solve that runs for minutes)
DENSE_PENCIL_BYTES = 2 ** 30


def preconditioner(matrix: sp.spmatrix, prolongation: sp.spmatrix):
    """r -> D^-1 r + P (P^T A P)^-1 P^T r, with D the diagonal of A and
    the coarse matrix factorized once. Raises SolverError when the coarse
    matrix is singular.
    """
    diag = matrix.diagonal()
    # zero diagonal entries (possible under ablation) fall back to the
    # identity; pcg's breakdown check handles indefiniteness
    inv_diag = 1.0 / np.where(diag == 0.0, 1.0, diag)
    p = prolongation
    pt = p.T.tocsr()  # transposed once, for the coarse product and the apply
    try:
        lu = spla.splu((pt @ matrix @ p).tocsc())
    except RuntimeError as exc:
        raise SolverError(f"coarse matrix is singular: {exc}") from exc
    return lambda r: inv_diag * r + p @ lu.solve(pt @ r)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's pairwise summation, whose order, unlike that of a
    BLAS dot, does not depend on the thread count."""
    return np.add.reduce(a * b)


def pcg(matrix: sp.spmatrix, rhs: np.ndarray, precondition, max_iter: int,
        rel_tol: float = 1e-10):
    """Conjugate gradient preconditioned by the map ``precondition``.

    Returns (x, iterations, converged); converged means the true residual
    ||rhs - A x|| is at most rel_tol ||rhs|| or, if rel_tol asks for
    less, eps || |A| |x| ||, the rounding level of A x. Whenever the
    recursive residual, which rounding makes drift, drops to rel_tol
    ||rhs|| or by REPLACE since the last fold, the true residual of x
    replaces the recursive one (reliable update) and CG restarts from x,
    so that the round-off of the replaced residual does not spoil the
    next search direction. Every dot product and norm is a ``_dot``, so
    x does not depend on the BLAS thread count.
    """
    x, r = np.zeros(rhs.shape[0]), rhs.copy()
    reference = np.sqrt(_dot(r, r))
    target = rel_tol * reference
    if reference <= target:
        return x, 0, True
    p = z = precondition(r)
    rz = _dot(r, z)
    for k in range(1, max_iter + 1):
        ap = matrix @ p
        pap = _dot(p, ap)
        if pap <= 0.0 or not np.isfinite(pap):
            return x, k, False  # breakdown: not positive definite
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        fold = np.sqrt(_dot(r, r)) <= max(target, REPLACE * reference)
        if fold:
            r = rhs - matrix @ x
            reference = np.sqrt(_dot(r, r))
            if reference <= target or reference <= EPS * np.sqrt(
                    _dot(floor := abs(matrix) @ abs(x), floor)):
                return x, k, True
        z = precondition(r)
        rz_new = _dot(r, z)
        p = z if fold else z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter, False


def solve(system: AssembledSystem, rel_tol: float = 1e-10) -> np.ndarray:
    """Solve the assembled system to a true relative residual of rel_tol
    (see ``pcg``) by CG with the two-level preconditioner on the system's
    prolongation.

    Raises SolverError on a singular coarse matrix, a CG breakdown or at
    SOLVE_MAX_ITER iterations (expected when the stabilization is ablated).
    """
    a = system.matrix
    x, iterations, converged = pcg(
        a, system.rhs, preconditioner(a, system.prolongation),
        SOLVE_MAX_ITER, rel_tol)
    if not converged:
        cause = ("hit its iteration cap" if iterations == SOLVE_MAX_ITER else
                 f"broke down at iteration {iterations} (not positive "
                 "definite)")
        raise SolverError(f"conjugate gradient {cause} short of the "
                          f"relative residual {rel_tol:.1e}")
    return x


def rescaled_matrix(matrix: sp.spmatrix, n_bulk: int,
                    h: float) -> sp.csr_matrix:
    """Surface-block rescaling that balances the bulk and surface norms:
    D A D with D = diag(1 on the first n_bulk dofs, h^(1/4) on the
    surface dofs after them), so surface-surface entries scale by h^(1/2)
    and coupling entries by h^(1/4)."""
    d = np.ones(matrix.shape[0])
    d[n_bulk:] = h ** 0.25
    dm = sp.diags(d)
    return (dm @ matrix @ dm).tocsr()


def _eigsh(matrix, **kwargs):
    """One ARPACK eigenpair; its failures become SolverError."""
    try:
        return spla.eigsh(matrix, k=1, **kwargs)
    except spla.ArpackError as exc:
        raise SolverError(f"ARPACK eigensolver failed: {exc}") from exc


def condition_number(matrix: sp.spmatrix, null_basis: sp.spmatrix,
                     order: np.ndarray):
    """Spectral condition number: largest over smallest nonzero
    eigenvalue magnitude of a symmetric matrix.

    Eigenvalues with |lambda| <= ZERO_THRESHOLD * |lambda|_max count as
    zero. lambda_max is the largest-magnitude ARPACK eigenvalue. The
    columns of the orthonormal candidate basis ``null_basis`` (e.g.
    ``space.levelset_null_basis``) with ||A q|| within that threshold are
    deflated as A + lambda_max Q Q^T; shift-invert ARPACK at a tiny
    negative shift (one sparse LU) then returns the eigenvalue nearest
    zero, and each one still counted as zero is projected out of the
    shift-invert operator and counted. The LU eliminates in the dof
    permutation ``order`` (SuperLU's ``NATURAL`` column order on the
    permuted matrix): ``SurfaceState.dof_order`` for a system matrix. It
    pivots partially, since an ablated matrix can be indefinite. Returns
    (kappa, lambda_min_nonzero, lambda_max, nullity), where nullity is the
    number of eigenvalues counted as zero: kappa is that of the nonzero
    spectrum only, so the true condition number is infinite whenever
    nullity > 0.

    Raises DegenerateMatrixError for an all-zero matrix or a singular
    shifted LU, and SolverError when ARPACK fails to converge.
    """
    n = matrix.shape[0]
    if matrix.count_nonzero() == 0:
        raise DegenerateMatrixError("all eigenvalues fall below the zero "
                                    "threshold")
    # a fixed start vector: ARPACK's own random one differs between calls
    start = np.random.default_rng(0).standard_normal(n)
    lam_max = float(abs(_eigsh(matrix, which="LM", v0=start,
                               tol=LAM_MAX_TOL,
                               return_eigenvectors=False)[0]))
    cutoff = ZERO_THRESHOLD * lam_max
    keep = spla.norm(matrix @ null_basis, axis=0) <= cutoff
    q = null_basis[:, np.flatnonzero(keep)]
    nullity = q.shape[1]
    matrix = (matrix + lam_max * (q @ q.T)).tocsr()
    sigma = -SHIFT * lam_max
    shifted = (matrix - sigma * sp.identity(n)).tocsr()[order][:, order]
    try:
        lu = spla.splu(shifted.tocsc(), permc_spec="NATURAL")
    except RuntimeError as exc:
        raise DegenerateMatrixError(f"shifted matrix is singular: {exc}") \
            from exc
    found = np.zeros((n, 0))

    def project(x):
        return x - found @ (found.T @ x)

    def solve_shifted(x):
        y = np.empty(n)
        y[order] = lu.solve(x[order])
        return y

    # directions found to be null get eigenvalue 0 in this operator, so
    # shift-invert moves on to the next eigenvalue nearest the shift
    inverse = spla.LinearOperator(
        (n, n), matvec=lambda x: project(solve_shifted(project(x))),
        dtype=float)
    while True:
        lams, vecs = _eigsh(matrix, sigma=sigma, OPinv=inverse,
                            v0=project(start))
        lam_min = abs(float(lams[0]))
        if lam_min > cutoff:
            return lam_max / lam_min, lam_min, lam_max, nullity
        v = project(vecs[:, 0])
        found = np.column_stack([found, v / np.linalg.norm(v)])
        nullity += 1


def check_dense_pencil(n: int):
    """SolverError if two dense n x n copies exceed DENSE_PENCIL_BYTES."""
    dense = 2 * n * n * np.dtype(float).itemsize
    if dense > DENSE_PENCIL_BYTES:
        raise SolverError(f"the dense pencil of {n} dofs needs {dense:,} "
                          f"bytes, above the {DENSE_PENCIL_BYTES:,} allowed")


def generalized_extreme(a: sp.spmatrix, b: sp.spmatrix, *,
                        largest: bool) -> float:
    """Smallest generalized eigenvalue of the symmetric pencil (A, B), or
    with ``largest`` the largest, by one dense LAPACK call that needs B
    positive definite; a LAPACK failure raises SolverError, and so does
    ``check_dense_pencil`` before either copy is made."""
    n = a.shape[0]
    check_dense_pencil(n)
    end = n - 1 if largest else 0
    try:
        return float(scipy.linalg.eigh(a.toarray(), b.toarray(),
                                       eigvals_only=True,
                                       subset_by_index=[end, end])[0])
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"generalized eigensolver failed: {exc}") from exc
