import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutdg import solver
from cutdg.exceptions import DegenerateMatrixError, SolverError
from cutdg.experiments import (PROPERTY_BOX, SurfaceState, mesh_at_level,
                               run_condition_sweep, shifted_circle)
from cutdg.forms import AssembledSystem, StabilizationParams
from cutdg.manufactured import build_circle_problem
from cutdg.mesh import build_structured_mesh
from cutdg.solver import (condition_number, generalized_extreme, pcg,
                          preconditioner, rescaled_matrix, solve)
from tests.oracles import dense_condition_number, dense_generalized_extremes

BOX = ((-1.1, -1.1), (1.1, 1.1))
PARAMS = StabilizationParams()


def _setup(n=8):
    """The circle system on the n-by-n mesh, with its state."""
    problem = build_circle_problem()
    state = SurfaceState(build_structured_mesh(BOX, n), problem.geometry,
                         PARAMS)
    return state, state.system(problem)


def _system(n=8):
    return _setup(n)[1]


def _wrap(matrix, rhs):
    """A system without a mesh, whose coarse space is the constants, with
    one coarse point."""
    n = matrix.shape[0]
    return AssembledSystem(matrix=matrix.tocsr(), rhs=rhs,
                           prolongation=sp.csr_matrix(np.ones((n, 1))),
                           points=np.zeros((1, 2)))


def _jacobi(matrix):
    """Point-Jacobi preconditioner and the iteration cap 20 n."""
    inv_diag = 1.0 / matrix.diagonal()
    return (lambda r: inv_diag * r), 20 * matrix.shape[0]


def test_solve_identity_and_diagonal():
    eye = sp.identity(5, format="csr")
    b = np.arange(1.0, 6.0)
    assert solve(_wrap(eye, np.zeros(5))) is not None
    assert solve(_wrap(eye, b)) == pytest.approx(b)
    diag = sp.diags([1.0, 2.0, 4.0])
    assert solve(_wrap(diag, np.array([1.0, 2.0, 4.0]))) == \
        pytest.approx(np.ones(3))


def test_solve_residual_on_assembled_system():
    system = _system(n=32)
    u = solve(system, rel_tol=1e-10)
    res = np.linalg.norm(system.matrix @ u - system.rhs)
    assert res <= 1e-10 * np.linalg.norm(system.rhs)


def test_solver_error_on_singular_system():
    mat = sp.diags([1.0, 1.0, 0.0]).tocsr()
    with pytest.raises(SolverError, match="broke down"):
        solve(_wrap(mat, np.array([1.0, 1.0, 1.0])))


def test_solver_error_on_singular_coarse_matrix():
    mat = sp.diags([1.0, 1.0, 0.0]).tocsr()
    coarse = sp.csr_matrix(np.array([[0.0], [0.0], [1.0]]))
    bad = replace(_wrap(mat, np.ones(3)), prolongation=coarse)
    with pytest.raises(SolverError, match="coarse matrix is singular"):
        solve(bad)


def test_solver_error_at_iteration_cap(monkeypatch):
    system = _system(n=16)
    monkeypatch.setattr(solver, "SOLVE_MAX_ITER", 5)
    with pytest.raises(SolverError, match="iteration cap"):
        solve(system)


def test_two_level_solve_matches_sparse_lu():
    system = _system(n=32)
    u = solve(system)
    direct = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert np.linalg.norm(u - direct) <= 1e-8 * np.linalg.norm(direct)


def test_two_level_iterations_do_not_grow_with_refinement():
    iters = []
    for n in (8, 16, 32, 64):
        system = _system(n=n)
        two_level = preconditioner(system.matrix, system.prolongation,
                                   system.points)
        _, k, converged = pcg(system.matrix, system.rhs, rel_tol=1e-10,
                              max_iter=400, precondition=two_level)
        assert converged
        iters.append(k)
    assert max(iters) <= 1.5 * min(iters), iters


def test_coarse_lu_fills_less_than_colamd(monkeypatch):
    """At level 3 the coarse LU of the two-level preconditioner, in the
    nested-dissection order of the coarse points, holds fewer L+U entries
    than SuperLU's COLAMD order of the same coarse matrix (180,460 against
    268,636 measured)."""
    system = _system(n=64)
    factors = []
    splu = spla.splu

    def captured(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", captured)
    preconditioner(system.matrix, system.prolongation, system.points)
    monkeypatch.undo()
    [lu] = factors
    p = system.prolongation
    colamd = spla.splu((p.T @ system.matrix @ p).tocsc())
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_true_residual_meets_rel_tol_at_level_3():
    # Jacobi-PCG needs about 4,800 iterations here; its recursive residual
    # drifts from the true one (1.17e-10 when stopping on the recursive
    # one), so converged must come from the true residual
    system = _system(n=64)
    assert system.rhs.size == 17778
    target = 1e-10 * np.linalg.norm(system.rhs)
    x, _, converged = pcg(system.matrix, system.rhs, *_jacobi(system.matrix),
                          rel_tol=1e-10)
    assert converged
    assert np.linalg.norm(system.rhs - system.matrix @ x) <= target
    u = solve(system, rel_tol=1e-10)
    assert np.linalg.norm(system.rhs - system.matrix @ u) <= target


def test_pcg_matches_direct_solution():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40))
    spd = sp.csr_matrix(a @ a.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    x, iters, converged = pcg(spd, b, *_jacobi(spd), rel_tol=1e-12)
    assert converged and iters <= 800
    assert x == pytest.approx(np.linalg.solve(spd.toarray(), b), abs=1e-8)


def test_rescaled_matrix_block_scaling():
    state, system = _setup(n=6)
    nb = state.dofmap.bulk.ndof
    h = state.mesh.h
    resc = rescaled_matrix(system.matrix, nb, h)
    a = system.matrix.toarray()
    r = resc.toarray()
    assert r[:nb, :nb] == pytest.approx(a[:nb, :nb], rel=1e-14)
    assert r[nb:, nb:] == pytest.approx(np.sqrt(h) * a[nb:, nb:], rel=1e-14)
    assert r[:nb, nb:] == pytest.approx(h ** 0.25 * a[:nb, nb:], rel=1e-14)
    assert np.abs(r - r.T).max() <= 1e-12 * np.abs(r).max()


def _natural_condition_number(matrix):
    """``condition_number`` with no candidate null basis, in the identity
    order, for the hand-made matrices."""
    n = matrix.shape[0]
    return condition_number(matrix, sp.csc_matrix((n, 0)), np.arange(n))


def test_condition_number_examples():
    diag = sp.diags([1.0, 2.0, 4.0]).tocsr()
    kappa, lmin, lmax, nullity = _natural_condition_number(diag)
    assert (kappa, lmin, lmax) == pytest.approx((4.0, 1.0, 4.0))
    assert nullity == 0
    with_zero = sp.diags([0.0, 1.0, 10.0]).tocsr()
    kappa, lmin, lmax, nullity = _natural_condition_number(with_zero)
    assert kappa == pytest.approx(10.0)
    assert nullity == 1
    zero = sp.csr_matrix((3, 3))
    zero.setdiag([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateMatrixError):
        _natural_condition_number(zero.tocsr())


def test_iterative_matches_dense_condition_number():
    state, system = _setup(n=8)
    resc = rescaled_matrix(system.matrix, state.dofmap.bulk.ndof,
                           state.mesh.h)
    kappa, lmin, lmax, nullity = condition_number(resc, state.null_basis,
                                                  state.dof_order)
    dense = dense_condition_number(resc)
    assert (kappa, lmin, lmax) == pytest.approx(dense[:3], rel=1e-6)
    assert nullity == dense[3]


def test_condition_number_deflates_an_unsupplied_indefinite_null_space():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    eigs = np.concatenate([[-30.0, -0.5, 0.0, 0.0],
                           np.linspace(0.7, 20.0, 56)])
    m = sp.csr_matrix(q @ np.diag(eigs) @ q.T)
    kappa, lmin, lmax, nullity = _natural_condition_number(m)
    assert (kappa, lmin, lmax) == pytest.approx((60.0, 0.5, 30.0), rel=1e-9)
    assert nullity == 2
    assert (kappa, lmin, lmax, nullity) == pytest.approx(
        dense_condition_number(m), rel=1e-9)


def test_dissection_order_shrinks_the_shifted_lu():
    """On a level-2 sweep matrix of DEFAULT_BOX the shifted LU in the
    state's nested-dissection dof order holds fewer L+U entries than in
    COLAMD's order (383k against 529k measured), and condition_number
    gives the same result in it as in the identity order."""
    mesh = mesh_at_level(2)
    state = SurfaceState(mesh, shifted_circle(mesh, 0.3), PARAMS)
    matrix = rescaled_matrix(state.matrix("full"), state.dofmap.bulk.ndof,
                             mesh.h)
    shifted = (matrix + 1e-10 * sp.identity(matrix.shape[0])).tocsr()
    order = state.dof_order
    ordered = spla.splu(shifted[order][:, order].tocsc(),
                        permc_spec="NATURAL")
    colamd = spla.splu(shifted.tocsc())
    assert ordered.L.nnz + ordered.U.nnz < colamd.L.nnz + colamd.U.nnz
    kappa, lmin, lmax, nullity = condition_number(matrix, state.null_basis,
                                                  order)
    assert (kappa, lmin, lmax) == pytest.approx(
        condition_number(matrix, state.null_basis,
                         np.arange(matrix.shape[0]))[:3], rel=1e-8)
    assert nullity == 0


def test_condition_number_failures_are_typed(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    with monkeypatch.context() as patch:
        patch.setattr(spla, "splu", singular)
        with pytest.raises(DegenerateMatrixError, match="singular"):
            _natural_condition_number(sp.diags([1.0, 2.0, 4.0]).tocsr())

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                       np.zeros((3, 0)))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(SolverError, match="ARPACK"):
        _natural_condition_number(sp.diags([1.0, 2.0, 4.0]).tocsr())
    # and the sweep raises it instead of writing a sentinel row
    with pytest.raises(SolverError, match="ARPACK"):
        run_condition_sweep(level=0, positions=2, configs=("full",))


@pytest.mark.parametrize("largest", [False, True])
def test_generalized_extreme_on_a_coercivity_pencil(largest):
    # the full system matrix against the energy Gram, at either end of
    # the spectrum, against every eigenvalue of the deflated dense pencil
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    state = SurfaceState(mesh, shifted_circle(mesh, 0.3), PARAMS)
    a = state.matrix("full")
    expected = dense_generalized_extremes(a, state.energy)[largest]
    got = generalized_extreme(a, state.energy, largest=largest)
    assert got == pytest.approx(expected, rel=1e-11)


def test_generalized_extreme_needs_a_positive_definite_b():
    a = sp.diags([1.0, 2.0, 3.0]).tocsr()
    b = sp.diags([1.0, 0.0, 1.0]).tocsr()
    with pytest.raises(SolverError, match="generalized eigensolver"):
        generalized_extreme(a, b, largest=True)


def test_generalized_extreme_refuses_a_pencil_too_large_to_densify():
    """A 9,000-dof pencil would take 1.3 GB as two dense copies: it raises
    a typed error that names its size, before densifying either."""
    a = sp.identity(9000, format="csr")
    tracemalloc.start()
    try:
        with pytest.raises(SolverError,
                           match="9000 dofs needs 1,296,000,000 bytes"):
            generalized_extreme(a, a, largest=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_condition_scaling_smoke():
    kappas, hs = [], []
    for n in (8, 16, 32):
        state, system = _setup(n=n)
        kappa, _, _, _ = condition_number(rescaled_matrix(
            system.matrix, state.dofmap.bulk.ndof, state.mesh.h),
            state.null_basis, state.dof_order)
        kappas.append(kappa)
        hs.append(state.mesh.h)
    slope = np.polyfit(np.log(hs), np.log(kappas), 1)[0]
    assert -2.5 <= slope <= -1.6


def test_cg_iterations_robust_over_positions():
    mesh = build_structured_mesh(BOX, 8)
    params = PARAMS
    iters = []
    for delta in np.linspace(0.0, 1.0, 21):
        state = SurfaceState(mesh, shifted_circle(mesh, delta), params)
        problem = build_circle_problem()
        problem = type(problem)(**{**problem.__dict__,
                                   "geometry": state.levelset})
        system = state.system(problem)
        _, k, converged = pcg(system.matrix, system.rhs,
                              *_jacobi(system.matrix), rel_tol=1e-10)
        assert converged
        iters.append(k)
    assert max(iters) / min(iters) <= 3.0
