import numpy as np
import pytest

from cutdg.experiments import DEFAULT_BOX, mesh_at_level
from cutdg.levelset import circle_levelset, interpolate_levelset, \
    build_cut_topology
from cutdg.manufactured import build_circle_problem
from cutdg.mesh import build_structured_mesh, element_gradients
from cutdg.space import (build_spaces, interpolate_pair, levelset_null_basis,
                         prolongation)
from tests.oracles import evaluate_basis

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
BOX = ((-1.1, -1.1), (1.1, 1.1))


def _setup(n=8):
    mesh = build_structured_mesh(BOX, n)
    dls = interpolate_levelset(circle_levelset(), mesh)
    topo = build_cut_topology(mesh, dls)
    return mesh, dls, topo, build_spaces(mesh, topo)


def test_basis_values_at_vertices_and_centroid():
    vals, _ = evaluate_basis(REF, REF)
    assert vals == pytest.approx(np.eye(3), abs=1e-14)
    vals, _ = evaluate_basis(REF, REF.mean(axis=0))
    assert vals == pytest.approx(np.full(3, 1 / 3), abs=1e-14)


def test_reference_gradients():
    grads = element_gradients(REF)
    assert grads == pytest.approx(np.array([[-1.0, -1.0], [1.0, 0.0],
                                            [0.0, 1.0]]), abs=1e-14)


def test_partition_of_unity():
    rng = np.random.default_rng(5)
    tri = np.array([[0.2, -0.4], [1.7, 0.1], [0.4, 2.2]])
    pts = rng.uniform(-1, 2, size=(50, 2))
    vals, grads = evaluate_basis(tri, pts)
    assert vals.sum(axis=1) == pytest.approx(np.ones(50), abs=1e-12)
    assert grads.sum(axis=0) == pytest.approx(np.zeros(2), abs=1e-12)


def test_dof_map_counts_and_bijection():
    mesh, _, topo, dofmap = _setup()
    assert dofmap.bulk.ndof == 3 * topo.active_bulk.size
    assert dofmap.surface.ndof == 3 * topo.active_surface.size
    assert dofmap.ndof == dofmap.bulk.ndof + dofmap.surface.ndof
    seen = set()
    for space in (dofmap.bulk, dofmap.surface):
        for dofs in space.dofs_array(space.elements):
            assert len(set(dofs)) == 3
            seen.update(dofs)
    assert seen == set(range(dofmap.ndof))
    with pytest.raises(KeyError):
        dofmap.surface.dofs_array(np.setdiff1d(
            topo.active_bulk, topo.active_surface)[:1])


def test_interpolation_reproduces_constants_and_linears():
    mesh, _, topo, dofmap = _setup()

    def const(p):
        return np.full(p.shape[:-1], 3.5)

    def linear(p):
        return 1.0 + 2.0 * p[..., 0] - p[..., 1]

    assert np.all(interpolate_pair(dofmap, mesh, const, const) == 3.5)
    lin = interpolate_pair(dofmap, mesh, linear, const)[:dofmap.bulk.ndof]
    # zero jumps in value and gradient across every active face
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    coeffs = lin.reshape(-1, 3)
    for f in topo.bulk_faces:
        ep, em = mesh.faces.elements[f]
        sp, sm = dofmap.bulk.slot[ep], dofmap.bulk.slot[em]
        ge = grads_all[ep].T @ coeffs[sp]
        gm = grads_all[em].T @ coeffs[sm]
        assert ge == pytest.approx(gm, abs=1e-12)
        assert ge == pytest.approx([2.0, -1.0], abs=1e-12)
        for v in mesh.faces.vertices[f]:
            ip = list(mesh.elements[ep]).index(v)
            im = list(mesh.elements[em]).index(v)
            assert coeffs[sp][ip] == pytest.approx(coeffs[sm][im], abs=1e-14)


def test_quadratic_interpolant_has_gradient_jumps():
    # two cells side by side: the interpolant of x^2 kinks across x = 1
    mesh = build_structured_mesh(((0.0, 0.0), (2.0, 1.0)), 2)
    # pick the vertical face at x = 1 between cells
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    fid = None
    for f in range(len(mesh.faces.vertices)):
        pa, pb = mesh.vertices[mesh.faces.vertices[f]]
        if pa[0] == 1.0 and pb[0] == 1.0:
            fid = f
            break
    assert fid is not None
    ep, em = mesh.faces.elements[fid]
    fx = lambda p: p[..., 0] ** 2
    vals_p = fx(mesh.vertices[mesh.elements[ep]])
    vals_m = fx(mesh.vertices[mesh.elements[em]])
    gp = grads_all[ep].T @ vals_p
    gm = grads_all[em].T @ vals_m
    # the interpolant of x^2 on a cell [a, a+1] has slope 2a + 1
    assert sorted([gp[0], gm[0]]) == pytest.approx([1.0, 3.0], abs=1e-12)
    assert gp[1] == pytest.approx(0.0, abs=1e-12)
    assert gm[1] == pytest.approx(0.0, abs=1e-12)


def test_interpolate_pair_layout():
    mesh, _, topo, dofmap = _setup(4)
    u = interpolate_pair(dofmap, mesh,
                         lambda p: np.ones(p.shape[:-1]),
                         lambda p: 2.0 * np.ones(p.shape[:-1]))
    assert np.all(u[:dofmap.bulk.ndof] == 1.0)
    assert np.all(u[dofmap.bulk.ndof:] == 2.0)


@pytest.mark.parametrize("box", [DEFAULT_BOX,
                                 ((-1.05, -1.07), (1.15, 1.13))],
                         ids=["default", "shifted"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_interpolate_pair_calls_each_callable_once_per_vertex(box, level):
    """Each callable gets one call, on its block's distinct vertices, and
    the interpolant is bit for bit the values at every element vertex."""
    problem = build_circle_problem()
    mesh = mesh_at_level(level, box=box)
    dls = interpolate_levelset(problem.geometry, mesh)
    dofmap = build_spaces(mesh, build_cut_topology(mesh, dls))
    calls = {"bulk": [], "surface": []}

    def recording(name, f):
        def g(points):
            calls[name].append(points.copy())
            return f(points)
        return g

    u = interpolate_pair(dofmap, mesh, recording("bulk", problem.u_bulk),
                         recording("surface", problem.u_surf_ext))
    for name, space, f in (("bulk", dofmap.bulk, problem.u_bulk),
                           ("surface", dofmap.surface, problem.u_surf_ext)):
        [points] = calls[name]
        vertices = np.unique(mesh.elements[space.elements])
        assert np.array_equal(points, mesh.vertices[vertices])
        assert np.array_equal(
            u[space.offset:space.offset + space.ndof],
            f(mesh.vertices[mesh.elements[space.elements]]).reshape(-1))


def test_prolongation_injects_continuous_p1_into_both_blocks():
    mesh, _, _, dofmap = _setup()
    p = prolongation(dofmap, mesh)
    assert p.shape[0] == dofmap.ndof
    assert np.all(np.diff(p.indptr) == 1) and np.all(p.data == 1.0)
    bulk_vertices = np.unique(mesh.elements[dofmap.bulk.elements])
    surface_vertices = np.unique(mesh.elements[dofmap.surface.elements])
    assert p.shape[1] == bulk_vertices.size + surface_vertices.size
    f_bulk = lambda x: 1.0 + 2.0 * x[..., 0] - x[..., 1]
    f_surface = lambda x: -0.5 + 0.25 * x[..., 0] + 3.0 * x[..., 1]
    vertex_values = np.concatenate([f_bulk(mesh.vertices[bulk_vertices]),
                                    f_surface(mesh.vertices[surface_vertices])])
    assert p @ vertex_values == pytest.approx(
        interpolate_pair(dofmap, mesh, f_bulk, f_surface), abs=1e-14)


def test_levelset_null_basis_holds_the_level_set_on_each_cut_element():
    mesh, dls, _, dofmap = _setup()
    q = levelset_null_basis(dofmap, mesh, dls)
    assert q.shape == (dofmap.ndof, dofmap.surface.elements.size)
    assert (q.T @ q).toarray() == pytest.approx(np.eye(q.shape[1]),
                                                abs=1e-14)
    for column, element in enumerate(dofmap.surface.elements[:5]):
        values = dls[mesh.elements[element]]
        dofs = dofmap.surface.dofs_array([element])[0]
        expected = np.zeros(dofmap.ndof)
        expected[dofs] = values / np.linalg.norm(values)
        assert q[:, column].toarray().ravel() == pytest.approx(expected,
                                                               abs=1e-15)
