import tracemalloc

import numpy as np
import pytest

import cutdg.mesh
from cutdg.exceptions import StructuralError
from cutdg.experiments import SurfaceState, mesh_at_level
from cutdg.forms import StabilizationParams, _face_blocks
from cutdg.manufactured import build_circle_problem
from cutdg.mesh import (BackgroundMesh, build_structured_mesh, element_areas,
                        face_connectivity, refine_uniform)
from cutdg.quadrature import CutQuadrature
from cutdg.space import BrokenSpace
from tests.oracles import face_connectivity_reference

UNIT = ((0.0, 0.0), (1.0, 1.0))
BOX = ((-1.1, -1.1), (1.1, 1.1))


def test_minimal_split_counts():
    mesh = build_structured_mesh(UNIT, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert len(mesh.faces.vertices) == 1


def test_counts_n2():
    mesh = build_structured_mesh(UNIT, 2)
    assert mesh.n_vertices == 9
    assert mesh.n_elements == 8


def test_global_mesh_size_is_cell_diagonal():
    mesh = build_structured_mesh(BOX, 8)
    assert mesh.h == pytest.approx(2.2 / 8 * np.sqrt(2.0), rel=1e-15)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_structured_mesh(UNIT, 0)
    with pytest.raises(ValueError):
        build_structured_mesh(((0.0, 0.0), (-1.0, 1.0)), 4)


def test_refine_splits_each_triangle_in_four():
    mesh = build_structured_mesh(UNIT, 1)
    fine = refine_uniform(mesh)
    assert fine.n_elements == 8
    finer = refine_uniform(fine)
    assert finer.n_elements == 16 * mesh.n_elements


def test_refine_halves_h_exactly():
    mesh = build_structured_mesh(((0.0, 0.0), (0.4 / np.sqrt(2), 0.4 / np.sqrt(2))), 1)
    assert refine_uniform(mesh).h == mesh.h / 2
    # and the stored h stays consistent with the actual longest edge
    fine = refine_uniform(build_structured_mesh(BOX, 3))
    edges = fine.vertices[fine.elements[:, [0, 1, 2]]] \
        - fine.vertices[fine.elements[:, [1, 2, 0]]]
    assert np.linalg.norm(edges, axis=2).max() == pytest.approx(fine.h, rel=1e-14)


def test_refinement_is_nested():
    mesh = build_structured_mesh(BOX, 4)
    fine = refine_uniform(mesh)
    assert np.array_equal(fine.vertices[:mesh.n_vertices], mesh.vertices)


def test_areas_sum_to_box_area():
    for n in (1, 3, 8):
        mesh = build_structured_mesh(BOX, n)
        areas = element_areas(mesh.vertices[mesh.elements])
        assert areas.sum() == pytest.approx(2.2 ** 2, rel=1e-12)
        assert areas.min() > 0.0
    mesh = refine_uniform(build_structured_mesh(BOX, 5))
    areas = element_areas(mesh.vertices[mesh.elements])
    assert areas.sum() == pytest.approx(2.2 ** 2, rel=1e-12)
    assert areas.min() > 0.0


def test_quasi_uniformity_bound():
    mesh = refine_uniform(build_structured_mesh(BOX, 6))
    edges = mesh.vertices[mesh.elements[:, [0, 1, 2]]] \
        - mesh.vertices[mesh.elements[:, [1, 2, 0]]]
    lengths = np.linalg.norm(edges, axis=2)
    assert lengths.max() / lengths.min() <= 2 * np.sqrt(2.0) + 1e-12


def test_conforming_faces_listed_by_both_elements():
    mesh = build_structured_mesh(BOX, 4)
    for fv, fe in zip(mesh.faces.vertices, mesh.faces.elements):
        for e in fe:
            assert set(fv).issubset(set(mesh.elements[e]))
    # plus side is the lower element index
    assert np.all(mesh.faces.elements[:, 0] < mesh.faces.elements[:, 1])


def test_boundary_edges_not_in_interior_faces():
    mesh = build_structured_mesh(UNIT, 1)
    listed = {tuple(fv) for fv in mesh.faces.vertices}
    assert (0, 1) not in listed  # bottom edge of the box
    assert listed == {(1, 2)}


def test_non_manifold_detection():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [-1.0, 1.0]])
    elements = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 4]])
    # edge (0, 2) would be fine, but edge (0, 1) appears in elements 0 and 3
    # while (0, 4), (1, 4) close a fan that reuses edge (0, 1) legally; make
    # a genuinely bad one instead: three elements sharing edge (0, 2).
    bad = np.array([[0, 1, 2], [0, 2, 4], [0, 2, 3]])
    with pytest.raises(StructuralError):
        face_connectivity(bad, verts.shape[0])


def _oracle_meshes(n, levels):
    """The structured mesh of n-by-n cells of UNIT refined ``levels``
    times, and a copy with shuffled element order and rotated vertex
    order."""
    mesh = build_structured_mesh(UNIT, n)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    rng = np.random.default_rng(n + 10 * levels)
    shuffled = mesh.elements[rng.permutation(mesh.n_elements)]
    shuffled = np.array([np.roll(tri, r) for tri, r in
                         zip(shuffled, rng.integers(0, 3, mesh.n_elements))])
    return mesh, BackgroundMesh(mesh.vertices, shuffled, mesh.h, mesh.cell)


ORACLE_MESHES = [(1, 0), (2, 0), (3, 0), (2, 1), (1, 2)]


@pytest.mark.parametrize("n, levels", ORACLE_MESHES)
def test_face_connectivity_matches_dict_oracle(n, levels):
    """Face order and plus/minus sides against a dict-based listing, on
    the meshes of ``_oracle_meshes``."""
    for mesh in _oracle_meshes(n, levels):
        fv, fe = face_connectivity(mesh.elements, mesh.n_vertices)
        ref_fv, ref_fe = face_connectivity_reference(mesh.elements)
        assert np.array_equal(fv, ref_fv) and np.array_equal(fe, ref_fe)


def test_face_normals():
    """The lengths and unit normals that ``_face_blocks`` derives from the
    element winding, on the meshes of ``_oracle_meshes`` for every case
    of the dict-oracle test and on the 6x6 mesh of BOX. The normal n is
    read back from the normal-gradient jump [grad(v) . n], whose plus part
    G n (G the plus basis gradients) summed against the plus vertices is n
    (the gradient of the identity map), and whose minus part gives n in
    the same way: unit length, from the plus centroid towards the minus
    one, and +-(1, 1)/sqrt(2) on the diagonal of the one-cell mesh."""
    meshes = [mesh for case in ORACLE_MESHES for mesh in _oracle_meshes(*case)]
    for mesh in meshes + [build_structured_mesh(BOX, 6)]:
        ne = mesh.n_elements
        cq = CutQuadrature(mesh, np.ones(mesh.n_vertices), None)
        space = BrokenSpace(np.arange(ne), 0, np.arange(ne))
        fv, fe = mesh.faces
        _, lengths, _, gjump, _ = _face_blocks(cq, space, np.arange(len(fv)))
        pa, pb = mesh.vertices[fv[:, 0]], mesh.vertices[fv[:, 1]]
        assert np.allclose(lengths, np.linalg.norm(pb - pa, axis=1))
        plus, minus = (mesh.vertices[mesh.elements[e]] for e in fe.T)
        normals = np.einsum("fk,fkd->fd", gjump[:, :3], plus)
        assert np.allclose(np.einsum("fk,fkd->fd", -gjump[:, 3:], minus),
                           normals, rtol=0.0, atol=1e-14)
        assert np.linalg.norm(normals, axis=1) == pytest.approx(
            np.ones(len(fv)), abs=1e-14)
        assert np.all(np.einsum("fd,fd->f", normals, minus.mean(axis=1)
                                - plus.mean(axis=1)) > 0.0)
        if ne == 2:
            # the split diagonal of the one-cell mesh runs from (1,0) to (0,1)
            assert np.abs(normals[0]) == pytest.approx(
                np.ones(2) / np.sqrt(2.0), rel=1e-14)


def test_faces_are_built_once_where_read(monkeypatch):
    """Building and refining a mesh makes no faces; one discretization, its
    system and its error norms build them once, and the mesh keeps them."""
    calls = []

    def counted(*args):
        calls.append(args)
        return face_connectivity(*args)

    monkeypatch.setattr(cutdg.mesh, "face_connectivity", counted)
    mesh = mesh_at_level(3)
    assert not calls
    problem = build_circle_problem()
    state = SurfaceState(mesh, problem.geometry, StabilizationParams())
    state.system(problem)
    state.errors(np.zeros(state.dofmap.ndof), problem)
    assert len(calls) == 1 and mesh.faces is mesh.faces


def test_face_connectivity_peak_memory_is_bounded_by_its_faces():
    """On the level-4 mesh face_connectivity peaks, as traced by
    tracemalloc, at no more than 2 times the bytes of the Faces it returns
    (1.79 times measured): each temporary of the key sort and of the
    gathers is dropped as soon as it is read."""
    mesh = mesh_at_level(4)
    tracemalloc.start()
    try:
        faces = face_connectivity(mesh.elements, mesh.n_vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (faces.vertices.nbytes + faces.elements.nbytes)
