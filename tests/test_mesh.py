import numpy as np
import pytest

import cutdg.mesh
from cutdg.exceptions import StructuralError
from cutdg.experiments import SurfaceState, mesh_at_level
from cutdg.forms import StabilizationParams
from cutdg.manufactured import build_circle_problem
from cutdg.mesh import (build_structured_mesh, element_areas,
                        face_connectivity, refine_uniform)
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


def test_face_normals():
    mesh = build_structured_mesh(UNIT, 1)
    n = mesh.faces.normals[0]
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
    # the split diagonal runs from (1,0) to (0,1); its normal is (1,1)/sqrt(2)
    assert np.abs(n) == pytest.approx(np.ones(2) / np.sqrt(2.0), rel=1e-14)
    # orientation: points from the plus element towards the minus element
    plus_c = mesh.vertices[mesh.elements[mesh.faces.elements[0, 0]]].mean(axis=0)
    minus_c = mesh.vertices[mesh.elements[mesh.faces.elements[0, 1]]].mean(axis=0)
    assert n @ (minus_c - plus_c) > 0.0
    big = build_structured_mesh(BOX, 6)
    assert np.linalg.norm(big.faces.normals, axis=1) == pytest.approx(
        np.ones(len(big.faces.normals)), abs=1e-14)


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
        face_connectivity(verts, bad)


@pytest.mark.parametrize("n, levels", [(1, 0), (2, 0), (3, 0), (2, 1), (1, 2)])
def test_face_connectivity_matches_dict_oracle(n, levels):
    """Face order, plus/minus sides and normal orientation against a
    dict-based listing, on the structured mesh and on a copy with shuffled
    element order and rotated vertex order."""
    mesh = build_structured_mesh(UNIT, n)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    rng = np.random.default_rng(n + 10 * levels)
    shuffled = mesh.elements[rng.permutation(mesh.n_elements)]
    shuffled = np.array([np.roll(tri, r) for tri, r in
                         zip(shuffled, rng.integers(0, 3, mesh.n_elements))])
    for elements in (mesh.elements, shuffled):
        fv, fe, normals, lengths = face_connectivity(mesh.vertices, elements)
        ref_fv, ref_fe = face_connectivity_reference(elements)
        assert np.array_equal(fv, ref_fv) and np.array_equal(fe, ref_fe)
        pa, pb = mesh.vertices[fv[:, 0]], mesh.vertices[fv[:, 1]]
        assert np.allclose(lengths, np.linalg.norm(pb - pa, axis=1))
        plus = mesh.vertices[elements[fe[:, 0]]].mean(axis=1)
        minus = mesh.vertices[elements[fe[:, 1]]].mean(axis=1)
        assert np.all(np.einsum("fd,fd->f", normals, minus - plus) > 0.0)


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
