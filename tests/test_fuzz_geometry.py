"""Property-based fuzzing of the cut geometry and the matrices built on it.

Circles (clipped by the box, inside it or missing it) and lines are drawn
on the n0-by-n0 mesh of the unit square for n0 in {4, 8}, and so are
vertex values with exact zeros: a line through a mesh vertex with integer
coefficients, whose values on the dyadic vertices are exact, and vertex
values drawn from {-1, -1/2, 0, 1/2, 1}. Each drawn topology is either
refused with a typed ``CutDGError`` or carries a surface, and the
cut-volume rules, the stabilized matrix and the coupling form keep their
invariants on it. On circles drawn on the 8x8 mesh and its first
refinement, the two-level solve either fails with a typed error or meets
its true-residual stop.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutdg.exceptions import CutDGError
from cutdg.forms import (AssembledSystem, StabilizationParams, bulk_form,
                         coupling_form, ghost_pieces, stabilized,
                         surface_form)
from cutdg.levelset import (build_cut_topology, circle_levelset,
                            interpolate_levelset)
from cutdg.mesh import build_structured_mesh, element_areas, refine_uniform
from cutdg.quadrature import CutQuadrature, clip_element_rules
from cutdg.solver import EPS, solve
from cutdg.space import build_spaces, prolongation
from tests.oracles import line_levelset

UNIT = ((0.0, 0.0), (1.0, 1.0))
PARAMS = StabilizationParams()
MESHES = {n0: build_structured_mesh(UNIT, n0) for n0 in (4, 8)}
SOLVE_MESHES = (MESHES[8], refine_uniform(MESHES[8]))
FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=40)

n0s = st.sampled_from(sorted(MESHES))
coords = st.floats(-0.5, 1.5, allow_nan=False)


def _topology(mesh, values):
    """The cut topology, or None where it is refused with a typed error;
    a topology that is built carries at least one segment."""
    try:
        topo = build_cut_topology(mesh, values)
    except CutDGError:
        return None
    assert topo.surface.n_segments > 0
    return topo


def _matrices(mesh, values, topo):
    """The coupling form and the stabilized matrix that ``assemble_system``
    solves (built from the same forms, without a load vector, so that
    hand-built values need no exact geometry)."""
    dofmap = build_spaces(mesh, topo)
    cq = CutQuadrature(mesh, values, topo)
    coupling = coupling_form(cq, dofmap, PARAMS)
    matrix = stabilized(bulk_form(cq, dofmap, PARAMS),
                        surface_form(cq, dofmap, PARAMS), coupling,
                        ghost_pieces(cq, dofmap), PARAMS)
    return coupling, matrix


def _check_invariants(mesh, values, topo):
    # the negative parts of values and of -values partition each cut
    # element
    nodes = mesh.elements[topo.active_surface]
    total = np.zeros(len(nodes))
    for sign in (1.0, -1.0):
        rules = clip_element_rules(mesh.vertices[nodes], sign * values[nodes])
        total[rules.index] += rules.weights.sum(axis=1)
    area = element_areas(mesh)[topo.active_surface]
    assert np.all(np.abs(total - area) <= 1e-12 * area)

    coupling, matrix = _matrices(mesh, values, topo)
    scale = abs(matrix).max()
    assert abs(matrix - matrix.T).max() <= 1e-12 * scale
    rows = np.unique(coupling.nonzero()[0])
    block = coupling[rows][:, rows].toarray()
    assert np.linalg.eigvalsh(block).min() >= -1e-12 * abs(block).max()

    again = _matrices(mesh, values, topo)[1]
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(matrix, name), getattr(again, name))


@FUZZ
@given(n0s, coords, coords, st.floats(0.01, 1.2))
@example(4, 0.5, 0.5, 0.25)  # through the vertices (0.75, 0.5), (0.5, 0.75)
@example(8, 0.5, 0.5, 0.125 + 1e-13)  # grazing the vertex ring at 1/8
@example(8, 1.0, 1.0, 0.5)  # clipped by the box corner
def test_circles(n0, cx, cy, radius):
    mesh = MESHES[n0]
    values = interpolate_levelset(circle_levelset((cx, cy), radius), mesh)
    topo = _topology(mesh, values)
    if topo is None:
        return
    margin = min(cx - radius, cy - radius, 1.0 - cx - radius,
                 1.0 - cy - radius)
    if margin > 1e-9:
        # strictly inside the box: one closed chain
        assert topo.surface.n_edges == topo.surface.n_segments
    _check_invariants(mesh, values, topo)


@FUZZ
@given(n0s, st.floats(0.0, 2.0 * np.pi), st.floats(-1.5, 1.5))
@example(4, 0.0, 1.0)  # along the box boundary x = 1
@example(8, 0.5 * np.pi, 0.5)  # along the mesh edges y = 1/2
def test_lines(n0, angle, offset):
    mesh = MESHES[n0]
    values = interpolate_levelset(
        line_levelset((np.cos(angle), np.sin(angle)), offset), mesh)
    topo = _topology(mesh, values)
    if topo is not None:
        _check_invariants(mesh, values, topo)


@FUZZ
@given(n0s, st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 80))
@example(4, 1, 0, 4)  # x = 1: exact zeros on the box boundary only
@example(4, 1, 2, 4)  # x + 2y = 1 through three vertices
def test_lines_through_vertices(n0, p, q, vertex):
    """p (x - x_v) + q (y - y_v), exactly zero on the vertex v and on every
    other vertex of that line."""
    mesh = MESHES[n0]
    if p == 0 and q == 0:
        p = 1
    x0, y0 = mesh.vertices[vertex % mesh.n_vertices]
    x, y = mesh.vertices.T
    values = p * (x - x0) + q * (y - y0)
    assert values[vertex % mesh.n_vertices] == 0.0
    topo = _topology(mesh, values)
    if topo is not None:
        _check_invariants(mesh, values, topo)


@FUZZ
@given(st.lists(st.sampled_from([-1.0, 1.0, -0.5, 0.5, 0.0]), min_size=25,
                max_size=25))
def test_vertex_values_with_exact_zeros(drawn):
    mesh = MESHES[4]
    values = np.asarray(drawn)
    topo = _topology(mesh, values)
    if topo is not None:
        _check_invariants(mesh, values, topo)


@FUZZ
@given(st.sampled_from(range(len(SOLVE_MESHES))), coords, coords,
       st.floats(0.01, 1.2), st.integers(0, 2 ** 32 - 1))
def test_solve_meets_its_residual_stop(level, cx, cy, radius, seed):
    """b = A x* for a drawn x*: ``solve`` raises a typed error or returns
    x with ||b - A x|| <= max(1e-10 ||b||, eps || |A| |x| ||)."""
    mesh = SOLVE_MESHES[level]
    values = interpolate_levelset(circle_levelset((cx, cy), radius), mesh)
    topo = _topology(mesh, values)
    if topo is None:
        return
    dofmap = build_spaces(mesh, topo)
    matrix = _matrices(mesh, values, topo)[1]
    b = matrix @ np.random.default_rng(seed).standard_normal(dofmap.ndof)
    try:
        x = solve(AssembledSystem(matrix, b, prolongation(dofmap, mesh)))
    except CutDGError:
        return
    assert np.linalg.norm(b - matrix @ x) <= max(
        1e-10 * np.linalg.norm(b), EPS * np.linalg.norm(abs(matrix) @ abs(x)))
