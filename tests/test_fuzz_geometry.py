"""Property-based fuzzing of the cut geometry and the matrices built on it.

Circles (clipped by the box, inside it or missing it) and lines are drawn
on the n0-by-n0 mesh of the unit square for n0 in {4, 8}, and so are
lines through a mesh vertex with integer coefficients, which the snap of
``interpolate_levelset`` moves off every vertex on the line, as the
program meets them. Vertex values drawn from {-1, -1/2, 0, 1/2, 1} with
a zero set at a drawn vertex must be refused with a ``StructuralError``
naming the first zero; values drawn from {-1, -1/2, 1/2, 1} on the 4x4
mesh are a level set of their own. Each drawn topology is either
refused with a typed ``CutDGError`` or carries a surface, and the
cut-volume rules, the segments (each in its cut element), the
stabilized matrix and the coupling form keep their invariants on it. On
circles drawn on the 8x8 mesh and its first refinement, the two-level
solve either fails with a typed error or meets its true-residual stop.
The per-entity row product ``mesh.row_dot`` is drawn too: each of its
rows must be that entity's own product, bit for bit. Every kind of level
set is also drawn on the 8x8 mesh and its first refinement (the nonzero
vertex values on the 4x4 mesh), and every form, ghost piece and property
Gram built on it must equal the per-entity loops of ``tests/oracles.py``,
bit for bit."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cutdg.forms as forms
from cutdg.exceptions import CutDGError, StructuralError
from cutdg.forms import (AssembledSystem, StabilizationParams, bulk_form,
                         coupling_form, ghost_pieces, stabilized,
                         surface_form)
from cutdg.levelset import (SNAP_FACTOR, build_cut_topology,
                            circle_levelset, interpolate_levelset)
from cutdg.mesh import (build_structured_mesh, element_areas, refine_uniform,
                        row_dot)
from cutdg.quadrature import CutQuadrature, clip_element_rules
from cutdg.solver import EPS, solve
from cutdg.space import build_spaces, prolongation
from tests import oracles
from tests.oracles import line_levelset

UNIT = ((0.0, 0.0), (1.0, 1.0))
PARAMS = StabilizationParams()
MESHES = {n0: build_structured_mesh(UNIT, n0) for n0 in (4, 8)}
SOLVE_MESHES = (MESHES[8], refine_uniform(MESHES[8]))
FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=40)

n0s = st.sampled_from(sorted(MESHES))
coords = st.floats(-0.5, 1.5, allow_nan=False)
radii = st.floats(0.01, 1.2)
angles = st.floats(0.0, 2.0 * np.pi)
offsets = st.floats(-1.5, 1.5)
slopes = st.integers(-3, 3)
vertex_ids = st.integers(0, 80)
nonzero = [-1.0, 1.0, -0.5, 0.5]
zero_values = st.lists(st.sampled_from(nonzero + [0.0]), min_size=25,
                       max_size=25)
nonzero_values = st.lists(st.sampled_from(nonzero), min_size=25, max_size=25)


def _circle(mesh, cx, cy, radius):
    return interpolate_levelset(circle_levelset((cx, cy), radius), mesh)


def _line(mesh, angle, offset):
    return interpolate_levelset(
        line_levelset((np.cos(angle), np.sin(angle)), offset), mesh)


def _line_through_vertex(mesh, p, q, vertex):
    """The line p (x - x_v) + q (y - y_v) = 0 through the vertex v,
    interpolated: v and every other vertex on the line are snapped."""
    if p == 0 and q == 0:
        p = 1
    n = np.array([p, q], dtype=float) / np.hypot(p, q)
    v = vertex % mesh.n_vertices
    values = interpolate_levelset(line_levelset(n, mesh.vertices[v] @ n),
                                  mesh)
    assert values[v] == -SNAP_FACTOR * mesh.h
    return values


def levelsets(meshes):
    """(mesh, vertex values) of each kind of level set drawn below: a
    circle, a line or a line through a vertex on a mesh drawn from
    ``meshes``, or nonzero vertex values on the 4x4 mesh."""
    def on(values, *args):
        return st.builds(lambda mesh, *a: (mesh, values(mesh, *a)), meshes,
                         *args)
    return st.one_of(on(_circle, coords, coords, radii),
                     on(_line, angles, offsets),
                     on(_line_through_vertex, slopes, slopes, vertex_ids),
                     nonzero_values.map(lambda v: (MESHES[4], np.asarray(v))))


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
        total += rules.weights.sum(axis=1)
    area = element_areas(mesh.vertices[nodes])
    assert np.all(np.abs(total - area) <= 1e-12 * area)

    # segment k lies in the closed cut element topo.active_surface[k]: the
    # barycentric coordinates of both its endpoints there are at least
    # -1e-12
    tris = mesh.vertices[nodes]
    edges = (tris[:, 1:] - tris[:, :1]).transpose(0, 2, 1)
    rel = topo.surface.points - tris[:, None, 0]
    lam = np.linalg.solve(edges[:, None], rel[..., None])[..., 0]
    assert np.all(lam >= -1e-12) and np.all(lam.sum(axis=-1) <= 1.0 + 1e-12)

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
@given(n0s, coords, coords, radii)
@example(4, 0.5, 0.5, 0.25)  # through the vertices (0.75, 0.5), (0.5, 0.75)
@example(8, 0.5, 0.5, 0.125 + 1e-13)  # grazing the vertex ring at 1/8
@example(8, 1.0, 1.0, 0.5)  # clipped by the box corner
def test_circles(n0, cx, cy, radius):
    mesh = MESHES[n0]
    values = _circle(mesh, cx, cy, radius)
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
@given(n0s, angles, offsets)
@example(4, 0.0, 1.0)  # along the box boundary x = 1
@example(8, 0.5 * np.pi, 0.5)  # along the mesh edges y = 1/2
def test_lines(n0, angle, offset):
    mesh = MESHES[n0]
    values = _line(mesh, angle, offset)
    topo = _topology(mesh, values)
    if topo is not None:
        _check_invariants(mesh, values, topo)


@FUZZ
@given(n0s, slopes, slopes, vertex_ids)
@example(4, 1, 0, 4)  # x = 1: snapped on the box boundary, no cut element
@example(4, 1, 2, 4)  # x + 2y = 1 through three snapped vertices
def test_lines_through_vertices(n0, p, q, vertex):
    mesh = MESHES[n0]
    values = _line_through_vertex(mesh, p, q, vertex)
    topo = _topology(mesh, values)
    if topo is not None:
        _check_invariants(mesh, values, topo)


@FUZZ
@given(zero_values, st.integers(0, 24))
def test_vertex_values_with_exact_zeros(drawn, index):
    """A draw with a zero at ``index``, and at any other vertex it drew
    one, is refused, naming its first zero vertex."""
    values = list(drawn)
    values[index] = 0.0
    with pytest.raises(StructuralError, match=(
            rf"vertex {values.index(0.0)} has level-set value 0\.0: ")):
        build_cut_topology(MESHES[4], np.asarray(values))


@FUZZ
@given(nonzero_values)
def test_nonzero_vertex_values_keep_the_invariants(drawn):
    mesh = MESHES[4]
    values = np.asarray(drawn)
    topo = _topology(mesh, values)
    if topo is not None:
        _check_invariants(mesh, values, topo)


def _grazing_circles(test):
    """Explicit examples: on each solve mesh, the circle about (1/2, 1/2)
    through four mesh vertices, its radius 3/8 moved by 1e-3 to 1e-12 of
    a cell either way, so that four segments shrink towards zero."""
    for level, mesh in enumerate(SOLVE_MESHES):
        for offset in (1e-3, 1e-6, 1e-9, 1e-12):
            for side in (-1.0, 1.0):
                radius = 0.375 + side * offset * mesh.cell[0]
                test = example(level, 0.5, 0.5, radius, 0)(test)
    return test


@FUZZ
@given(st.sampled_from(range(len(SOLVE_MESHES))), coords, coords, radii,
       st.integers(0, 2 ** 32 - 1))
@_grazing_circles
def test_solve_meets_its_residual_stop(level, cx, cy, radius, seed):
    """b = A x* for a drawn x*: ``solve`` raises a typed error or returns
    x with ||b - A x|| <= max(1e-10 ||b||, eps || |A| |x| ||)."""
    mesh = SOLVE_MESHES[level]
    values = _circle(mesh, cx, cy, radius)
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


@FUZZ
@given(st.integers(1, 12), st.integers(1, 300), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_row_dot_is_the_per_entity_product(k, m, tiled, seed):
    """For n = 1, each row of ``row_dot`` is a[k] @ b[k] bit for bit, also
    when a is one vector broadcast over its rows, as in the mean-zero
    projection of the property suite."""
    rng = np.random.default_rng(seed)
    a = np.broadcast_to(rng.standard_normal(m), (k, m)) if tiled \
        else rng.standard_normal((k, m))
    b = rng.standard_normal((k, m, 1))
    got = row_dot(a, b)
    assert got.shape == (k, 1)
    for row, x, y in zip(got, a, b):
        assert np.array_equal(row, x @ y)
        assert np.array_equal(row[0], x @ y[:, 0])


def _forms(mesh, values, topo, dofmap):
    """Every form, ghost piece and property Gram that needs no problem, as
    arrays (csr data, indices and indptr), each built through the
    ``cutdg.forms`` module so that ``oracles.stand_in`` reaches it."""
    cq = CutQuadrature(mesh, values, topo)
    pieces = forms.ghost_pieces(cq, dofmap)
    out = {"bulk": oracles.bulk_matrix(cq, dofmap, PARAMS),
           "surface": forms.surface_form(cq, dofmap, PARAMS),
           "coupling": forms.coupling_form(cq, dofmap, PARAMS),
           **{f"{family}_{i}": m for family, pair in pieces.items()
              for i, m in enumerate(pair)},
           **forms.property_grams(cq, dofmap, PARAMS, pieces)}
    return {k: (m,) if isinstance(m, np.ndarray) else
            (m.data, m.indices, m.indptr) for k, m in out.items()}


@FUZZ
@given(levelsets(st.sampled_from(SOLVE_MESHES)))
def test_forms_equal_the_per_entity_loops(drawn):
    """The bulk bands joined, the surface and coupling forms, both ghost
    pieces of each family and every ``property_grams`` entry equal those
    built by the per-entity loops, bit for bit, and the trace vector
    equals ``oracles.surface_trace_load``. The load vector needs a
    closest-point map, so it is checked on circles only (in
    ``tests/test_batched_assembly.py``)."""
    mesh, values = drawn
    topo = _topology(mesh, values)
    assume(topo is not None)
    dofmap = build_spaces(mesh, topo)
    batched = _forms(mesh, values, topo, dofmap)
    with pytest.MonkeyPatch.context() as patch:
        oracles.stand_in(patch)
        reference = _forms(mesh, values, topo, dofmap)
    for key, arrays in reference.items():
        for ref, new in zip(arrays, batched[key]):
            assert np.array_equal(ref, new), key
    assert np.array_equal(batched["trace"][0],
                          oracles.surface_trace_load(mesh, topo, dofmap))
