from dataclasses import replace

import numpy as np
import pytest

from cutdg.exceptions import ConfigurationError, StructuralError
from cutdg.experiments import (DEFAULT_BOX, SurfaceState, mesh_at_level,
                               shifted_circle)
from cutdg.forms import StabilizationParams
from cutdg.levelset import (SNAP_FACTOR, build_cut_topology,
                            check_geometry_assumptions, circle_levelset,
                            interpolate_levelset)
from cutdg.mesh import BackgroundMesh, build_structured_mesh, refine_uniform
from tests.oracles import line_levelset

BOX = ((-1.1, -1.1), (1.1, 1.1))


def _classes_by_loops(mesh, dls):
    """The element and face classes of ``build_cut_topology`` by plain
    loops over the elements and the faces: an element is bulk where its
    smallest vertex value is negative, and cut where it is bulk and its
    largest vertex value is positive."""
    bulk, cut = set(), set()
    for e, tri in enumerate(mesh.elements):
        values = [float(dls[v]) for v in tri]
        if min(values) < 0.0:
            bulk.add(e)
            if max(values) > 0.0:
                cut.add(e)
    bulk_faces, ghost_faces, surface_faces = [], [], []
    for f, (a, b) in enumerate(mesh.faces.elements.tolist()):
        if a in bulk and b in bulk:
            bulk_faces.append(f)
            if a in cut or b in cut:
                ghost_faces.append(f)
        if a in cut and b in cut:
            surface_faces.append(f)
    return {"active_bulk": sorted(bulk), "active_surface": sorted(cut),
            "uncut_bulk": sorted(bulk - cut), "bulk_faces": bulk_faces,
            "bulk_ghost_faces": ghost_faces, "surface_faces": surface_faces}


def _assert_classes_equal_loops(topo, mesh, dls):
    for name, expected in _classes_by_loops(mesh, dls).items():
        actual = getattr(topo, name)
        assert actual.dtype == np.int64, name
        assert actual.tolist() == expected, name


def test_circle_distance_values():
    ls = circle_levelset()
    assert ls.rho(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert ls.rho(np.array([0.0, 0.0])) == pytest.approx(-1.0)


def test_closest_point_circle():
    closest_point = circle_levelset().closest_point
    assert closest_point(np.array([2.0, 0.0])) == pytest.approx([1.0, 0.0])
    assert closest_point(np.array([0.0, 0.5])) == pytest.approx([0.0, 1.0])
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(64, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    proj = closest_point(pts)
    assert np.linalg.norm(proj, axis=1) == pytest.approx(
        np.ones(len(proj)), abs=1e-12)
    with pytest.raises(ValueError):
        closest_point(np.array([0.0, 0.0]))


def test_closest_point_properties_of_levelset():
    ls = circle_levelset()
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    pts = pts[np.abs(ls.rho(pts)) < 0.9]
    proj = ls.closest_point(pts)
    assert np.max(np.abs(ls.rho(proj))) < 1e-12
    assert np.linalg.norm(pts - proj, axis=1) == pytest.approx(
        np.abs(ls.rho(pts)), abs=1e-12)


def test_interpolation_and_snapping():
    mesh = build_structured_mesh(((0.0, 0.0), (2.0, 2.0)), 2)
    ls = circle_levelset()
    dls = interpolate_levelset(ls, mesh)
    vid = {tuple(np.round(v, 12)): i for i, v in enumerate(mesh.vertices)}
    assert dls[vid[(2.0, 0.0)]] == pytest.approx(1.0)
    assert dls[vid[(0.0, 0.0)]] == pytest.approx(-1.0)
    # vertex (1, 0) lies exactly on the circle: snapped to -1e-10 h
    assert SNAP_FACTOR == 1e-10
    assert dls[vid[(1.0, 0.0)]] == -SNAP_FACTOR * mesh.h
    assert np.all(dls != 0.0)


def test_classification_sign_patterns():
    mesh = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 1)
    # element 0 has vertices 0, 1, 2; element 1 has vertices 1, 3, 2
    cases = [
        (np.array([-1.0, -1.0, -1.0, -1.0]), None, None),  # uncut: error
        (np.array([-1.0, 1.0, 1.0, 1.0]), {0}, {0}),
        (np.array([1.0, 1.0, 1.0, 1.0]), None, None),  # empty: error
        (np.array([-1.0, -1.0, -1.0, 1.0]), {0, 1}, {1}),
    ]
    for values, bulk, cut in cases:
        if bulk is None:
            with pytest.raises(ConfigurationError):
                build_cut_topology(mesh, values)
            continue
        topo = build_cut_topology(mesh, values)
        assert set(topo.active_bulk) == bulk
        assert set(topo.active_surface) == cut
        assert set(topo.active_surface) <= set(topo.active_bulk)


def test_face_sets_on_circle():
    """On the circle and on a position the default box clips (level 0,
    delta 0.75), every class equals that of the plain loops."""
    clipped = mesh_at_level(0, 8, DEFAULT_BOX)
    for mesh, ls in ((build_structured_mesh(BOX, 8), circle_levelset()),
                     (clipped, shifted_circle(clipped, 0.75))):
        dls = interpolate_levelset(ls, mesh)
        topo = build_cut_topology(mesh, dls)
        _assert_classes_equal_loops(topo, mesh, dls)
        bulk_set = set(topo.active_bulk)
        cut_set = set(topo.active_surface)
        for f in topo.bulk_faces:
            assert set(mesh.faces.elements[f]) <= bulk_set
        for f in topo.bulk_ghost_faces:
            assert set(mesh.faces.elements[f]) <= bulk_set
            assert set(mesh.faces.elements[f]) & cut_set
        for f in topo.surface_faces:
            assert set(mesh.faces.elements[f]) <= cut_set
        assert set(topo.bulk_ghost_faces) <= set(topo.bulk_faces)
        assert set(topo.surface_faces) <= set(topo.bulk_faces)


def test_single_element_segment_oracle():
    # triangle (0,0), (1,0), (0,1) with values (-1, 1, 1): the zeros sit at
    # the edge midpoints (0.5, 0) and (0, 0.5)
    mesh = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 1)
    surf = build_cut_topology(mesh, np.array([-1.0, 1.0, 1.0, 3.0])).surface
    assert surf.n_segments == 1
    pts = {tuple(p) for p in surf.points[0]}
    assert pts == {(0.5, 0.0), (0.0, 0.5)}
    assert surf.length[0] == pytest.approx(np.sqrt(2.0) / 2.0)
    assert surf.normal[0] == pytest.approx(np.ones(2) / np.sqrt(2.0))
    assert surf.normal[0] @ (np.array([1.0, 1.0])) > 0  # towards positive side


def test_circle_chain_is_closed_and_watertight():
    mesh = refine_uniform(build_structured_mesh(BOX, 8))
    dls = interpolate_levelset(circle_levelset(), mesh)
    surf = build_cut_topology(mesh, dls).surface
    # closed chain: every endpoint is shared by exactly two segments
    assert surf.n_edges == surf.n_segments
    counts = np.zeros(surf.n_segments, dtype=int)
    for sa, sb in surf.edge_segments:
        counts[sa] += 1
        counts[sb] += 1
    assert np.all(counts == 2)
    # shared endpoints are bit-identical copies of the segment endpoints
    for k in range(surf.n_edges):
        for s in surf.edge_segments[k]:
            match = [np.array_equal(surf.points[s, e], surf.edge_point[k])
                     for e in range(2)]
            assert any(match)
    assert np.all(surf.length > 0.0)
    assert np.linalg.norm(surf.normal, axis=1) == pytest.approx(
        np.ones(surf.n_segments), abs=1e-14)
    # normals are perpendicular to their segments
    tangents = surf.points[:, 1] - surf.points[:, 0]
    dots = np.einsum("sd,sd->s", tangents, surf.normal)
    assert np.max(np.abs(dots)) < 1e-14
    # co-normals are unit and tangent to their segments
    for k in range(surf.n_edges):
        for side, s in enumerate(surf.edge_segments[k]):
            c = surf.edge_conormals[k, side]
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
            t = tangents[s] / np.linalg.norm(tangents[s])
            assert abs(abs(c @ t) - 1.0) < 1e-12


def test_line_through_vertices_gives_one_segment_per_cut_element():
    """The line x + 2y = 1 runs through three vertices of the 4x4 unit
    mesh; the snap moves each of them just inside the bulk. Each cut
    element still gets one segment, four of them shorter than 1e-9 h
    around the snapped vertices, and the segments form one open chain
    whose shared endpoints are bit-identical."""
    mesh = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 4)
    n = np.array([1.0, 2.0]) / np.sqrt(5.0)
    values = interpolate_levelset(line_levelset(n, n[0]), mesh)
    on = np.flatnonzero(values == -SNAP_FACTOR * mesh.h)
    assert np.array_equal(mesh.vertices[on], [[1.0, 0.0], [0.5, 0.25],
                                              [0.0, 0.5]])
    topo = build_cut_topology(mesh, values)
    _assert_classes_equal_loops(topo, mesh, values)
    surf = topo.surface
    assert surf.n_segments == topo.active_surface.size == 8
    assert np.all(surf.length > 0.0)
    assert np.sum(surf.length < 1e-9 * mesh.h) == 4
    dist = (surf.points @ n - n[0]) / mesh.h
    assert np.max(np.abs(dist)) < 2.0 * SNAP_FACTOR
    # one open chain from boundary to boundary
    assert surf.n_edges == 7
    for k, segments in enumerate(surf.edge_segments):
        for s in segments:
            assert np.any(np.all(surf.points[s] == surf.edge_point[k],
                                 axis=1))


def test_extraction_error_paths():
    """A segment shorter than 1e-14 h, and a mesh edge of three elements
    (which reading the mesh faces rejects before the surface crosses
    it)."""
    mesh = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 1)
    tiny = np.array([-1e-17, 1.0, 1.0, 1.0])
    with pytest.raises(StructuralError, match="degenerate surface segment"):
        build_cut_topology(mesh, tiny)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                         [-1.0, 1.0]])
    fan = np.array([[0, 1, 2], [0, 2, 4], [0, 3, 2]])
    bad = BackgroundMesh(vertices, fan, 1.0, (1.0, 1.0))
    with pytest.raises(StructuralError,
                       match=r"non-manifold face \(0, 2\) with 3"):
        build_cut_topology(bad, np.array([-1.0, 1.0, 1.0, 1.0, 1.0]))


def _unit4():
    return build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 4)


def _bumped(mesh):
    x, y = mesh.vertices.T
    values = x - 0.5
    values[(x == 0.5) & (y == 0.5)] = 0.1
    return values


def _saddle(mesh):
    x, y = mesh.vertices.T
    return (x - y / 3.0) * (x + y / 2.0)


def _circle_with(value):
    """The unit circle on the level-1 default mesh, ``value`` at vertex
    88, a vertex of its first cut element."""
    def values(mesh):
        dls = interpolate_levelset(circle_levelset(), mesh)
        vals = dls[mesh.elements]
        cut = (vals.min(axis=1) < 0.0) & (vals.max(axis=1) > 0.0)
        assert 88 in mesh.elements[np.flatnonzero(cut)[0]]
        dls[88] = value
        return dls
    return values


@pytest.mark.parametrize("make_mesh, values, vertex", [
    # x + 2y = 1 through (1, 0), (0.5, 0.25) and (0, 0.5)
    (_unit4, lambda mesh: mesh.vertices @ [1.0, 2.0] - 1.0, 4),
    # a saddle of the interpolant at (0, 0), also zero at (0.5, -1)
    (lambda: build_structured_mesh(((-1.0, -1.0), (1.0, 1.0)), 4),
     _saddle, 3),
    # zero along the mesh edges of x = 0.5, and around a bumped vertex
    (_unit4, lambda mesh: mesh.vertices[:, 0] - 0.5, 2),
    (_unit4, _bumped, 2),
    # zero along the box boundary x = 1
    (_unit4, lambda mesh: mesh.vertices[:, 0] - 1.0, 4),
    *[(lambda: mesh_at_level(1), _circle_with(v), 88)
      for v in (np.nan, np.inf, -np.inf)],
], ids=["line", "saddle", "on-edges", "bumped", "boundary-line", "nan",
        "inf", "-inf"])
def test_vertex_value_zero_or_not_finite_raises(make_mesh, values, vertex):
    """A vertex value that is zero, NaN or infinite is refused, naming the
    first such vertex, before the mesh faces are built."""
    mesh = make_mesh()
    values = values(mesh)
    with pytest.raises(StructuralError, match=(
            rf"vertex {vertex} has level-set value {values[vertex]}: every "
            "vertex value must be finite and nonzero")):
        build_cut_topology(mesh, values)
    assert "faces" not in mesh.__dict__


def test_surface_state_refuses_a_nan_level_set():
    """A level set that is NaN at the vertex nearest the circle passes the
    snap, and ``SurfaceState`` refuses it instead of assembling."""
    mesh = mesh_at_level(1)
    circle = circle_levelset()
    nearest = np.argmin(np.abs(circle.rho(mesh.vertices)))

    def rho(x):
        at = np.all(x == mesh.vertices[nearest], axis=-1)
        return np.where(at, np.nan, circle.rho(x))

    with pytest.raises(StructuralError, match=f"vertex {nearest} has "
                       "level-set value nan"):
        SurfaceState(mesh, replace(circle, rho=rho), StabilizationParams())


UNIT4 = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 4)


@pytest.mark.parametrize("mesh, values", [
    # the snapped line x = 1 on the box boundary: every vertex is negative
    (UNIT4, interpolate_levelset(line_levelset((1.0, 0.0), 1.0), UNIT4)),
    # a circle of radius 10 around the whole box
    (build_structured_mesh(BOX, 8), None),
], ids=["snapped-boundary-line", "big-circle"])
def test_surface_the_mesh_does_not_carry_raises(mesh, values):
    """The mesh carries bulk elements but no cut one, so no part of the
    surface: the topology is refused instead of assembling a system
    without a surface block."""
    if values is None:
        values = interpolate_levelset(circle_levelset(radius=10.0), mesh)
    assert np.any(values[mesh.elements].min(axis=1) < 0.0)
    with pytest.raises(ConfigurationError,
                       match="surface misses the background box"):
        build_cut_topology(mesh, values)


def test_translation_sweep_never_breaks_extraction():
    mesh = build_structured_mesh(BOX, 8)
    cell = np.asarray(mesh.cell)
    for delta in np.linspace(0.0, 1.0, 51):
        ls = circle_levelset(center=delta * cell)
        dls = interpolate_levelset(ls, mesh)
        topo = build_cut_topology(mesh, dls)
        surf = topo.surface
        assert surf.n_segments > 0
        assert np.all(surf.length > 0.0)
        assert np.linalg.norm(surf.normal, axis=1) == pytest.approx(
            np.ones(surf.n_segments), abs=1e-12)


def test_geometry_assumption_bounds_and_rates():
    ls = circle_levelset()
    mesh = build_structured_mesh(BOX, 8)
    sups, sdevs, hs, lengths = [], [], [], []
    for _ in range(4):
        dls = interpolate_levelset(ls, mesh)
        topo = build_cut_topology(mesh, dls)
        sup_dist, sup_dev = check_geometry_assumptions(ls, topo)
        # local interpolation-error bound at the sampled points
        assert sup_dist <= mesh.h ** 2 / 2.0
        sups.append(sup_dist)
        sdevs.append(sup_dev)
        hs.append(mesh.h)
        lengths.append(topo.surface.length.sum())
        mesh = refine_uniform(mesh)
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert slope >= 1.8
    dev_slope = np.polyfit(np.log(hs), np.log(sdevs), 1)[0]
    assert dev_slope >= 0.8
    length_err = np.abs(2.0 * np.pi - np.asarray(lengths))
    assert np.polyfit(np.log(hs), np.log(length_err), 1)[0] >= 1.8


def test_exact_line_levelset_is_reproduced():
    ls = line_levelset((0.0, 1.0), 0.031)
    mesh = build_structured_mesh(BOX, 9)
    for _ in range(3):
        dls = interpolate_levelset(ls, mesh)
        topo = build_cut_topology(mesh, dls)
        sup_dist, sup_dev = check_geometry_assumptions(ls, topo)
        assert sup_dist < 1e-13
        assert sup_dev < 1e-13
        mesh = refine_uniform(mesh)


def test_validity_radius_violation_raises():
    mesh = build_structured_mesh(BOX, 8)
    ls = circle_levelset()
    dls = interpolate_levelset(ls, mesh)
    topo = build_cut_topology(mesh, dls)
    tiny = circle_levelset()
    tiny = type(tiny)(rho=tiny.rho, closest_point=tiny.closest_point,
                      normal=tiny.normal, validity_radius=1e-9)
    with pytest.raises(ValueError):
        check_geometry_assumptions(tiny, topo)
