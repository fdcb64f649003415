import numpy as np
import pytest

from cutdg.exceptions import StructuralError
from cutdg.experiments import DEFAULT_BOX, mesh_at_level
from cutdg.levelset import (build_cut_topology, circle_levelset,
                            interpolate_levelset)
from cutdg.mesh import build_structured_mesh, element_areas, refine_uniform
from cutdg.quadrature import (CutQuadrature, _gauss_unit, clip_element_rules,
                              triangle_reference_rule)
from tests.oracles import (clip_element_rule, cut_monomial_pairs,
                           negative_polygon, random_cut_triangles,
                           surface_segment_rule)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
BOX = ((-1.1, -1.1), (1.1, 1.1))


def _cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def _exact_ref_monomial(a, b):
    # int over the reference triangle of x^a y^b = a! b! / (a + b + 2)!
    from math import factorial
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [2, 4])
def test_reference_triangle_rules_are_exact(degree):
    bary, w = triangle_reference_rule(degree)
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    pts = bary @ REF
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
            assert val == pytest.approx(_exact_ref_monomial(a, b), rel=1e-13)


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_untabulated_triangle_degrees_raise(degree):
    with pytest.raises(ValueError, match=f"degree {degree}"):
        triangle_reference_rule(degree)


def test_surface_segment_rule():
    rule = surface_segment_rule((0.5, 0.0), (0.0, 0.5), degree=2)
    assert rule.total_weight == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-14)
    rule = surface_segment_rule((0.0, 0.0), (1.0, 0.0), degree=1)
    assert rule.weights @ rule.points[:, 0] == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(StructuralError):
        surface_segment_rule((0.3, 0.3), (0.3, 0.3))


def test_clip_examples():
    assert clip_element_rule(REF, [-1.0, -1.0, -1.0]).total_weight == \
        pytest.approx(0.5, rel=1e-14)
    assert clip_element_rule(REF, [-1.0, 1.0, 1.0]).total_weight == \
        pytest.approx(1.0 / 8.0, rel=1e-14)
    assert clip_element_rule(REF, [1.0, -1.0, -1.0]).total_weight == \
        pytest.approx(3.0 / 8.0, rel=1e-14)
    assert clip_element_rule(REF, [1.0, 1.0, 1.0]).weights.size == 0


def test_clip_weights_positive():
    rng = np.random.default_rng(7)
    for _ in range(100):
        tri = rng.uniform(-1, 1, size=(3, 2))
        if _cross2(tri[1] - tri[0], tri[2] - tri[0]) < 1e-3:
            continue
        vals = rng.uniform(-1, 1, size=3)
        rule = clip_element_rule(tri, vals)
        assert np.all(rule.weights > 0.0) or rule.weights.size == 0


def test_partition_property():
    rng = np.random.default_rng(42)
    for _ in range(200):
        tri = rng.uniform(-2, 2, size=(3, 2))
        area = 0.5 * abs(_cross2(tri[1] - tri[0], tri[2] - tri[0]))
        if area < 1e-3:
            continue
        vals = rng.uniform(-1, 1, size=3)
        vals[np.abs(vals) < 1e-12] = -1e-12
        inside = clip_element_rule(tri, vals).total_weight
        outside = clip_element_rule(tri, -vals).total_weight
        assert inside + outside == pytest.approx(area, rel=1e-12)


def test_disk_area_converges_quadratically():
    mesh = build_structured_mesh(BOX, 4)
    ls = circle_levelset()
    errors, hs = [], []
    for _ in range(4):
        dls = interpolate_levelset(ls, mesh)
        total = 0.0
        for e in range(mesh.n_elements):
            tri = mesh.vertices[mesh.elements[e]]
            total += clip_element_rule(tri, dls[mesh.elements[e]]).total_weight
        errors.append(abs(np.pi - total))
        hs.append(mesh.h)
        mesh = refine_uniform(mesh)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert slope >= 1.8


def test_monomial_oracle_on_random_cut_triangles():
    tris, values = random_cut_triangles(np.random.default_rng(2024), 50)
    pairs = cut_monomial_pairs(tris, values, degree=2)
    assert len(pairs) == 50 * 6
    for approx, exact in pairs:
        assert approx == pytest.approx(exact, rel=1e-6, abs=1e-12)


def test_negative_polygon_shapes():
    assert negative_polygon(REF, [-1.0, -1.0, -1.0]).shape == (3, 2)
    assert negative_polygon(REF, [-1.0, 1.0, 1.0]).shape == (3, 2)
    assert negative_polygon(REF, [-1.0, -1.0, 1.0]).shape == (4, 2)
    assert negative_polygon(REF, [1.0, 1.0, 1.0]).shape == (0, 2)


@pytest.mark.parametrize("degree", [2, 4])
def test_batched_clip_rules_equal_the_per_element_rules(degree):
    """Every sign pattern, exact zeros included: row k of the batch holds
    the per-element points and weights of triangle k first, bit for bit,
    and exactly zero padding weights after them, so a triangle without a
    negative part gets an all-zero row."""
    rng = np.random.default_rng(11)
    tris = rng.uniform(-1.0, 1.0, size=(400, 3, 2))
    values = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=(400, 3)) \
        * rng.uniform(0.5, 1.5, size=(400, 3))
    batch = clip_element_rules(tris, values, degree)
    m = 2 * triangle_reference_rule(degree)[1].size
    assert batch.points.shape == (400, m, 2)
    padded = empty = 0
    for k in range(400):
        rule = clip_element_rule(tris[k], values[k], degree)
        n = rule.weights.size
        assert rule.points.tobytes() == batch.points[k, :n].tobytes()
        assert rule.weights.tobytes() == batch.weights[k, :n].tobytes()
        assert np.all(batch.weights[k, n:] == 0.0)
        assert rule.total_weight == batch.weights[k, :n].sum()
        padded += 0 < n < m
        empty += n == 0
    assert 0 < empty < 400 and 0 < padded < 400 - empty


def test_batched_segment_rules_equal_the_per_segment_rules():
    mesh = mesh_at_level(1)
    dls = interpolate_levelset(circle_levelset(), mesh)
    topo = build_cut_topology(mesh, dls)
    rules = CutQuadrature(mesh, dls, topo, 4).segments[0]
    points = topo.surface.points
    assert points.shape[0] > 50
    for k, (p0, p1) in enumerate(points):
        rule = surface_segment_rule(p0, p1, degree=4)
        assert rule.points.tobytes() == rules.points[k].tobytes()
        assert rule.weights.tobytes() == rules.weights[k].tobytes()


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("shift", [0.0, 0.37], ids=["default-box",
                                                    "shifted-box"])
def test_segment_weights_read_the_one_segment_length(degree, shift):
    """Every rule weight of a segment is a Gauss weight times the segment's
    ``length``, the one the tangential stiffness and the length sums read,
    bit for bit at levels 0-5; the box moves by ``shift`` of a level-0
    cell."""
    (x0, y0), (x1, y1) = DEFAULT_BOX
    step = shift * (x1 - x0) / 8
    box = ((x0 + step, y0 + step), (x1 + step, y1 + step))
    w = _gauss_unit(degree)[1]
    for level in range(6):
        mesh = mesh_at_level(level, 8, box)
        dls = interpolate_levelset(circle_levelset(), mesh)
        cq = CutQuadrature(mesh, dls, build_cut_topology(mesh, dls), degree)
        length = cq.topo.surface.length
        assert np.array_equal(cq.segments[0].weights,
                              w[None, :] * length[:, None])


@pytest.mark.parametrize("degree", [2, 4])
def test_uncut_rule_is_the_reference_rule_on_the_uncut_elements(degree):
    mesh = build_structured_mesh(BOX, 8)
    dls = interpolate_levelset(circle_levelset(), mesh)
    cq = CutQuadrature(mesh, dls, build_cut_topology(mesh, dls), degree)
    uncut = cq.topo.uncut_bulk
    bary, wref = triangle_reference_rule(degree)
    # at level 0 all uncut elements form the first chunk
    elements, (rules, phi) = next(cq.bulk_rules())
    assert np.array_equal(elements, uncut)
    assert uncut.size and rules.points.shape == (uncut.size, bary.shape[0], 2)
    tris = mesh.vertices[mesh.elements[uncut]]
    np.testing.assert_allclose(rules.points,
                               np.einsum("mb,kbd->kmd", bary, tris),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(rules.weights.sum(axis=1),
                               element_areas(tris), rtol=1e-14)
    # the basis values are the barycentric table itself, not evaluated
    assert phi.shape == (uncut.size,) + bary.shape
    assert np.array_equal(phi, np.broadcast_to(bary, phi.shape))
