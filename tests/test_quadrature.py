import numpy as np
import pytest

from cutdg.exceptions import StructuralError
from cutdg.levelset import (build_cut_topology, circle_levelset,
                            interpolate_levelset)
from cutdg.mesh import build_structured_mesh, element_areas, refine_uniform
from cutdg.quadrature import (CutQuadrature, clip_element_rules,
                              segment_rules, triangle_reference_rule)
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
    """Every sign pattern, exact zeros included: each triangle with a
    negative part is in the batch with the per-element points and weights
    first, bit for bit, and exactly zero padding weights after them; one
    without a negative part is not in the batch."""
    rng = np.random.default_rng(11)
    tris = rng.uniform(-1.0, 1.0, size=(400, 3, 2))
    values = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=(400, 3)) \
        * rng.uniform(0.5, 1.5, size=(400, 3))
    batch = clip_element_rules(tris, values, degree)
    m = 2 * triangle_reference_rule(degree)[1].size
    assert batch.points.shape == (batch.index.size, m, 2)
    padded = 0
    for k, i in enumerate(batch.index):
        rule = clip_element_rule(tris[i], values[i], degree)
        n = rule.weights.size
        assert rule.points.tobytes() == batch.points[k, :n].tobytes()
        assert rule.weights.tobytes() == batch.weights[k, :n].tobytes()
        assert np.all(batch.weights[k, n:] == 0.0)
        assert rule.total_weight == batch.weights[k, :n].sum()
        padded += n < m
    seen = np.zeros(400, dtype=bool)
    seen[batch.index] = True
    for i in np.flatnonzero(~seen):
        assert clip_element_rule(tris[i], values[i], degree).weights.size == 0
    assert 0 < (~seen).sum() < 400 and 0 < padded < batch.index.size


def test_batched_segment_rules_equal_the_per_segment_rules():
    rng = np.random.default_rng(5)
    p0, p1 = rng.uniform(-1.0, 1.0, size=(2, 300, 2))
    batch = segment_rules(p0, p1, degree=4)
    for k in range(300):
        rule = surface_segment_rule(p0[k], p1[k], degree=4)
        assert rule.points.tobytes() == batch.points[k].tobytes()
        assert rule.weights.tobytes() == batch.weights[k].tobytes()
    p1[7] = p0[7]
    with pytest.raises(StructuralError, match="degenerate surface segment"):
        segment_rules(p0, p1)


@pytest.mark.parametrize("degree", [2, 4])
def test_uncut_rule_is_the_reference_rule_on_the_uncut_elements(degree):
    mesh = build_structured_mesh(BOX, 8)
    dls = interpolate_levelset(circle_levelset(), mesh)
    cq = CutQuadrature(mesh, dls, build_cut_topology(mesh, dls), degree)
    uncut = cq.split[0]
    bary, wref = triangle_reference_rule(degree)
    rules, phi = cq.uncut
    assert uncut.size and rules.points.shape == (uncut.size, bary.shape[0], 2)
    assert np.array_equal(rules.index, np.arange(uncut.size))
    tris = mesh.vertices[mesh.elements[uncut]]
    np.testing.assert_allclose(rules.points,
                               np.einsum("mb,kbd->kmd", bary, tris),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(rules.weights.sum(axis=1),
                               element_areas(mesh)[uncut], rtol=1e-14)
    # the basis values are the barycentric table itself, not evaluated
    assert phi.shape == (uncut.size,) + bary.shape
    assert np.array_equal(phi, np.broadcast_to(bary, phi.shape))
