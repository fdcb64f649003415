import numpy as np
import pytest

from cutdg.experiments import SurfaceState
from cutdg.forms import (PENALTY_WEIGHTS, StabilizationParams, coupling_form,
                         ghost, ghost_pieces, load_vector, property_grams,
                         surface_form)
from cutdg.levelset import (CutTopology, SurfaceGeometry,
                            build_cut_topology, circle_levelset)
from cutdg.manufactured import build_circle_problem
from cutdg.mesh import BackgroundMesh, build_structured_mesh, refine_uniform
from cutdg.quadrature import CutQuadrature
from cutdg.solver import solve
from cutdg.space import build_spaces, interpolate_pair
from tests.oracles import bulk_matrix, clip_element_rule, line_levelset

BOX = ((-1.1, -1.1), (1.1, 1.1))
PARAMS = StabilizationParams()


_EVERY_PARAM = pytest.mark.parametrize(
    "name", ["c_bulk", "c_surf", "gamma_bulk", "gamma_surf", "mu_bulk",
             "mu_surf", "tau_bulk", "tau_surf"])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@_EVERY_PARAM
def test_stabilization_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        StabilizationParams(**{name: value})


@pytest.mark.parametrize("value", [0.0, -1.0])
@_EVERY_PARAM
def test_stabilization_params_reject_values_out_of_range(name, value):
    """A coupling constant must be positive. A penalty weight may be zero,
    which is how a configuration switches a ghost penalty off, but not
    negative."""
    if name in PENALTY_WEIGHTS and value == 0.0:
        assert getattr(StabilizationParams(**{name: value}), name) == 0.0
        return
    message = (f"penalty weight {name} must be >= 0" if name in
               PENALTY_WEIGHTS else "coupling constants must be positive")
    with pytest.raises(ValueError, match=message):
        StabilizationParams(**{name: value})


def _circle_setup(n=8):
    return SurfaceState(build_structured_mesh(BOX, n), circle_levelset(),
                        PARAMS)


def _uncut_pair():
    """Two-triangle mesh fully inside the bulk domain. It carries no
    surface, which ``build_cut_topology`` refuses, so its topology is
    built by hand: both elements are bulk and uncut, their one face is
    bulk, and the surface has no segment and no edge."""
    mesh = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 1)
    dls = -np.ones(4)
    none = np.zeros(0, dtype=np.int64)
    empty = SurfaceGeometry(np.zeros((0, 2, 2)), np.zeros((0, 2)),
                            np.zeros((0, 2)),
                            np.zeros((0, 2), dtype=np.int64),
                            np.zeros((0, 2, 2)))
    topo = CutTopology(np.arange(2), none, np.arange(2), np.arange(1), none,
                       none, empty)
    return mesh, dls, topo, build_spaces(mesh, topo)


def _ghosts(cq, dofmap):
    """Bulk and surface ghost penalties at the default weights."""
    pieces = ghost_pieces(cq, dofmap)
    return ghost(pieces, PARAMS, "bulk"), ghost(pieces, PARAMS, "surf")


def _cut_volume(state, f, degree=4):
    mesh, dls, topo = state.mesh, state.dls, state.topo
    total = 0.0
    for e in topo.active_bulk:
        tri = mesh.vertices[mesh.elements[e]]
        rule = clip_element_rule(tri, dls[mesh.elements[e]], degree)
        if rule.weights.size:
            total += rule.weights @ f(rule.points)
    return total


def test_bulk_form_constant_gives_cut_area():
    state = _circle_setup()
    a = bulk_matrix(state.cq, state.dofmap, PARAMS)
    ones = np.zeros(state.dofmap.ndof)
    ones[:state.dofmap.bulk.ndof] = 1.0
    area = _cut_volume(state, lambda p: np.ones(len(p)))
    assert ones @ (a @ ones) == pytest.approx(area, rel=1e-12)


def test_bulk_form_linear_matches_clip_integration():
    state = _circle_setup()
    a = bulk_matrix(state.cq, state.dofmap, PARAMS)
    vx = interpolate_pair(state.dofmap, state.mesh, lambda p: p[..., 0],
                          lambda p: np.zeros(p.shape[:-1]))
    expected = _cut_volume(state, lambda p: 1.0 + p[:, 0] ** 2)
    assert vx @ (a @ vx) == pytest.approx(expected, rel=1e-12)


def _simpson_line(f, pa, pb):
    """Simpson rule along a segment; exact for quadratics, independent of
    the Gauss rules used by the assembly."""
    pa, pb = np.asarray(pa), np.asarray(pb)
    mid = 0.5 * (pa + pb)
    length = np.linalg.norm(pb - pa)
    return length * (f(pa) + 4.0 * f(mid) + f(pb)) / 6.0


def test_uncut_pair_reproduces_hand_assembled_sip_matrix():
    mesh, dls, topo, dofmap = _uncut_pair()
    a = bulk_matrix(CutQuadrature(mesh, dls, topo), dofmap, PARAMS).toarray()
    h = mesh.h
    gamma = PARAMS.gamma_bulk

    # hand-built local bases: mesh elements are (0,1,2) and (1,3,2) on the
    # unit square split along the (1,0)-(0,1) diagonal
    basis = {
        0: [lambda x, y: 1.0 - x - y, lambda x, y: x, lambda x, y: y],
        1: [lambda x, y: 1.0 - y, lambda x, y: -1.0 + x + y,
            lambda x, y: 1.0 - x],
    }
    grads = {
        0: np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        1: np.array([[0.0, -1.0], [1.0, 1.0], [-1.0, 0.0]]),
    }
    tris = {0: mesh.vertices[mesh.elements[0]],
            1: mesh.vertices[mesh.elements[1]]}

    def tri_quad(e, f):
        # edge-midpoint rule, exact for quadratics, area 1/2
        t = tris[e]
        mids = [(t[0] + t[1]) / 2, (t[1] + t[2]) / 2, (t[2] + t[0]) / 2]
        return 0.5 * sum(f(*m) for m in mids) / 3.0

    hand = np.zeros((6, 6))
    for e in (0, 1):
        for i in range(3):
            for j in range(3):
                val = tri_quad(e, lambda x, y: basis[e][i](x, y)
                               * basis[e][j](x, y))
                val += 0.5 * grads[e][i] @ grads[e][j]
                hand[3 * e + i, 3 * e + j] += val
    pa, pb = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)

    def jump(k):
        e, i = divmod(k, 3)
        sign = 1.0 if e == 0 else -1.0
        return lambda p: sign * basis[e][i](p[0], p[1])

    flux = np.array([0.5 * (n @ grads[0][i]) for i in range(3)]
                    + [0.5 * (n @ grads[1][i]) for i in range(3)])
    for k in range(6):
        for m in range(6):
            pen = _simpson_line(lambda p: jump(k)(p) * jump(m)(p), pa, pb)
            hand[k, m] += gamma / h * pen
            jump_int_m = _simpson_line(jump(m), pa, pb)
            jump_int_k = _simpson_line(jump(k), pa, pb)
            hand[k, m] += -flux[k] * jump_int_m - flux[m] * jump_int_k

    order = dofmap.bulk.dofs_array(np.arange(2)).ravel()
    assert a[np.ix_(order, order)] == pytest.approx(hand, abs=1e-13)


def test_surface_form_constant_gives_surface_length():
    state = _circle_setup()
    topo, dofmap = state.topo, state.dofmap
    a = surface_form(state.cq, dofmap, PARAMS)
    ones = np.zeros(dofmap.ndof)
    ones[dofmap.bulk.ndof:] = 1.0
    assert ones @ (a @ ones) == pytest.approx(topo.surface.length.sum(),
                                              rel=1e-12)


def test_tangential_stiffness_on_straight_surface():
    mesh = build_structured_mesh(BOX, 9)
    state = SurfaceState(mesh, line_levelset((0.0, 1.0), 0.03), PARAMS)
    topo, dofmap, cq = state.topo, state.dofmap, state.cq
    g = property_grams(cq, dofmap, PARAMS,
                       ghost_pieces(cq, dofmap))["tangential"]
    vx = interpolate_pair(dofmap, mesh, lambda p: np.zeros(p.shape[:-1]),
                          lambda p: p[..., 0])
    assert vx @ (g @ vx) == pytest.approx(topo.surface.length.sum(),
                                          rel=1e-12)


def test_continuous_linear_kills_edge_terms():
    state = _circle_setup()
    mesh, dofmap, cq = state.mesh, state.dofmap, state.cq
    a = surface_form(cq, dofmap, PARAMS)
    tangential = property_grams(cq, dofmap, PARAMS,
                                ghost_pieces(cq, dofmap))["tangential"]

    def linear(p):
        return 0.4 + p[..., 0] - 2.0 * p[..., 1]

    v = interpolate_pair(dofmap, mesh, lambda p: np.zeros(p.shape[:-1]),
                         linear)
    rules, _ = cq.segments
    mass = np.sum(rules.weights * linear(rules.points) ** 2)
    assert v @ (a @ v) == pytest.approx(v @ (tangential @ v) + mass,
                                        rel=1e-12)


def test_coupling_form_values():
    state = _circle_setup()
    c = coupling_form(state.cq, state.dofmap, PARAMS)
    length = state.topo.surface.length.sum()
    bulk_one = np.zeros(state.dofmap.ndof)
    bulk_one[:state.dofmap.bulk.ndof] = 1.0
    assert bulk_one @ (c @ bulk_one) == pytest.approx(length, rel=1e-12)
    both = np.ones(state.dofmap.ndof)
    assert both @ (c @ both) == pytest.approx(0.0, abs=1e-12 * length)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(state.dofmap.ndof)
        assert v @ (c @ v) >= -1e-12 * np.abs(c).max()


def _single_ghost_face_setup():
    """Unit-square pair where both triangles are cut, so the shared
    diagonal is the single bulk ghost face (and surface face)."""
    mesh = build_structured_mesh(((0.0, 0.0), (1.0, 1.0)), 1)
    dls = np.array([-1.0, 0.5, 0.5, -0.5])
    topo = build_cut_topology(mesh, dls)
    return mesh, dls, topo, build_spaces(mesh, topo)


def test_ghost_single_face_closed_forms():
    mesh, dls, topo, dofmap = _single_ghost_face_setup()
    assert topo.bulk_ghost_faces.size == 1
    length = np.sqrt(2.0)
    jb, js = _ghosts(CutQuadrature(mesh, dls, topo), dofmap)
    v = np.zeros(dofmap.ndof)
    v[dofmap.bulk.dofs_array([0])] = 1.0  # one on element 0, zero elsewhere
    assert v @ (jb @ v) == pytest.approx(
        PARAMS.mu_bulk / mesh.h * length, rel=1e-12)
    w = np.zeros(dofmap.ndof)
    w[dofmap.surface.dofs_array([0])] = 1.0
    assert w @ (js @ w) == pytest.approx(
        PARAMS.mu_surf / mesh.h ** 2 * length, rel=1e-12)


def test_surface_ghost_weight_scales_with_refinement():
    # the same unit value jump across the same-shape face: halving h
    # quadruples the h^-2 weight (and halves the face length)
    def unit_jump_value(box):
        mesh = build_structured_mesh(box, 1)
        dls = np.array([-1.0, 0.5, 0.5, -0.5])
        topo = build_cut_topology(mesh, dls)
        dofmap = build_spaces(mesh, topo)
        js = _ghosts(CutQuadrature(mesh, dls, topo), dofmap)[1]
        v = np.zeros(dofmap.ndof)
        v[dofmap.surface.dofs_array([0])] = 1.0
        return v @ (js @ v), mesh.h

    coarse, h = unit_jump_value(((0.0, 0.0), (1.0, 1.0)))
    fine, h_fine = unit_jump_value(((0.0, 0.0), (0.5, 0.5)))
    assert h_fine == h / 2
    assert coarse == pytest.approx(PARAMS.mu_surf / h ** 2 * np.sqrt(2.0),
                                   rel=1e-12)
    # weight x4, length x1/2: net factor 2
    assert fine == pytest.approx(2.0 * coarse, rel=1e-12)


def test_ghost_vanishes_on_affine_fields():
    state = _circle_setup()
    jb, js = _ghosts(state.cq, state.dofmap)
    lin = lambda p: 0.3 - 1.7 * p[..., 0] + 0.9 * p[..., 1]
    v = interpolate_pair(state.dofmap, state.mesh, lin, lin)
    scale = max(np.abs(jb).max(), np.abs(js).max())
    assert abs(v @ (jb @ v)) <= 1e-12 * scale
    assert abs(v @ (js @ v)) <= 1e-12 * scale


def test_ghost_empty_without_cut_elements():
    mesh, dls, topo, dofmap = _uncut_pair()
    assert topo.bulk_ghost_faces.size == 0
    jb = _ghosts(CutQuadrature(mesh, dls, topo), dofmap)[0]
    assert jb.nnz == 0 or np.abs(jb.toarray()).max() == 0.0


def test_rhs_partition_of_unity_sums():
    state = _circle_setup()
    topo, dofmap = state.topo, state.dofmap
    problem = build_circle_problem()
    one = lambda p: np.ones(p.shape[:-1])
    fake = type(problem)(**{**problem.__dict__, "f_bulk": one, "f_surf": one})
    b = load_vector(state.cq, dofmap, fake, PARAMS)
    area = _cut_volume(state, lambda p: np.ones(len(p)), degree=2)
    assert b[:dofmap.bulk.ndof].sum() == pytest.approx(area, rel=1e-12)
    assert b[dofmap.bulk.ndof:].sum() == pytest.approx(
        topo.surface.length.sum(), rel=1e-12)


def test_rhs_interior_element_load_oracle():
    state = _circle_setup()
    mesh, dls, topo, dofmap = state.mesh, state.dls, state.topo, state.dofmap
    problem = build_circle_problem()
    fx = lambda p: p[..., 0]
    fake = type(problem)(**{**problem.__dict__, "f_bulk": fx,
                            "f_surf": lambda p: np.zeros(p.shape[:-1])})
    b = load_vector(state.cq, dofmap, fake, PARAMS)
    # pick a fully interior element; the exact P1 load of f = x on a
    # triangle is area/12 * (2 x_i + x_j + x_k) for each vertex i
    vals = dls[mesh.elements[topo.active_bulk]]
    interior = topo.active_bulk[vals.max(axis=1) < 0.0][0]
    tri = mesh.vertices[mesh.elements[interior]]
    area = 0.5 * abs((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
                     - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0]))
    xs = tri[:, 0]
    expected = area / 12.0 * np.array([2 * xs[0] + xs[1] + xs[2],
                                       xs[0] + 2 * xs[1] + xs[2],
                                       xs[0] + xs[1] + 2 * xs[2]])
    assert b[dofmap.bulk.dofs_array([interior])[0]] == pytest.approx(
        expected, rel=1e-12)


def test_system_symmetry_and_additivity():
    state = _circle_setup()
    problem = build_circle_problem()
    system = state.system(problem)
    a = system.matrix
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
    # ablation switch honored: the system is an additive combination
    ablated = StabilizationParams(mu_surf=0.0, tau_bulk=0.0, tau_surf=0.0)
    sys_abl = SurfaceState(state.mesh, state.levelset, ablated).system(
        problem)
    pieces = state.pieces
    rebuilt = (sys_abl.matrix
               + PARAMS.tau_bulk * pieces["bulk"][1]
               + PARAMS.mu_surf * pieces["surf"][0]
               + PARAMS.tau_surf * pieces["surf"][1])
    assert np.abs(rebuilt - a).max() <= 1e-12 * np.abs(a).max()


def test_system_positive_definite_at_defaults():
    state = _circle_setup(6)
    system = state.system(build_circle_problem())
    eigs = np.linalg.eigvalsh(system.matrix.toarray())
    assert eigs.min() > 0.0
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = rng.standard_normal(state.dofmap.ndof)
        assert v @ (system.matrix @ v) >= 0.0


def test_energy_gram_values_and_psd():
    state = _circle_setup(6)
    g_total = property_grams(state.cq, state.dofmap, PARAMS,
                             state.pieces)["energy"]
    ones_bulk = np.zeros(state.dofmap.ndof)
    ones_bulk[:state.dofmap.bulk.ndof] = 1.0
    area = _cut_volume(state, lambda p: np.ones(len(p)), degree=2)
    length = state.topo.surface.length.sum()
    # jumps and ghosts vanish on constants; the coupling adds the length
    assert ones_bulk @ (g_total @ ones_bulk) == pytest.approx(area + length,
                                                              rel=1e-12)
    both = np.ones(state.dofmap.ndof)
    expect = area + length  # coupling part vanishes for (1, 1)
    assert both @ (g_total @ both) == pytest.approx(expect, rel=1e-12)
    eigs = np.linalg.eigvalsh(g_total.toarray())
    assert eigs.min() >= -1e-10 * eigs.max()


def test_assembly_is_relabeling_invariant():
    state = _circle_setup(5)
    mesh, dofmap = state.mesh, state.dofmap
    problem = build_circle_problem()
    a1 = state.system(problem).matrix
    rng = np.random.default_rng(17)
    perm = rng.permutation(mesh.n_elements)
    elements2 = mesh.elements[perm]
    mesh2 = BackgroundMesh(mesh.vertices, elements2, mesh.h, mesh.cell)
    state2 = SurfaceState(mesh2, circle_levelset(), PARAMS)
    a2 = state2.system(problem).matrix
    invp = np.empty(mesh.n_elements, dtype=int)
    invp[perm] = np.arange(mesh.n_elements)
    mapping = np.empty(dofmap.ndof, dtype=int)
    for space, space2 in ((dofmap.bulk, state2.dofmap.bulk),
                          (dofmap.surface, state2.dofmap.surface)):
        mapping[space.dofs_array(space.elements)] = space2.dofs_array(
            invp[space.elements])
    d1 = a1.toarray()
    d2 = a2.toarray()[np.ix_(mapping, mapping)]
    assert np.abs(d1 - d2).max() <= 1e-12 * np.abs(d1).max()


def test_surface_ghost_off_creates_exact_null_space():
    # each cut element carries a P1 field proportional to the level set
    # that vanishes on its own segment; without the surface ghost penalty
    # nothing sees those fields, so the system matrix has exactly one
    # null direction per cut element (this is what the penalty cures)
    state = _circle_setup()
    mesh, dls, topo, dofmap = state.mesh, state.dls, state.topo, state.dofmap
    problem = build_circle_problem()
    ablated = StabilizationParams(mu_surf=0.0, tau_surf=0.0)
    a = SurfaceState(mesh, state.levelset, ablated).system(problem).matrix
    eigs = np.abs(np.linalg.eigvalsh(a.toarray()))
    nullity = int(np.sum(eigs <= 1e-12 * eigs.max()))
    assert nullity == topo.active_surface.size
    full = state.system(problem).matrix
    eigs = np.abs(np.linalg.eigvalsh(full.toarray()))
    assert np.sum(eigs <= 1e-12 * eigs.max()) == 0
    # the per-element construction: the snapped level-set values restricted
    # to one cut element annihilate the ablated quadratic form exactly
    e = topo.active_surface[0]
    v = np.zeros(dofmap.ndof)
    v[dofmap.surface.dofs_array([e])[0]] = dls[mesh.elements[e]]
    scale = np.abs(a).max() * (v @ v)
    assert abs(v @ (a @ v)) <= 1e-14 * scale


def test_galerkin_energy_error_decreases():
    problem = build_circle_problem()
    mesh = build_structured_mesh(BOX, 8)
    energies = []
    for _ in range(3):
        state = SurfaceState(mesh, problem.geometry, PARAMS)
        u = solve(state.system(problem))
        ui = interpolate_pair(state.dofmap, mesh, problem.u_bulk,
                              problem.u_surf_ext)
        g = property_grams(state.cq, state.dofmap, PARAMS,
                           state.pieces)["energy"]
        d = u - ui
        energies.append(np.sqrt(d @ (g @ d)))
        mesh = refine_uniform(mesh)
    assert energies[2] < energies[1] < energies[0]
