"""The batched cut-entity assembly against the per-entity reference loops
of ``tests.oracles``, and the error paths the batched layer keeps."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import cutdg.forms as forms
import cutdg.quadrature as quadrature
from cutdg.exceptions import GeometryError, StructuralError
from cutdg.experiments import (DEFAULT_BOX, PROPERTY_BOX, SWEEP_CONFIGS,
                               SurfaceState, config_params, mesh_at_level,
                               shifted_circle)
from cutdg.forms import StabilizationParams
from cutdg.levelset import check_geometry_assumptions
from cutdg.manufactured import build_circle_problem, compute_errors
from cutdg.quadrature import ERROR_DEGREE, CutQuadrature
from cutdg.space import build_spaces, interpolate_pair
from tests import oracles

SHIFTED_BOX = ((-1.05, -1.07), (1.15, 1.13))
PARAMS = StabilizationParams()


def _setup(level, box, problem):
    return SurfaceState(mesh_at_level(level, 8, box), problem.geometry,
                        PARAMS)


def _matrices(state, problem):
    """Every form on one fresh CutQuadrature, called through the module
    so that the monkeypatched oracles are reached."""
    dofmap = state.dofmap
    cq = CutQuadrature(state.mesh, state.dls, state.topo)
    system = state.system(problem)
    pieces = forms.ghost_pieces(cq, dofmap)
    grams = forms.property_grams(cq, dofmap, PARAMS, pieces)
    out = {"bulk": oracles.bulk_matrix(cq, dofmap, PARAMS),
           "surface": forms.surface_form(cq, dofmap, PARAMS),
           "coupling": forms.coupling_form(cq, dofmap, PARAMS),
           "system": system.matrix,
           "surface_gamma0": forms.surface_form(
               cq, dofmap, dataclasses.replace(PARAMS, gamma_surf=0.0)),
           **{k: m for k, m in grams.items() if k != "trace"}}
    out = {k: (m.data, m.indices, m.indptr) for k, m in out.items()}
    out["trace"] = (grams["trace"],)
    out["system_rhs"] = (system.rhs,)
    out["rhs"] = (forms.load_vector(cq, dofmap, problem, PARAMS),)
    return out


@pytest.mark.parametrize("box", [DEFAULT_BOX, SHIFTED_BOX],
                         ids=["default", "shifted"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_batched_assembly_equals_per_entity_loops(level, box, monkeypatch):
    """Every form, Gram matrix, load vector and error report, bit for bit
    (np.array_equal on csr data, indices and indptr)."""
    problem = build_circle_problem()
    state = _setup(level, box, problem)
    mesh, dls, topo, dofmap = state.mesh, state.dls, state.topo, state.dofmap
    batched = _matrices(state, problem)
    oracles.stand_in(monkeypatch)
    reference = _matrices(state, problem)
    for key, arrays in reference.items():
        for ref, new in zip(arrays, batched[key]):
            assert np.array_equal(ref, new), key

    assert np.array_equal(batched["trace"][0],
                          oracles.surface_trace_load(mesh, topo, dofmap))
    exact = interpolate_pair(dofmap, mesh, problem.u_bulk,
                             problem.u_surf_ext)
    coeffs = exact + 1e-3 * np.sin(np.arange(dofmap.ndof))
    assert compute_errors(coeffs, problem, mesh, dls, topo, dofmap) == \
        oracles.compute_errors(coeffs, problem, mesh, dls, topo, dofmap)


@pytest.mark.parametrize("seed", range(4))
def test_accumulate_equals_coo_of_concatenated_triplets(seed):
    """Random parts on few dofs, so that most triplets are duplicates,
    with an empty part among them: csr data, indices and indptr equal to
    coo_matrix(concatenate(...)).tocsr(), and the list is emptied. The
    same holds for the conversions of consecutive row bands, one of them
    empty, stacked."""
    rng = np.random.default_rng(seed)
    n = 10
    parts = [(rng.integers(0, n, (m, k)), rng.standard_normal((m, k, k)))
             for m, k in ((40, 3), (0, 6), (25, 6), (7, 2), (30, 3))]
    reference = oracles.accumulate(parts, n)
    given = list(parts)
    batched = forms._accumulate(given, n)
    assert given == []
    bands = []
    for rows in ((0, 3), (3, 3), (3, 8), (8, n)):
        given = list(parts)
        bands.append(forms._accumulate(given, n, rows))
        assert given == [] and bands[-1].shape == (rows[1] - rows[0], n)
    for matrix in (batched, sp.vstack(bands, format="csr")):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(matrix, name),
                                  getattr(reference, name)), name
        assert matrix.shape == (n, n)


def test_bulk_form_is_independent_of_the_band_size(monkeypatch):
    """At level 2 on the shifted box (1,430 bulk elements), bands of 1, of
    7 and of all bulk elements give the csr data, indices and indptr of
    one conversion of the whole form's parts in their order (uncut, cut,
    jump, consistency), built by the per-entity loops."""
    problem = build_circle_problem()
    state = _setup(2, SHIFTED_BOX, problem)
    mesh, topo, dofmap, cq = state.mesh, state.topo, state.dofmap, state.cq
    assert topo.active_bulk.size == 1_430
    space = dofmap.bulk
    volume = [oracles.element_blocks(cq, space, topo.uncut_bulk),
              oracles.cut_element_blocks(cq, space)]
    dofs, lengths, jump, _, consistency = oracles.face_blocks(
        cq, space, topo.bulk_faces)
    jump *= (PARAMS.gamma_bulk / mesh.h * lengths)[:, None, None]
    whole = oracles.accumulate(
        [(d, s + m) for d, s, m in volume]
        + [(dofs, jump), (dofs, consistency)], dofmap.ndof)
    for band in (1, 7, topo.active_bulk.size):
        monkeypatch.setattr(quadrature, "BAND_ELEMENTS", band)
        bulk = oracles.bulk_matrix(cq, dofmap, PARAMS)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(bulk, name),
                                  getattr(whole, name)), name


@pytest.mark.parametrize("band", [None, 7], ids=["default", "7"])
def test_property_grams_builds_each_bulk_block_once(band, monkeypatch):
    """One ``property_grams`` call at level 2 on the property box (903
    bulk elements) builds the uncut and the whole cut element blocks, the
    cut-volume blocks and the bulk-face blocks once each, whatever the
    band size of the system's bulk form."""
    mesh = mesh_at_level(2, 8, PROPERTY_BOX)
    state = SurfaceState(mesh, shifted_circle(mesh, 0.3), PARAMS)
    assert state.topo.active_bulk.size == 903
    pieces = state.pieces
    if band is not None:
        monkeypatch.setattr(quadrature, "BAND_ELEMENTS", band)
    calls = dict.fromkeys(("_element_blocks", "_cut_element_blocks",
                           "_face_blocks"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(forms, name, counted(name, getattr(forms, name)))
    forms.property_grams(state.cq, state.dofmap, PARAMS, pieces)
    assert calls == {"_element_blocks": 2, "_cut_element_blocks": 1,
                     "_face_blocks": 1}


def test_faces_by_band_lists_each_face_once_per_band_it_touches():
    """Band b lists, ascending and once each, exactly the faces with a
    side among its slots, for the bulk faces at level 2 on the shifted box
    and for random slot pairs, some with both sides in one band."""
    problem = build_circle_problem()
    state = _setup(2, SHIFTED_BOX, problem)
    mesh, topo, dofmap = state.mesh, state.topo, state.dofmap
    slots = dofmap.bulk.elements.size
    rng = np.random.default_rng(0)
    cases = [(dofmap.bulk.slot[mesh.faces.elements[topo.bulk_faces]], slots),
             (rng.integers(0, 30, (200, 2)), 30)]
    for face_slots, slots in cases:
        for size in (1, 7, slots):
            faces, start = forms._faces_by_band(face_slots, slots, size)
            assert start.size == -(-slots // size) + 1
            assert start[-1] == faces.size
            for band, lo in enumerate(range(0, slots, size)):
                inside = (face_slots >= lo) & (face_slots < lo + size)
                assert np.array_equal(faces[start[band]:start[band + 1]],
                                      np.flatnonzero(inside.any(axis=1)))


def _whole(bulk, surface, coupling, pieces, params):
    """The stabilized sum of whole matrices."""
    return (params.c_bulk * (bulk + forms.ghost(pieces, params, "bulk"))
            + params.c_surf * (surface + forms.ghost(pieces, params, "surf"))
            + coupling).tocsr()


def _assert_same_csr(a, b, key):
    assert a.shape == b.shape, key
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), (key, name)


@pytest.mark.parametrize("band", [1, 7, None], ids=["1", "7", "all"])
def test_banded_stabilized_equals_the_sum_of_whole_matrices(band,
                                                           monkeypatch):
    """At level 2 on the shifted box, the matrix that ``stabilized`` writes
    band by band, for the bulk form in bands of 1, 7 or all 1,430 bulk
    elements, is c_b (bulk + bulk ghost) + c_s (surface + surface
    ghost) + coupling of the whole matrices, bit for bit: for the four
    sweep configurations and the ablated parameters (with c_b = 0.7 and
    c_s = 1.3, so that a product by them is not exact), in
    ``assemble_system`` (whose rhs, summed one chunk of elements at a
    time, does not move either) and for the energy Gram, whose bulk part
    is one band whatever the band size."""
    problem = build_circle_problem()
    base = StabilizationParams(c_bulk=0.7, c_surf=1.3)
    state = SurfaceState(mesh_at_level(2, 8, SHIFTED_BOX), problem.geometry,
                         base)
    mesh, topo, dofmap, cq = state.mesh, state.topo, state.dofmap, state.cq
    pieces = forms.ghost_pieces(cq, dofmap)
    surface = forms.surface_form(cq, dofmap, base)
    coupling = forms.coupling_form(cq, dofmap, base)
    bulk = oracles.bulk_matrix(cq, dofmap, base)
    h, n = mesh.h, dofmap.ndof
    space = dofmap.bulk
    dofs, lengths, jump, _, _ = forms._face_blocks(cq, space, topo.bulk_faces)
    jump *= (1.0 / h * lengths)[:, None, None]
    energy_bulk = forms._accumulate(
        [(d, s + m) for d, s, m in (
            forms._element_blocks(cq, space, topo.uncut_bulk),
            forms._cut_element_blocks(cq, space))] + [(dofs, jump)], n)
    segment_dofs, tangential, m = forms._segment_blocks(cq, dofmap.surface)
    edge_dofs, jump, _ = forms._edge_blocks(cq, dofmap.surface)
    energy_surface = forms._accumulate(
        [(segment_dofs, tangential + m), (edge_dofs, (1.0 / h) * jump)], n)
    rhs = forms.load_vector(cq, dofmap, problem, base)

    size = band or topo.active_bulk.size
    monkeypatch.setattr(quadrature, "BAND_ELEMENTS", size)
    nnz, bands = forms.bulk_form(cq, dofmap, base)
    bands = list(bands)
    assert len(bands) == -(-topo.active_bulk.size // size)
    for p in [config_params(base, c) for c in SWEEP_CONFIGS + ("ablated",)]:
        whole = _whole(bulk, surface, coupling, pieces, p)
        _assert_same_csr(forms.stabilized((nnz, bands), surface, coupling,
                                          pieces, p), whole, p)
    system = state.system(problem)
    _assert_same_csr(system.matrix,
                     _whole(bulk, surface, coupling, pieces, base), "system")
    assert np.array_equal(system.rhs, rhs)
    _assert_same_csr(forms.property_grams(cq, dofmap, base, pieces)["energy"],
                     _whole(energy_bulk, energy_surface, coupling, pieces,
                            base), "energy")


@pytest.mark.parametrize("box", [DEFAULT_BOX, SHIFTED_BOX],
                         ids=["default", "shifted"])
def test_chunked_errors_equal_one_chunk(box, monkeypatch):
    """The error norms over chunks of 1 and 7 uncut elements equal, bit
    for bit, those over one chunk of all of them at level 2."""
    problem = build_circle_problem()
    state = _setup(2, box, problem)
    exact = interpolate_pair(state.dofmap, state.mesh, problem.u_bulk,
                             problem.u_surf_ext)
    coeffs = exact + 1e-3 * np.sin(np.arange(state.dofmap.ndof))
    reports = []
    for size in (state.topo.active_bulk.size, 1, 7):
        monkeypatch.setattr(quadrature, "BAND_ELEMENTS", size)
        reports.append([state.errors(u, problem) for u in (exact, coeffs)])
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_bulk_form_peak_memory_is_bounded_by_its_triplets():
    """At level 3 (8,184 bulk faces, 638,964 triplets) bulk_form's bands,
    made and joined, peak, as traced by tracemalloc, below three times 16
    bytes per triplet: the triplets are written once, and no block is
    alive at the conversion."""
    problem = build_circle_problem()
    state = _setup(3, DEFAULT_BOX, problem)
    topo = state.topo
    triplets = 9 * topo.active_bulk.size + 72 * topo.bulk_faces.size
    assert triplets == 638_964
    tracemalloc.start()
    try:
        oracles.bulk_matrix(state.cq, state.dofmap, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * triplets


def test_bulk_form_peak_memory_is_bounded_by_its_csr():
    """At level 4 (21,690 bulk elements, three bands) bulk_form's bands,
    made and joined, peak, as traced by tracemalloc, below 4.5 times the
    bytes of the joined CSR (2.95 times measured; 8.55 times when one
    conversion took all rows): only one band's blocks and triplets are
    alive at a time, beside one band matrix and the joined output."""
    problem = build_circle_problem()
    state = _setup(4, DEFAULT_BOX, problem)
    cq = state.cq
    assert state.topo.active_bulk.size == 21_690
    cq.volume  # shared by every form of the system
    tracemalloc.start()
    try:
        a = oracles.bulk_matrix(cq, state.dofmap, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


def test_assemble_system_peak_memory_is_bounded_by_its_csr():
    """At level 4 (21,690 bulk elements) assemble_system peaks, as traced
    by tracemalloc, below 4 times the bytes of the CSR matrix it returns
    (3.74 times measured; 4.21 times when the whole bulk form and each
    whole-matrix sum of ``stabilized`` were alive): the output arrays are
    allocated once, and beside them only one band of the bulk form and the
    small forms are alive."""
    problem = build_circle_problem()
    state = _setup(4, DEFAULT_BOX, problem)
    assert state.topo.active_bulk.size == 21_690
    tracemalloc.start()
    try:
        a = state.system(problem).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


def test_compute_errors_peak_memory_is_bounded_by_its_rules():
    """At level 4 compute_errors peaks, as traced by tracemalloc, below
    2.5 times the bytes of the degree-4 rules of all uncut elements (1.94
    times measured; 7.06 times when the rules, basis values and exact
    solution of all uncut elements were alive at once)."""
    problem = build_circle_problem()
    state = _setup(4, DEFAULT_BOX, problem)
    mesh, topo = state.mesh, state.topo
    coeffs = interpolate_pair(state.dofmap, mesh, problem.u_bulk,
                              problem.u_surf_ext)
    tracemalloc.start()
    try:
        state.errors(coeffs, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points, weights = quadrature._map_triangles(
        mesh.vertices[mesh.elements[topo.uncut_bulk]], ERROR_DEGREE)
    assert peak < 2.5 * (points.nbytes + weights.nbytes)


def test_empty_cut_rule_raises():
    """A cut (surface-active) element without a negative vertex has no cut
    part."""
    problem = build_circle_problem()
    state = _setup(0, DEFAULT_BOX, problem)
    mesh, dls, topo = state.mesh, state.dls, state.topo
    outside = np.flatnonzero(dls[mesh.elements].min(axis=1) > 0.0)[0]
    bad = dataclasses.replace(
        topo, active_bulk=np.union1d(topo.active_bulk, [outside]),
        active_surface=np.union1d(topo.active_surface, [outside]))
    dofmap = build_spaces(mesh, bad)
    with pytest.raises(StructuralError,
                       match=f"active element {outside} has an empty cut"):
        oracles.bulk_matrix(CutQuadrature(mesh, dls, bad), dofmap, PARAMS)


def test_degenerate_segment_in_topology_raises():
    problem = build_circle_problem()
    state = _setup(0, DEFAULT_BOX, problem)
    mesh, dls, topo, dofmap = state.mesh, state.dls, state.topo, state.dofmap
    points = topo.surface.points.copy()
    points[3, 1] = points[3, 0]
    bad = dataclasses.replace(
        topo, surface=dataclasses.replace(topo.surface, points=points))
    for assemble in (forms.surface_form, forms.coupling_form):
        with pytest.raises(StructuralError, match="degenerate surface segment"):
            assemble(CutQuadrature(mesh, dls, bad), dofmap, PARAMS)
    with pytest.raises(StructuralError, match="degenerate surface segment"):
        forms.load_vector(CutQuadrature(mesh, dls, bad), dofmap, problem,
                          PARAMS)


def test_surface_data_outside_validity_radius_raises_geometry_error():
    """Both places that evaluate the closest-point map off the surface
    reject points outside its validity radius with a typed error."""
    problem = build_circle_problem()
    state = _setup(0, DEFAULT_BOX, problem)
    narrow = dataclasses.replace(
        problem, geometry=dataclasses.replace(problem.geometry,
                                              validity_radius=1e-6))
    with pytest.raises(GeometryError, match="validity radius"):
        forms.load_vector(state.cq, state.dofmap, narrow, PARAMS)
    with pytest.raises(GeometryError, match="validity radius"):
        check_geometry_assumptions(narrow.geometry, state.topo)
    assert issubclass(GeometryError, ValueError)
