"""Assembly of the stabilized cut DG forms and energy-norm Gram matrices.

All matrices are assembled on the combined bulk+surface dof map (even
when only one block is populated) so that blocks can be summed directly.
Jumps use the deterministic plus/minus orientation of the mesh faces;
every assembled form is a product of jumps and averages and therefore
independent of that orientation.

Every form takes the ``quadrature.CutQuadrature`` of one mesh, level set
and topology, which carries the rules and basis data the forms share;
``assemble_system`` builds it from the mesh. Each kind of entity has one
batched builder that returns its dofs and its unweighted terms: stiffness
and mass blocks of whole elements, cut elements and surface segments
(``_element_blocks``, ``_cut_element_blocks``, ``_segment_blocks``), unit
jump and consistency blocks of surface edges (``_edge_blocks``), and the
jump blocks per unit length, normal-gradient jumps and consistency blocks
of faces (``_face_blocks``). A form or Gram weights and sums the
terms it needs, block by block (face blocks scaled in place by
coefficient times length), into one (dofs, blocks) part per batch, and
``_accumulate`` writes the triplets of a form's parts once, in a fixed
order (uncut block, cut elements ascending, then each face scatter on its
own), so that the sparse conversion sums duplicates as it always has and
the matrices stay bit-for-bit reproducible. The bulk form and the bulk
part of the energy Gram, the largest, are only CSR row bands
(``_banded_bulk``), each converted on its own with the same triplets per
row in the same order. ``stabilized`` weights the ghosts and sums the
small forms first, then weights each band and writes its rows straight
into the output arrays (``_join_rows``): no whole bulk form and no
whole-matrix sum is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .exceptions import GeometryError
from .levelset import CutTopology
from .mesh import (BackgroundMesh, element_areas, element_gradients,
                   row_dot)
from .quadrature import CutQuadrature
from .space import CombinedDofMap, basis_values, prolongation

# Exact P1 element mass matrix is area * _M3.
_M3 = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class StabilizationParams:
    """Coupling constants and penalty weights of the stabilized method."""

    c_bulk: float = 1.0
    c_surf: float = 1.0
    gamma_bulk: float = 50.0
    gamma_surf: float = 50.0
    mu_bulk: float = 50.0
    mu_surf: float = 50.0
    tau_bulk: float = 0.01
    tau_surf: float = 0.01

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not (self.c_bulk > 0.0 and self.c_surf > 0.0):
            raise ValueError("coupling constants must be positive")
        for name in PENALTY_WEIGHTS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"penalty weight {name} must be >= 0")


# every field of StabilizationParams but the coupling constants
PENALTY_WEIGHTS = tuple(f.name for f in fields(StabilizationParams)
                        if f.name not in ("c_bulk", "c_surf"))


@dataclass(frozen=True)
class AssembledSystem:
    """Sparse symmetric system, right-hand side and the continuous-P1
    injection (``space.prolongation``) that gives the solver its coarse
    space."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    prolongation: sp.csr_matrix


# ---------------------------------------------------------------------------
# low-level accumulation helpers

def _accumulate(parts: list, n: int,
                rows: tuple | None = None) -> sp.csr_matrix:
    """Sum the (dofs, blocks) parts into the rows lo <= r < hi of an n x n
    matrix (all rows by default), returned as a (hi - lo) x n CSR matrix:
    row a of block e of a part lands on row dofs[e, a] and columns dofs[e]
    if that row is in the range. The triplets of all parts are written
    once, in list order, into one buffer each for rows, columns and
    values; ``parts`` is emptied before the conversion, so the blocks are
    freed by then. ``coo_matrix.tocsr`` keeps the triplets of each row in
    input order and sums each row on its own, so the conversions of
    consecutive row ranges, stacked, equal the conversion of all rows bit
    for bit."""
    lo, hi = rows or (0, n)
    keep = [np.flatnonzero((dofs >= lo) & (dofs < hi)) for dofs, _ in parts]
    total = sum(r.size * dofs.shape[1] for r, (dofs, _) in zip(keep, parts))
    index = sp.get_index_dtype(maxval=n)
    i = np.empty(total, dtype=index)
    j = np.empty(total, dtype=index)
    v = np.empty(total)
    start = 0
    for r, (dofs, blocks) in zip(keep, parts):
        k = dofs.shape[1]
        end = start + r.size * k
        i[start:end].reshape(-1, k)[...] = dofs.reshape(-1)[r, None] - lo
        j[start:end].reshape(-1, k)[...] = dofs[r // k]
        np.take(blocks.reshape(-1, k), r, axis=0,
                out=v[start:end].reshape(-1, k))
        start = end
    parts.clear()
    dofs = blocks = None  # the loop's last part, not alive at the conversion
    return sp.coo_matrix((v, (i, j)), shape=(hi - lo, n)).tocsr()


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] b[k]^T for every entity k; einsum writes a zero product as
    +0.0."""
    return np.einsum("fi,fj->fij", a, b)


# ---------------------------------------------------------------------------
# entity builders: the dofs and the unweighted terms of one kind of entity

def _element_blocks(cq: CutQuadrature, space, elements):
    """Dofs, exact stiffness and exact mass blocks of whole elements."""
    tris = cq.mesh.vertices[cq.mesh.elements[elements]]
    areas = element_areas(tris)[:, None, None]
    g = element_gradients(tris)
    return (space.dofs_array(elements),
            areas * np.einsum("eik,ejk->eij", g, g), areas * _M3)


def _cut_element_blocks(cq: CutQuadrature, space, which=slice(None)):
    """Dofs, stiffness and mass blocks of the cut elements
    topo.active_surface[which] by their cut-volume rules."""
    cut = cq.topo.active_surface[which]
    g = element_gradients(cq.mesh.vertices[cq.mesh.elements[cut]])
    rules, phi = cq.volume
    weights, phi = rules.weights[which], phi[which]
    stiffness = np.matmul(g, g.transpose(0, 2, 1))
    stiffness *= weights.sum(axis=1)[:, None, None]
    mass = np.einsum("kq,kqi,kqj->kij", weights, phi, phi)
    return space.dofs_array(cut), stiffness, mass


def _segment_blocks(cq: CutQuadrature, space):
    """Dofs, tangential stiffness and mass blocks of the surface
    segments."""
    surf, cut = cq.topo.surface, cq.topo.active_surface
    g = element_gradients(cq.mesh.vertices[cq.mesh.elements[cut]])
    n = surf.normal
    pg = g - np.matmul(g, n[:, :, None]) * n[:, None, :]
    stiffness = surf.length[:, None, None] * np.matmul(
        pg, pg.transpose(0, 2, 1))
    rules, phi = cq.segments
    mass = np.einsum("kq,kqi,kqj->kij", rules.weights, phi, phi)
    return space.dofs_array(cut), stiffness, mass


def _edge_blocks(cq: CutQuadrature, space):
    """Dofs, unit jump blocks [v][w] and co-normal consistency blocks
    -({ne.grad v},[w]) - ([v],{ne.grad w}) of the surface edges, both with
    the measure-1 convention for 2D surface edges. Column 0 of each
    (edge, 2) array is the plus segment."""
    surf = cq.topo.surface
    elements = cq.topo.active_surface[surf.edge_segments]
    tris = cq.mesh.vertices[cq.mesh.elements[elements]].reshape(-1, 3, 2)
    points = np.repeat(surf.edge_point, 2, axis=0)[:, None, :]
    phi = basis_values(tris, points).reshape(-1, 2, 3)
    flux = np.matmul(element_gradients(tris).reshape(-1, 2, 3, 2),
                     surf.edge_conormals[..., None])[..., 0]
    jump = np.concatenate([phi[:, 0], -phi[:, 1]], axis=1)
    gavg = 0.5 * np.concatenate([flux[:, 0], -flux[:, 1]], axis=1)
    dofs = np.hstack([space.dofs_array(elements[:, 0]),
                      space.dofs_array(elements[:, 1])])
    return (dofs, jump[:, :, None] * jump[:, None, :],
            -(gavg[:, :, None] * jump[:, None, :]
              + jump[:, :, None] * gavg[:, None, :]))


def _endpoint_jumps(p0, m0, p1, m1):
    """Jump vectors j0 and j1 of the two face vertices, from their local
    indices p in the plus and m in the minus element: unit at p, minus
    unit at 3 + m."""
    eye = np.eye(3)
    return (np.hstack([eye[p], 0.0 - eye[m]]) for p, m in ((p0, m0),
                                                            (p1, m1)))


def _face_jump_table() -> np.ndarray:
    """Exact jump block [v][w] per unit length of a face, for every local
    index of its two vertices in the plus and the minus element (entry
    [p0, m0, p1, m1]): the jump along the face interpolates the endpoint
    jump vectors linearly."""
    p0, m0, p1, m1 = np.indices((3, 3, 3, 3)).reshape(4, -1)
    j0, j1 = _endpoint_jumps(p0, m0, p1, m1)
    jump = ((_outer(j0, j0) + _outer(j1, j1)) / 3.0
            + (_outer(j0, j1) + _outer(j1, j0)) / 6.0)
    return jump.reshape(3, 3, 3, 3, 6, 6)


_FACE_JUMP = _face_jump_table()


def _face_blocks(cq: CutQuadrature, space, faces):
    """Dofs (plus element, then minus element) and lengths of the faces,
    their exact jump blocks [v][w] per unit length (from ``_FACE_JUMP``),
    their normal-gradient jumps n.[grad v] (a (face, 6) array, whose outer
    products are the normal-gradient-jump blocks per unit length), and
    their consistency blocks -({n.grad v},[w]) - ([v],{n.grad w}) over the
    negative part of each face, cut from the snapped endpoint values."""
    mesh = cq.mesh
    fv, fe = (a[faces] for a in mesh.faces)
    nodes = mesh.elements[fe[:, 0]], mesh.elements[fe[:, 1]]  # plus, minus
    # local index of each face vertex in the plus and the minus element
    (p0, p1), (m0, m1) = (np.argmax(e[:, None, :] == fv[:, :, None], axis=2).T
                          for e in nodes)
    j0, j1 = _endpoint_jumps(p0, m0, p1, m1)
    # the right-hand normal of fv0 -> fv1 points out of the plus element
    # where that element, wound counterclockwise, runs from fv0 to fv1
    d = mesh.vertices[fv[:, 1]] - mesh.vertices[fv[:, 0]]
    lengths = np.linalg.norm(d, axis=1)
    n = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    n[(p1 - p0) % 3 != 1] *= -1.0
    gp, gm = (np.einsum("fkd,fd->fk", element_gradients(mesh.vertices[e]), n)
              for e in nodes)
    gavg = 0.5 * np.hstack([gp, gm])
    # the negative part of a face is t in [t0, t1], s the zero of the level
    # set where exactly one endpoint is negative; i0 and i1 integrate 1 - t
    # and t over it
    va, vb = cq.dls[fv[:, 0]], cq.dls[fv[:, 1]]
    neg_a, neg_b = va < 0.0, vb < 0.0
    s = va / np.where(neg_a != neg_b, va - vb, 1.0)
    t0 = np.where(neg_b & ~neg_a, s, 0.0)
    t1 = np.where(neg_b, 1.0, np.where(neg_a, s, 0.0))
    i1 = 0.5 * (t1 ** 2 - t0 ** 2)
    i0 = (t1 - t0) - i1
    jw = lengths[:, None] * (i0[:, None] * j0 + i1[:, None] * j1)
    consistency = _outer(gavg, jw)
    consistency += consistency.transpose(0, 2, 1)
    np.negative(consistency, out=consistency)
    dofs = np.hstack([space.dofs_array(fe[:, 0]), space.dofs_array(fe[:, 1])])
    return (dofs, lengths, _FACE_JUMP[p0, m0, p1, m1], np.hstack([gp, -gm]),
            consistency)


# ---------------------------------------------------------------------------
# forms (all on the combined dof map)

def _faces_by_band(face_slots: np.ndarray, slots: int, size: int):
    """The faces with a side in each band of ``size`` consecutive slots out
    of ``slots``, for faces whose two sides have the slots face_slots
    (f, 2): band b lists faces[start[b]:start[b + 1]] of the returned
    (faces, start), ascending, each face once per band it touches."""
    band = face_slots // size
    side = np.ones(band.shape, dtype=bool)
    side[:, 1] = band[:, 1] != band[:, 0]
    faces = np.broadcast_to(np.arange(band.shape[0])[:, None], band.shape)
    faces, band = faces[side], band[side]
    order = np.lexsort((faces, band))
    return faces[order], np.searchsorted(band[order],
                                         np.arange(-(-slots // size) + 1))


def _banded_bulk(cq: CutQuadrature, dofmap: CombinedDofMap, penalty: float,
                 consistency: bool):
    """The s + m blocks of the active bulk elements, the jump blocks of the
    bulk faces scaled by penalty times length and, if ``consistency``,
    their consistency blocks, as (nnz, bands): the CSR row bands of
    BAND_ELEMENTS consecutive bulk slots, made one at a time from row 0 as
    the generator ``bands`` is iterated, and nnz, a bound on their stored
    entries (9 per element, and 18 per face for its two off-diagonal
    element blocks). A band converts only its own rows, from the blocks
    of its elements and of the faces that touch it, in the order of one
    whole conversion (uncut elements, cut elements, then each face scatter
    with faces ascending), so every row gets the same triplets in the same
    order and the bands, joined, are bit for bit the whole conversion,
    while only one band's blocks and triplets are alive at a time."""
    space, n, topo = dofmap.bulk, dofmap.ndof, cq.topo
    slots, size = space.elements.size, quadrature.BAND_ELEMENTS
    split_slots = [space.slot[topo.uncut_bulk],
                   space.slot[topo.active_surface]]
    faces = topo.bulk_faces
    band_faces, start = _faces_by_band(
        space.slot[cq.mesh.faces.elements[faces]], slots, size)

    def bands():
        for band, lo in enumerate(range(0, slots, size)):
            hi = min(lo + size, slots)
            uncut, cut = [slice(*np.searchsorted(s, (lo, hi)))
                          for s in split_slots]
            parts = [(dofs, s + m) for dofs, s, m in (
                _element_blocks(cq, space, topo.uncut_bulk[uncut]),
                _cut_element_blocks(cq, space, cut))]
            dofs, lengths, jump, _, blocks = _face_blocks(
                cq, space, faces[band_faces[start[band]:start[band + 1]]])
            jump *= (penalty * lengths)[:, None, None]
            parts += [(dofs, jump)] + ([(dofs, blocks)] if consistency
                                       else [])
            del dofs, jump, blocks  # parts holds the only references
            yield _accumulate(parts, n, (space.offset + 3 * lo,
                                         space.offset + 3 * hi))

    return 9 * slots + 18 * faces.size, bands()


def _join_rows(bands, n: int, nnz: int) -> sp.csr_matrix:
    """The n x n CSR matrix whose rows, from row 0, are those of the CSR
    ``bands`` in order, and empty after the last band; nnz bounds their
    stored entries. The output arrays are allocated once at that bound,
    each band is copied in as soon as it is made, and the arrays are then
    shrunk in place (``ndarray.resize``), so neither the bands nor a
    second copy of the output are ever alive beside it."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=sp.get_index_dtype(maxval=n))
    data = np.empty(nnz)
    lo = 0
    for band in bands:
        hi = lo + band.shape[0]
        indptr[lo + 1:hi + 1] = indptr[lo] + band.indptr[1:]
        indices[indptr[lo]:indptr[hi]] = band.indices
        data[indptr[lo]:indptr[hi]] = band.data
        lo = hi
    indptr[lo + 1:] = indptr[lo]
    indices.resize(indptr[lo], refcheck=False)
    data.resize(indptr[lo], refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def bulk_form(cq: CutQuadrature, dofmap: CombinedDofMap,
              params: StabilizationParams) -> tuple:
    """Interior-penalty bulk form: cut-volume mass and stiffness, jump
    penalty on full active faces, symmetric consistency fluxes on the
    negative face parts, as the (nnz, bands) of ``_banded_bulk``."""
    return _banded_bulk(cq, dofmap, params.gamma_bulk / cq.mesh.h,
                        consistency=True)


def surface_form(cq: CutQuadrature, dofmap: CombinedDofMap,
                 params: StabilizationParams) -> sp.csr_matrix:
    """Surface form: tangential stiffness and mass on the segments, jump
    penalty and co-normal consistency at the surface edges."""
    dofs, s, m = _segment_blocks(cq, dofmap.surface)
    edge_dofs, jump, consistency = _edge_blocks(cq, dofmap.surface)
    return _accumulate(
        [(dofs, s + m),
         (edge_dofs, (params.gamma_surf / cq.mesh.h) * jump + consistency)],
        dofmap.ndof)


def coupling_form(cq: CutQuadrature, dofmap: CombinedDofMap,
                  params: StabilizationParams) -> sp.csr_matrix:
    """Robin-type coupling (c_b v_b - c_s v_s, c_b w_b - c_s w_s) over the
    discrete surface; positive semidefinite by construction."""
    elements = cq.topo.active_surface
    rules, phi = cq.segments
    r = np.concatenate([params.c_bulk * phi, -params.c_surf * phi], axis=2)
    blocks = np.einsum("kq,kqi,kqj->kij", rules.weights, r, r)
    dofs = np.hstack([dofmap.bulk.dofs_array(elements),
                      dofmap.surface.dofs_array(elements)])
    return _accumulate([(dofs, blocks)], dofmap.ndof)


def ghost_pieces(cq: CutQuadrature, dofmap: CombinedDofMap) -> dict:
    """Unit-coefficient ghost penalty matrices (value, gradient) of each
    family, keyed by the suffix of its ``StabilizationParams`` weights:
    ``bulk``, h^-1 value jumps and h-weighted normal-gradient jumps on the
    ghost band, and ``surf``, h^-2 value jumps and normal-gradient jumps
    on the surface-active faces. ``ghost`` weights them."""
    h, out = cq.mesh.h, {}
    for family, space, faces, value, gradient in (
            ("bulk", dofmap.bulk, cq.topo.bulk_ghost_faces, 1.0 / h, h),
            ("surf", dofmap.surface, cq.topo.surface_faces, 1.0 / h ** 2,
             1.0)):
        dofs, lengths, jump, gjump, _ = _face_blocks(cq, space, faces)
        jump *= (value * lengths)[:, None, None]
        gjump = _outer(gjump, gjump)
        gjump *= (gradient * lengths)[:, None, None]
        out[family] = (_accumulate([(dofs, jump)], dofmap.ndof),
                       _accumulate([(dofs, gjump)], dofmap.ndof))
    return out


def ghost(pieces: dict, params: StabilizationParams,
          family: str) -> sp.csr_matrix:
    """Ghost penalty of ``family`` (``bulk`` or ``surf``) from the unit
    ``pieces``: mu_<family> times its value jumps plus tau_<family> times
    its normal-gradient jumps."""
    value, gradient = pieces[family]
    return (getattr(params, f"mu_{family}") * value
            + getattr(params, f"tau_{family}") * gradient).tocsr()


def stabilized(bulk, surface: sp.spmatrix, coupling: sp.spmatrix,
               pieces: dict, params: StabilizationParams) -> sp.csr_matrix:
    """c_b (bulk + bulk ghost) + c_s (surface + surface ghost) + coupling:
    the one place where the coupling constants and the ghost weights of
    ``params`` weight the forms (the ghosts from the unit ``pieces``).

    ``bulk`` is the (nnz, bands) of ``bulk_form`` or ``_banded_bulk``,
    whose bands are written into the result one at a time: with the bulk
    ghost G and Z = c_s (surface + surface ghost) + coupling built first,
    each band B becomes c_b (B + G[rows]) + Z[rows], and the rows after
    the last band are those of Z. Every sum of two CSR matrices is
    row-local, and the bulk and the surface ghost blocks share no entry,
    so this is bit for bit the sum of the whole matrices in the order
    above."""
    nnz, bands = bulk
    bulk_ghost = ghost(pieces, params, "bulk")
    rest = (params.c_surf * (surface + ghost(pieces, params, "surf"))
            + coupling).tocsr()
    del surface, coupling, pieces  # freed here unless the caller keeps them

    def rows():
        lo = 0
        for band in bands:
            hi = lo + band.shape[0]
            yield params.c_bulk * (band + bulk_ghost[lo:hi]) + rest[lo:hi]
            lo = hi
        yield rest[lo:]

    return _join_rows(rows(), rest.shape[0],
                      nnz + bulk_ghost.nnz + rest.nnz)


def load_vector(cq: CutQuadrature, dofmap: CombinedDofMap, problem,
                params: StabilizationParams) -> np.ndarray:
    """Load vector: c_b (f_bulk, v) over the cut volume plus c_s
    (f_surf o p, v) over the discrete surface, the surface data extended
    by the closest-point map of the problem geometry. Raises GeometryError
    when a surface quadrature point leaves the validity radius of that
    map."""
    b = np.zeros(dofmap.ndof)
    for elements, (rules, phi) in cq.bulk_rules():
        fvals = np.asarray(problem.f_bulk(rules.points), dtype=float)
        b[dofmap.bulk.dofs_array(elements)] += params.c_bulk * np.einsum(
            "km,kmi->ki", rules.weights * fvals, phi)

    rules, phi = cq.segments
    geom = problem.geometry
    if np.any(np.abs(geom.rho(rules.points)) >= geom.validity_radius):
        raise GeometryError("surface extension evaluated outside the "
                            "validity radius of the closest-point map")
    fvals = np.asarray(problem.f_surf(geom.closest_point(rules.points)),
                       dtype=float)
    dofs = dofmap.surface.dofs_array(cq.topo.active_surface)
    b[dofs] += params.c_surf * row_dot(rules.weights * fvals, phi)
    return b


def assemble_system(mesh: BackgroundMesh, dls: np.ndarray,
                    topo: CutTopology, dofmap: CombinedDofMap, problem,
                    params: StabilizationParams) -> AssembledSystem:
    """Full system: the ``stabilized`` bulk, surface and coupling forms,
    with the matching load vector."""
    cq = CutQuadrature(mesh, dls, topo)
    # the ghost pieces and the small forms come first, so that each band of
    # the bulk form goes into the matrix as it is made and no whole bulk
    # form or whole-matrix sum is alive beside it: the level-5 assembly
    # workload peaks at 163-165 MB this way, the level-6 assembly at
    # 394-399 MB
    a = stabilized(bulk_form(cq, dofmap, params),
                   surface_form(cq, dofmap, params),
                   coupling_form(cq, dofmap, params),
                   ghost_pieces(cq, dofmap), params)
    rhs = load_vector(cq, dofmap, problem, params)
    return AssembledSystem(matrix=a, rhs=rhs,
                           prolongation=prolongation(dofmap, mesh))


# ---------------------------------------------------------------------------
# energy norm and property-suite Grams

def property_grams(cq: CutQuadrature, dofmap: CombinedDofMap,
                   params: StabilizationParams, pieces: dict) -> dict:
    """The Grams and the trace vector of the property suite, each surface
    entity built once. Keys: ``energy`` (the energy norm, ``stabilized`` applied
    to the cut-volume H1 norm + h^-1 value jumps on the active faces, the
    tangential H1 norm + h^-1 edge jumps and the coupling seminorm, with
    the ghosts from the unit ``pieces``), ``gradient_active`` and
    ``gradient_cut`` (the broken bulk gradient seminorm over the full
    active elements and over their negative parts), ``surface_mass``
    (full-element L2 mass on the surface-active mesh), ``tangential``
    (tangential stiffness on the discrete surface) and ``trace`` (the
    vector of int_Gamma_h phi_i, for surface mean values)."""
    h, n = cq.mesh.h, dofmap.ndof
    segment_dofs, tangential, m = _segment_blocks(cq, dofmap.surface)
    edge_dofs, jump, _ = _edge_blocks(cq, dofmap.surface)
    surface = [(segment_dofs, tangential + m), (edge_dofs, (1.0 / h) * jump)]
    rules, phi = cq.segments
    trace = np.zeros(n)
    trace[segment_dofs] += row_dot(rules.weights, phi)
    active_dofs, gradient, _ = _element_blocks(cq, dofmap.bulk,
                                               cq.topo.active_bulk)
    mass_dofs, _, mass = _element_blocks(cq, dofmap.surface,
                                         cq.topo.active_surface)
    return {"energy": stabilized(_banded_bulk(cq, dofmap, 1.0 / h,
                                              consistency=False),
                                 _accumulate(surface, n),
                                 coupling_form(cq, dofmap, params), pieces,
                                 params),
            "gradient_active": _accumulate([(active_dofs, gradient)], n),
            "gradient_cut": _accumulate([(d, s) for d, s, _ in (
                _element_blocks(cq, dofmap.bulk, cq.topo.uncut_bulk),
                _cut_element_blocks(cq, dofmap.bulk))], n),
            "surface_mass": _accumulate([(mass_dofs, mass)], n),
            "tangential": _accumulate([(segment_dofs, tangential)], n),
            "trace": trace}
