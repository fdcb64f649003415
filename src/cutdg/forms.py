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
jump and normal-gradient-jump blocks of faces per unit length, with their
consistency blocks (``_face_blocks``). A form or Gram weights and sums the
terms it needs, block by block (face blocks scaled in place by
coefficient times length), into one (dofs, blocks) part per batch, and
``_accumulate`` writes the triplets of a form's parts once, in a fixed
order (uncut block, cut elements ascending, then each face scatter on its
own), so that the sparse conversion sums duplicates as it always has and
the matrices stay bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .exceptions import GeometryError
from .levelset import CutTopology
from .mesh import BackgroundMesh, element_areas
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
        for name in ("gamma_bulk", "gamma_surf", "mu_bulk", "mu_surf",
                     "tau_bulk", "tau_surf"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"penalty weight {name} must be >= 0")


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

def _accumulate(parts: list, n: int) -> sp.csr_matrix:
    """Sum the (dofs, blocks) parts into an n x n CSR matrix: block e of a
    part lands on rows and columns dofs[e]. The triplets of all parts are
    written once, in list order, into one buffer each for rows, columns
    and values; ``parts`` is emptied before the conversion, so the blocks
    are freed by then."""
    total = sum(blocks.size for _, blocks in parts)
    index = sp.get_index_dtype(maxval=n)
    i = np.empty(total, dtype=index)
    j = np.empty(total, dtype=index)
    v = np.empty(total)
    start = 0
    for dofs, blocks in parts:
        m, k = dofs.shape
        end = start + m * k * k
        i[start:end].reshape(m, k, k)[...] = dofs[:, :, None]
        j[start:end].reshape(m, k, k)[...] = dofs[:, None, :]
        v[start:end].reshape(m, k, k)[...] = blocks
        start = end
    parts.clear()
    dofs = blocks = None  # the loop's last part, not alive at the conversion
    return sp.coo_matrix((v, (i, j)), shape=(n, n)).tocsr()


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] b[k]^T for every entity k; einsum writes a zero product as
    +0.0."""
    return np.einsum("fi,fj->fij", a, b)


def _rows_dot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w[k] @ x[k] for every entity k, as the per-entity BLAS product."""
    return np.matmul(w[:, None, :], x)[:, 0]


# ---------------------------------------------------------------------------
# entity builders: the dofs and the unweighted terms of one kind of entity

def _element_blocks(cq: CutQuadrature, space, elements):
    """Dofs, exact stiffness and exact mass blocks of whole elements."""
    areas = element_areas(cq.mesh)[elements, None, None]
    g = cq.grads[elements]
    return (space.dofs_array(elements),
            areas * np.einsum("eik,ejk->eij", g, g), areas * _M3)


def _cut_element_blocks(cq: CutQuadrature, space):
    """Dofs, stiffness and mass blocks of the cut elements by their
    cut-volume rules."""
    cut = cq.split[1]
    g = cq.grads[cut]
    rules, phi = cq.volume
    stiffness = np.matmul(g, g.transpose(0, 2, 1))
    stiffness *= rules.weights.sum(axis=1)[:, None, None]
    mass = np.einsum("kq,kqi,kqj->kij", rules.weights, phi, phi)
    return space.dofs_array(cut), stiffness, mass


def _volume_blocks(cq: CutQuadrature, space):
    """(dofs, stiffness, mass) of the uncut active elements, then of the
    cut ones."""
    return [_element_blocks(cq, space, cq.split[0]),
            _cut_element_blocks(cq, space)]


def _segment_blocks(cq: CutQuadrature, space):
    """Dofs, tangential stiffness and mass blocks of the surface
    segments."""
    surf = cq.topo.surface
    g = cq.grads[surf.element]
    n = surf.normal
    pg = g - np.matmul(g, n[:, :, None]) * n[:, None, :]
    stiffness = surf.length[:, None, None] * np.matmul(
        pg, pg.transpose(0, 2, 1))
    rules, phi = cq.segments
    mass = np.einsum("kq,kqi,kqj->kij", rules.weights, phi, phi)
    return space.dofs_array(surf.element), stiffness, mass


def _edge_blocks(cq: CutQuadrature, space):
    """Dofs, unit jump blocks [v][w] and co-normal consistency blocks
    -({ne.grad v},[w]) - ([v],{ne.grad w}) of the surface edges, both with
    the measure-1 convention for 2D surface edges. Column 0 of each
    (edge, 2) array is the plus segment."""
    surf = cq.topo.surface
    elements = surf.element[surf.edge_segments]
    tris = cq.mesh.vertices[cq.mesh.elements[elements]].reshape(-1, 3, 2)
    points = np.repeat(surf.edge_point, 2, axis=0)[:, None, :]
    phi = basis_values(tris, points).reshape(-1, 2, 3)
    flux = np.matmul(cq.grads[elements], surf.edge_conormals[..., None])[..., 0]
    jump = np.concatenate([phi[:, 0], -phi[:, 1]], axis=1)
    gavg = 0.5 * np.concatenate([flux[:, 0], -flux[:, 1]], axis=1)
    dofs = np.hstack([space.dofs_array(elements[:, 0]),
                      space.dofs_array(elements[:, 1])])
    return (dofs, jump[:, :, None] * jump[:, None, :],
            -(gavg[:, :, None] * jump[:, None, :]
              + jump[:, :, None] * gavg[:, None, :]))


def _face_blocks(cq: CutQuadrature, space, faces):
    """Dofs (plus element, then minus element) and lengths of the faces,
    their exact jump blocks [v][w] and normal-gradient-jump blocks
    (n.[grad v])(n.[grad w]) per unit length, and their consistency blocks
    -({n.grad v},[w]) - ([v],{n.grad w}) over the negative part of each
    face, cut from the snapped endpoint values. The jump along a face
    interpolates its endpoint jump vectors j0 and j1 linearly."""
    mesh = cq.mesh
    fv = mesh.face_vertices[faces]
    fe = mesh.face_elements[faces]
    lengths = mesh.face_lengths[faces]
    plus, minus = mesh.elements[fe[:, 0]], mesh.elements[fe[:, 1]]
    j0, j1 = (np.hstack([plus == v, 0.0 - (minus == v)])
              for v in (fv[:, :1], fv[:, 1:]))
    jump = ((_outer(j0, j0) + _outer(j1, j1)) / 3.0
            + (_outer(j0, j1) + _outer(j1, j0)) / 6.0)
    n = mesh.face_normals[faces]
    gp = np.einsum("fkd,fd->fk", cq.grads[fe[:, 0]], n)
    gm = np.einsum("fkd,fd->fk", cq.grads[fe[:, 1]], n)
    gjump = np.hstack([gp, -gm])
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
    dofs = np.hstack([space.dofs_array(fe[:, 0]), space.dofs_array(fe[:, 1])])
    return (dofs, lengths, jump,
            _outer(gjump, gjump), -(_outer(gavg, jw) + _outer(jw, gavg)))


# ---------------------------------------------------------------------------
# forms (all on the combined dof map)

def bulk_form(cq: CutQuadrature, dofmap: CombinedDofMap,
              params: StabilizationParams) -> sp.csr_matrix:
    """Interior-penalty bulk form: cut-volume mass and stiffness, jump
    penalty on full active faces, symmetric consistency fluxes on the
    negative face parts."""
    parts = [(dofs, s + m) for dofs, s, m in _volume_blocks(cq, dofmap.bulk)]
    dofs, lengths, jump, gjump, consistency = _face_blocks(
        cq, dofmap.bulk, cq.topo.bulk_faces)
    jump *= (params.gamma_bulk / cq.mesh.h * lengths)[:, None, None]
    parts += [(dofs, jump), (dofs, consistency)]
    del jump, gjump, consistency  # parts holds the only references
    return _accumulate(parts, dofmap.ndof)


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
    elements = cq.topo.surface.element
    rules, phi = cq.segments
    r = np.concatenate([params.c_bulk * phi, -params.c_surf * phi], axis=2)
    blocks = np.einsum("kq,kqi,kqj->kij", rules.weights, r, r)
    dofs = np.hstack([dofmap.bulk.dofs_array(elements),
                      dofmap.surface.dofs_array(elements)])
    return _accumulate([(dofs, blocks)], dofmap.ndof)


def ghost_pieces(cq: CutQuadrature, dofmap: CombinedDofMap) -> dict:
    """Unit-coefficient ghost penalty matrices.

    Keys: ``bulk_value`` (h^-1 value jumps on the ghost band),
    ``bulk_gradient`` (h-weighted normal gradient jumps on the ghost band),
    ``surface_value`` (h^-2 value jumps on the surface-active faces),
    ``surface_gradient`` (normal gradient jumps on the surface-active
    faces). Multiply by mu/tau weights to obtain the ghost forms.
    """
    h, out = cq.mesh.h, {}
    for name, space, faces, value, gradient in (
            ("bulk", dofmap.bulk, cq.topo.bulk_ghost_faces, 1.0 / h, h),
            ("surface", dofmap.surface, cq.topo.surface_faces, 1.0 / h ** 2,
             1.0)):
        dofs, lengths, jump, gjump, _ = _face_blocks(cq, space, faces)
        jump *= (value * lengths)[:, None, None]
        gjump *= (gradient * lengths)[:, None, None]
        out[f"{name}_value"] = _accumulate([(dofs, jump)], dofmap.ndof)
        out[f"{name}_gradient"] = _accumulate([(dofs, gjump)], dofmap.ndof)
    return out


def ghost_bulk(pieces: dict, params: StabilizationParams) -> sp.csr_matrix:
    """Ghost penalty on the full faces of the band around the surface:
    mu h^-1 value jumps plus tau h normal-gradient jumps."""
    return (params.mu_bulk * pieces["bulk_value"]
            + params.tau_bulk * pieces["bulk_gradient"]).tocsr()


def ghost_surface(pieces: dict, params: StabilizationParams) -> sp.csr_matrix:
    """Ghost penalty on all faces of the surface-active mesh: mu h^-2
    value jumps plus tau normal-gradient jumps."""
    return (params.mu_surf * pieces["surface_value"]
            + params.tau_surf * pieces["surface_gradient"]).tocsr()


def stabilized(bulk: sp.spmatrix, surface: sp.spmatrix, coupling: sp.spmatrix,
               pieces: dict, params: StabilizationParams) -> sp.csr_matrix:
    """c_b (bulk + bulk ghost) + c_s (surface + surface ghost) + coupling:
    the one place where the coupling constants and the ghost weights of
    ``params`` weight the forms (the ghosts from the unit ``pieces``)."""
    return (params.c_bulk * (bulk + ghost_bulk(pieces, params))
            + params.c_surf * (surface + ghost_surface(pieces, params))
            + coupling).tocsr()


def load_vector(cq: CutQuadrature, dofmap: CombinedDofMap, problem,
                params: StabilizationParams) -> np.ndarray:
    """Load vector: c_b (f_bulk, v) over the cut volume plus c_s
    (f_surf o p, v) over the discrete surface, the surface data extended
    by the closest-point map of the problem geometry. Raises GeometryError
    when a surface quadrature point leaves the validity radius of that
    map."""
    b = np.zeros(dofmap.ndof)
    for elements, (rules, phi) in zip(cq.split, (cq.uncut, cq.volume)):
        fvals = np.asarray(problem.f_bulk(rules.points), dtype=float)
        b[dofmap.bulk.dofs_array(elements)] += params.c_bulk * np.einsum(
            "km,kmi->ki", rules.weights * fvals, phi)

    surf = cq.topo.surface
    rules, phi = cq.segments
    geom = problem.geometry
    if np.any(np.abs(geom.rho(rules.points)) >= geom.validity_radius):
        raise GeometryError("surface extension evaluated outside the "
                            "validity radius of the closest-point map")
    fvals = np.asarray(problem.f_surf(geom.closest_point(rules.points)),
                       dtype=float)
    b[dofmap.surface.dofs_array(surf.element)] += params.c_surf * (
        _rows_dot(rules.weights * fvals, phi))
    return b


def assemble_system(mesh: BackgroundMesh, dls: np.ndarray,
                    topo: CutTopology, dofmap: CombinedDofMap, problem,
                    params: StabilizationParams) -> AssembledSystem:
    """Full system: the ``stabilized`` bulk, surface and coupling forms,
    with the matching load vector."""
    cq = CutQuadrature(mesh, dls, topo)
    # the triplet buffer of the bulk form and its conversion set the peak
    # memory; build the ghost pieces after it so they are not alive then
    bulk = bulk_form(cq, dofmap, params)
    pieces = ghost_pieces(cq, dofmap)
    a = stabilized(bulk, surface_form(cq, dofmap, params),
                   coupling_form(cq, dofmap, params), pieces, params)
    rhs = load_vector(cq, dofmap, problem, params)
    return AssembledSystem(matrix=a, rhs=rhs,
                           prolongation=prolongation(dofmap, mesh))


# ---------------------------------------------------------------------------
# energy norms and property-suite Gram pieces

def gradient_gram(cq: CutQuadrature, dofmap: CombinedDofMap,
                  domain: str) -> sp.csr_matrix:
    """Gram matrix of the broken gradient seminorm on the bulk space,
    over full active elements (``active``) or their negative parts
    (``cut``)."""
    if domain not in ("active", "cut"):
        raise ValueError(f"unknown gradient domain {domain!r}")
    if domain == "active":
        blocks = [_element_blocks(cq, dofmap.bulk, cq.topo.active_bulk)]
    else:
        blocks = _volume_blocks(cq, dofmap.bulk)
    return _accumulate([(dofs, s) for dofs, s, _ in blocks], dofmap.ndof)


def surface_element_mass_gram(cq: CutQuadrature,
                              dofmap: CombinedDofMap) -> sp.csr_matrix:
    """Full-element L2 mass on the surface-active mesh (surface block)."""
    dofs, _, m = _element_blocks(cq, dofmap.surface, cq.topo.active_surface)
    return _accumulate([(dofs, m)], dofmap.ndof)


def surface_tangential_gram(cq: CutQuadrature,
                            dofmap: CombinedDofMap) -> sp.csr_matrix:
    """Tangential stiffness on the discrete surface (surface block)."""
    dofs, s, _ = _segment_blocks(cq, dofmap.surface)
    return _accumulate([(dofs, s)], dofmap.ndof)


def surface_trace_load(cq: CutQuadrature,
                       dofmap: CombinedDofMap) -> np.ndarray:
    """Vector of int_Gamma_h phi_i, used for surface mean values."""
    rules, phi = cq.segments
    load = np.zeros(dofmap.ndof)
    load[dofmap.surface.dofs_array(cq.topo.surface.element)] += _rows_dot(
        rules.weights, phi)
    return load


def energy_gram(cq: CutQuadrature, dofmap: CombinedDofMap,
                params: StabilizationParams, pieces: dict) -> sp.csr_matrix:
    """Gram matrix of the discrete energy norm: ``stabilized`` applied to
    the bulk part (cut-volume H1 norm + h^-1 value jumps on the active
    faces), the surface part (tangential H1 norm + h^-1 edge jumps) and
    the coupling seminorm, with the ghosts from the unit ``pieces`` of
    ``ghost_pieces``."""
    h = cq.mesh.h
    bulk = [(dofs, s + m) for dofs, s, m in _volume_blocks(cq, dofmap.bulk)]
    dofs, lengths, jump, _, _ = _face_blocks(cq, dofmap.bulk,
                                             cq.topo.bulk_faces)
    jump *= (1.0 / h * lengths)[:, None, None]
    bulk.append((dofs, jump))
    dofs, s, m = _segment_blocks(cq, dofmap.surface)
    edge_dofs, jump, _ = _edge_blocks(cq, dofmap.surface)
    surface = [(dofs, s + m), (edge_dofs, (1.0 / h) * jump)]
    return stabilized(_accumulate(bulk, dofmap.ndof),
                      _accumulate(surface, dofmap.ndof),
                      coupling_form(cq, dofmap, params), pieces, params)
