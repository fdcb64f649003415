"""Assembly of the stabilized cut DG forms and energy-norm Gram matrices.

All matrices are assembled on the combined bulk+surface dof map (even
when only one block is populated) so that blocks can be summed directly.
Jumps use the deterministic plus/minus orientation of the mesh faces;
every assembled form is a product of jumps and averages and therefore
independent of that orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import StructuralError
from .levelset import CutTopology, DiscreteLevelSet
from .mesh import BackgroundMesh, element_areas
from .quadrature import (clip_element_rule, surface_segment_rule,
                         triangle_reference_rule)
from .space import (CombinedDofMap, all_element_gradients,
                    evaluate_basis, prolongation)

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
        if not (self.c_bulk > 0.0 and self.c_surf > 0.0):
            raise ValueError("coupling constants must be positive")
        for name in ("gamma_bulk", "gamma_surf", "mu_bulk", "mu_surf",
                     "tau_bulk", "tau_surf"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"penalty weight {name} must be >= 0")


@dataclass(frozen=True)
class AssembledSystem:
    """Sparse symmetric system, right-hand side and assembly metadata.

    prolongation: continuous-P1 injection (``space.prolongation``) that
    gives the solver its coarse space; None for a system without a mesh.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: CombinedDofMap
    params: StabilizationParams
    h: float
    prolongation: sp.csr_matrix | None = None


# ---------------------------------------------------------------------------
# low-level accumulation helpers

def _accumulate(triplets, n: int) -> sp.csr_matrix:
    triplets = [t for t in triplets if t[0].size]
    if not triplets:
        return sp.csr_matrix((n, n))
    i = np.concatenate([t[0] for t in triplets])
    j = np.concatenate([t[1] for t in triplets])
    v = np.concatenate([t[2] for t in triplets])
    return sp.coo_matrix((v, (i, j)), shape=(n, n)).tocsr()


def _scatter(dofs: np.ndarray, blocks: np.ndarray):
    k = dofs.shape[1]
    i = np.broadcast_to(dofs[:, :, None], (dofs.shape[0], k, k))
    j = np.broadcast_to(dofs[:, None, :], (dofs.shape[0], k, k))
    return i.ravel(), j.ravel(), blocks.ravel()


def _split_active(mesh, dls, topo):
    """Active bulk elements split into fully interior and cut ones."""
    vals = dls.values[mesh.elements[topo.active_bulk]]
    cut = vals.max(axis=1) > 0.0
    return topo.active_bulk[~cut], topo.active_bulk[cut]


# ---------------------------------------------------------------------------
# face machinery (shared by jump penalties, consistency terms and ghosts)

def _face_batch(mesh, space, face_ids, grads_all):
    """Per-face jump/flux vectors over the 6 dofs (plus element, minus
    element) of each face in ``face_ids``.

    J0/J1 are the jump coefficient vectors at the two face endpoints (the
    jump along the face is their linear interpolation). g_avg is the
    normal-flux average 0.5 (n.grad+ + n.grad-), g_jump the normal flux
    jump n.grad+ - n.grad-.
    """
    fv = mesh.face_vertices[face_ids]
    fe = mesh.face_elements[face_ids]
    n = mesh.face_normals[face_ids]
    lengths = mesh.face_lengths[face_ids]
    dofs = np.hstack([space.dofs_array(fe[:, 0]), space.dofs_array(fe[:, 1])])
    ep = mesh.elements[fe[:, 0]]
    em = mesh.elements[fe[:, 1]]
    nf = face_ids.size
    r = np.arange(nf)
    J0 = np.zeros((nf, 6))
    J1 = np.zeros((nf, 6))
    if nf:
        lp0 = np.argmax(ep == fv[:, 0:1], axis=1)
        lp1 = np.argmax(ep == fv[:, 1:2], axis=1)
        lm0 = np.argmax(em == fv[:, 0:1], axis=1)
        lm1 = np.argmax(em == fv[:, 1:2], axis=1)
        J0[r, lp0] = 1.0
        J0[r, 3 + lm0] = -1.0
        J1[r, lp1] = 1.0
        J1[r, 3 + lm1] = -1.0
    gp = np.einsum("fkd,fd->fk", grads_all[fe[:, 0]], n)
    gm = np.einsum("fkd,fd->fk", grads_all[fe[:, 1]], n)
    g_avg = 0.5 * np.hstack([gp, gm])
    g_jump = np.hstack([gp, -gm])
    return dofs, J0, J1, g_avg, g_jump, lengths, fv


def _face_jump_blocks(J0, J1, lengths, coef):
    """Exact blocks of coef * int_F [v][w] ds over full faces."""
    o = np.einsum("fi,fj->fij", J0, J0) + np.einsum("fi,fj->fij", J1, J1)
    x = np.einsum("fi,fj->fij", J0, J1) + np.einsum("fi,fj->fij", J1, J0)
    return (o / 3.0 + x / 6.0) * (coef * lengths)[:, None, None]


def _face_gradjump_blocks(g_jump, lengths, coef):
    """Exact blocks of coef * int_F (n.[grad v])(n.[grad w]) ds."""
    blocks = np.einsum("fi,fj->fij", g_jump, g_jump)
    return blocks * (coef * lengths)[:, None, None]


def _face_consistency_blocks(J0, J1, g_avg, lengths, va, vb):
    """Blocks of -({n.grad v},[w]) - ([v],{n.grad w}) over the negative
    part of each face, from the snapped endpoint values (va, vb)."""
    neg_a = va < 0.0
    neg_b = vb < 0.0
    denom = va - vb
    safe = np.where(denom != 0.0, denom, 1.0)
    s = np.where(denom != 0.0, va / safe, 0.0)
    t0 = np.where(neg_a, 0.0, s)
    t1 = np.where(neg_b, 1.0, s)
    outside = ~neg_a & ~neg_b
    t0 = np.where(outside, 0.0, t0)
    t1 = np.where(outside, 0.0, t1)
    i1 = 0.5 * (t1 ** 2 - t0 ** 2)
    i0 = (t1 - t0) - i1
    jw = lengths[:, None] * (i0[:, None] * J0 + i1[:, None] * J1)
    return -(np.einsum("fi,fj->fij", g_avg, jw)
             + np.einsum("fi,fj->fij", jw, g_avg))


# ---------------------------------------------------------------------------
# bulk volume pieces

def _bulk_volume_triplets(mesh, dls, topo, space, degree, mass=True,
                          stiff=True, cut_parts=True):
    grads_all = all_element_gradients(mesh)
    areas = element_areas(mesh)
    uncut, cut = _split_active(mesh, dls, topo)
    triplets = []

    if uncut.size:
        blocks = np.zeros((uncut.size, 3, 3))
        if stiff:
            g = grads_all[uncut]
            blocks += areas[uncut, None, None] * np.einsum("eik,ejk->eij", g, g)
        if mass:
            blocks += areas[uncut, None, None] * _M3[None, :, :]
        triplets.append(_scatter(space.dofs_array(uncut), blocks))

    i_idx, j_idx, vals = [], [], []
    for e in cut:
        tri = mesh.vertices[mesh.elements[e]]
        if cut_parts:
            rule = clip_element_rule(tri, dls.values[mesh.elements[e]], degree)
            if rule.weights.size == 0:
                raise StructuralError(f"active element {e} has an empty cut rule")
            weight = rule.total_weight
            pts, w = rule.points, rule.weights
        else:
            weight = areas[e]
            pts = w = None
        blk = np.zeros((3, 3))
        if stiff:
            g = grads_all[e]
            blk += weight * (g @ g.T)
        if mass:
            if cut_parts:
                phi, _ = evaluate_basis(tri, pts)
                blk += np.einsum("q,qi,qj->ij", w, phi, phi)
            else:
                blk += weight * _M3
        dofs = space.element_dofs(e)
        ii, jj, vv = _scatter(dofs[None, :], blk[None, :, :])
        i_idx.append(ii)
        j_idx.append(jj)
        vals.append(vv)
    if i_idx:
        triplets.append((np.concatenate(i_idx), np.concatenate(j_idx),
                         np.concatenate(vals)))
    return triplets


# ---------------------------------------------------------------------------
# surface pieces (segments and their edges)

def _require_surface(topo):
    if topo.surface is None:
        raise StructuralError("cut topology carries no surface geometry; "
                              "build it with build_cut_topology")
    return topo.surface


def _segment_triplets(mesh, topo, space, degree, mass=True, stiff=True):
    surf = _require_surface(topo)
    grads_all = all_element_gradients(mesh)
    i_idx, j_idx, vals = [], [], []
    for s in range(surf.n_segments):
        e = surf.element[s]
        tri = mesh.vertices[mesh.elements[e]]
        blk = np.zeros((3, 3))
        if stiff:
            g = grads_all[e]
            n = surf.normal[s]
            pg = g - (g @ n)[:, None] * n[None, :]
            blk += surf.length[s] * (pg @ pg.T)
        if mass:
            rule = surface_segment_rule(surf.points[s, 0], surf.points[s, 1],
                                        degree)
            phi, _ = evaluate_basis(tri, rule.points)
            blk += np.einsum("q,qi,qj->ij", rule.weights, phi, phi)
        dofs = space.element_dofs(e)
        ii, jj, vv = _scatter(dofs[None, :], blk[None, :, :])
        i_idx.append(ii)
        j_idx.append(jj)
        vals.append(vv)
    if not i_idx:
        return []
    return [(np.concatenate(i_idx), np.concatenate(j_idx),
             np.concatenate(vals))]


def _edge_triplets(mesh, topo, space, h, gamma, consistency=True):
    """Pointwise edge terms: gamma/h [v][w] and the co-normal consistency
    pair -({ne.grad v},[w]) - ([v],{ne.grad w}), both with the measure-1
    convention for 2D surface edges."""
    surf = _require_surface(topo)
    grads_all = all_element_gradients(mesh)
    i_idx, j_idx, vals = [], [], []
    for k in range(surf.n_edges):
        sp_, sm_ = surf.edge_segments[k]
        point = surf.edge_point[k]
        blk = np.zeros((6, 6))
        phis = []
        flux = []
        for side, s in enumerate((sp_, sm_)):
            e = surf.element[s]
            tri = mesh.vertices[mesh.elements[e]]
            phi, _ = evaluate_basis(tri, point)
            phis.append(phi)
            flux.append(grads_all[e] @ surf.edge_conormals[k, side])
        jump = np.concatenate([phis[0], -phis[1]])
        gavg = 0.5 * np.concatenate([flux[0], -flux[1]])
        if gamma:
            blk += (gamma / h) * np.outer(jump, jump)
        if consistency:
            blk -= np.outer(gavg, jump) + np.outer(jump, gavg)
        dofs = np.concatenate([space.element_dofs(surf.element[sp_]),
                               space.element_dofs(surf.element[sm_])])
        ii, jj, vv = _scatter(dofs[None, :], blk[None, :, :])
        i_idx.append(ii)
        j_idx.append(jj)
        vals.append(vv)
    if not i_idx:
        return []
    return [(np.concatenate(i_idx), np.concatenate(j_idx),
             np.concatenate(vals))]


# ---------------------------------------------------------------------------
# public assemblers (all on the combined dof map)

def assemble_bulk_form(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                       topo: CutTopology, dofmap: CombinedDofMap,
                       params: StabilizationParams,
                       degree: int = 2) -> sp.csr_matrix:
    """Interior-penalty bulk form: cut-volume mass and stiffness, jump
    penalty on full active faces, symmetric consistency fluxes on the
    negative face parts."""
    grads_all = all_element_gradients(mesh)
    triplets = _bulk_volume_triplets(mesh, dls, topo, dofmap.bulk, degree)
    dofs, J0, J1, g_avg, _, lengths, fv = _face_batch(
        mesh, dofmap.bulk, topo.bulk_faces, grads_all)
    triplets.append(_scatter(dofs, _face_jump_blocks(
        J0, J1, lengths, params.gamma_bulk / mesh.h)))
    va = dls.values[fv[:, 0]]
    vb = dls.values[fv[:, 1]]
    triplets.append(_scatter(dofs, _face_consistency_blocks(
        J0, J1, g_avg, lengths, va, vb)))
    return _accumulate(triplets, dofmap.ndof)


def assemble_surface_form(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                          topo: CutTopology, dofmap: CombinedDofMap,
                          params: StabilizationParams,
                          degree: int = 2) -> sp.csr_matrix:
    """Surface form: tangential stiffness and mass on the segments, jump
    penalty and co-normal consistency at the surface edges."""
    triplets = _segment_triplets(mesh, topo, dofmap.surface, degree)
    triplets += _edge_triplets(mesh, topo, dofmap.surface, mesh.h,
                               params.gamma_surf, consistency=True)
    return _accumulate(triplets, dofmap.ndof)


def assemble_coupling_form(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                           topo: CutTopology, dofmap: CombinedDofMap,
                           params: StabilizationParams,
                           degree: int = 2) -> sp.csr_matrix:
    """Robin-type coupling (c_b v_b - c_s v_s, c_b w_b - c_s w_s) over the
    discrete surface; positive semidefinite by construction."""
    surf = _require_surface(topo)
    cb, cs = params.c_bulk, params.c_surf
    i_idx, j_idx, vals = [], [], []
    for s in range(surf.n_segments):
        e = surf.element[s]
        tri = mesh.vertices[mesh.elements[e]]
        rule = surface_segment_rule(surf.points[s, 0], surf.points[s, 1], degree)
        phi, _ = evaluate_basis(tri, rule.points)  # (q, 3)
        r = np.concatenate([cb * phi, -cs * phi], axis=1)  # (q, 6)
        blk = np.einsum("q,qi,qj->ij", rule.weights, r, r)
        dofs = np.concatenate([dofmap.bulk.element_dofs(e),
                               dofmap.surface.element_dofs(e)])
        ii, jj, vv = _scatter(dofs[None, :], blk[None, :, :])
        i_idx.append(ii)
        j_idx.append(jj)
        vals.append(vv)
    if not i_idx:
        return sp.csr_matrix((dofmap.ndof, dofmap.ndof))
    return _accumulate([(np.concatenate(i_idx), np.concatenate(j_idx),
                         np.concatenate(vals))], dofmap.ndof)


def ghost_penalty_pieces(mesh: BackgroundMesh, topo: CutTopology,
                         dofmap: CombinedDofMap) -> dict:
    """Unit-coefficient ghost penalty matrices.

    Keys: ``bulk_value`` (h^-1 value jumps on the ghost band),
    ``bulk_gradient`` (h-weighted normal gradient jumps on the ghost band),
    ``surface_value`` (h^-2 value jumps on the surface-active faces),
    ``surface_gradient`` (normal gradient jumps on the surface-active
    faces). Multiply by mu/tau weights to obtain the ghost forms.
    """
    grads_all = all_element_gradients(mesh)
    h = mesh.h
    out = {}
    dofs, J0, J1, _, g_jump, lengths, _ = _face_batch(
        mesh, dofmap.bulk, topo.bulk_ghost_faces, grads_all)
    out["bulk_value"] = _accumulate(
        [_scatter(dofs, _face_jump_blocks(J0, J1, lengths, 1.0 / h))],
        dofmap.ndof)
    out["bulk_gradient"] = _accumulate(
        [_scatter(dofs, _face_gradjump_blocks(g_jump, lengths, h))],
        dofmap.ndof)
    dofs, J0, J1, _, g_jump, lengths, _ = _face_batch(
        mesh, dofmap.surface, topo.surface_faces, grads_all)
    out["surface_value"] = _accumulate(
        [_scatter(dofs, _face_jump_blocks(J0, J1, lengths, 1.0 / h ** 2))],
        dofmap.ndof)
    out["surface_gradient"] = _accumulate(
        [_scatter(dofs, _face_gradjump_blocks(g_jump, lengths, 1.0))],
        dofmap.ndof)
    return out


def assemble_ghost_bulk(mesh: BackgroundMesh, topo: CutTopology,
                        dofmap: CombinedDofMap,
                        params: StabilizationParams) -> sp.csr_matrix:
    """Ghost penalty on the full faces of the band around the surface:
    mu h^-1 value jumps plus tau h normal-gradient jumps."""
    pieces = ghost_penalty_pieces(mesh, topo, dofmap)
    return (params.mu_bulk * pieces["bulk_value"]
            + params.tau_bulk * pieces["bulk_gradient"]).tocsr()


def assemble_ghost_surface(mesh: BackgroundMesh, topo: CutTopology,
                           dofmap: CombinedDofMap,
                           params: StabilizationParams) -> sp.csr_matrix:
    """Ghost penalty on all faces of the surface-active mesh: mu h^-2
    value jumps plus tau normal-gradient jumps."""
    pieces = ghost_penalty_pieces(mesh, topo, dofmap)
    return (params.mu_surf * pieces["surface_value"]
            + params.tau_surf * pieces["surface_gradient"]).tocsr()


def assemble_rhs(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                 topo: CutTopology, dofmap: CombinedDofMap, problem,
                 params: StabilizationParams, degree: int = 2) -> np.ndarray:
    """Load vector: c_b (f_bulk, v) over the cut volume plus c_s
    (f_surf o p, v) over the discrete surface, the surface data extended
    by the closest-point map of the problem geometry."""
    b = np.zeros(dofmap.ndof)
    bary, wref = triangle_reference_rule(degree)
    areas = element_areas(mesh)

    uncut, cut = _split_active(mesh, dls, topo)
    if uncut.size:
        tris = mesh.vertices[mesh.elements[uncut]]
        pts = np.einsum("mb,kbd->kmd", bary, tris)
        fvals = np.asarray(problem.f_bulk(pts), dtype=float)
        w = wref[None, :] * (areas[uncut, None] / 0.5)
        local = np.einsum("km,mi->ki", w * fvals, bary)
        np.add.at(b, dofmap.bulk.dofs_array(uncut),
                  params.c_bulk * local)
    for e in cut:
        tri = mesh.vertices[mesh.elements[e]]
        rule = clip_element_rule(tri, dls.values[mesh.elements[e]], degree)
        phi, _ = evaluate_basis(tri, rule.points)
        fvals = np.asarray(problem.f_bulk(rule.points), dtype=float)
        b[dofmap.bulk.element_dofs(e)] += params.c_bulk * (
            (rule.weights * fvals) @ phi)

    surf = _require_surface(topo)
    geom = problem.geometry
    for s in range(surf.n_segments):
        e = surf.element[s]
        tri = mesh.vertices[mesh.elements[e]]
        rule = surface_segment_rule(surf.points[s, 0], surf.points[s, 1], degree)
        if np.any(np.abs(geom.rho(rule.points)) >= geom.validity_radius):
            raise ValueError("surface extension evaluated outside the "
                             "validity radius of the closest-point map")
        fvals = np.asarray(problem.f_surf(geom.closest_point(rule.points)),
                           dtype=float)
        phi, _ = evaluate_basis(tri, rule.points)
        b[dofmap.surface.element_dofs(e)] += params.c_surf * (
            (rule.weights * fvals) @ phi)
    return b


def assemble_system(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                    topo: CutTopology, dofmap: CombinedDofMap, problem,
                    params: StabilizationParams,
                    degree: int = 2) -> AssembledSystem:
    """Full stabilized system: c_b (bulk + bulk ghost) + c_s (surface +
    surface ghost) + coupling, with the matching load vector."""
    a = (params.c_bulk * (assemble_bulk_form(mesh, dls, topo, dofmap, params,
                                             degree)
                          + assemble_ghost_bulk(mesh, topo, dofmap, params))
         + params.c_surf * (assemble_surface_form(mesh, dls, topo, dofmap,
                                                  params, degree)
                            + assemble_ghost_surface(mesh, topo, dofmap,
                                                     params))
         + assemble_coupling_form(mesh, dls, topo, dofmap, params, degree))
    rhs = assemble_rhs(mesh, dls, topo, dofmap, problem, params, degree)
    return AssembledSystem(matrix=a.tocsr(), rhs=rhs, dofmap=dofmap,
                           params=params, h=mesh.h,
                           prolongation=prolongation(dofmap, mesh))


# ---------------------------------------------------------------------------
# energy norms and property-suite Gram pieces

def gradient_gram(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                  topo: CutTopology, dofmap: CombinedDofMap,
                  domain: str = "active", degree: int = 2) -> sp.csr_matrix:
    """Gram matrix of the broken gradient seminorm on the bulk space,
    over full active elements (``active``) or their negative parts
    (``cut``)."""
    if domain not in ("active", "cut"):
        raise ValueError(f"unknown gradient domain {domain!r}")
    grads_all = all_element_gradients(mesh)
    areas = element_areas(mesh)
    if domain == "active":
        g = grads_all[topo.active_bulk]
        blocks = areas[topo.active_bulk, None, None] * np.einsum(
            "eik,ejk->eij", g, g)
        return _accumulate(
            [_scatter(dofmap.bulk.dofs_array(topo.active_bulk), blocks)],
            dofmap.ndof)
    triplets = _bulk_volume_triplets(mesh, dls, topo, dofmap.bulk, degree,
                                     mass=False, stiff=True)
    return _accumulate(triplets, dofmap.ndof)


def surface_element_mass_gram(mesh: BackgroundMesh, topo: CutTopology,
                              dofmap: CombinedDofMap) -> sp.csr_matrix:
    """Full-element L2 mass on the surface-active mesh (surface block)."""
    areas = element_areas(mesh)
    act = topo.active_surface
    blocks = areas[act, None, None] * _M3[None, :, :]
    return _accumulate([_scatter(dofmap.surface.dofs_array(act), blocks)],
                       dofmap.ndof)


def surface_tangential_gram(mesh: BackgroundMesh, topo: CutTopology,
                            dofmap: CombinedDofMap) -> sp.csr_matrix:
    """Tangential stiffness on the discrete surface (surface block)."""
    triplets = _segment_triplets(mesh, topo, dofmap.surface, degree=2,
                                 mass=False, stiff=True)
    return _accumulate(triplets, dofmap.ndof)


def surface_trace_mass_gram(mesh: BackgroundMesh, topo: CutTopology,
                            dofmap: CombinedDofMap,
                            degree: int = 2) -> sp.csr_matrix:
    """L2 mass on the discrete surface itself (surface block)."""
    triplets = _segment_triplets(mesh, topo, dofmap.surface, degree,
                                 mass=True, stiff=False)
    return _accumulate(triplets, dofmap.ndof)


def surface_trace_load(mesh: BackgroundMesh, topo: CutTopology,
                       dofmap: CombinedDofMap, degree: int = 2) -> np.ndarray:
    """Vector of int_Gamma_h phi_i, used for surface mean values."""
    surf = _require_surface(topo)
    load = np.zeros(dofmap.ndof)
    for s in range(surf.n_segments):
        e = surf.element[s]
        tri = mesh.vertices[mesh.elements[e]]
        rule = surface_segment_rule(surf.points[s, 0], surf.points[s, 1], degree)
        phi, _ = evaluate_basis(tri, rule.points)
        load[dofmap.surface.element_dofs(e)] += rule.weights @ phi
    return load


def energy_gram(mesh: BackgroundMesh, dls: DiscreteLevelSet,
                topo: CutTopology, dofmap: CombinedDofMap,
                params: StabilizationParams, variant: str = "total",
                degree: int = 2) -> sp.csr_matrix:
    """Gram matrix of the discrete energy norm.

    ``bulk``: cut-volume H1 norm + h^-1 value jumps on active faces +
    bulk ghost penalty. ``surface``: tangential H1 norm on the surface +
    h^-1 edge jumps + surface ghost penalty. ``total``: c_b bulk +
    c_s surface + the coupling seminorm.
    """
    grads_all = all_element_gradients(mesh)

    def bulk():
        triplets = _bulk_volume_triplets(mesh, dls, topo, dofmap.bulk, degree)
        dofs, J0, J1, _, _, lengths, _ = _face_batch(
            mesh, dofmap.bulk, topo.bulk_faces, grads_all)
        triplets.append(_scatter(dofs, _face_jump_blocks(
            J0, J1, lengths, 1.0 / mesh.h)))
        return (_accumulate(triplets, dofmap.ndof)
                + assemble_ghost_bulk(mesh, topo, dofmap, params)).tocsr()

    def surface():
        triplets = _segment_triplets(mesh, topo, dofmap.surface, degree)
        triplets += _edge_triplets(mesh, topo, dofmap.surface, mesh.h,
                                   gamma=1.0, consistency=False)
        return (_accumulate(triplets, dofmap.ndof)
                + assemble_ghost_surface(mesh, topo, dofmap, params)).tocsr()

    if variant == "bulk":
        return bulk()
    if variant == "surface":
        return surface()
    if variant == "total":
        return (params.c_bulk * bulk() + params.c_surf * surface()
                + assemble_coupling_form(mesh, dls, topo, dofmap, params,
                                         degree)).tocsr()
    raise ValueError(f"unknown energy norm variant {variant!r}")


def coordinate_text(matrix: sp.spmatrix) -> str:
    """Plain-text coordinate dump: one ``i j value`` line per entry."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}" for k in order]
    return "\n".join(lines) + "\n"
