"""Independent brute-force integration oracles for the test suite.

The cut-region oracle decomposes the triangle into vertical slabs and
integrates monomials by 1D quadrature in x with exact antiderivatives in
y; the sign of the linear vertex interpolant restricts each x-section.
It shares no code with the polygon-clipping quadrature it checks. The
condition-number oracle is a dense symmetric eigensolve of the whole
spectrum, and the generalized-extremes oracle deflates the whole dense
Gram and computes every eigenvalue of the deflated pencil.
``fit_slope`` gives the observed rates that the convergence, geometry
and conditioning tests bound, and ``degenerate_positions`` the circle
positions at which a background vertex lies on the circle, so that a
surface segment shrinks to zero.
``line_levelset`` (a half-plane) and ``build_affine_problem`` (an affine
bulk-surface pair on the unit disk) are the exact data of the
straight-surface tests and of the affine exactness check.

The per-entity rules (``clip_element_rule``, ``surface_segment_rule``)
and basis (``evaluate_basis``) are the reference for the batched
``cutdg.quadrature`` rules and ``cutdg.space.basis_values``. The
per-entity reference loops build the unweighted terms of the forms
(stiffness and mass of whole elements, cut elements and segments, jump
and consistency of surface edges, jump, normal-gradient jump and
consistency of faces), the load vectors and the error norms from them,
one element, segment, surface edge or face at a time. The batched
assembly must reproduce them bit for bit, block order included. Each
builder stands in for the ``cutdg.forms`` function of the same name
(with a leading underscore for the block builders; ``stand_in`` swaps
them all in) and takes its arguments, but reads only the mesh, level
set, topology and degree from the ``CutQuadrature``.
``accumulate`` expands (dofs, blocks) parts into triplets one block at a
time, the reference of the single triplet buffer of ``forms._accumulate``.
``bulk_matrix`` joins the row bands of ``forms.bulk_form`` into the whole
bulk form, for the tests that read it as one matrix.
``face_connectivity_reference`` lists interior faces through a dict
keyed by vertex pair, and ``nested_dissection_reference`` orders points
by one recursive call per subdomain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

import cutdg.forms as forms
from cutdg.exceptions import StructuralError
from cutdg.levelset import LevelSet, circle_levelset
from cutdg.manufactured import ErrorReport, ManufacturedProblem
from cutdg.mesh import element_areas, element_gradients
from cutdg.quadrature import (ERROR_DEGREE, _gauss_unit, _map_triangles,
                              clip_element_rules, triangle_reference_rule)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_PANELS = 96


def _interpolant_coefficients(tri, values):
    """Coefficients (c0, c1, c2) of the affine interpolant
    c0 + c1 x + c2 y matching the vertex values."""
    a = np.column_stack([np.ones(3), tri[:, 0], tri[:, 1]])
    return np.linalg.solve(a, values)


def _sections(tri, x):
    """y-intervals (ylo, yhi) of the triangle at the abscissas x, and
    where each is not empty: an edge not parallel to the y-axis meets
    abscissa x inside its x-range, and a section needs two such meets."""
    ys, meets = [], []
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        lo, hi = min(p[0], q[0]), max(p[0], q[0])
        if not hi > lo:
            continue
        t = (x - p[0]) / (q[0] - p[0])
        ys.append(p[1] + t * (q[1] - p[1]))
        meets.append((lo <= x) & (x <= hi) & (0.0 <= t) & (t <= 1.0))
    ys, meets = np.array(ys), np.array(meets)
    return (np.where(meets, ys, np.inf).min(axis=0),
            np.where(meets, ys, -np.inf).max(axis=0), meets.sum(axis=0) >= 2)


def integrate_negative_monomial(tri, values, a: int, b: int) -> float:
    """Brute-force integral of x^a y^b over the sub-region of ``tri``
    where the linear interpolant of ``values`` is negative: _PANELS
    panels of 8 Gauss points in x per slab, evaluated as arrays."""
    tri = np.asarray(tri, dtype=float)
    values = np.asarray(values, dtype=float)
    c0, c1, c2 = _interpolant_coefficients(tri, values)
    # slab boundaries: vertex abscissas plus the abscissas where the zero
    # line crosses an edge (the inner integrand kinks there)
    breaks = list(tri[:, 0])
    for i in range(3):
        j = (i + 1) % 3
        if (values[i] < 0.0) != (values[j] < 0.0):
            t = values[i] / (values[i] - values[j])
            breaks.append(tri[i, 0] + t * (tri[j, 0] - tri[i, 0]))
    xs = np.sort(np.asarray(breaks))
    total = 0.0
    for xl, xr in zip(xs[:-1], xs[1:]):
        if xr - xl <= 0.0:
            continue
        edges = np.linspace(xl, xr, _PANELS + 1)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GAUSS_X
        ylo, yhi, keep = _sections(tri, x)
        # restrict to the negative part of the linear interpolant
        if abs(c2) < 1e-300:
            keep &= c0 + c1 * x < 0.0
        elif c2 > 0.0:
            yhi = np.minimum(yhi, -(c0 + c1 * x) / c2)
        else:
            ylo = np.maximum(ylo, -(c0 + c1 * x) / c2)
        keep &= yhi > ylo
        ylo, yhi = np.where(keep, ylo, 0.0), np.where(keep, yhi, 0.0)
        inner = (yhi ** (b + 1) - ylo ** (b + 1)) / (b + 1)
        total += float(np.sum(_GAUSS_W * half * x ** a * inner))
    return total


def random_cut_triangles(rng, count: int):
    """``count`` triangles (count, 3, 2) in [-1.5, 1.5]^2 with vertex values
    (count, 3) in [-1, 1], drawn one triangle at a time; a triangle with
    twice its signed area below 0.05, or values that do not reach both
    -1e-3 and 1e-3, is drawn again."""
    tris, values = [], []
    while len(tris) < count:
        tri = rng.uniform(-1.5, 1.5, size=(3, 2))
        d1 = tri[1] - tri[0]
        d2 = tri[2] - tri[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0.05:
            continue
        vals = rng.uniform(-1.0, 1.0, size=3)
        if vals.min() > -1e-3 or vals.max() < 1e-3:
            continue
        tris.append(tri)
        values.append(vals)
    return np.array(tris), np.array(values)


def cut_monomial_pairs(tris, values, degree: int = 2):
    """(approx, exact) integrals of x^a y^b, a + b <= 2, over the negative
    part of each cut triangle: approx by the batched
    ``clip_element_rules``, exact by ``integrate_negative_monomial``.
    Every triangle must have a rule of positive total weight."""
    pairs = []
    rules = clip_element_rules(tris, values, degree)
    if not np.all(rules.weights.sum(axis=1) > 0.0):
        raise AssertionError("a cut triangle has an empty batched rule")
    for tri, vals, points, weights in zip(tris, values, rules.points,
                                          rules.weights):
        for a in range(3):
            for b in range(3 - a):
                approx = float(weights @ (points[:, 0] ** a
                                          * points[:, 1] ** b))
                pairs.append((approx, integrate_negative_monomial(
                    tri, vals, a, b)))
    return pairs


def degenerate_positions(mesh) -> np.ndarray:
    """Distinct positions delta in [0, 1] at which a background vertex x_v
    lies on the unit circle centred at delta * cell: the real roots of
    |x_v - delta * cell| = 1, a quadratic in delta."""
    cell = np.asarray(mesh.cell)
    x = mesh.vertices
    a = cell @ cell
    b = x @ cell
    disc = b ** 2 - a * (np.einsum("ij,ij->i", x, x) - 1.0)
    root = np.sqrt(disc[disc >= 0.0])
    b = b[disc >= 0.0]
    roots = np.concatenate([(b - root) / a, (b + root) / a])
    return np.unique(np.round(roots[(roots >= 0.0) & (roots <= 1.0)], 12))


def dense_condition_number(matrix, zero_threshold: float = 1e-12):
    """(kappa, lambda_min_nonzero, lambda_max, nullity) of a sparse
    symmetric matrix from all its eigenvalues, where |lambda| <=
    zero_threshold * |lambda|_max counts as zero."""
    eigs = np.abs(scipy.linalg.eigvalsh(matrix.toarray()))
    lam_max = float(eigs.max())
    nonzero = eigs[eigs > zero_threshold * lam_max]
    lam_min = float(nonzero.min())
    return lam_max / lam_min, lam_min, lam_max, eigs.size - nonzero.size


def dense_gram_basis(b):
    """Basis W of the numerical range of the positive semidefinite B with
    W^T B W = I, from the eigendecomposition of the whole dense B: the
    eigenvectors with an eigenvalue above 1e-10 times the largest,
    scaled."""
    w, v = np.linalg.eigh(b.toarray())
    keep = w > 1e-10 * w.max()
    return v[:, keep] / np.sqrt(w[keep])[None, :]


def dense_generalized_extremes(a, b):
    """Smallest and largest generalized eigenvalue of (A, B) after
    deflating the numerical null space of B: every eigenvalue of the dense
    deflated pencil W^T A W, with W the ``dense_gram_basis`` of B."""
    basis = dense_gram_basis(b)
    eigs = np.linalg.eigvalsh(basis.T @ (a.toarray() @ basis))
    return float(eigs.min()), float(eigs.max())


# ---------------------------------------------------------------------------
# straight and affine exact data

def line_levelset(normal, offset: float) -> LevelSet:
    """Half-plane level set rho(x) = n.x - offset with |n| = 1."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)

    def rho(x):
        return np.asarray(x, dtype=float) @ n - offset

    def closest(x):
        x = np.asarray(x, dtype=float)
        return x - rho(x)[..., None] * n

    def nrm(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(n, x.shape).copy()

    return LevelSet(rho=rho, closest_point=closest, normal=nrm,
                    validity_radius=np.inf)


def build_affine_problem(coeffs=(0.7, 0.3, -0.2), c_bulk: float = 1.0,
                         c_surf: float = 1.0) -> ManufacturedProblem:
    """Globally affine bulk solution alpha + beta x + gamma y on the unit
    disk with the coupling-derived (affine) surface solution. Used for
    reproduction and consistency checks.

    Unlike the generic case, the affine surface solution has a canonical
    ambient extension (itself), so u_surf_ext evaluates it directly; the
    closest-point extension of an affine function is not affine and would
    put an artificial geometric floor under the reproduction error."""
    alpha, beta, gamma = (float(c) for c in coeffs)
    geometry = circle_levelset((0.0, 0.0), 1.0)
    # surface solution (c_bulk u + du/dn)/c_surf is affine as well
    sa = c_bulk * alpha / c_surf
    sb = (c_bulk + 1.0) * beta / c_surf
    sc = (c_bulk + 1.0) * gamma / c_surf

    def u_bulk(p):
        return alpha + beta * p[..., 0] + gamma * p[..., 1]

    def grad_u_bulk(p):
        p = np.asarray(p, dtype=float)
        g = np.empty(p.shape)
        g[..., 0] = beta
        g[..., 1] = gamma
        return g

    def u_surf(p):
        return sa + sb * p[..., 0] + sc * p[..., 1]

    def f_surf(p):
        # Laplace-Beltrami of an affine function on the unit circle is
        # minus its linear part.
        x, y = p[..., 0], p[..., 1]
        return (sb * x + sc * y) + u_surf(p) + (beta * x + gamma * y)

    def grad_u_surf(p):
        p = np.asarray(p, dtype=float)
        g = np.empty(p.shape)
        g[..., 0] = sb
        g[..., 1] = sc
        return g

    return ManufacturedProblem(u_bulk, grad_u_bulk, u_bulk, u_surf, f_surf,
                               u_surf, grad_u_surf, geometry)


def fit_slope(h_values, quantities) -> float:
    """Least-squares slope of log(quantity) against log(h)."""
    h_values = np.asarray(h_values, dtype=float)
    quantities = np.asarray(quantities, dtype=float)
    return float(np.polyfit(np.log(h_values), np.log(quantities), 1)[0])


def face_connectivity_reference(elements):
    """(face_vertices, face_elements) of the interior faces: sorted vertex
    pairs in ascending order, the lower incident element first."""
    owners = {}
    for e, tri in enumerate(np.asarray(elements).tolist()):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            owners.setdefault((min(a, b), max(a, b)), []).append(e)
    interior = [key for key in sorted(owners) if len(owners[key]) == 2]
    return (np.array(interior, dtype=np.int64).reshape(-1, 2),
            np.array([sorted(owners[key]) for key in interior],
                     dtype=np.int64).reshape(-1, 2))


def nested_dissection_reference(points, pairs, leaf: int) -> np.ndarray:
    """The rank of ``mesh.nested_dissection_rank`` by a recursion over one
    subdomain at a time, each a list of point ids in its current order."""
    points = np.asarray(points, dtype=float)
    neighbours = [set() for _ in range(len(points))]
    for a, b in np.asarray(pairs).tolist():
        neighbours[a].add(b)
        neighbours[b].add(a)
    rank = np.empty(len(points), dtype=np.int64)

    def place(ids, start):
        if not ids:
            return
        extent = np.ptp(points[ids], axis=0)
        if len(ids) <= leaf or not np.any(extent > 0.0):
            rank[ids] = start + np.arange(len(ids))
            return
        axis = int(extent[1] > extent[0])
        ids = sorted(ids, key=lambda i: points[i, axis])  # stable
        median = points[ids[len(ids) // 2], axis]
        left = [i for i in ids if points[i, axis] < median] or \
            [i for i in ids if points[i, axis] == median]
        right = [i for i in ids if i not in set(left)]
        cut = [i for i in left if neighbours[i] & set(right)]
        rest = [i for i in left if i not in set(cut)]
        rank[cut] = start + len(ids) - len(cut) + np.arange(len(cut))
        place(rest, start)
        place(right, start + len(rest))

    place(list(range(len(points))), 0)
    return rank


# ---------------------------------------------------------------------------
# per-entity rules and basis

@dataclass(frozen=True)
class QuadratureRule:
    """Physical quadrature points (m, 2) and positive weights (m,)."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def surface_segment_rule(p0, p1, degree: int = 2) -> QuadratureRule:
    """Gauss rule on a surface segment; errors on zero length."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    if not length > 0.0:
        raise StructuralError("degenerate surface segment")
    t, w = _gauss_unit(degree)
    pts = p0[None, :] * (1.0 - t)[:, None] + p1[None, :] * t[:, None]
    return QuadratureRule(pts, w * length)


def negative_polygon(tri, values) -> np.ndarray:
    """Vertices (CCW) of the sub-polygon of ``tri`` where the linear
    interpolant of ``values`` is negative. Empty array if none."""
    tri = np.asarray(tri, dtype=float)
    values = np.asarray(values, dtype=float)
    poly = []
    for i in range(3):
        j = (i + 1) % 3
        if values[i] < 0.0:
            poly.append(tri[i])
        if (values[i] < 0.0) != (values[j] < 0.0):
            t = values[i] / (values[i] - values[j])
            poly.append(tri[i] + t * (tri[j] - tri[i]))
    return np.asarray(poly, dtype=float).reshape(-1, 2)


def clip_element_rule(tri, values, degree: int = 2) -> QuadratureRule:
    """Rule on the part of ``tri`` where the interpolant of the vertex
    ``values`` is negative (no points if there is none). The sub-polygon
    (triangle or quadrilateral) is fanned into at most two triangles."""
    poly = negative_polygon(tri, values)
    if poly.shape[0] == 0:
        return QuadratureRule(np.empty((0, 2)), np.empty(0))
    if poly.shape[0] == 3:
        tris = poly[None, :, :]
    else:  # quadrilateral
        tris = np.stack([poly[[0, 1, 2]], poly[[0, 2, 3]]])
    pts, weights = _map_triangles(tris, degree)
    return QuadratureRule(pts.reshape(-1, 2), weights.reshape(-1))


def evaluate_basis(tri: np.ndarray, points: np.ndarray):
    """Barycentric basis values and gradients on one triangle.

    Returns (values, gradients) with values of shape (..., 3) for points
    of shape (..., 2) and constant gradients of shape (3, 2). Values sum
    to 1 and gradients sum to the zero vector.
    """
    tri = np.asarray(tri, dtype=float)
    grads = element_gradients(tri)
    points = np.asarray(points, dtype=float)
    rel = points - tri[0]
    lam1 = rel @ grads[1]
    lam2 = rel @ grads[2]
    values = np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=-1)
    return values, grads


# ---------------------------------------------------------------------------
# per-entity reference loops of the batched assembly

def accumulate(parts, n: int) -> sp.csr_matrix:
    """Reference of ``forms._accumulate``: the (row, column, value)
    triplets of every (dofs, blocks) part, block by block in list order,
    concatenated and converted by ``coo_matrix(...).tocsr()``."""
    rows = [np.zeros(0, dtype=np.int64)]
    cols = [np.zeros(0, dtype=np.int64)]
    vals = [np.zeros(0)]
    for dofs, blocks in parts:
        for d, blk in zip(dofs, blocks):
            rows.append(np.repeat(d, d.size))
            cols.append(np.tile(d, d.size))
            vals.append(blk.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def stand_in(monkeypatch):
    """Swap every per-entity builder in for its ``cutdg.forms`` function,
    so that the forms built through the module are the reference."""
    for name in ("_element_blocks", "_cut_element_blocks", "_segment_blocks",
                 "_edge_blocks", "_face_blocks", "coupling_form",
                 "load_vector"):
        monkeypatch.setattr(forms, name, globals()[name.lstrip("_")])


def bulk_matrix(cq, dofmap, params) -> sp.csr_matrix:
    """The whole bulk form: the row bands of ``forms.bulk_form`` joined by
    ``forms._join_rows``."""
    nnz, bands = forms.bulk_form(cq, dofmap, params)
    return forms._join_rows(bands, dofmap.ndof, nnz)


def _part(blocks, k: int):
    """One (dofs, blocks) part from (dofs, block) pairs in list order."""
    dofs = np.array([d for d, _ in blocks], dtype=np.int64).reshape(-1, k)
    return dofs, np.array([blk for _, blk in blocks]).reshape(-1, k, k)


def _terms(entities, k: int):
    """(dofs, first, second) of a batch from per-entity (dofs, first,
    second) triples in list order."""
    dofs, first, second = zip(*entities) if entities else ((), (), ())
    return (np.array(dofs, dtype=np.int64).reshape(-1, k),
            np.array(first).reshape(-1, k, k),
            np.array(second).reshape(-1, k, k))


def _split(mesh, dls, topo):
    vals = dls[mesh.elements[topo.active_bulk]]
    cut = vals.max(axis=1) > 0.0
    return topo.active_bulk[~cut], topo.active_bulk[cut]


def _tri(mesh, e):
    return mesh.vertices[mesh.elements[e]]


def _dofs(space, e):
    """Global dof triple of the active element e."""
    return space.dofs_array(np.array([e]))[0]


def element_blocks(cq, space, elements):
    """|K| grad(phi) grad(phi)^T and |K| M3, one whole element at a time;
    the stiffness as the sum of the outer products of the x and the y
    derivatives."""
    mesh = cq.mesh
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    areas = element_areas(mesh.vertices[mesh.elements])
    m3 = (np.ones((3, 3)) + np.eye(3)) / 12.0
    entities = []
    for e in elements:
        g = grads_all[e]
        stiffness = np.outer(g[:, 0], g[:, 0]) + np.outer(g[:, 1], g[:, 1])
        entities.append((_dofs(space, e), areas[e] * stiffness,
                         areas[e] * m3))
    return _terms(entities, 3)


def cut_element_blocks(cq, space, which=slice(None)):
    """Stiffness and mass of each cut element in the slice ``which`` of
    the cut elements by its clipped rule."""
    mesh, dls = cq.mesh, cq.dls
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    _, cut = _split(mesh, dls, cq.topo)
    entities = []
    for e in cut[which]:
        rule = clip_element_rule(_tri(mesh, e), dls[mesh.elements[e]],
                                 cq.degree)
        if rule.weights.size == 0:
            raise StructuralError(f"active element {e} has an empty cut rule")
        g = grads_all[e]
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        entities.append((_dofs(space, e), rule.total_weight * (g @ g.T),
                         np.einsum("q,qi,qj->ij", rule.weights, phi, phi)))
    return _terms(entities, 3)


def _segment_rule(surf, s, degree):
    return surface_segment_rule(surf.points[s, 0], surf.points[s, 1], degree)


def segment_blocks(cq, space):
    mesh, surf = cq.mesh, cq.topo.surface
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    entities = []
    for s in range(surf.n_segments):
        e = cq.topo.active_surface[s]
        g = grads_all[e]
        n = surf.normal[s]
        pg = g - (g @ n)[:, None] * n[None, :]
        rule = _segment_rule(surf, s, cq.degree)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        entities.append((_dofs(space, e), surf.length[s] * (pg @ pg.T),
                         np.einsum("q,qi,qj->ij", rule.weights, phi, phi)))
    return _terms(entities, 3)


def edge_blocks(cq, space):
    mesh, surf = cq.mesh, cq.topo.surface
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    entities = []
    for k in range(surf.n_edges):
        phis, flux = [], []
        for side, s in enumerate(surf.edge_segments[k]):
            e = cq.topo.active_surface[s]
            phi, _ = evaluate_basis(_tri(mesh, e), surf.edge_point[k])
            phis.append(phi)
            flux.append(grads_all[e] @ surf.edge_conormals[k, side])
        jump = np.concatenate([phis[0], -phis[1]])
        gavg = 0.5 * np.concatenate([flux[0], -flux[1]])
        entities.append((np.concatenate(
            [_dofs(space, cq.topo.active_surface[s])
             for s in surf.edge_segments[k]]), np.outer(jump, jump),
            -(np.outer(gavg, jump) + np.outer(jump, gavg))))
    return _terms(entities, 6)


def face_blocks(cq, space, faces):
    """Dofs, lengths, unit jump blocks, normal-gradient jumps (one row of
    6 per face) and consistency blocks of the faces, one face at a time.
    The jump vectors at the endpoints come from the local index of each
    endpoint in the plus and the minus element, the integrals along the
    face from np.outer products of them, and the negative part of the
    face from a branch on the signs of the level set at its endpoints. The
    unit normal is the right-hand normal of the face, negated where it
    points from the face midpoint towards the plus centroid, and the
    length is summed in the order of np.linalg.norm. A normal derivative
    is the x product plus the y product, as the batched contraction sums
    them; a matmul can fuse the two and round differently."""
    mesh, dls = cq.mesh, cq.dls
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    dofs, lengths, jumps, gjumps, consistencies = [], [], [], [], []
    for f in faces:
        plus, minus = mesh.faces.elements[f]
        ends = []
        for v in mesh.faces.vertices[f]:
            j = np.zeros(6)
            j[list(mesh.elements[plus]).index(v)] = 1.0
            j[3 + list(mesh.elements[minus]).index(v)] = -1.0
            ends.append(j)
        j0, j1 = ends
        pa, pb = mesh.vertices[mesh.faces.vertices[f]]
        d = pb - pa
        length = np.sqrt(d[0] * d[0] + d[1] * d[1])
        n = np.array([d[1], -d[0]]) / length
        centroid = mesh.vertices[mesh.elements[plus]].mean(axis=0)
        if n @ (0.5 * (pa + pb) - centroid) < 0.0:
            n = -n
        dn = [grads_all[e][:, 0] * n[0] + grads_all[e][:, 1] * n[1]
              for e in (plus, minus)]
        gjump = np.concatenate([dn[0], -dn[1]])
        gavg = 0.5 * np.concatenate(dn)
        va, vb = dls[mesh.faces.vertices[f]]
        if va < 0.0 and vb < 0.0:
            t0, t1 = 0.0, 1.0
        elif va < 0.0:
            t0, t1 = 0.0, va / (va - vb)
        elif vb < 0.0:
            t0, t1 = va / (va - vb), 1.0
        else:
            t0, t1 = 0.0, 0.0
        i1 = 0.5 * (t1 * t1 - t0 * t0)
        i0 = (t1 - t0) - i1
        jw = length * (i0 * j0 + i1 * j1)
        dofs.append(np.concatenate([_dofs(space, plus), _dofs(space, minus)]))
        lengths.append(length)
        jumps.append((np.outer(j0, j0) + np.outer(j1, j1)) / 3.0
                     + (np.outer(j0, j1) + np.outer(j1, j0)) / 6.0)
        gjumps.append(gjump)
        consistencies.append(-(np.outer(gavg, jw) + np.outer(jw, gavg)))
    return (np.array(dofs, dtype=np.int64).reshape(-1, 6),
            np.array(lengths, dtype=float),
            np.array(jumps, dtype=float).reshape(-1, 6, 6),
            np.array(gjumps, dtype=float).reshape(-1, 6),
            np.array(consistencies, dtype=float).reshape(-1, 6, 6))


def coupling_form(cq, dofmap, params):
    mesh, surf = cq.mesh, cq.topo.surface
    blocks = []
    for s in range(surf.n_segments):
        e = cq.topo.active_surface[s]
        rule = _segment_rule(surf, s, cq.degree)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        r = np.concatenate([params.c_bulk * phi, -params.c_surf * phi], axis=1)
        blocks.append((np.concatenate([_dofs(dofmap.bulk, e),
                                       _dofs(dofmap.surface, e)]),
                       np.einsum("q,qi,qj->ij", rule.weights, r, r)))
    return accumulate([_part(blocks, 6)], dofmap.ndof)


def load_vector(cq, dofmap, problem, params):
    mesh, dls, degree = cq.mesh, cq.dls, cq.degree
    b = np.zeros(dofmap.ndof)
    uncut, cut = _split(mesh, dls, cq.topo)
    if uncut.size:
        bary, wref = triangle_reference_rule(degree)
        tris = mesh.vertices[mesh.elements[uncut]]
        pts = np.einsum("mb,kbd->kmd", bary, tris)
        w = wref[None, :] * (element_areas(tris)[:, None] / 0.5)
        local = np.einsum("km,mi->ki",
                          w * np.asarray(problem.f_bulk(pts), dtype=float), bary)
        np.add.at(b, dofmap.bulk.dofs_array(uncut), params.c_bulk * local)
    for e in cut:
        rule = clip_element_rule(_tri(mesh, e), dls[mesh.elements[e]],
                                 degree)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        fvals = np.asarray(problem.f_bulk(rule.points), dtype=float)
        b[_dofs(dofmap.bulk, e)] += params.c_bulk * np.einsum(
            "m,mi->i", rule.weights * fvals, phi)
    surf, geom = cq.topo.surface, problem.geometry
    for s in range(surf.n_segments):
        e = cq.topo.active_surface[s]
        rule = _segment_rule(surf, s, degree)
        fvals = np.asarray(problem.f_surf(geom.closest_point(rule.points)),
                           dtype=float)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        b[_dofs(dofmap.surface, e)] += params.c_surf * (
            (rule.weights * fvals) @ phi)
    return b


def surface_trace_load(mesh, topo, dofmap, degree=2):
    surf = topo.surface
    load = np.zeros(dofmap.ndof)
    for s in range(surf.n_segments):
        e = topo.active_surface[s]
        rule = _segment_rule(surf, s, degree)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        load[_dofs(dofmap.surface, e)] += rule.weights @ phi
    return load


def compute_errors(coeffs, problem, mesh, dls, topo, dofmap,
                   degree=ERROR_DEGREE):
    """Running sums over the uncut elements, then cut elements, then
    segments, one entity at a time."""
    grads_all = element_gradients(mesh.vertices[mesh.elements])
    uncut, cut = _split(mesh, dls, topo)
    l2b = semib = l2s = semis = 0.0
    bary, wref = triangle_reference_rule(degree)
    tris = mesh.vertices[mesh.elements[uncut]]
    pts = np.einsum("mb,kbd->kmd", bary, tris)
    w = wref[None, :] * (element_areas(tris)[:, None] / 0.5)
    for k, e in enumerate(uncut):
        u_elem = coeffs[_dofs(dofmap.bulk, e)]
        diff = bary @ u_elem - np.asarray(problem.u_bulk(pts[k]), dtype=float)
        l2b += float(w[k] @ diff ** 2)
        gdiff = (grads_all[e].T @ u_elem)[None, :] \
            - np.asarray(problem.grad_u_bulk(pts[k]), dtype=float)
        semib += float(w[k] @ np.sum(gdiff ** 2, axis=-1))
    for e in cut:
        rule = clip_element_rule(_tri(mesh, e), dls[mesh.elements[e]],
                                 degree)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        u_elem = coeffs[_dofs(dofmap.bulk, e)]
        diff = phi @ u_elem - np.asarray(problem.u_bulk(rule.points),
                                         dtype=float)
        l2b += float(rule.weights @ diff ** 2)
        gdiff = (grads_all[e].T @ u_elem)[None, :] \
            - np.asarray(problem.grad_u_bulk(rule.points), dtype=float)
        semib += float(rule.weights @ np.sum(gdiff ** 2, axis=-1))
    surf = topo.surface
    for s in range(surf.n_segments):
        e = topo.active_surface[s]
        rule = _segment_rule(surf, s, degree)
        phi, _ = evaluate_basis(_tri(mesh, e), rule.points)
        u_elem = coeffs[_dofs(dofmap.surface, e)]
        diff = phi @ u_elem - np.asarray(problem.u_surf_ext(rule.points),
                                         dtype=float)
        l2s += float(rule.weights @ diff ** 2)
        n = surf.normal[s]
        gdiff = (grads_all[e].T @ u_elem)[None, :] \
            - np.asarray(problem.grad_u_surf_ext(rule.points), dtype=float)
        tangential = gdiff - np.einsum("qd,d->q", gdiff, n)[:, None] * n[None, :]
        semis += float(rule.weights @ np.sum(tangential ** 2, axis=-1))
    return ErrorReport(l2_bulk=np.sqrt(l2b), h1_bulk=np.sqrt(l2b + semib),
                       l2_surf=np.sqrt(l2s), h1_surf=np.sqrt(l2s + semis))
