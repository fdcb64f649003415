"""Quadrature rules on full and cut entities.

All integrands assembled in this package are products of piecewise-linear
traces and gradients on straight geometry, so the default exactness
degree is 2 everywhere. Error norms use ``ERROR_DEGREE``. Rules carry
physical points and non-negative weights summing to the measure of their
domain. Every rule is built for a batch of entities at once, row k on
entity k (``clip_element_rules``); ``CutQuadrature`` builds the rules of
one topology once for every form and norm on it, the Gauss rules of the
surface segments from the points and lengths of ``SurfaceGeometry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import StructuralError
from .mesh import element_areas
from .space import basis_values


def _sym3(a):
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


_a1, _w1 = 0.445948490915965, 0.223381589678011
_a2, _w2 = 0.091576213509771, 0.109951743655322
# Symmetric triangle rules with positive weights only, by exactness
# degree: barycentric point coordinates and weights normalized to sum to 1.
_TRI_TABLES = {
    2: (np.array([[2 / 3, 1 / 6, 1 / 6],
                  [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3])),
    4: (np.vstack([_sym3(_a1), _sym3(_a2)]),
        np.array([_w1] * 3 + [_w2] * 3)),
}

# exactness degree of the error-norm rules (the forms use the default 2)
ERROR_DEGREE = 4
# elements per band of the bulk form and per chunk of ``bulk_rules`` (load
# vector, error norms), each made and freed one at a time. A band's blocks,
# triplets and conversion take about 4 kB per element. Larger bands leave
# larger transients, which the heap keeps between calls: at level 5 the
# assembly workload's process peak read 142-145 MB with bands of 1,024 and
# 152-154 MB with 4,096, and six run_convergence(levels=5) calls in one
# process 107 and 123 MB; a level-5 assemble_system took 0.53 s at best
# with 1,024 and 0.57 s with 4,096
BAND_ELEMENTS = 1024


@dataclass(frozen=True)
class RuleBatch:
    """Rules of equal size on a batch of entities, row k on entity k.

    points: (k, m, 2) physical points; weights: (k, m) non-negative
    weights, zero only on the padding triangle of a triangular cut part and
    on a triangle without a negative part.
    """

    points: np.ndarray
    weights: np.ndarray


def triangle_reference_rule(degree: int):
    """Barycentric points and weights (summing to 1/2) exact to ``degree``,
    which is 2 (the forms) or ``ERROR_DEGREE`` = 4 (the error norms)."""
    try:
        bary, w = _TRI_TABLES[degree]
    except KeyError:
        raise ValueError(f"no triangle rule tabulated for degree {degree}")
    return bary, 0.5 * w


@lru_cache(maxsize=None)
def _gauss_unit(degree: int):
    """Gauss-Legendre nodes/weights on [0, 1] exact to ``degree``."""
    npts = max(1, (degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def _map_triangles(tris: np.ndarray, degree: int):
    """Points (k, m, 2) and weights (k, m) of the reference rule mapped
    onto a batch of triangles (k, 3, 2)."""
    bary, wref = triangle_reference_rule(degree)
    pts = np.einsum("mb,kbd->kmd", bary, tris)
    areas = np.abs(element_areas(tris))
    return pts, wref[None, :] * (areas[:, None] / 0.5)


def clip_element_rules(tris: np.ndarray, values: np.ndarray,
                       degree: int = 2) -> RuleBatch:
    """Rules on the parts of the triangles tris[k] (k, 3, 2) where the
    interpolant of the vertex values[k] is negative, each part fanned into
    two triangles: a quadrilateral along a diagonal, a triangle into itself
    and a zero-area, zero-weight copy of its last corner. A triangle
    without a negative part gets all-zero weights: its crossings are its
    vertices, so both fan triangles have exactly zero area."""
    j = [1, 2, 0]
    neg = values < 0.0
    change = neg != neg[:, j]
    t = np.zeros(values.shape)
    t[change] = values[change] / (values - values[:, j])[change]
    crossing = tris + t[:, :, None] * (tris[:, j] - tris)
    # walk the boundary: vertex i if negative, then the crossing on edge
    # (i, i+1) if the sign changes there; a part has 3 or 4 corners, and a
    # triangular one repeats its last corner
    candidates = np.stack([tris, crossing], axis=2).reshape(-1, 6, 2)
    keep = np.stack([neg, change], axis=2).reshape(-1, 6)
    size = keep.sum(axis=1)
    corners = np.argsort(~keep, axis=1, kind="stable")[:, :4]
    corners[:, 3] = np.where(size == 3, corners[:, 2], corners[:, 3])
    poly = np.take_along_axis(candidates, corners[:, :, None], axis=1)
    pts, w = _map_triangles(poly[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 2),
                            degree)
    k, m = values.shape[0], 2 * w.shape[1]
    return RuleBatch(pts.reshape(k, m, 2), w.reshape(k, m))


class CutQuadrature:
    """Batched rules and P1 basis data of the cut entities of one topology.

    Each piece is built on first use and then shared by every form and
    norm evaluated on the same mesh, level set, topology and degree (2
    for the forms, ``ERROR_DEGREE`` for the error norms):

    volume: (rules, phi) of the cut-volume rules on the cut elements
        ``topo.active_surface``, phi (k, m, 3) the basis values at the
        rule points.
    segments: (rules, phi) of the surface segments, in segment order.
    """

    def __init__(self, mesh, dls, topo, degree: int = 2):
        self.mesh, self.dls, self.topo, self.degree = mesh, dls, topo, degree

    def bulk_rules(self):
        """(elements, (rules, phi)) of the active bulk elements, made and
        freed one at a time: the uncut ones ascending, in chunks of
        BAND_ELEMENTS, each with the reference rule mapped onto it and phi
        the exact barycentric table of the rule, broadcast read-only; then
        all cut ones (``volume``)."""
        bary = triangle_reference_rule(self.degree)[0]
        for lo in range(0, self.topo.uncut_bulk.size, BAND_ELEMENTS):
            uncut = self.topo.uncut_bulk[lo:lo + BAND_ELEMENTS]
            rules = RuleBatch(*_map_triangles(
                self.mesh.vertices[self.mesh.elements[uncut]], self.degree))
            yield uncut, (rules, np.broadcast_to(bary, (uncut.size,)
                                                 + bary.shape))
        yield self.topo.active_surface, self.volume

    @cached_property
    def volume(self):
        cut = self.topo.active_surface
        nodes = self.mesh.elements[cut]
        tris = self.mesh.vertices[nodes]
        rules = clip_element_rules(tris, self.dls[nodes], self.degree)
        empty = rules.weights.sum(axis=1) == 0.0
        if np.any(empty):
            e = cut[np.flatnonzero(empty)[0]]
            raise StructuralError(f"active element {e} has an empty cut rule")
        return rules, basis_values(tris, rules.points)

    @cached_property
    def segments(self):
        surf = self.topo.surface
        # a topology built by hand may carry a zero-length segment
        if not np.all(surf.length > 0.0):
            raise StructuralError("degenerate surface segment")
        t, w = _gauss_unit(self.degree)
        rules = RuleBatch(surf.at(t), w[None, :] * surf.length[:, None])
        tris = self.mesh.vertices[self.mesh.elements[self.topo.active_surface]]
        return rules, basis_values(tris, rules.points)
