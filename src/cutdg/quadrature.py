"""Quadrature rules on full and cut entities.

All integrands assembled in this package are products of piecewise-linear
traces and gradients on straight geometry, so the default exactness
degree is 2 everywhere. Error norms use ``ERROR_DEGREE``. Rules carry
physical points and non-negative weights summing to the measure of their
domain; a weight is zero only on the padding triangle of a triangular
cut part. Every rule is built for a batch of entities at once
(``clip_element_rules``, ``segment_rules``); ``CutQuadrature`` builds the
rules of one topology once for every form and norm evaluated on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import StructuralError
from .mesh import element_gradients
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


@dataclass(frozen=True)
class RuleBatch:
    """Rules of equal size on a batch of entities.

    index: (k,) position of each entity in the batch the rules were built
        for. points: (k, m, 2) physical points; weights: (k, m) non-negative
        weights, zero only on the padding triangle of a triangular cut part.
    """

    index: np.ndarray
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
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return pts, wref[None, :] * (areas[:, None] / 0.5)


def segment_rules(p0: np.ndarray, p1: np.ndarray, degree: int = 2) -> RuleBatch:
    """Gauss rules on the segments (p0[k], p1[k]); errors on a zero
    length."""
    d = p1 - p0
    # np.linalg.norm of one row is a BLAS dot, which matmul reproduces
    length = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]))[:, 0, 0]
    if not np.all(length > 0.0):
        raise StructuralError("degenerate surface segment")
    t, w = _gauss_unit(degree)
    pts = p0[:, None, :] * (1.0 - t)[None, :, None] \
        + p1[:, None, :] * t[None, :, None]
    return RuleBatch(np.arange(d.shape[0]), pts, w[None, :] * length[:, None])


def clip_element_rules(tris: np.ndarray, values: np.ndarray,
                       degree: int = 2) -> RuleBatch:
    """Rules on the parts of the triangles tris[k] (k, 3, 2) where the
    interpolant of the vertex values[k] is negative, each part fanned into
    two triangles: a quadrilateral along a diagonal, a triangle into itself
    and a zero-area, zero-weight copy of its last corner. A triangle
    without a negative part is not in the batch."""
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
    index = np.flatnonzero(size)
    poly = np.take_along_axis(candidates, corners[:, :, None], axis=1)[index]
    pts, w = _map_triangles(poly[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 2),
                            degree)
    m = 2 * w.shape[1]
    return RuleBatch(index, pts.reshape(index.size, m, 2),
                     w.reshape(index.size, m))


class CutQuadrature:
    """Batched rules and P1 basis data of the cut entities of one topology.

    Each piece is built on first use and then shared by every form and
    norm evaluated on the same mesh, level set, topology and degree (2
    for the forms, ``ERROR_DEGREE`` for the error norms):

    grads: (ne, 3, 2) basis gradients of every background element.
    split: active bulk elements as (uncut, cut); the cut ones are the
        surface-active elements ``topo.active_surface``.
    uncut: (rules, phi) of the reference rule on the uncut active
        elements split[0]; rules.index points into split[0] and phi is
        the exact barycentric table of the rule, broadcast read-only.
    volume: (rules, phi) of the cut-volume rules on the cut elements
        split[1], in that order (rules.index is arange), and phi (k, m, 3)
        the basis values at the rule points.
    segments: (rules, phi) of the surface segments, in segment order.
    """

    def __init__(self, mesh, dls, topo, degree: int = 2):
        self.mesh, self.dls, self.topo, self.degree = mesh, dls, topo, degree

    @cached_property
    def grads(self) -> np.ndarray:
        return element_gradients(self.mesh.vertices[self.mesh.elements])

    @cached_property
    def split(self):
        cut = self.topo.active_surface
        uncut = np.setdiff1d(self.topo.active_bulk, cut, assume_unique=True)
        return uncut, cut

    @cached_property
    def uncut(self):
        uncut = self.split[0]
        bary = triangle_reference_rule(self.degree)[0]
        rules = RuleBatch(np.arange(uncut.size), *_map_triangles(
            self.mesh.vertices[self.mesh.elements[uncut]], self.degree))
        return rules, np.broadcast_to(bary, (uncut.size,) + bary.shape)

    @cached_property
    def volume(self):
        cut = self.split[1]
        nodes = self.mesh.elements[cut]
        tris = self.mesh.vertices[nodes]
        rules = clip_element_rules(tris, self.dls[nodes], self.degree)
        if rules.index.size < cut.size:
            e = cut[np.setdiff1d(np.arange(cut.size), rules.index)[0]]
            raise StructuralError(f"active element {e} has an empty cut rule")
        return rules, basis_values(tris, rules.points)

    @cached_property
    def segments(self):
        surf = self.topo.surface
        rules = segment_rules(surf.points[:, 0], surf.points[:, 1], self.degree)
        tris = self.mesh.vertices[self.mesh.elements[surf.element]]
        return rules, basis_values(tris, rules.points)
