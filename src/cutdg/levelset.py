"""Level sets, discrete level sets and the cut topology they induce.

The surface is described by a signed distance function (negative inside
the bulk domain). Its continuous piecewise-linear interpolant on the
background mesh, the discrete level set, is held as its array of vertex
values; it defines the discrete surface (zero level set) and the
discrete bulk domain (negative region). This module classifies active
elements and faces, extracts the polygonal surface segments with their
normals and edge co-normals, and checks how well the discrete geometry
approximates the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import ConfigurationError, GeometryError, StructuralError
from .mesh import (BackgroundMesh, edge_key, element_gradients, group_keys,
                   row_dot)

SNAP_FACTOR = 1e-10
DEGENERATE_SEGMENT_FACTOR = 1e-14
# points per segment at which check_geometry_assumptions samples
GEOMETRY_SAMPLES = 8


@dataclass(frozen=True)
class LevelSet:
    """Signed distance description of a closed (or plane) surface.

    rho: signed distance, negative inside the bulk domain; vectorized
        over (..., 2) point arrays.
    closest_point: map onto the surface, defined for |rho| < validity_radius.
    normal: exact unit normal at the closest point of the argument.
    validity_radius: radius of the tubular neighborhood on which the
        closest-point map is well defined.
    """

    rho: Callable[[np.ndarray], np.ndarray]
    closest_point: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    validity_radius: float


def circle_levelset(center=(0.0, 0.0), radius: float = 1.0) -> LevelSet:
    c = np.asarray(center, dtype=float)

    def offset(x):  # x - c and |x - c|, shared by all three maps
        d = np.asarray(x, dtype=float) - c
        return d, np.linalg.norm(d, axis=-1)

    def rho(x):
        return offset(x)[1] - radius

    def normal(x):
        d, r = offset(x)
        return d / r[..., None]

    def closest(x):
        d, r = offset(x)
        if np.any(r == 0.0):
            raise ValueError("closest point undefined at the circle center")
        return c + radius * d / r[..., None]

    return LevelSet(rho=rho, closest_point=closest, normal=normal,
                    validity_radius=radius)


def interpolate_levelset(ls: LevelSet, mesh: BackgroundMesh) -> np.ndarray:
    """Vertex values of the continuous piecewise-linear interpolant of
    ``ls`` on ``mesh``. Values within SNAP_FACTOR * h of zero are replaced
    by -SNAP_FACTOR * h (the snap), so every vertex value is nonzero, as
    ``build_cut_topology`` requires, and the surface never meets a vertex."""
    values = np.asarray(ls.rho(mesh.vertices), dtype=float).copy()
    snap = SNAP_FACTOR * mesh.h
    values[np.abs(values) < snap] = -snap
    return values


@dataclass(frozen=True)
class SurfaceGeometry:
    """Polygonal discrete surface: one straight segment per cut element,
    segment k in the cut element ``CutTopology.active_surface[k]``.

    points: (ns, 2, 2) segment endpoints, from which ``length`` and ``at``
        derive the rest; shared endpoints are bit-identical because they
        are computed once per mesh edge.
    normal: (ns, 2) unit segment normal pointing into the positive region.
    edge_point: (nE, 2) interior surface edges (points shared by exactly
        two segments).
    edge_segments: (nE, 2) incident segment indices, plus side first
        (lower owning element index).
    edge_conormals: (nE, 2, 2) outward unit co-normals of the plus and
        minus segment at the edge.
    """

    points: np.ndarray
    normal: np.ndarray
    edge_point: np.ndarray
    edge_segments: np.ndarray
    edge_conormals: np.ndarray

    @cached_property
    def length(self) -> np.ndarray:
        """(ns,) segment lengths, the one length every reader uses."""
        d = self.points[:, 1] - self.points[:, 0]
        return np.sqrt(row_dot(d, d[:, :, None]))[:, 0]

    def at(self, t: np.ndarray) -> np.ndarray:
        """(ns, m, 2) points at t (m,) along each segment, 0 at its start."""
        return (self.points[:, None, 0, :] * (1.0 - t)[None, :, None]
                + self.points[:, None, 1, :] * t[None, :, None])

    @property
    def n_segments(self) -> int:
        return self.points.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_point.shape[0]


@dataclass(frozen=True)
class CutTopology:
    """Active meshes, face sets and the extracted discrete surface.

    active_bulk: elements whose interior meets the discrete bulk domain
        (some vertex value negative).
    active_surface: active elements crossed by the discrete surface
        (vertex values of both signs); always a subset of active_bulk.
    uncut_bulk: active_bulk elements not in active_surface, taken whole.
    bulk_faces: interior faces with both incident elements in active_bulk.
    bulk_ghost_faces: bulk faces with at least one incident element in
        active_surface (the ghost-penalty band).
    surface_faces: interior faces with both incident elements in
        active_surface.
    surface: segment/edge geometry.
    """

    active_bulk: np.ndarray
    active_surface: np.ndarray
    uncut_bulk: np.ndarray
    bulk_faces: np.ndarray
    bulk_ghost_faces: np.ndarray
    surface_faces: np.ndarray
    surface: SurfaceGeometry


def build_cut_topology(mesh: BackgroundMesh, dls: np.ndarray) -> CutTopology:
    """Active elements and face sets from the vertex values ``dls`` of the
    discrete level set, and the surface extracted on the cut elements.

    Every vertex value must be finite and nonzero (``interpolate_levelset``
    snaps the zeros away); a StructuralError names the first vertex that
    is not, before any face is built. The sign change of each cut element
    then lies on two of its mesh edges. Raises ConfigurationError when no
    element is cut: the mesh carries no part of the surface (nor, if no
    vertex value is negative, of the bulk)."""
    bad = np.flatnonzero(~(np.isfinite(dls) & (dls != 0.0)))
    if bad.size:
        raise StructuralError(
            f"vertex {bad[0]} has level-set value {dls[bad[0]]}: every "
            "vertex value must be finite and nonzero")
    fe = mesh.faces.elements  # first: building the faces sets the peak
    vals = dls[mesh.elements]
    is_bulk = vals.min(axis=1) < 0.0
    is_cut = is_bulk & (vals.max(axis=1) > 0.0)
    bulk_plus, bulk_minus = is_bulk[fe[:, 0]], is_bulk[fe[:, 1]]
    if not is_cut.any():
        raise ConfigurationError("surface misses the background box: "
                                 "no element is cut")
    cut_plus, cut_minus = is_cut[fe[:, 0]], is_cut[fe[:, 1]]
    both_bulk = bulk_plus & bulk_minus
    cut = np.flatnonzero(is_cut)
    return CutTopology(np.flatnonzero(is_bulk), cut,
                       np.flatnonzero(is_bulk & ~is_cut),
                       np.flatnonzero(both_bulk),
                       np.flatnonzero(both_bulk & (cut_plus | cut_minus)),
                       np.flatnonzero(cut_plus & cut_minus),
                       _surface_segments(mesh, dls, cut))


def _surface_segments(mesh: BackgroundMesh, dls: np.ndarray,
                      cut_elements: np.ndarray) -> SurfaceGeometry:
    """One straight segment per cut element plus the interior surface
    edges; StructuralError on a degenerate segment."""
    tri = mesh.elements[cut_elements]
    v = dls[tri]

    # The sign of a cut element changes along exactly two of its local
    # edges (i, i+1), an even count around the triangle that is not zero.
    neg = v < 0.0
    change = neg != np.roll(neg, -1, axis=1)
    nv = mesh.n_vertices
    keys = edge_key(tri, np.roll(tri, -1, axis=1), nv)[change]
    # Each zero is computed from the sorted vertex pair, so both elements
    # of an edge share the same floating-point point.
    lo, hi = divmod(keys, nv)
    va, vb = dls[lo], dls[hi]
    t = va / (va - vb)
    keys = keys.reshape(-1, 2)
    seg_points = (mesh.vertices[lo] + t[:, None]
                  * (mesh.vertices[hi] - mesh.vertices[lo])).reshape(-1, 2, 2)

    # Interpolant gradient: constant, points into the positive region.
    g = element_gradients(mesh.vertices[tri])
    grad = (v[:, 1] - v[:, 0])[:, None] * g[:, 1] \
        + (v[:, 2] - v[:, 0])[:, None] * g[:, 2]
    seg_normal = grad / np.sqrt(row_dot(grad, grad[:, :, None]))
    # Orient each segment so its tangent is the normal rotated by +90deg.
    tangent = np.column_stack([-seg_normal[:, 1], seg_normal[:, 0]])
    flip = row_dot(seg_points[:, 1] - seg_points[:, 0],
                   tangent[:, :, None])[:, 0] < 0.0
    seg_points[flip] = seg_points[flip, ::-1]
    keys[flip] = keys[flip, ::-1]

    # Group the segment endpoints by edge key; a stable sort keeps the
    # lower segment (and so the lower owning element) first in each group.
    # A mesh edge has at most two elements (``mesh.faces`` checks), so a
    # group holds one or two endpoints.
    order, starts, counts = group_keys(keys.reshape(-1))
    # Groups of one are open chain ends (surface clipped by the box).
    first = starts[counts == 2]
    ends = order[np.column_stack([first, first + 1])]
    edge_segments = ends // 2
    edge_point = seg_points[edge_segments[:, 0], ends[:, 0] % 2]
    others = seg_points[edge_segments, 1 - ends % 2]
    tangents = (edge_point[:, None, :] - others).reshape(-1, 2)
    edge_conormals = (tangents / np.sqrt(row_dot(
        tangents, tangents[:, :, None]))).reshape(-1, 2, 2)

    surface = SurfaceGeometry(seg_points, seg_normal, edge_point,
                              edge_segments, edge_conormals)
    degenerate = surface.length < DEGENERATE_SEGMENT_FACTOR * mesh.h
    if np.any(degenerate):
        raise StructuralError("degenerate surface segment in elements "
                              f"{cut_elements[degenerate].tolist()}")
    return surface


def check_geometry_assumptions(ls: LevelSet, topo: CutTopology):
    """Sampled sup of |rho| on the discrete surface and of the deviation
    between the exact normal (at the closest point) and the segment normal.

    Returns (sup_dist, sup_normal_dev). Raises GeometryError when a sample
    leaves the validity radius of the closest-point map.
    """
    surf = topo.surface
    pts = surf.at(np.linspace(0.0, 1.0, GEOMETRY_SAMPLES))
    rho = ls.rho(pts)
    if np.any(np.abs(rho) >= ls.validity_radius):
        raise GeometryError("sampled surface point outside the validity "
                            "radius of the closest-point map")
    sup_dist = float(np.abs(rho).max())
    n_exact = ls.normal(pts)
    dev = n_exact - surf.normal[:, None, :]
    sup_normal_dev = float(np.linalg.norm(dev, axis=-1).max())
    return sup_dist, sup_normal_dev
