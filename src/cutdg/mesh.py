"""Structured simplicial background meshes with interior-face connectivity.

The background mesh covers an axis-aligned box with an n-by-n grid of
rectangles, each split into two triangles along the same diagonal
(from the lower-right to the upper-left corner of the cell). Uniform
refinement splits every triangle into four self-similar children, so the
mesh size halves exactly and all parent vertices persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import StructuralError


class Faces(NamedTuple):
    """Interior faces of a mesh.

    vertices: (nf, 2) vertex pair of each interior face, sorted.
    elements: (nf, 2) incident elements; column 0 is the plus side (the
        lower element index).

    A face's length and its unit normal from plus to minus follow from its
    vertices and the counterclockwise winding of its plus element; the
    forms derive them for the faces they read (``forms._face_blocks``).
    """

    vertices: np.ndarray
    elements: np.ndarray


@dataclass(frozen=True)
class BackgroundMesh:
    """Conforming triangle mesh of an axis-aligned box.

    vertices: (nv, 2) coordinates.
    elements: (ne, 3) vertex indices, counterclockwise.
    h: global mesh size, i.e. the longest edge (the cell diagonal).
    cell: (dx, dy) grid period of the structured construction.
    faces: the ``Faces`` of ``face_connectivity``, built on first read.
    """

    vertices: np.ndarray
    elements: np.ndarray
    h: float
    cell: tuple

    @cached_property
    def faces(self) -> Faces:
        return face_connectivity(self.elements, self.n_vertices)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def build_structured_mesh(box, n: int) -> BackgroundMesh:
    """Build the n-by-n structured triangle mesh of ``box``.

    ``box`` is ((ax, ay), (bx, by)); every grid cell is split along the
    same diagonal, giving (n+1)^2 vertices and 2 n^2 triangles.
    """
    (ax, ay), (bx, by) = box
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    if not (bx > ax and by > ay):
        raise ValueError(f"box must have positive extents, got {box}")

    xs = np.linspace(ax, bx, n + 1)
    ys = np.linspace(ay, by, n + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    v00 = vid(i, j)
    v10 = vid(i + 1, j)
    v01 = vid(i, j + 1)
    v11 = vid(i + 1, j + 1)
    # "/" split: both triangles share the v10-v01 diagonal.
    lower = np.column_stack([v00, v10, v01])
    upper = np.column_stack([v10, v11, v01])
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper

    dx = (bx - ax) / n
    dy = (by - ay) / n
    h = float(np.hypot(dx, dy))
    return BackgroundMesh(vertices, elements, h, (dx, dy))


def edge_key(a: np.ndarray, b: np.ndarray, n_vertices: int) -> np.ndarray:
    """1-D int64 key lo * n_vertices + hi of the undirected edges (a, b);
    keys sort like the sorted vertex pairs (lo, hi), and
    ``divmod(key, n_vertices)`` gives the pair back."""
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


def group_keys(keys: np.ndarray):
    """Runs of equal values in the 1-D ``keys``: the stable argsort
    ``order`` and, in ascending key order, the start of each run in
    ``order`` and its length. Positions stay ascending within a run."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    del sorted_keys  # each array goes as soon as it is read, for the peak
    starts = np.flatnonzero(first)
    del first
    return order, starts, np.diff(starts, append=keys.size)


def _element_edge_keys(elements: np.ndarray, n_vertices: int) -> np.ndarray:
    """Keys of the local edges (0, 1), (1, 2), (2, 0) of every element, in
    element order."""
    return edge_key(elements, np.roll(elements, -1, axis=1),
                    n_vertices).reshape(-1)


def face_connectivity(elements: np.ndarray, n_vertices: int) -> Faces:
    """Interior ``Faces`` of a conforming triangle mesh with ``n_vertices``
    vertices, the plus side being the lower incident element index.
    Raises StructuralError for non-manifold edges (more than two incident
    elements).
    """
    keys = _element_edge_keys(elements, n_vertices)
    order, starts, counts = group_keys(keys)
    if np.any(counts > 2):
        bad = divmod(int(keys[order[starts[counts > 2][0]]]), n_vertices)
        raise StructuralError(f"non-manifold face {bad} with "
                              f"{counts.max()} incident elements")
    first = starts[counts == 2]
    del starts, counts  # each array goes as soon as it is read, for the peak
    plus = order[first]
    first += 1
    minus = order[first]
    del order, first
    vertices = divmod(keys[plus], n_vertices)
    del keys
    vertices = np.column_stack(vertices)
    # edge position // 3 is the owner, ascending within each run, so
    # column 0 is the lower element index
    plus //= 3
    minus //= 3
    return Faces(vertices, np.column_stack([plus, minus]))


def refine_uniform(mesh: BackgroundMesh) -> BackgroundMesh:
    """Split every triangle into 4 self-similar children via edge midpoints."""
    elements = mesh.elements
    unique, inverse = np.unique(_element_edge_keys(elements, mesh.n_vertices),
                                return_inverse=True)
    lo, hi = divmod(unique, mesh.n_vertices)
    midpoints = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
    vertices = np.vstack([mesh.vertices, midpoints])

    mid = mesh.n_vertices + inverse.reshape(-1, 3)  # (ne, 3): m01, m12, m20
    v0, v1, v2 = elements[:, 0], elements[:, 1], elements[:, 2]
    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.empty((4 * mesh.n_elements, 3), dtype=np.int64)
    children[0::4] = np.column_stack([v0, m01, m20])
    children[1::4] = np.column_stack([m01, v1, m12])
    children[2::4] = np.column_stack([m20, m12, v2])
    children[3::4] = np.column_stack([m01, m12, m20])

    dx, dy = mesh.cell
    # Exact halving: midpoint refinement scales every edge by 1/2.
    return BackgroundMesh(vertices, children, mesh.h / 2, (dx / 2, dy / 2))


def element_areas(tris: np.ndarray) -> np.ndarray:
    """Signed areas (positive for CCW orientation) of the triangles
    (..., 3, 2), e.g. ``mesh.vertices[mesh.elements]``."""
    d1 = tris[..., 1, :] - tris[..., 0, :]
    d2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for the rows of a (k, m) and the matrices of b (k, m, n),
    one BLAS call per entity: bit-identical to a per-entity loop, which
    ``einsum`` and whole-array products do not promise."""
    return np.matmul(a[:, None, :], b)[:, 0]


def element_gradients(tri: np.ndarray) -> np.ndarray:
    """(..., 3, 2) constant gradients of the barycentric basis on one
    triangle (3, 2) or on each of a batch of triangles (..., 3, 2), e.g.
    ``mesh.vertices[mesh.elements]``."""
    p = np.asarray(tri, dtype=float)
    x0, y0 = p[..., 0, 0], p[..., 0, 1]
    x1, y1 = p[..., 1, 0], p[..., 1, 1]
    x2, y2 = p[..., 2, 0], p[..., 2, 1]
    det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    g1 = np.stack([y2 - y0, x0 - x2], axis=-1) / det[..., None]
    g2 = np.stack([y0 - y1, x1 - x0], axis=-1) / det[..., None]
    return np.stack([-g1 - g2, g1, g2], axis=-2)
