"""Broken (element-local) P1 spaces on active meshes and the combined
bulk-surface degree-of-freedom map.

Each active element carries 3 vertex-based hat functions with no
inter-element continuity. The combined map stacks the bulk block first
and the surface block contiguously after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .levelset import CutTopology
from .mesh import BackgroundMesh, element_gradients


@dataclass(frozen=True)
class BrokenSpace:
    """Discontinuous P1 space on a list of active elements.

    elements: ascending global element ids carrying unknowns.
    offset: first global dof index of this block.
    slot: (n_background_elements,) position of each element in the active
        list, or -1 if inactive.
    """

    elements: np.ndarray
    offset: int
    slot: np.ndarray

    @property
    def ndof(self) -> int:
        return 3 * self.elements.shape[0]

    def dofs_array(self, elements: np.ndarray) -> np.ndarray:
        """(k, 3) global dofs for a batch of active elements."""
        s = self.slot[elements]
        if np.any(s < 0):
            raise KeyError("batch contains elements not active in this space")
        return self.offset + 3 * s[:, None] + np.arange(3)[None, :]


@dataclass(frozen=True)
class CombinedDofMap:
    """Bulk block [0, bulk.ndof) followed by the surface block."""

    bulk: BrokenSpace
    surface: BrokenSpace

    @property
    def ndof(self) -> int:
        return self.bulk.ndof + self.surface.ndof


def _make_space(active: np.ndarray, offset: int, n_elements: int) -> BrokenSpace:
    slot = np.full(n_elements, -1, dtype=np.int64)
    slot[active] = np.arange(active.size)
    return BrokenSpace(elements=active.copy(), offset=offset, slot=slot)


def build_spaces(mesh: BackgroundMesh, topo: CutTopology) -> CombinedDofMap:
    bulk = _make_space(topo.active_bulk, 0, mesh.n_elements)
    surface = _make_space(topo.active_surface, bulk.ndof, mesh.n_elements)
    return CombinedDofMap(bulk=bulk, surface=surface)


def _block_vertices(dofmap: CombinedDofMap, mesh: BackgroundMesh):
    """(vertices, local) per block, bulk first: the ascending ids of the
    vertices of its elements, and the index into them of each dof."""
    return [np.unique(mesh.elements[space.elements].reshape(-1),
                      return_inverse=True)
            for space in (dofmap.bulk, dofmap.surface)]


def prolongation(dofmap: CombinedDofMap,
                 mesh: BackgroundMesh) -> sp.csr_matrix:
    """0/1 injection of continuous P1 into the broken combined space.

    Columns are the vertices of the active bulk elements followed by
    those of the active surface elements (ascending global vertex ids in
    each block); every dof row holds one unit entry, in the column of its
    element vertex. So P times the vertex values of a function is its
    nodal interpolant in both blocks.
    """
    columns, n_coarse = [], 0
    for vertices, local in _block_vertices(dofmap, mesh):
        columns.append(n_coarse + local)
        n_coarse += vertices.size
    cols = np.concatenate(columns)
    return sp.csr_matrix((np.ones(cols.size), cols, np.arange(cols.size + 1)),
                         shape=(dofmap.ndof, n_coarse))


def coarse_points(dofmap: CombinedDofMap, mesh: BackgroundMesh) -> np.ndarray:
    """(n_coarse, 2) coordinates of the vertex behind each column of
    ``prolongation``, in its column order."""
    return mesh.vertices[np.concatenate(
        [vertices for vertices, _ in _block_vertices(dofmap, mesh)])]


def levelset_null_basis(dofmap: CombinedDofMap, mesh: BackgroundMesh,
                        dls: np.ndarray) -> sp.csc_matrix:
    """Orthonormal candidate basis of the surface null space: one column
    per surface-active element, holding the discrete level-set values at
    its vertices in its 3 surface dofs, normalized. The field vanishes on
    the element's own segment, so without a surface ghost penalty it is a
    null vector of the system matrix (and of its rescaled form, since the
    surface rescaling is uniform). The supports are disjoint, so the
    columns are orthonormal."""
    values = dls[mesh.elements[dofmap.surface.elements]]
    values /= np.linalg.norm(values, axis=1)[:, None]
    rows = dofmap.surface.offset + np.arange(values.size)
    return sp.csc_matrix((values.reshape(-1), rows,
                          np.arange(0, values.size + 1, 3)),
                         shape=(dofmap.ndof, values.shape[0]))


def basis_values(tris: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric basis values (k, m, 3) on the triangles tris (k, 3, 2)
    at the points (k, m, 2)."""
    grads = element_gradients(tris)
    rel = points - tris[:, None, 0, :]
    lam1 = np.matmul(rel, grads[:, 1, :, None])[..., 0]
    lam2 = np.matmul(rel, grads[:, 2, :, None])[..., 0]
    return np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=-1)


def interpolate_pair(dofmap: CombinedDofMap, mesh: BackgroundMesh,
                     f_bulk, f_surface) -> np.ndarray:
    """Combined coefficient vector of the nodal interpolants of a
    bulk/surface callable pair, each called once on the (k, 2) points of
    its block's distinct vertices and returning one value per point."""
    return np.concatenate([
        np.asarray(f(mesh.vertices[vertices]), dtype=float)[local]
        for (vertices, local), f in zip(_block_vertices(dofmap, mesh),
                                        (f_bulk, f_surface))])
