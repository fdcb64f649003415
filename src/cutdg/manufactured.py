"""Manufactured solutions on the unit-circle geometry and error norms.

The bulk solution is a smooth exponential; the surface solution is
derived from the Robin-type coupling condition so that the pair solves
the coupled system exactly (deriving it, rather than prescribing it
independently, guarantees a consistent data triple). All derivatives are
hand-differentiated closed forms; the test suite validates them against
central finite differences.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .levelset import CutTopology, LevelSet, circle_levelset
from .mesh import BackgroundMesh, element_gradients, row_dot
from .quadrature import ERROR_DEGREE, CutQuadrature
from .space import CombinedDofMap


@dataclass(frozen=True)
class ManufacturedProblem:
    """Consistent bulk/surface solution pair with forcing data.

    All callables are vectorized over (..., 2) point arrays. u_surf and
    f_surf expect points on the surface; u_surf_ext and grad_u_surf_ext
    are their closest-point extensions to the neighborhood of the
    discrete surface.
    """

    u_bulk: Callable
    grad_u_bulk: Callable
    f_bulk: Callable
    u_surf: Callable
    f_surf: Callable
    u_surf_ext: Callable
    grad_u_surf_ext: Callable
    geometry: LevelSet


def _bundle(p):
    """Derivatives of the exponent g = -x(x-1) y(y-1) up to third order."""
    x, y = p[..., 0], p[..., 1]
    a = x * x - x
    b = y * y - y
    da = 2.0 * x - 1.0
    db = 2.0 * y - 1.0
    return {
        "x": x, "y": y,
        "g": -a * b,
        "gx": -da * b, "gy": -a * db,
        "gxx": -2.0 * b, "gyy": -2.0 * a, "gxy": -da * db,
        "gxxy": -2.0 * db, "gxyy": -2.0 * da,
    }


def build_circle_problem(c_bulk: float = 1.0,
                         c_surf: float = 1.0) -> ManufacturedProblem:
    """Exponential bulk solution c_surf * exp(-x(x-1)y(y-1)) on the unit
    disk; surface solution and both forcings derived from the coupling
    and the surface equation on the unit circle."""
    if not (c_bulk > 0.0 and c_surf > 0.0):
        raise ValueError("coupling constants must be positive")
    geometry = circle_levelset((0.0, 0.0), 1.0)

    def u_bulk(p):
        d = _bundle(p)
        return c_surf * np.exp(d["g"])

    def grad_u_bulk(p):
        d = _bundle(p)
        u = c_surf * np.exp(d["g"])
        return np.stack([u * d["gx"], u * d["gy"]], axis=-1)

    def f_bulk(p):
        d = _bundle(p)
        u = c_surf * np.exp(d["g"])
        return u * (1.0 - d["gx"] ** 2 - d["gy"] ** 2 - d["gxx"] - d["gyy"])

    def _phi_parts(p):
        """Ambient extension of the surface solution with derivatives:
        phi = exp(g) * (x gx + y gy + c_bulk)."""
        d = _bundle(p)
        x, y = d["x"], d["y"]
        e = np.exp(d["g"])
        psi = x * d["gx"] + y * d["gy"] + c_bulk
        psi_x = d["gx"] + x * d["gxx"] + y * d["gxy"]
        psi_y = x * d["gxy"] + d["gy"] + y * d["gyy"]
        psi_xx = 2.0 * d["gxx"] + y * d["gxxy"]
        psi_xy = 2.0 * d["gxy"] + x * d["gxxy"] + y * d["gxyy"]
        psi_yy = 2.0 * d["gyy"] + x * d["gxyy"]
        phi = e * psi
        phi_x = e * (d["gx"] * psi + psi_x)
        phi_y = e * (d["gy"] * psi + psi_y)
        phi_xx = e * (d["gx"] ** 2 * psi + d["gxx"] * psi
                      + 2.0 * d["gx"] * psi_x + psi_xx)
        phi_yy = e * (d["gy"] ** 2 * psi + d["gyy"] * psi
                      + 2.0 * d["gy"] * psi_y + psi_yy)
        phi_xy = e * (d["gx"] * d["gy"] * psi + d["gxy"] * psi
                      + d["gx"] * psi_y + d["gy"] * psi_x + psi_xy)
        return d, phi, phi_x, phi_y, phi_xx, phi_xy, phi_yy

    def u_surf(p):
        return _phi_parts(p)[1]

    def f_surf(p):
        """-Laplace-Beltrami(u_surf) + u_surf + du_bulk/dn on the circle;
        the arc-length second derivative comes from ambient derivatives of
        the extension along the parameterization (cos t, sin t)."""
        d, phi, phi_x, phi_y, phi_xx, phi_xy, phi_yy = _phi_parts(p)
        x, y = d["x"], d["y"]
        second = (y * y * phi_xx - 2.0 * x * y * phi_xy + x * x * phi_yy
                  - x * phi_x - y * phi_y)
        dn_u = c_surf * np.exp(d["g"]) * (x * d["gx"] + y * d["gy"])
        return -second + phi + dn_u

    def u_surf_ext(p):
        return u_surf(geometry.closest_point(p))

    def grad_u_surf_ext(p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        xhat = p / r[..., None]
        q = geometry.closest_point(p)
        _, _, phi_x, phi_y, _, _, _ = _phi_parts(q)
        grad = np.stack([phi_x, phi_y], axis=-1)
        radial = np.einsum("...d,...d->...", grad, xhat)
        return (grad - radial[..., None] * xhat) / r[..., None]

    return ManufacturedProblem(u_bulk, grad_u_bulk, f_bulk, u_surf, f_surf,
                               u_surf_ext, grad_u_surf_ext, geometry)


@dataclass(frozen=True)
class ErrorReport:
    """Discrete error norms on the cut bulk domain and discrete surface."""

    h1_bulk: float
    l2_bulk: float
    h1_surf: float
    l2_surf: float

    def as_tuple(self):
        return astuple(self)


def _entity_errors(rules, phi, u, grads, value, gradient, normal=None):
    """Squared L2 and gradient-seminorm errors on each entity of a rule
    batch, for element coefficients u (k, 3) and basis gradients grads
    (k, 3, 2); with ``normal`` (k, 2) the gradient error is projected onto
    the tangent line. The sums are ``row_dot``s, so every entry is
    bit-identical to a per-entity loop."""
    diff = np.matmul(phi, u[:, :, None])[..., 0] \
        - np.asarray(value(rules.points), dtype=float)
    l2 = row_dot(rules.weights, (diff ** 2)[:, :, None])[:, 0]
    gh = np.matmul(grads.transpose(0, 2, 1), u[:, :, None])[..., 0]
    gdiff = gh[:, None, :] - np.asarray(gradient(rules.points), dtype=float)
    if normal is not None:
        gdiff = gdiff - np.einsum("kqd,kd->kq", gdiff, normal)[:, :, None] \
            * normal[:, None, :]
    semi = row_dot(rules.weights,
                   np.sum(gdiff ** 2, axis=-1)[:, :, None])[:, 0]
    return l2, semi


def compute_errors(coeffs: np.ndarray, problem: ManufacturedProblem,
                   mesh: BackgroundMesh, dls: np.ndarray,
                   topo: CutTopology, dofmap: CombinedDofMap) -> ErrorReport:
    """L2 and full H1 errors of a coefficient vector against the exact
    pair, over the cut bulk domain and the discrete surface. The exact
    surface solution is evaluated through its closest-point extension.

    The entity contributions are summed one after another: the uncut
    elements ascending, then the cut elements ascending, then the
    segments in segment order. The bulk rules come one chunk at a time
    (``CutQuadrature.bulk_rules``); each entity's sums are its own, so the
    chunks change no bit."""
    cq = CutQuadrature(mesh, dls, topo, ERROR_DEGREE)
    bulk = np.hstack([_entity_errors(
        rules, phi, coeffs[dofmap.bulk.dofs_array(elements)],
        element_gradients(mesh.vertices[mesh.elements[elements]]),
        problem.u_bulk, problem.grad_u_bulk)
        for elements, (rules, phi) in cq.bulk_rules()])

    cut = cq.topo.active_surface
    rules, phi = cq.segments
    surface = _entity_errors(
        rules, phi, coeffs[dofmap.surface.dofs_array(cut)],
        element_gradients(mesh.vertices[mesh.elements[cut]]),
        problem.u_surf_ext, problem.grad_u_surf_ext, cq.topo.surface.normal)

    # cumsum adds sequentially, unlike the pairwise np.sum
    l2b, semib, l2s, semis = (np.cumsum(np.r_[0.0, values])[-1]
                              for values in (*bulk, *surface))
    return ErrorReport(l2_bulk=np.sqrt(l2b), h1_bulk=np.sqrt(l2b + semib),
                       l2_surf=np.sqrt(l2s), h1_surf=np.sqrt(l2s + semis))


def eoc(errors) -> np.ndarray:
    """Experimental orders of convergence of a per-level error sequence:
    log2 of successive error ratios."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 2:
        raise ValueError("need at least two levels to compute an EOC")
    if np.any(errors <= 0.0):
        raise ValueError("EOC undefined for non-positive errors")
    return np.log(errors[:-1] / errors[1:]) / np.log(2.0)
