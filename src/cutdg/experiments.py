"""Batch experiment drivers: convergence/EOC study with ghost-penalty
ablation, condition-number sweep over surface positions, geometry
approximation checks and the stability property suite. Every study is
deterministic for fixed inputs and can be dumped to CSV.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .exceptions import ConfigurationError, DegenerateMatrixError, SolverError
from .forms import (StabilizationParams, assemble_system, bulk_form,
                    coupling_form, energy_gram, ghost_bulk, ghost_pieces,
                    ghost_surface, gradient_gram, stabilized,
                    surface_element_mass_gram, surface_form,
                    surface_tangential_gram, surface_trace_load)
from .levelset import (build_cut_topology, check_geometry_assumptions,
                       circle_levelset, interpolate_levelset, surface_length)
from .manufactured import build_circle_problem, compute_errors, eoc
from .mesh import build_structured_mesh, element_areas, refine_uniform
from .quadrature import CutQuadrature
from .solver import (condition_number, generalized_extreme, rescaled_matrix,
                     solve)
from .space import build_spaces, levelset_null_basis

DEFAULT_BOX = ((-1.1, -1.1), (1.1, 1.1))
# The property suite translates the circle by up to one grid cell; this
# wider box keeps the surface a closed chain inside the mesh at every
# position (the default box clips it for large shifts).
PROPERTY_BOX = ((-1.4, -1.4), (1.4, 1.4))
DEFAULT_N0 = 8
SENTINEL_KAPPA = 1e300
SENTINEL_ERROR = 1e300
# the ghost weights each sweep configuration switches off
SWEEP_GHOSTS_OFF = {"full": (), "no-surface": ("mu_surf", "tau_surf"),
                    "no-bulk": ("mu_bulk", "tau_bulk"),
                    "none": ("mu_bulk", "tau_bulk", "mu_surf", "tau_surf")}
SWEEP_CONFIGS = tuple(SWEEP_GHOSTS_OFF)
PROPERTY_CONFIGS = ("full", "no-bulk-ghost", "no-surface-ghost")
# the sweep configuration whose matrix each property configuration uses
PROPERTY_SWEEP_CONFIG = {"full": "full", "no-bulk-ghost": "no-bulk",
                         "no-surface-ghost": "no-surface"}

CONVERGENCE_HEADER = ("level,h,err_h1_bulk,eoc_h1_bulk,err_l2_bulk,"
                      "eoc_l2_bulk,err_h1_surf,eoc_h1_surf,err_l2_surf,"
                      "eoc_l2_surf")
CONDITION_HEADER = "delta,kappa,lambda_min,lambda_max,config"
GEOMETRY_HEADER = "level,sup_dist,sup_normal_dev"
PROPERTIES_HEADER = "name,constant,delta,pass"


def mesh_at_level(level: int, n0: int = DEFAULT_N0, box=DEFAULT_BOX):
    """Background mesh at refinement level ``level``, built by uniformly
    refining the n0-by-n0 starting mesh."""
    if level < 0:
        raise ValueError(f"refinement level must be >= 0, got {level}")
    mesh = build_structured_mesh(box, n0)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def ablated_params(params: StabilizationParams) -> StabilizationParams:
    """Ghost-penalty ablation of the convergence study: the value-jump
    ghost weight of the bulk stays (it mirrors the DG jump penalty), all
    other ghost weights are switched off."""
    return replace(params, mu_surf=0.0, tau_bulk=0.0, tau_surf=0.0)


def config_params(params: StabilizationParams,
                  config: str) -> StabilizationParams:
    """``params`` with the ghost weights that the sweep configuration
    ``config`` switches off set to zero."""
    if config not in SWEEP_GHOSTS_OFF:
        raise ValueError(f"unknown sweep configuration {config!r}")
    return replace(params, **dict.fromkeys(SWEEP_GHOSTS_OFF[config], 0.0))


def _fmt(x) -> str:
    return f"{float(x):.16e}"


def _csv(header: str, rows) -> str:
    """The header line, then one line of comma-joined cells per row."""
    return "\n".join([header] + [",".join(cells) for cells in rows]) + "\n"


@dataclass
class StudyReport:
    """Collected study rows plus side information that does not go into
    the CSV files (solver failures, raw constants). Some rows carry keys
    that the CSV leaves out: ``nullity`` on a condition row, ``h`` and
    ``length`` on a geometry row."""

    convergence_rows: list = field(default_factory=list)
    condition_rows: list = field(default_factory=list)
    geometry_rows: list = field(default_factory=list)
    property_rows: list = field(default_factory=list)
    solver_failures: list = field(default_factory=list)
    property_summary: dict = field(default_factory=dict)

    def convergence_csv(self) -> str:
        def cells(r):
            out = [str(r["level"]), _fmt(r["h"])]
            for err, ec in zip(r["errors"], r["eocs"]):
                out += [_fmt(err), "" if ec is None else _fmt(ec)]
            return out
        return _csv(CONVERGENCE_HEADER, map(cells, self.convergence_rows))

    def condition_csv(self) -> str:
        return _csv(CONDITION_HEADER, (
            [_fmt(r[k]) for k in ("delta", "kappa", "lambda_min",
                                  "lambda_max")] + [r["config"]]
            for r in self.condition_rows))

    def geometry_csv(self) -> str:
        return _csv(GEOMETRY_HEADER, (
            [str(r["level"]), _fmt(r["sup_dist"]), _fmt(r["sup_normal_dev"])]
            for r in self.geometry_rows))

    def properties_csv(self) -> str:
        return _csv(PROPERTIES_HEADER, (
            [r["name"], _fmt(r["constant"]), _fmt(r["delta"]),
             str(int(r["pass"]))] for r in self.property_rows))

    def write(self, outdir: str) -> list:
        os.makedirs(outdir, exist_ok=True)
        written = []
        sections = [("convergence.csv", self.convergence_rows,
                     self.convergence_csv),
                    ("condition.csv", self.condition_rows, self.condition_csv),
                    ("geometry.csv", self.geometry_rows, self.geometry_csv),
                    ("properties.csv", self.property_rows, self.properties_csv)]
        for name, rows, render in sections:
            if rows:
                path = os.path.join(outdir, name)
                with open(path, "w") as handle:
                    handle.write(render())
                written.append(path)
        return written


def run_convergence(levels: int = 5, n0: int = DEFAULT_N0,
                    params: StabilizationParams | None = None,
                    ablate_ghost: bool = False) -> StudyReport:
    """Manufactured-solution refinement study on the unit-circle geometry.

    Solves on ``levels`` successive refinements, records the four error
    norms and their EOCs. With ``ablate_ghost`` the surface value-jump
    and both gradient-jump ghost weights are set to zero; solver failures
    under ablation are recorded per level instead of aborting.
    """
    if levels < 3:
        raise ValueError("convergence study needs at least 3 levels")
    params = params or StabilizationParams()
    if ablate_ghost:
        params = ablated_params(params)
    problem = build_circle_problem(params.c_bulk, params.c_surf)
    ls = problem.geometry
    report = StudyReport()
    prev_errors = None
    for level in range(levels):
        mesh = mesh_at_level(level, n0)
        dls = interpolate_levelset(ls, mesh)
        topo = build_cut_topology(mesh, dls)
        dofmap = build_spaces(mesh, topo)
        system = assemble_system(mesh, dls, topo, dofmap, problem, params)
        try:
            u = solve(system)
        except SolverError as exc:
            report.solver_failures.append((level, str(exc)))
            report.convergence_rows.append({
                "level": level, "h": mesh.h,
                "errors": (SENTINEL_ERROR,) * 4,
                "eocs": (None,) * 4})
            prev_errors = None
            continue
        errors = compute_errors(u, problem, mesh, dls, topo, dofmap).as_tuple()
        if prev_errors is None:
            eocs = (None,) * 4
        else:
            eocs = tuple(float(eoc([a, b])[0])
                         for a, b in zip(prev_errors, errors))
        report.convergence_rows.append({"level": level, "h": mesh.h,
                                        "errors": errors, "eocs": eocs})
        prev_errors = errors
    return report


class SurfaceState:
    """The unit circle translated along the diagonal by delta grid cells of
    ``mesh``, with what the studies share at that position: the discrete
    level set, cut topology, dof map and one CutQuadrature, and, built on
    first use, the unit ghost pieces, the unweighted forms, the level-set
    null basis and the energy Gram."""

    def __init__(self, mesh, delta: float, params: StabilizationParams):
        ls = circle_levelset(center=delta * np.asarray(mesh.cell), radius=1.0)
        self.mesh, self.params = mesh, params
        self.dls = interpolate_levelset(ls, mesh)
        self.topo = build_cut_topology(mesh, self.dls)
        self.dofmap = build_spaces(mesh, self.topo)
        self.cq = CutQuadrature(mesh, self.dls, self.topo)

    @cached_property
    def pieces(self) -> dict:
        return ghost_pieces(self.cq, self.dofmap)

    @cached_property
    def forms(self) -> tuple:
        """The bulk, surface and coupling forms that ``stabilized``
        weights."""
        cq, dofmap, p = self.cq, self.dofmap, self.params
        return (bulk_form(cq, dofmap, p), surface_form(cq, dofmap, p),
                coupling_form(cq, dofmap, p))

    @cached_property
    def null_basis(self):
        return levelset_null_basis(self.dofmap, self.mesh, self.dls)

    @cached_property
    def energy(self):
        """The fully stabilized energy Gram, positive definite on a closed
        surface chain with both surface ghost weights positive (a field of
        zero energy is then one affine function that vanishes on the
        chain); otherwise ConfigurationError."""
        surf, p = self.topo.surface, self.params
        if surf.n_edges < surf.n_segments or min(p.mu_surf, p.tau_surf) == 0:
            raise ConfigurationError("singular energy Gram: open surface "
                                     "chain or zero surface ghost weight")
        return energy_gram(self.cq, self.dofmap, self.params, self.pieces)

    def matrix(self, config: str):
        """System matrix of one of ``SWEEP_CONFIGS``."""
        return stabilized(*self.forms, self.pieces,
                          config_params(self.params, config))

    def coercivity(self, config: str) -> float:
        """Smallest generalized eigenvalue of the matrix of one of
        ``PROPERTY_CONFIGS`` against the fully stabilized energy Gram."""
        return generalized_extreme(self.matrix(PROPERTY_SWEEP_CONFIG[config]),
                                   self.energy, largest=False)


def run_condition_sweep(level: int = 1, positions: int = 101,
                        n0: int = DEFAULT_N0,
                        params: StabilizationParams | None = None,
                        configs=SWEEP_CONFIGS,
                        box=DEFAULT_BOX) -> StudyReport:
    """Condition number of the rescaled system matrix while the circle is
    translated along the diagonal by delta times one grid cell, for
    delta = l/(positions-1). A full-cell translation maps the cut pattern
    onto itself wherever the surface keeps its clearance from the box
    boundary.

    Each row also carries ``nullity``, the number of eigenvalues
    ``condition_number`` counted as zero; it stays out of the CSV. A
    partial null space is deflated: the exact one of the ``no-surface``
    matrix, one level-set direction per cut element, is passed in as
    ``levelset_null_basis``. kappa, lambda_min and lambda_max then
    describe the nonzero spectrum, and the true condition number is
    infinite. Only a matrix whose whole spectrum counts as zero, or whose
    shifted sparse LU is singular, is recorded with the sentinel condition
    number, zero lambdas and nullity None; an ARPACK failure raises
    SolverError."""
    if positions < 2:
        raise ValueError("sweep needs at least 2 positions")
    configs = tuple(configs)
    repeated = sorted({c for c in configs if configs.count(c) > 1})
    if repeated:
        raise ValueError(f"sweep configuration repeated: {', '.join(repeated)}")
    params = params or StabilizationParams()
    mesh = mesh_at_level(level, n0, box)
    report = StudyReport()
    for delta in np.linspace(0.0, 1.0, positions):
        state = SurfaceState(mesh, delta, params)
        for config in configs:
            try:
                kappa, lam_min, lam_max, nullity = condition_number(
                    rescaled_matrix(state.matrix(config), state.dofmap.n_bulk,
                                    mesh.h), state.null_basis)
            except DegenerateMatrixError:
                kappa, lam_min, lam_max = SENTINEL_KAPPA, 0.0, 0.0
                nullity = None
            report.condition_rows.append({"delta": float(delta),
                                          "kappa": kappa,
                                          "lambda_min": lam_min,
                                          "lambda_max": lam_max,
                                          "config": config,
                                          "nullity": nullity})
    return report


def run_geometry_check(levels: int = 4, n0: int = DEFAULT_N0) -> StudyReport:
    """Per-level sup of |rho| on the discrete surface and of the normal
    deviation; each row also carries the mesh size ``h`` and the discrete
    surface ``length`` for the convergence checks, outside the CSV."""
    if levels < 3:
        raise ValueError("geometry check needs at least 3 levels")
    ls = circle_levelset()
    report = StudyReport()
    for level in range(levels):
        mesh = mesh_at_level(level, n0)
        dls = interpolate_levelset(ls, mesh)
        topo = build_cut_topology(mesh, dls)
        sup_dist, sup_dev = check_geometry_assumptions(ls, topo)
        report.geometry_rows.append({"level": level, "sup_dist": sup_dist,
                                     "sup_normal_dev": sup_dev, "h": mesh.h,
                                     "length": surface_length(topo)})
    return report


def _bulk_norm_equivalence(cq, dofmap, pieces, params) -> float:
    """Largest generalized eigenvalue of the active gradient Gram against
    the cut one plus the bulk ghost, on the bulk block. Both vanish exactly
    on the constants of each set of elements that the value ghost joins;
    adding Q Q^T, Q their indicators, keeps that eigenvalue and makes the
    right-hand side positive definite."""
    n, cut = dofmap.n_bulk, gradient_gram(cq, dofmap, "cut")
    joined = (cut + params.mu_bulk * pieces["bulk_value"])[:n, :n] != 0
    count, labels = connected_components(joined, directed=False)
    q = sp.csr_matrix((np.ones(n), (np.arange(n), labels)), shape=(n, count))
    gram = (cut + ghost_bulk(pieces, params))[:n, :n] + q @ q.T
    return generalized_extreme(gradient_gram(cq, dofmap, "active")[:n, :n],
                               gram, largest=True)


def _cut_area_ratio(cq: CutQuadrature) -> float:
    """The bulk constant without ghost, max |K| / |K cap Omega_h| over the
    cut elements: both gradient Grams sum the element stiffnesses S_K,
    weighted by |K| and by |K cap Omega_h|."""
    areas = element_areas(cq.mesh)[cq.split[1]]
    return float(np.max(areas / cq.volume[0].weights.sum(axis=1)))


def _property_constants(state: SurfaceState, rng, n_random: int) -> dict:
    """{property: {configuration: constant}} at one position (see
    ``run_property_suite``). Each Poincare dot runs on contiguous rows, as
    for one field at a time: on strided columns it can round differently."""
    mesh, topo, dofmap, cq = state.mesh, state.topo, state.dofmap, state.cq
    bulk = _bulk_norm_equivalence(cq, dofmap, state.pieces, state.params)
    fields = np.hstack([np.zeros((n_random, dofmap.n_bulk)),
                        rng.standard_normal((n_random, dofmap.n_surface))])
    load = surface_trace_load(cq, dofmap)
    fields[:, dofmap.n_bulk:] -= np.array([[load @ v] for v in fields]) \
        / surface_length(topo)

    def quadratic(matrix):
        products = np.ascontiguousarray((matrix @ fields.T).T)
        return np.array([v @ w for v, w in zip(fields, products)])

    num = quadratic(surface_element_mass_gram(cq, dofmap)) / mesh.h

    def worst(den):
        return float(np.max(num[den > 0.0] / den[den > 0.0], initial=0.0))

    tangent = surface_tangential_gram(cq, dofmap)
    surf_ghost = (tangent + ghost_surface(state.pieces, state.params)).tocsr()
    poincare, poincare_bare = (worst(quadratic(gram))
                               for gram in (surf_ghost, tangent))
    return {"coercivity": {c: state.coercivity(c) for c in PROPERTY_CONFIGS},
            "bulk_norm_equivalence": {"full": bulk,
                                      "no-bulk-ghost": _cut_area_ratio(cq),
                                      "no-surface-ghost": bulk},
            "surface_poincare": {"full": poincare, "no-bulk-ghost": poincare,
                                 "no-surface-ghost": poincare_bare}}


PROPERTY_NAMES = ("coercivity", "bulk_norm_equivalence", "surface_poincare")


def _across_ratio(values: np.ndarray) -> float:
    """Spread max/min of a positive constant; infinite if it ever loses
    positivity (an unbounded collapse counts as unlimited variation)."""
    if values.min() <= 0.0:
        return np.inf
    return float(values.max() / values.min())


def _contrast_vs_full(ablated: np.ndarray, full: np.ndarray) -> float:
    """Largest pointwise factor by which an ablated constant differs from
    the fully stabilized one. A collapse to zero or below is an infinite
    contrast."""
    if np.any(ablated <= 0.0):
        return np.inf
    ratio = np.maximum(ablated / full, full / ablated)
    return float(ratio.max())


def run_property_suite(level: int = 0, positions: int = 101,
                       n0: int = DEFAULT_N0,
                       params: StabilizationParams | None = None,
                       n_random: int = 100,
                       seed: int = 9176) -> StudyReport:
    """Measured stability constants across the surface-position sweep.

    The mesh covers ``PROPERTY_BOX``. Per position and configuration:
    coercivity (smallest generalized eigenvalue of the system matrix
    against the fully stabilized energy Gram, which needs both surface
    ghost weights positive); the ghost-penalty norm-extension constant of
    the bulk gradient (largest generalized eigenvalue of its Gram on the
    active elements against the one on the cut elements plus the bulk
    ghost); and the discrete surface Poincare constant (largest ratio
    h^-1 ||v||^2 on the active elements over the tangential seminorm plus
    the surface ghost) over n_random random mean-zero fields, drawn once
    per position from seed + 7 * (position index) and shared by the three
    configurations.

    Pass flags: the fully stabilized constants must stay within a factor
    2 across positions (coercivity also strictly positive). An ablated
    property passes when it evidences the corresponding degeneracy, i.e.
    it changes by at least a factor 100 against the stabilized constant
    at some position, or spreads by at least a factor 100 across
    positions. Without the surface ghost the coercivity constant
    collapses to (numerical) zero or below at every position, so the contrast
    against the stabilized value is the meaningful measure there.

    The full-coercivity flag compares against the constant at the
    arbitrary position delta = 0, and its verdict depends on how densely
    the positions are sampled: near a position where a surface segment
    shrinks to zero the sharp constant drops towards a positive limit, and
    a finer sweep lands closer to it (at level 0 the flag passes at 21
    positions and fails at 101).
    """
    if positions < 2:
        raise ValueError("property sweep needs at least 2 positions")
    params = params or StabilizationParams()
    mesh = mesh_at_level(level, n0, PROPERTY_BOX)
    report = StudyReport()
    deltas = np.linspace(0.0, 1.0, positions)
    per_position = [_property_constants(
        SurfaceState(mesh, delta, params),
        np.random.default_rng(seed + 7 * idx), n_random)
        for idx, delta in enumerate(deltas)]
    arrays = {(p, c): np.asarray([k[p][c] for k in per_position])
              for c in PROPERTY_CONFIGS for p in PROPERTY_NAMES}
    for (prop, config), values in arrays.items():
        across = _across_ratio(values)
        at_zero = float(values[0])
        if config == "full":
            contrast = 1.0
            if prop == "coercivity":
                # a lower-bound constant: positive everywhere and not
                # sagging below half its delta=0 value
                passed = values.min() > 0.0 and \
                    values.min() >= 0.5 * at_zero
            else:
                # upper-bound constants: never exceeding twice the
                # delta=0 value is the position-independent statement
                passed = at_zero > 0.0 and values.max() <= 2.0 * at_zero
        else:
            contrast = _contrast_vs_full(values, arrays[(prop, "full")])
            passed = contrast >= 100.0 or across >= 100.0
        report.property_summary[(prop, config)] = {
            "across": across, "contrast": contrast, "at_zero": at_zero,
            "min": float(values.min()), "max": float(values.max()),
            "passed": passed}
        for delta, value in zip(deltas, values):
            report.property_rows.append({
                "name": f"{prop}[{config}]",
                "constant": float(value),
                "delta": float(delta),
                "pass": bool(passed)})
    return report
