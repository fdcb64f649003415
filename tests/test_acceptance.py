"""Acceptance suite.

Runs every acceptance check at its stated tolerance and prints one
PASS/FAIL line per criterion (visible with ``pytest -v -rA``). The heavy
studies are shared through module-scoped fixtures. Each line names the
measured quantities behind its verdict: for condition robustness the
spread of the deflated kappa and the range of the nullity (a position
with a null space has an infinite condition number); for coercivity
stability the constant along a sequence of positions that approaches
the nearest position delta* where a background vertex lies on the
circle and a surface segment shrinks to zero, and its limit at every
such position.
"""

import dataclasses
import time

import numpy as np
import pytest

from cutdg.experiments import (PROPERTY_BOX, SENTINEL_KAPPA, SurfaceState,
                               config_params, mesh_at_level,
                               run_condition_sweep, run_convergence,
                               run_geometry_check, run_property_suite,
                               shifted_circle)
from cutdg.forms import StabilizationParams, ghost
from cutdg.levelset import circle_levelset, interpolate_levelset
from cutdg.manufactured import build_circle_problem
from cutdg.mesh import build_structured_mesh, refine_uniform
from cutdg.quadrature import clip_element_rules
from cutdg.solver import condition_number, rescaled_matrix, solve
from cutdg.space import interpolate_pair
from tests.oracles import (build_affine_problem, cut_monomial_pairs,
                           degenerate_positions, fit_slope,
                           random_cut_triangles)

BOX = ((-1.1, -1.1), (1.1, 1.1))
PARAMS = StabilizationParams()


def _check(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def convergence_report():
    start = time.perf_counter()
    report = run_convergence(levels=5, n0=8, params=PARAMS)
    report.elapsed = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def ablation_report():
    """The convergence study with the surface value-jump and both
    gradient-jump ghost weights off; the bulk value-jump weight stays, as
    it mirrors the DG jump penalty."""
    return run_convergence(levels=3, n0=8, params=dataclasses.replace(
        PARAMS, mu_surf=0.0, tau_bulk=0.0, tau_surf=0.0))


@pytest.fixture(scope="module")
def sweep_report():
    start = time.perf_counter()
    report = run_condition_sweep(level=1, positions=101, n0=8, params=PARAMS)
    report.elapsed = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def property_report():
    return run_property_suite(level=0, positions=101, n0=8, params=PARAMS)


def test_criterion_1_convergence_rates(convergence_report):
    rows = convergence_report.convergence_rows
    assert not convergence_report.solver_failures
    names = ("h1_bulk", "l2_bulk", "h1_surf", "l2_surf")
    bands = {"h1_bulk": (0.85, 1.15), "l2_bulk": (1.8, 2.2),
             "h1_surf": (0.85, 1.15), "l2_surf": (1.8, 2.2)}
    means = {}
    ok = convergence_report.elapsed <= 300.0
    for j, name in enumerate(names):
        mean = 0.5 * (rows[-2]["eocs"][j] + rows[-1]["eocs"][j])
        means[name] = mean
        lo, hi = bands[name]
        ok = ok and lo <= mean <= hi
    detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
    _check("1 convergence-rates",
           ok, f"mean of last two EOCs: {detail}; "
               f"runtime {convergence_report.elapsed:.0f}s <= 300s")


def test_criterion_2_ablation(ablation_report):
    eocs = [e for row in ablation_report.convergence_rows
            for e in row["eocs"] if e is not None]
    degraded = any(e <= 0.0 for e in eocs)
    failures = len(ablation_report.solver_failures)
    _check("2 ablation-degrades",
           degraded or failures > 0,
           f"nonpositive EOCs: {degraded}, solver failures recorded: "
           f"{failures}")


def test_criterion_3_condition_scaling():
    problem = build_circle_problem()
    hs, kappas = [], []
    for level in range(4):
        mesh = mesh_at_level(level, 8, BOX)
        state = SurfaceState(mesh, problem.geometry, PARAMS)
        kappa, _, _, _ = condition_number(rescaled_matrix(
            state.system(problem).matrix, state.dofmap.bulk.ndof, mesh.h),
            state.null_basis, state.dof_order)
        hs.append(mesh.h)
        kappas.append(kappa)
    slope = fit_slope(hs, kappas)
    _check("3 condition-scaling", -2.5 <= slope <= -1.6,
           f"log-kappa vs log-h slope {slope:.3f} in [-2.5, -1.6]")


@pytest.mark.parametrize("config,kind", [("full", "robust"),
                                         ("no-surface", "sensitive"),
                                         ("no-bulk", "sensitive"),
                                         ("none", "sensitive")])
def test_criterion_4_condition_robustness(sweep_report, config, kind):
    rows = [r for r in sweep_report.condition_rows if r["config"] == config]
    # the reported kappa is that of the nonzero spectrum; a row with a
    # deflated null space, or the sentinel of an all-zero spectrum, has a
    # true condition number of infinity (as a collapse in _across_ratio)
    sentinel = np.array([r["kappa"] == SENTINEL_KAPPA for r in rows])
    infinite = sentinel | np.array([bool(r["nullity"]) for r in rows])
    deflated = np.array([r["kappa"] for r in rows])[~sentinel]
    spread = deflated.max() / deflated.min() if deflated.size else np.inf
    nullities = [r["nullity"] for r in rows if r["nullity"] is not None]
    measured = (f"{config}: deflated max/min kappa = {spread:.3e}, kappa "
                f"infinite at {int(infinite.sum())}/{len(rows)} positions "
                f"(nullity {min(nullities, default=0)}.."
                f"{max(nullities, default=0)}, {int(sentinel.sum())} "
                f"sentinel rows)")
    if kind == "robust":
        ok = spread <= 10.0 and not infinite.any() \
            and sweep_report.elapsed <= 600.0
        detail = f"{measured}; robust needs spread <= 10, no infinite " \
                 f"kappa, runtime {sweep_report.elapsed:.0f}s <= 600s"
    elif config_params(PARAMS, config).mu_bulk == 0.0:
        # the null space comes from the surface; the loss of the bulk
        # ghost must show in the deflated spread on its own
        ok = spread >= 100.0
        detail = f"{measured}; without the bulk ghost sensitive needs " \
                 f"spread >= 100"
    else:
        ok = spread >= 100.0 or infinite.any()
        detail = f"{measured}; sensitive needs spread >= 100 or an " \
                 f"infinite kappa"
    _check(f"4 condition-robustness[{config}]", ok, detail)


def test_criterion_5_geometry_assumptions():
    report = run_geometry_check(levels=4, n0=8)
    sup = [r["sup_dist"] for r in report.geometry_rows]
    dev = [r["sup_normal_dev"] for r in report.geometry_rows]
    h = [r["h"] for r in report.geometry_rows]
    lengths = np.asarray([r["length"] for r in report.geometry_rows])
    s_dist = fit_slope(h, sup)
    s_dev = fit_slope(h, dev)
    s_len = fit_slope(h, np.abs(2.0 * np.pi - lengths))
    _check("5 geometry-assumptions",
           s_dist >= 1.8 and s_dev >= 0.8 and s_len >= 1.8,
           f"sup-dist slope {s_dist:.2f} >= 1.8, normal-dev slope "
           f"{s_dev:.2f} >= 0.8, length-error slope {s_len:.2f} >= 1.8")


def test_criterion_6_quadrature_oracle():
    tris, values = random_cut_triangles(np.random.default_rng(61), 50)
    worst = max(abs(approx - exact) / max(abs(exact), 1e-10)
                for approx, exact in cut_monomial_pairs(tris, values, 2))
    # disk area recovery
    ls = circle_levelset()
    mesh = build_structured_mesh(BOX, 8)
    errors, hs = [], []
    for _ in range(4):
        dls = interpolate_levelset(ls, mesh)
        total = clip_element_rules(mesh.vertices[mesh.elements],
                                   dls[mesh.elements]).weights.sum()
        errors.append(abs(np.pi - total))
        hs.append(mesh.h)
        mesh = refine_uniform(mesh)
    slope = fit_slope(hs, errors)
    _check("6 quadrature-oracle", worst <= 1e-6 and slope >= 1.8,
           f"worst monomial rel. error {worst:.2e} <= 1e-6 on 50 random "
           f"cut triangles; disk-area slope {slope:.2f} >= 1.8")


def test_criterion_7_coercivity_positive(property_report):
    info = property_report.property_summary[("coercivity", "full")]
    _check("7 coercivity-positive", info["min"] > 0.0,
           f"min over sweep lambda_min(A, G) = {info['min']:.4f} > 0")


def _coercivity_limit_check(property_report, config: str):
    """(ok, detail) of coercivity stability: the constant must not decay
    as a surface segment shrinks to zero, and its limit there must not
    depend on h.

    From the sweep's worst position delta_w, approach the nearest
    degenerate position delta* along delta* + (delta_w - delta*) 10^-k,
    k = 0..4: every value > 0 and their minimum >= 0.5 times the value at
    delta_w. At every degenerate position of the level-0 mesh, the limit
    from either side (offset 1e-6): every limit > 0 and the smallest >= 0.5
    times the value at delta_w. At level 1 the nested mesh keeps the
    vertex and the cell halves, so 2 delta* is the same circle: there the
    limit on the side of delta_w, and the limit where level 0 has its
    smallest one, must each be >= 0.5 times their level-0 value."""
    coarse = mesh_at_level(0, 8, PROPERTY_BOX)
    fine = mesh_at_level(1, 8, PROPERTY_BOX)
    rows = [r for r in property_report.property_rows
            if r["name"] == f"coercivity[{config}]"]
    worst = min(rows, key=lambda r: r["constant"])["delta"]
    roots = degenerate_positions(coarse)
    star = float(roots[np.argmin(np.abs(roots - worst))])
    def coercivity(mesh, delta):
        return SurfaceState(mesh, shifted_circle(mesh, delta),
                            PARAMS).coercivity(config)

    path = [coercivity(coarse, star + (worst - star) * 10.0 ** -k)
            for k in range(5)]
    limits = {r + side * 1e-6: coercivity(coarse, r + side * 1e-6)
              for r in roots for side in (-1.0, 1.0)}
    low = min(limits, key=limits.get)
    at_level0 = {star + (worst - star) * 1e-4: path[-1], low: limits[low]}
    at_level1 = {d: coercivity(fine, 2.0 * d) for d in at_level0}
    ratio = min(path) / path[0] if path[0] > 0.0 else 0.0
    limit_ratio = limits[low] / path[0] if path[0] > 0.0 else 0.0
    ok = min(path) > 0.0 and ratio >= 0.5 and limits[low] > 0.0 \
        and limit_ratio >= 0.5 \
        and all(at_level1[d] >= 0.5 * at_level0[d] > 0.0 for d in at_level0)
    detail = (f"{config}: from delta_w = {worst:.4f} towards delta* = "
              f"{star:.6f}: " + ", ".join(f"{v:.4f}" for v in path)
              + f"; min / value at delta_w = {ratio:.3f} >= 0.5; limits "
              f"at {len(roots)} degenerate positions, both sides: smallest "
              f"{limits[low]:.4f} at delta = {low:.6f}, / value at delta_w "
              f"= {limit_ratio:.3f} >= 0.5; level-1 / level-0 limit at level-0 "
              + ", ".join(f"delta = {d:.6f}: {at_level1[d]:.4f} / "
                          f"{at_level0[d]:.4f}" for d in at_level0)
              + " (each ratio >= 0.5)")
    return ok, detail


def test_criterion_7_coercivity_stability(property_report):
    _check("7 coercivity-stability",
           *_coercivity_limit_check(property_report, "full"))


def test_criterion_7_coercivity_stability_rejects_no_surface_ghost(
        property_report):
    # negative control: without the surface ghost the constant is not
    # positive, so the same check must fail
    ok, detail = _coercivity_limit_check(property_report, "no-surface-ghost")
    print(f"ACCEPTANCE 7 coercivity-stability[no-surface-ghost]: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert not ok, detail


def test_criterion_7_equivalence_stability(property_report):
    info = property_report.property_summary[("bulk_norm_equivalence",
                                             "full")]
    ok = info["max"] <= 2.0 * info["at_zero"]
    _check("7 equivalence-stability", ok,
           f"max_delta C = {info['max']:.2f} <= 2 * C(0) = "
           f"{2.0 * info['at_zero']:.2f}")


def test_criterion_7_poincare_stability(property_report):
    info = property_report.property_summary[("surface_poincare", "full")]
    ok = info["max"] <= 2.0 * info["at_zero"]
    _check("7 poincare-stability", ok,
           f"max_delta C = {info['max']:.3e} <= 2 * C(0) = "
           f"{2.0 * info['at_zero']:.3e}")


@pytest.mark.parametrize("config", ["no-bulk-ghost", "no-surface-ghost"])
def test_criterion_7_ablation_contrast(property_report, config):
    evidenced = []
    for prop in ("coercivity", "bulk_norm_equivalence", "surface_poincare"):
        info = property_report.property_summary[(prop, config)]
        if info["passed"]:
            evidenced.append(f"{prop} (contrast {info['contrast']:.2e}, "
                             f"spread {info['across']:.2e})")
    _check(f"7 ablation-contrast[{config}]", len(evidenced) > 0,
           f"constants changed by >= 100x: {evidenced or 'none'}")


def test_criterion_8_exactness():
    affine = build_affine_problem((0.7, 0.3, -0.2))
    worst_interp = 0.0
    worst_forms = 0.0
    mesh = build_structured_mesh(BOX, 8)
    for level in range(5):
        state = SurfaceState(mesh, affine.geometry, PARAMS)
        ui = interpolate_pair(state.dofmap, mesh, affine.u_bulk,
                              affine.u_surf)
        rep = state.errors(ui, affine)
        worst_interp = max(worst_interp, max(rep.as_tuple()))
        # DG consistency: every stabilization/jump term vanishes on the
        # affine pair, so the forms reduce to the smooth integrals
        pieces = state.pieces
        jb = ghost(pieces, PARAMS, "bulk")
        js = ghost(pieces, PARAMS, "surf")
        scale = max(np.abs(jb).max(), np.abs(js).max())
        worst_forms = max(worst_forms, abs(ui @ (jb @ ui)) / scale,
                          abs(ui @ (js @ ui)) / scale)
        mesh = refine_uniform(mesh)
    # constant data through the full pipeline: assemble, solve, measure
    worst_solve = 0.0
    constant = build_affine_problem((0.8, 0.0, 0.0))
    for level in range(3):
        state = SurfaceState(mesh_at_level(level, 8, BOX), constant.geometry,
                             PARAMS)
        u = solve(state.system(constant), rel_tol=1e-13)
        rep = state.errors(u, constant)
        worst_solve = max(worst_solve, max(rep.as_tuple()))
    ok = worst_interp <= 1e-9 and worst_forms <= 1e-9 and worst_solve <= 1e-9
    _check("8 exactness", ok,
           f"affine interpolation error {worst_interp:.2e} <= 1e-9 over 5 "
           f"levels, stabilization residual {worst_forms:.2e} <= 1e-9, "
           f"constant-data solve error {worst_solve:.2e} <= 1e-9")
