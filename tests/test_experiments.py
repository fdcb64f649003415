import dataclasses
import time

import numpy as np
import pytest

from cutdg import experiments
from cutdg.cli import main
from cutdg.exceptions import ConfigurationError
from cutdg.experiments import (CONDITION_HEADER, CONVERGENCE_HEADER,
                               DEFAULT_BOX, GEOMETRY_HEADER,
                               PROPERTIES_HEADER, PROPERTY_BOX,
                               PROPERTY_CONFIGS, PROPERTY_SWEEP_CONFIG,
                               SWEEP_CONFIGS, SurfaceState, config_params,
                               mesh_at_level,
                               run_condition_sweep, run_convergence,
                               run_geometry_check, run_property_suite,
                               shifted_circle)
from cutdg.forms import (StabilizationParams, coupling_form, ghost,
                         ghost_pieces, property_grams, stabilized,
                         surface_form)
from cutdg.manufactured import ErrorReport, build_circle_problem
from cutdg.quadrature import CutQuadrature
from cutdg.solver import (condition_number, generalized_extreme,
                          rescaled_matrix)
from tests.oracles import (bulk_matrix, degenerate_positions,
                           dense_condition_number, dense_generalized_extremes,
                           fit_slope)


def test_mesh_at_level_matches_direct_build():
    mesh = mesh_at_level(2, n0=2)
    assert mesh.n_elements == 2 * 8 * 8
    assert mesh.h == pytest.approx(mesh_at_level(0, n0=8).h, rel=1e-12)
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        mesh_at_level(-1)


def test_ablated_params():
    p = config_params(StabilizationParams(), "ablated")
    assert p.mu_bulk == 50.0 and p.mu_surf == 0.0
    assert p.tau_bulk == 0.0 and p.tau_surf == 0.0
    assert p.gamma_bulk == 50.0 and p.gamma_surf == 50.0


def test_config_params():
    p = StabilizationParams()
    assert config_params(p, "full") == p
    assert config_params(p, "no-surface") == StabilizationParams(
        mu_surf=0.0, tau_surf=0.0)
    assert config_params(p, "no-bulk") == StabilizationParams(
        mu_bulk=0.0, tau_bulk=0.0)
    assert config_params(p, "none") == StabilizationParams(
        mu_bulk=0.0, tau_bulk=0.0, mu_surf=0.0, tau_surf=0.0)
    with pytest.raises(ValueError):
        config_params(p, "bogus")


@pytest.mark.parametrize("level", [0, 1, 2])
def test_full_sweep_matrix_is_the_solved_matrix(level):
    """At delta = 0 the sweep's fully stabilized matrix is the matrix the
    convergence study solves, bit for bit."""
    params = StabilizationParams()
    mesh = mesh_at_level(level)
    state = SurfaceState(mesh, shifted_circle(mesh, 0.0), params)
    solved = state.system(build_circle_problem()).matrix
    swept = state.matrix("full")
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(swept, attr), getattr(solved, attr))


def test_convergence_rows_and_csv(tmp_path):
    report = run_convergence(levels=3, n0=4)
    assert len(report.convergence_rows) == 3
    first = report.convergence_rows[0]
    assert first["eocs"] == (None,) * 4
    later = report.convergence_rows[-1]
    assert all(e is not None for e in later["eocs"])
    assert not report.solver_failures
    csv = report.convergence_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    assert len(lines) == 4
    assert lines[1].split(",")[3] == ""  # no EOC at the first level
    paths = report.write(str(tmp_path))
    assert [p.endswith("convergence.csv") for p in paths] == [True]


def test_error_report_fields_follow_the_convergence_columns():
    """The ErrorReport fields, and so ``as_tuple``, are in the order of the
    err_ columns of the convergence CSV."""
    names = [f.name for f in dataclasses.fields(ErrorReport)]
    columns = [c[len("err_"):] for c in CONVERGENCE_HEADER.split(",")
               if c.startswith("err_")]
    assert names == columns
    report = ErrorReport(l2_bulk=1.0, h1_bulk=2.0, l2_surf=3.0, h1_surf=4.0)
    assert report.as_tuple() == tuple(getattr(report, c) for c in columns)


@pytest.mark.parametrize("level,n0", [(10 ** 9, 8), (3, 10 ** 3000)],
                         ids=["level-1e9", "n0-1e3000"])
def test_oversized_mesh_fails_fast_with_the_mesh_size_error(level, n0):
    """A level or n0 whose element count would take seconds and gigabytes
    to form, or would have too many digits to format, is refused at once
    with the mesh-size error."""
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="mesh too large"):
        experiments._check_mesh_size(level, n0)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("study", ["run_convergence", "run_geometry_check"])
@pytest.mark.parametrize("levels,n0,message", [
    (1, 8, "at least 3 levels"), (2, 8, "at least 3 levels"),
    (3, 2 ** 10, "mesh too large")], ids=["levels-1", "levels-2", "n0-1024"])
def test_level_studies_fail_before_any_mesh(study, levels, n0, message,
                                            monkeypatch):
    """Too few levels or too large a finest mesh: both refinement studies
    raise before the first mesh is built."""
    def never(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(experiments, "build_structured_mesh", never)
    with pytest.raises((ValueError, ConfigurationError), match=message):
        getattr(experiments, study)(levels=levels, n0=n0)


def test_convergence_determinism():
    a = run_convergence(levels=3, n0=4).convergence_csv()
    b = run_convergence(levels=3, n0=4).convergence_csv()
    assert a == b


def test_condition_sweep_rows_and_determinism():
    # all four configurations: every ARPACK call must start from the same
    # vector, or the last digits of kappa move between runs
    report = run_condition_sweep(level=0, positions=3)
    assert len(report.condition_rows) == 3 * len(SWEEP_CONFIGS)
    csv = report.condition_csv()
    assert csv.splitlines()[0] == CONDITION_HEADER
    again = run_condition_sweep(level=0, positions=3)
    assert again.condition_csv() == csv
    with pytest.raises(ValueError):
        run_condition_sweep(positions=1)


def test_condition_sweep_rejects_a_repeated_configuration(monkeypatch):
    """A repeated, an unknown or no configuration: rejected before any
    assembly, so the mesh is never built."""
    def never_called(*args, **kwargs):
        raise AssertionError("mesh built for a rejected sweep")

    monkeypatch.setattr(experiments, "mesh_at_level", never_called)
    for configs, message in (
            (["full", "none", "full"], "sweep configuration repeated: full"),
            (("full", "bogus"), "must be some of .*got \\('full', 'bogus'\\)"),
            ((), "must be some of .*got \\(\\)")):
        with pytest.raises(ValueError, match=message):
            run_condition_sweep(level=0, positions=2, configs=configs)


def test_condition_sweep_nullity_is_the_cut_element_count():
    # without the surface ghost penalty each cut element carries one null
    # direction, which the sweep deflates and reports as its nullity; the
    # wide box keeps the translated circle inside the mesh
    report = run_condition_sweep(level=0, positions=5,
                                 configs=("full", "no-surface"),
                                 box=PROPERTY_BOX)
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    for row in report.condition_rows:
        topo = SurfaceState(mesh, shifted_circle(mesh, row["delta"]),
                            StabilizationParams()).topo
        expected = topo.active_surface.size \
            if row["config"] == "no-surface" else 0
        assert row["nullity"] == expected
    assert "nullity" not in report.condition_csv()


def _dense_sweep_rows(level, deltas, box):
    """Dense-oracle (kappa, lambda_min, lambda_max, nullity) of every sweep
    row, from the same rescaled matrices."""
    params = StabilizationParams()
    mesh = mesh_at_level(level, box=box)
    for delta in deltas:
        state = SurfaceState(mesh, shifted_circle(mesh, delta), params)
        for config in SWEEP_CONFIGS:
            yield dense_condition_number(rescaled_matrix(
                state.matrix(config), state.dofmap.bulk.ndof, mesh.h))


@pytest.mark.parametrize("box", [DEFAULT_BOX, ((-1.05, -1.06), (1.15, 1.14))])
def test_condition_sweep_matches_dense_eigensolve(box):
    report = run_condition_sweep(level=1, positions=3, box=box)
    dense = list(_dense_sweep_rows(1, (0.0, 0.5, 1.0), box))
    assert len(dense) == len(report.condition_rows)
    for row, (kappa, lam_min, lam_max, nullity) in zip(
            report.condition_rows, dense):
        assert (row["kappa"], row["lambda_min"], row["lambda_max"]) == \
            pytest.approx((kappa, lam_min, lam_max), rel=1e-6)
        assert row["nullity"] == nullity


def test_condition_number_near_degenerate_positions():
    """Level 0 on DEFAULT_BOX, 1e-3 to 1e-12 of a cell on either side of
    the first, middle and last position where a background vertex lies on
    the circle, so that a surface segment shrinks towards zero. In every
    configuration the sweep's condition number, in the state's dof order
    as the sweep computes it, agrees with the dense oracle in nullity and
    kappa, and the fully stabilized kappa stays within the factor 10 of
    criterion 4 of its value at delta = 0."""
    params = StabilizationParams()
    mesh = mesh_at_level(0)
    roots = degenerate_positions(mesh)
    assert roots.size == 12

    def rows(delta, configs):
        state = SurfaceState(mesh, shifted_circle(mesh, delta), params)
        for config in configs:
            matrix = rescaled_matrix(state.matrix(config),
                                     state.dofmap.bulk.ndof, mesh.h)
            yield (config, condition_number(matrix, state.null_basis,
                                            state.dof_order),
                   dense_condition_number(matrix))

    kappa0 = next(rows(0.0, ("full",)))[1][0]
    count = 0
    for root in roots[[0, roots.size // 2, -1]]:
        for offset in (1e-3, 1e-6, 1e-9, 1e-12):
            for delta in (root - offset, root + offset):
                for config, (kappa, *_, nullity), dense in rows(
                        delta, SWEEP_CONFIGS):
                    where = f"delta = {delta!r}, {config}"
                    assert nullity == dense[3], where
                    assert kappa == pytest.approx(dense[0], rel=1e-6), where
                    if config == "full":
                        assert 0.1 <= kappa / kappa0 <= 10.0, where
                    count += 1
    assert count == 96


def test_condition_sweep_clipped_corner_null_field():
    """On DEFAULT_BOX at level 0 and delta = 1 the box clips the circle.
    The corner element (1.1, 0.825), (1.1, 1.1), (0.825, 1.1) is cut, and
    its only interior face borders an element that is not surface-active,
    so no surface ghost acts on its surface field equal to the level set:
    even the fully stabilized matrix has that one null direction."""
    report = run_condition_sweep(level=0, positions=5, configs=("full",))
    row = report.condition_rows[-1]
    assert row["delta"] == 1.0 and row["nullity"] == 1
    assert all(r["nullity"] == 0 for r in report.condition_rows[:-1])
    kappa, lam_min, lam_max, nullity = list(
        _dense_sweep_rows(0, (1.0,), DEFAULT_BOX))[0]
    assert nullity == 1
    assert row["kappa"] == pytest.approx(kappa, rel=1e-6)


def test_condition_sweep_full_cell_translation_is_periodic():
    # with one full grid-cell of clearance the translated cut pattern maps
    # onto itself, so the first and last sweep positions agree; the default
    # box is too tight for that at level 1, hence the wider box here
    report = run_condition_sweep(level=1, positions=2, n0=8,
                                 configs=("full",),
                                 box=((-1.5, -1.5), (1.5, 1.5)))
    k0 = report.condition_rows[0]["kappa"]
    k1 = report.condition_rows[1]["kappa"]
    assert k1 == pytest.approx(k0, rel=1e-6)


def test_geometry_check_rows_and_slopes():
    report = run_geometry_check(levels=4, n0=4)
    assert len(report.geometry_rows) == 4
    assert report.geometry_csv().splitlines()[0] == GEOMETRY_HEADER
    sup = [r["sup_dist"] for r in report.geometry_rows]
    dev = [r["sup_normal_dev"] for r in report.geometry_rows]
    h = [r["h"] for r in report.geometry_rows]
    assert fit_slope(h, sup) >= 1.8
    assert fit_slope(h, dev) >= 0.8
    lengths = np.asarray([r["length"] for r in report.geometry_rows])
    assert fit_slope(h, np.abs(2 * np.pi - lengths)) >= 1.8


def test_property_suite_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 20)
    report = run_property_suite(level=0, positions=3)
    names = {r["name"] for r in report.property_rows}
    assert "coercivity[full]" in names
    assert "bulk_norm_equivalence[no-bulk-ghost]" in names
    assert len(report.property_rows) == 9 * 3
    csv = report.properties_csv()
    assert csv.splitlines()[0] == PROPERTIES_HEADER
    for row in report.property_rows:
        assert np.isfinite(row["constant"])
    full_coercivity = [r["constant"] for r in report.property_rows
                       if r["name"] == "coercivity[full]"]
    assert min(full_coercivity) > 0.0
    report.write(str(tmp_path))
    assert (tmp_path / "properties.csv").exists()


def test_coercivity_band_tightens_with_stronger_gradient_ghost(monkeypatch):
    # At the defaults (tau = 0.01) the sharp coercivity constant dips
    # towards positions where a surface segment shrinks to zero. The
    # surface weight tau_surf alone drives the dip: at its limit, tau_surf
    # = 0.1 keeps 0.97 of the delta = 0 constant, while tau_bulk = 0.1
    # leaves the limit unchanged (0.19 of it, as at the defaults).
    params = StabilizationParams(tau_bulk=0.1, tau_surf=0.1)
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 10)
    report = run_property_suite(level=0, positions=21, params=params)
    info = report.property_summary[("coercivity", "full")]
    assert info["min"] > 0.0
    assert info["min"] >= 0.5 * info["at_zero"]
    assert info["across"] <= 2.0


def test_sentinel_and_formatting_roundtrip():
    report = run_condition_sweep(level=0, positions=2, configs=("none",))
    for row in report.condition_rows:
        assert np.isfinite(row["kappa"])
    text = report.condition_csv()
    values = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    assert all(np.isfinite(v) for v in values)


def test_every_csv_row_matches_its_header_width(monkeypatch):
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 5)
    renders = [
        run_convergence(levels=3, n0=4).convergence_csv,
        run_condition_sweep(level=0, positions=2).condition_csv,
        run_geometry_check(levels=3, n0=4).geometry_csv,
        run_property_suite(level=0, positions=2).properties_csv,
    ]
    for render in renders:
        lines = render().strip().splitlines()
        width = len(lines[0].split(","))
        assert len(lines) > 1
        for line in lines[1:]:
            assert len(line.split(",")) == width


def _per_call_constants(mesh, delta, params, seed, n_random):
    """The property constants at one position, every Gram built by its
    public function on a fresh CutQuadrature, every pencil solved on its
    own and every configuration drawing its own Poincare fields one at a
    time."""
    state = SurfaceState(mesh, shifted_circle(mesh, delta), params)
    topo, dofmap = state.topo, state.dofmap

    def cq():
        return CutQuadrature(mesh, state.dls, topo)

    bulk = bulk_matrix(cq(), dofmap, params)
    forms = ((bulk.nnz, [bulk]),
             surface_form(cq(), dofmap, params),
             coupling_form(cq(), dofmap, params))
    pieces = ghost_pieces(cq(), dofmap)
    surf_ghost = ghost(ghost_pieces(cq(), dofmap), params, "surf")
    grams = property_grams(cq(), dofmap, params, ghost_pieces(cq(), dofmap))
    gram_total, mass, load, tangent = (
        grams[k] for k in ("energy", "surface_mass", "trace", "tangential"))
    out = {}
    for config in PROPERTY_CONFIGS:
        matrix = stabilized(*forms, pieces, config_params(
            params, PROPERTY_SWEEP_CONFIG[config]))
        out[("coercivity", config)] = generalized_extreme(
            matrix, gram_total, largest=False)
        out[("bulk_norm_equivalence", config)] = \
            experiments._cut_area_ratio(cq()) if config == "no-bulk-ghost" \
            else experiments._bulk_norm_equivalence(
                grams, ghost_pieces(cq(), dofmap), params, dofmap.bulk.ndof)
        den_matrix = tangent if config == "no-surface-ghost" \
            else (tangent + surf_ghost).tocsr()
        rng = np.random.default_rng(seed)
        ones = np.zeros(dofmap.ndof)
        ones[dofmap.bulk.ndof:] = 1.0
        worst = 0.0
        for _ in range(n_random):
            v = np.zeros(dofmap.ndof)
            v[dofmap.bulk.ndof:] = rng.standard_normal(dofmap.surface.ndof)
            v -= ((load @ v) / topo.surface.length.sum()) * ones
            num = (v @ (mass @ v)) / mesh.h
            den = v @ (den_matrix @ v)
            if den > 0.0:
                worst = max(worst, num / den)
        out[("surface_poincare", config)] = worst
    return out


def _suite_constants(report):
    constants = {}
    for row in report.property_rows:
        prop, config = row["name"][:-1].split("[")
        constants.setdefault((prop, config), []).append(row["constant"])
    return constants


def test_property_suite_equals_the_per_call_route(monkeypatch):
    # the shared state (one quadrature, one energy Gram, one block of
    # random fields) must not move a single bit
    params = StabilizationParams()
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 30)
    report = run_property_suite(level=0, positions=3, seed=5)
    suite = _suite_constants(report)
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    for idx, delta in enumerate((0.0, 0.5, 1.0)):
        reference = _per_call_constants(mesh, delta, params, 5 + 7 * idx, 30)
        for key, value in reference.items():
            assert np.array_equal(suite[key][idx], value), (key, delta)


def _assert_suite_matches_the_dense_oracle(monkeypatch, params):
    # The suite solves each pencil by one generalized eigensolve against a
    # positive definite Gram, and takes the bare bulk constant in closed
    # form. The oracle deflates each raw Gram and computes every
    # eigenvalue; it runs inside the same suite code, which sets the flags.
    report = run_property_suite(level=0, positions=5, params=params)
    suite_constants = experiments._property_constants

    def oracle_constants(state, rng):
        out = suite_constants(state, rng)
        cq, dofmap, pieces = state.cq, state.dofmap, state.pieces
        grams = property_grams(cq, dofmap, state.params, pieces)
        energy = grams["energy"]
        for config in PROPERTY_CONFIGS:
            out["coercivity"][config] = dense_generalized_extremes(
                state.matrix(PROPERTY_SWEEP_CONFIG[config]), energy)[0]
        active, cut = grams["gradient_active"], grams["gradient_cut"]
        full = dense_generalized_extremes(
            active, cut + ghost(pieces, state.params, "bulk"))[1]
        out["bulk_norm_equivalence"] = {
            "full": full, "no-surface-ghost": full,
            "no-bulk-ghost": dense_generalized_extremes(active, cut)[1]}
        return out

    monkeypatch.setattr(experiments, "_property_constants", oracle_constants)
    oracle = run_property_suite(level=0, positions=5, params=params)
    suite, reference = _suite_constants(report), _suite_constants(oracle)
    assert suite.keys() == reference.keys()
    for key, expected in reference.items():
        expected = np.asarray(expected)
        scale = np.abs(expected).max()
        assert np.abs(np.asarray(suite[key]) - expected).max() \
            <= 1e-11 * scale, key
    assert {k: v["passed"] for k, v in report.property_summary.items()} == \
        {k: v["passed"] for k, v in oracle.property_summary.items()}


def test_property_suite_matches_the_dense_oracle(monkeypatch):
    _assert_suite_matches_the_dense_oracle(monkeypatch, StabilizationParams())


def test_bulk_constant_without_value_ghost_matches_the_dense_oracle(
        monkeypatch):
    # the gradient ghost alone joins the elements but leaves every
    # element-wise constant in the null space of the bulk Gram
    _assert_suite_matches_the_dense_oracle(
        monkeypatch, StabilizationParams(mu_bulk=0.0))


def test_bare_bulk_constant_is_the_dense_pencil():
    # at delta = 0.48 the top of the bare pencil is a cluster of exactly
    # equal eigenvalues, on which the LAPACK subset eigensolvers fail
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    state = SurfaceState(mesh, shifted_circle(mesh, 0.48),
                         StabilizationParams())
    grams = property_grams(state.cq, state.dofmap, state.params,
                           state.pieces)
    expected = dense_generalized_extremes(grams["gradient_active"],
                                          grams["gradient_cut"])[1]
    assert experiments._cut_area_ratio(state.cq) == pytest.approx(
        expected, rel=1e-12)


def test_bulk_constant_without_bulk_ghost_weights_is_the_closed_form(
        monkeypatch):
    # with mu_bulk = tau_bulk = 0 the ghost couples no elements, so each
    # element is a component of its own and the constant is the closed
    # form of the bare pencil
    params = StabilizationParams(mu_bulk=0.0, tau_bulk=0.0)
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 2)
    constants = _suite_constants(run_property_suite(
        level=0, positions=3, params=params))
    assert constants[("bulk_norm_equivalence", "full")] == pytest.approx(
        constants[("bulk_norm_equivalence", "no-bulk-ghost")], rel=1e-12)


def test_open_surface_chain_raises():
    # on the tight default box the circle at delta = 1 leaves the mesh,
    # and the energy Gram can be singular there
    mesh = mesh_at_level(0)
    state = SurfaceState(mesh, shifted_circle(mesh, 1.0),
                         StabilizationParams())
    assert state.topo.surface.n_edges < state.topo.surface.n_segments
    with pytest.raises(ConfigurationError, match="open surface chain"):
        state.coercivity("full")


@pytest.mark.parametrize("weight", ["mu_surf", "tau_surf"])
def test_zero_surface_ghost_weight_raises(weight, monkeypatch):
    # without either surface ghost a field that vanishes on every segment
    # has zero energy, so the energy Gram is singular
    params = StabilizationParams(**{weight: 0.0})
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    state = SurfaceState(mesh, shifted_circle(mesh, 0.3), params)
    eigs = np.linalg.eigvalsh(property_grams(
        state.cq, state.dofmap, params, state.pieces)["energy"].toarray())
    assert abs(eigs[0]) < 1e-12 * eigs[-1]
    with pytest.raises(ConfigurationError, match="zero surface ghost"):
        state.coercivity("full")
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 2)
    with pytest.raises(ConfigurationError, match="zero surface ghost"):
        run_property_suite(level=0, positions=2, params=params)


@pytest.mark.parametrize("weight", ["mu_surf", "tau_surf"])
def test_zero_surface_ghost_weight_fails_before_any_mesh(weight, tmp_path,
                                                         monkeypatch, capsys):
    """The weights are known before the mesh: the suite and ``cutdg
    properties`` fail at once (exit 2), and no mesh is built."""
    def never(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(experiments, "mesh_at_level", never)
    with pytest.raises(ConfigurationError, match="zero surface ghost"):
        run_property_suite(level=2, positions=2,
                           params=StabilizationParams(**{weight: 0.0}))
    out = tmp_path / "out"
    assert main(["--out", str(out), "properties", "--level", "2",
                 "--positions", "2", "--" + weight.replace("_", "-"),
                 "0"]) == 2
    assert "zero surface ghost weight" in capsys.readouterr().err
    assert not out.exists()


def test_coercivity_next_to_tiny_segments_matches_the_dense_oracle():
    # At the level-0 positions 2/7 and 5/7 a background vertex lies on
    # the circle and a surface segment shrinks to zero. Approach each from
    # both sides down to 1e-12 of a cell.
    params = StabilizationParams()
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    got = {config: [] for config in PROPERTY_CONFIGS}
    expected = {config: [] for config in PROPERTY_CONFIGS}
    for star in (2.0 / 7.0, 5.0 / 7.0):
        for offset in (1e-3, 1e-6, 1e-9, 1e-12):
            for side in (-1.0, 1.0):
                state = SurfaceState(
                    mesh, shifted_circle(mesh, star + side * offset), params)
                for config in PROPERTY_CONFIGS:
                    got[config].append(state.coercivity(config))
                    expected[config].append(dense_generalized_extremes(
                        state.matrix(PROPERTY_SWEEP_CONFIG[config]),
                        state.energy)[0])
    for config in PROPERTY_CONFIGS:
        row = np.asarray(expected[config])
        assert np.abs(np.asarray(got[config]) - row).max() \
            <= 1e-11 * np.abs(row).max(), config


def test_surface_state_coercivity_equals_the_suite_row(monkeypatch):
    params = StabilizationParams()
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 2)
    suite = _suite_constants(run_property_suite(level=0, positions=3))
    mesh = mesh_at_level(0, box=PROPERTY_BOX)
    for config in PROPERTY_CONFIGS:
        state = SurfaceState(mesh, shifted_circle(mesh, 0.5), params)
        assert np.array_equal(state.coercivity(config),
                              suite[("coercivity", config)][1])


def test_one_quadrature_and_one_energy_gram_per_position(monkeypatch):
    calls = {"quadrature": 0, "grams": 0, "extremes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CutQuadrature, "__init__",
                        counted("quadrature", CutQuadrature.__init__))
    for name, attr in (("grams", "property_grams"),
                       ("extremes", "generalized_extreme")):
        monkeypatch.setattr(experiments, attr,
                            counted(name, getattr(experiments, attr)))
    run_condition_sweep(level=0, positions=3)
    assert calls == {"quadrature": 3, "grams": 0, "extremes": 0}
    monkeypatch.setattr(experiments, "POINCARE_FIELDS", 2)
    run_property_suite(level=0, positions=3)
    # per position: 3 coercivity pencils on one energy Gram and one bulk
    # norm-equivalence pencil; the bare bulk constant is in closed form
    assert calls == {"quadrature": 6, "grams": 3, "extremes": 12}
