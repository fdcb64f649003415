"""The four benchmark workloads: inputs drawn from a seed, the timed study
call, and the correctness check of its output. Why each workload was
chosen is written once, in the ``why`` of BENCHMARK.json.

A workload's ``run`` is the study call that is timed. It reaches cutdg
only through attributes of ``cutdg.experiments`` (and
``cutdg.space.interpolate_pair``) looked up at call time, so a traced run
sees every layer call. ``summary`` turns the output into plain JSON data,
outside the timed region; ``check`` compares one summary against the
committed reference when the inputs match an entry of it (the reference
covers every seed in REFERENCE_SEEDS), and always checks the invariants
each class documents. A unit is one checked
system: a level, a position x configuration row, or an assembled system.
"""

from __future__ import annotations

import math

import numpy as np

import cutdg.experiments as ex
import cutdg.space as space

DEFAULT_SEED = 0
# seeds whose inputs bench/reference.json records; a run at another seed
# is checked against the invariants only
REFERENCE_SEEDS = tuple(range(10))
# fixed probe vectors of the assembly fingerprint (independent of --seed)
FINGERPRINT_SEED = 20170707
# acceptance-suite bands of the mean of the last two EOCs
EOC_BANDS = {"h1": (0.85, 1.15), "l2": (1.8, 2.2)}
ERROR_NAMES = ("h1_bulk", "l2_bulk", "h1_surf", "l2_surf")


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def shifted_box(offset):
    """DEFAULT_BOX translated by ``offset`` (dx, dy)."""
    (ax, ay), (bx, by) = ex.DEFAULT_BOX
    dx, dy = (float(v) for v in offset)
    return ((ax + dx, ay + dy), (bx + dx, by + dy))


def cell_size(level: int, n0: int = ex.DEFAULT_N0) -> float:
    (ax, _), (bx, _) = ex.DEFAULT_BOX
    return (bx - ax) / (n0 * 2 ** level)


def reference_entry(reference, inputs, ignore=()):
    """Summary stored for these inputs (keys in ``ignore`` not compared)."""
    def strip(d):
        return {k: v for k, v in d.items() if k not in ignore}
    for entry in reference:
        if strip(entry["inputs"]) == strip(inputs):
            return entry["summary"]
    return None


class Convergence:
    name = "convergence"

    def __init__(self, levels: int = 5, n0: int = ex.DEFAULT_N0):
        self.levels, self.n0 = levels, n0

    def inputs(self, seed: int, index: int) -> dict:
        # the headline study has no free input; every seed checks it
        # against the reference
        return {"levels": self.levels, "n0": self.n0}

    def run(self, inputs):
        return ex.run_convergence(levels=inputs["levels"], n0=inputs["n0"])

    def summary(self, report, inputs) -> dict:
        return {"errors": [list(map(float, r["errors"]))
                           for r in report.convergence_rows],
                "failed_levels": [lvl for lvl, _ in report.solver_failures]}

    def units(self, inputs) -> int:
        return inputs["levels"]

    def check(self, summary, inputs, reference):
        """Per level: no solver failure, finite positive errors, errors
        within 1e-8 relative of the reference (the study has the same
        inputs at every seed). The finest level also
        carries the rate claim: the mean of the last two EOCs of each norm
        lies in the acceptance band (H1 0.85-1.15, L2 1.8-2.2)."""
        ref = reference_entry(reference, inputs)
        errors = summary["errors"]
        failed, notes = [False] * inputs["levels"], []
        if len(errors) != inputs["levels"]:
            return [True] * inputs["levels"], ["wrong number of levels"]
        for lvl, errs in enumerate(errors):
            bad = lvl in summary["failed_levels"] or not all(
                math.isfinite(e) and 0.0 < e < ex.SENTINEL_ERROR for e in errs)
            if ref is not None and not all(
                    close(a, b, 1e-8) for a, b in zip(errs, ref["errors"][lvl])):
                bad = True
                notes.append(f"level {lvl}: errors differ from reference")
            failed[lvl] = bad
        if not failed[-1] and len(errors) >= 3:
            logs = np.log2(np.asarray(errors[-3:-1]) / np.asarray(errors[-2:]))
            for name, mean in zip(ERROR_NAMES, logs.mean(axis=0)):
                lo, hi = EOC_BANDS[name[:2]]
                if not lo <= mean <= hi:
                    failed[-1] = True
                    notes.append(f"EOC mean {name} = {mean:.3f} outside "
                                 f"[{lo}, {hi}]")
        return failed, notes


class Sweep:
    name = "sweep"
    FULL_BAND = 10.0  # acceptance criterion 4: full max/min kappa <= 10

    def __init__(self, level: int = 1, positions: int = 5):
        self.level, self.positions = level, positions

    def inputs(self, seed: int, index: int) -> dict:
        """The default seed runs the CLI's study on DEFAULT_BOX, where the
        unit circle, moved one cell along the diagonal at delta = 1, crosses
        the box edge and is clipped. Other seeds shift the box by (dx, dy),
        each drawn from [overshoot, cell / 2], where overshoot = 1 + cell -
        1.1 is how far the circle passes the edge: the surface then stays
        inside the mesh at every position."""
        if seed == DEFAULT_SEED:
            offset = [0.0, 0.0]
        else:
            cell = cell_size(self.level)
            overshoot = 1.0 + cell - ex.DEFAULT_BOX[1][0]
            rng = np.random.default_rng(seed)
            offset = rng.uniform(overshoot, 0.5 * cell, 2).tolist()
        return {"level": self.level, "positions": self.positions,
                "offset": offset}

    def run(self, inputs):
        return ex.run_condition_sweep(level=inputs["level"],
                                      positions=inputs["positions"],
                                      box=shifted_box(inputs["offset"]))

    def summary(self, report, inputs) -> dict:
        return {"rows": [[float(r["delta"]), float(r["kappa"]),
                          float(r["lambda_min"]), float(r["lambda_max"]),
                          r["config"]] for r in report.condition_rows]}

    def units(self, inputs) -> int:
        return inputs["positions"] * len(ex.SWEEP_CONFIGS)

    def check(self, summary, inputs, reference):
        """Per row: the expected delta and configuration order; a sentinel
        row has lambdas 0, any other row 0 < lambda_min <= lambda_max and
        kappa = lambda_max / lambda_min; a 'full' row is never a sentinel
        and the full band max/min kappa is at most 10. Against the
        reference: every kappa and lambda within 1e-6 relative, sentinel
        rows identical."""
        ref = reference_entry(reference, inputs)
        rows = summary["rows"]
        n = self.units(inputs)
        if len(rows) != n:
            return [True] * n, [f"{len(rows)} rows, expected {n}"]
        deltas = np.linspace(0.0, 1.0, inputs["positions"])
        failed, notes = [False] * n, []
        for i, (delta, kappa, lmin, lmax, config) in enumerate(rows):
            sentinel = kappa == ex.SENTINEL_KAPPA
            bad = (delta != float(deltas[i // len(ex.SWEEP_CONFIGS)])
                   or config != ex.SWEEP_CONFIGS[i % len(ex.SWEEP_CONFIGS)])
            if sentinel:
                bad = bad or config == "full" or lmin != 0.0 or lmax != 0.0
            else:
                bad = bad or not (0.0 < lmin <= lmax
                                  and close(kappa, lmax / lmin, 1e-12))
            if ref is not None:
                rkappa, rmin, rmax = ref["rows"][i][1:4]
                if sentinel or rkappa == ex.SENTINEL_KAPPA:
                    bad = bad or kappa != rkappa
                else:
                    bad = bad or not all(close(a, b, 1e-6) for a, b in
                                         ((kappa, rkappa), (lmin, rmin),
                                          (lmax, rmax)))
            if bad:
                notes.append(f"row {i} ({config}, delta={delta:.3f}) failed")
            failed[i] = bad
        full = [i for i, r in enumerate(rows) if r[4] == "full"]
        kappas = np.array([rows[i][1] for i in full])
        band = kappas.max() / kappas.min()
        if not band <= self.FULL_BAND:
            notes.append(f"full kappa band {band:.3g} > {self.FULL_BAND}")
            for i in full:
                failed[i] = True
        return failed, notes


class Properties:
    name = "properties"
    SEED_FREE = ("coercivity", "bulk_norm_equivalence")

    def __init__(self, level: int = 0, positions: int = 21):
        self.level, self.positions = level, positions

    def inputs(self, seed: int, index: int) -> dict:
        # the default benchmark seed gives the library's default seed 9176
        return {"level": self.level, "positions": self.positions,
                "seed": 9176 + seed}

    def run(self, inputs):
        return ex.run_property_suite(level=inputs["level"],
                                     positions=inputs["positions"],
                                     seed=inputs["seed"])

    def summary(self, report, inputs) -> dict:
        constants = {}
        for row in report.property_rows:
            constants.setdefault(row["name"], []).append(float(row["constant"]))
        flags = {f"{prop}[{config}]": bool(info["passed"])
                 for (prop, config), info in report.property_summary.items()}
        return {"constants": constants, "flags": flags}

    def units(self, inputs) -> int:
        return inputs["positions"] * len(ex.PROPERTY_CONFIGS)

    def check(self, summary, inputs, reference):
        """Per position x configuration: the three constants are finite and
        the Poincare constants positive. At a reference seed every constant
        matches the reference within 1e-8 relative (plus 1e-9 of the
        property's largest magnitude, for constants that are numerically
        zero) and every pass flag equals the recorded one. Coercivity and
        the bulk norm-equivalence constant do not depend on the suite's
        random seed, so at any other seed their constants and flags are
        checked that way against seed 0; the Poincare flags are not,
        because the random fields move the no-surface-ghost contrast across
        its threshold of 100."""
        ref = reference_entry(reference, inputs)
        seedless = reference_entry(reference, inputs, ignore=("seed",))
        n_pos = inputs["positions"]
        failed, notes = [False] * self.units(inputs), []
        for c, config in enumerate(ex.PROPERTY_CONFIGS):
            for prop in ex.PROPERTY_NAMES:
                key = f"{prop}[{config}]"
                values = summary["constants"].get(key, [])
                bad_pos = set(range(n_pos)) if len(values) != n_pos else {
                    p for p, v in enumerate(values) if not math.isfinite(v)
                    or (prop == "surface_poincare" and v <= 0.0)}
                base = ref if ref is not None else (
                    seedless if prop in self.SEED_FREE else None)
                if base is not None and not bad_pos:
                    expected = base["constants"][key]
                    atol = 1e-9 * max(abs(v) for v in expected)
                    bad_pos = {p for p, (v, e) in enumerate(zip(values,
                                                                expected))
                               if not close(v, e, 1e-8, atol)}
                if base is not None and \
                        summary["flags"].get(key) != base["flags"][key]:
                    bad_pos = set(range(n_pos))
                    notes.append(f"{key}: pass flag changed")
                if bad_pos:
                    notes.append(f"{key}: {len(bad_pos)} positions failed")
                for p in bad_pos:
                    failed[c * n_pos + p] = True
        return failed, notes


class Assembly:
    name = "assembly"

    def __init__(self, level: int = 5, n0: int = ex.DEFAULT_N0):
        self.level, self.n0 = level, n0

    def inputs(self, seed: int, index: int) -> dict:
        """A sub-cell box shift per system, so no two systems share a cut
        pattern; the circle stays inside the box."""
        rng = np.random.default_rng([seed, index])
        offset = rng.uniform(0.0, 1.0, 2) * cell_size(self.level, self.n0)
        return {"level": self.level, "n0": self.n0, "offset": offset.tolist()}

    def run(self, inputs):
        mesh = ex.mesh_at_level(inputs["level"], inputs["n0"],
                                shifted_box(inputs["offset"]))
        problem = ex.build_circle_problem()
        dls = ex.interpolate_levelset(problem.geometry, mesh)
        topo = ex.build_cut_topology(mesh, dls)
        dofmap = ex.build_spaces(mesh, topo)
        system = ex.assemble_system(mesh, dls, topo, dofmap, problem,
                                    ex.StabilizationParams())
        exact = space.interpolate_pair(dofmap, mesh, problem.u_bulk,
                                       problem.u_surf_ext)
        errors = ex.compute_errors(exact, problem, mesh, dls, topo, dofmap)
        return system, errors

    def summary(self, output, inputs) -> dict:
        system, errors = output
        a, b = system.matrix, system.rhs
        rng = np.random.default_rng(FINGERPRINT_SEED)
        x, y = rng.standard_normal((2, b.shape[0]))
        ax = a @ x
        return {"ndof": int(b.shape[0]), "nnz": int(a.nnz),
                "norm_ax": float(np.linalg.norm(ax)), "xax": float(x @ ax),
                "norm_b": float(np.linalg.norm(b)),
                "asym": float(abs(y @ ax - x @ (a @ y))
                              / (np.linalg.norm(y) * np.linalg.norm(ax))),
                "errors": list(map(float, errors.as_tuple()))}

    def units(self, inputs) -> int:
        return 1

    def check(self, summary, inputs, reference):
        """Against the reference: ndof and nnz equal, ||A x||, x^T A x and
        ||b|| within 1e-13 relative, interpolation errors within 1e-10.
        Always: A symmetric to 1e-12 and positive on x; ndof and nnz within
        1% and every interpolation error within 10% of the first reference
        system, whose cut pattern differs only by a sub-cell shift."""
        ref = reference_entry(reference, inputs)
        first = reference[0]["summary"]
        notes = []
        if not (summary["asym"] <= 1e-12 and summary["xax"] > 0.0):
            notes.append("matrix not symmetric positive on the probe vector")
        if not (close(summary["ndof"], first["ndof"], 0.01)
                and close(summary["nnz"], first["nnz"], 0.01)
                and all(close(e, r, 0.1) for e, r in
                        zip(summary["errors"], first["errors"]))):
            notes.append("size or interpolation error off the reference "
                         "system's")
        if ref is not None:
            exact = all(summary[k] == ref[k] for k in ("ndof", "nnz"))
            fingerprint = all(close(summary[k], ref[k], 1e-13)
                              for k in ("norm_ax", "xax", "norm_b"))
            errors = all(close(e, r, 1e-10)
                         for e, r in zip(summary["errors"], ref["errors"]))
            if not (exact and fingerprint and errors):
                notes.append("fingerprint differs from reference")
        return [bool(notes)], notes


WORKLOADS = {w.name: w for w in (Convergence(), Sweep(), Properties(),
                                 Assembly())}
