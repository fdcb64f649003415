"""One-off traced reproduction of the ROADMAP baseline table.

    python3 bench/baseline.py [--out bench/results/baseline_table.json]

For each level of the ROADMAP table (2-5): the convergence pipeline of
``run_convergence`` on the unit circle (n0 = 8, default penalties), traced
with the benchmark's spans, so the table reports ndof, cut elements, nnz,
assemble_system time, the Jacobi-PCG solve time and iterations,
error-norm time and the four errors.
It is not a gated workload: the level-5 PCG solve alone takes minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cutdg.experiments as ex  # noqa: E402
from spantrace import Tracer, run_metrics, tracing  # noqa: E402
from worker import versions  # noqa: E402

LEVELS = (2, 3, 4, 5)


def level_row(level: int, tracer: Tracer) -> dict:
    tracer.run = level
    with tracing(tracer), tracer.span("level", "experiments"):
        mesh = ex.mesh_at_level(level)
        problem = ex.build_circle_problem()
        dls = ex.interpolate_levelset(problem.geometry, mesh)
        topo = ex.build_cut_topology(mesh, dls)
        dofmap = ex.build_spaces(mesh, topo)
        system = ex.assemble_system(mesh, dls, topo, dofmap, problem,
                                    ex.StabilizationParams())
        u = ex.solve(system)
        errors = ex.compute_errors(u, problem, mesh, dls, topo, dofmap)
    m = run_metrics(tracer.spans, level)
    return {"level": level, "ndof": m["space.ndof"],
            "cut_elements": m["levelset.cut_elements"], "nnz": m["forms.nnz"],
            "assemble_system_ms": 1e3 * m["forms.system_s"],
            "solve_ms": 1e3 * m["solver.solve_s"],
            "pcg_iters": m["solver.pcg_iters"],
            "dense_fallbacks": m["solver.dense_fallbacks"],
            "errors_ms": 1e3 * m["manufactured.errors_s"],
            "errors": dict(zip(("h1_bulk", "l2_bulk", "h1_surf", "l2_surf"),
                               map(float, errors.as_tuple())))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "results"
                                             / "baseline_table.json"))
    args = parser.parse_args(argv)
    tracer = Tracer()
    rows = []
    for level in LEVELS:
        rows.append(level_row(level, tracer))
        print(json.dumps(rows[-1]), flush=True)
    record = {"rows": rows, "versions": versions(),
              "machine": {"nproc": os.cpu_count(),
                          "processor": platform.processor() or
                          platform.machine(),
                          "blas_threads": os.environ.get(
                              "OPENBLAS_NUM_THREADS", "unset")}}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
