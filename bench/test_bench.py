"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They run small versions of the workloads, so they take seconds.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402 - puts the checkout's src on sys.path
from make_reference import CALLS, entries  # noqa: E402
from spantrace import self_times, trace_targets  # noqa: E402
from workloads import (DEFAULT_SEED, REFERENCE_SEEDS, WORKLOADS,  # noqa: E402
                       Assembly, Convergence, Properties, Sweep)

SMALL = Convergence(levels=3)


@pytest.fixture(scope="module")
def small_reference():
    return entries(SMALL, (DEFAULT_SEED,))


@pytest.fixture(scope="module")
def traced(small_reference):
    return worker.measure(SMALL, DEFAULT_SEED, 0.0, True, small_reference)


def test_wrappers_are_gone_after_a_traced_run(small_reference):
    def current():
        return {(module.__name__, name): getattr(module, name)
                for module, name, _ in trace_targets()}
    before = current()
    samples = worker.measure(SMALL, DEFAULT_SEED, 0.0, True, small_reference)
    assert current() == before
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())
    names = {s["name"] for s in samples["spans"]}
    assert {"refine_uniform", "build_cut_topology", "build_spaces",
            "assemble_system", "solve", "pcg", "compute_errors"} <= names


def test_self_times_are_nonnegative_and_sum_to_the_traced_study(traced):
    own = self_times(traced["spans"])
    assert min(own.values()) >= 0.0
    assert math.isclose(sum(own.values()), traced["traced_s"][0],
                        rel_tol=1e-9)
    layers = traced["layers"][0]
    assert layers["mesh.refinements"] == 0 + 1 + 2
    assert layers["solver.pcg_iters"] > 0
    assert layers["solver.dense_fallbacks"] == 0
    # the untimed warm-up call, then one untraced and one traced call
    assert traced["failed"] == 0 and traced["attempted"] == 3 * 3


def test_layer_summary_reports_overhead_and_first_call_counts(traced):
    metrics = worker.layer_summary(traced)
    assert metrics["trace.overhead_s"] == \
        traced["traced_s"][0] - traced["study_s"][0]
    assert metrics["space.ndof"] == traced["layers"][0]["space.ndof"]
    assert "study_s" not in metrics


def _bump_error(summary):
    summary["errors"][1][2] *= 1.0 + 1e-6


def _bump_kappa(summary):
    summary["rows"][0][1] *= 1.0 + 1e-5


def _bump_coercivity(summary):
    summary["constants"]["coercivity[full]"][0] *= 1.0 + 1e-6


def _bump_fingerprint(summary):
    summary["xax"] *= 1.0 + 1e-12


@pytest.mark.parametrize("workload, perturb", [
    (SMALL, _bump_error),
    (Sweep(level=0, positions=2), _bump_kappa),
    (Properties(level=0, positions=2), _bump_coercivity),
    (Assembly(level=1), _bump_fingerprint),
], ids=["convergence", "sweep", "properties", "assembly"])
def test_a_perturbed_reference_value_fails_the_check(workload, perturb):
    reference = entries(workload, (DEFAULT_SEED,))
    ok = worker.measure(workload, DEFAULT_SEED, 0.0, False, reference)
    assert ok["failed"] == 0, ok["notes"]
    bad_reference = copy.deepcopy(reference)
    perturb(bad_reference[0]["summary"])
    bad = worker.measure(workload, DEFAULT_SEED, 0.0, False, bad_reference)
    assert bad["attempted"] == ok["attempted"]
    assert 0 < bad["failed"] <= bad["attempted"]


def test_committed_reference_covers_the_inputs_of_every_reference_seed():
    reference = json.loads(worker.REFERENCE.read_text())
    assert tuple(reference["seeds"]) == REFERENCE_SEEDS
    for name, workload in WORKLOADS.items():
        recorded = [entry["inputs"] for entry in reference["workloads"][name]]
        expected = []
        for seed in REFERENCE_SEEDS:
            for index in range(CALLS.get(name, 1)):
                inputs = workload.inputs(seed, index)
                if inputs not in expected:
                    expected.append(inputs)
        assert recorded == expected


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                           "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
