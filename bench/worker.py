"""One benchmark process: runs one workload for a given time and prints its
samples as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --probe

``run.py`` starts it; the process runs nothing else, so its peak RSS is
the workload's. ``--probe`` stops after the set-up a study needs (the
imports of cutdg, numpy and scipy) and prints ``time.monotonic()``, so
that the parent can time process start to first study call.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from spantrace import COUNTS, Tracer, run_metrics, tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402 - imports cutdg

REFERENCE = HERE / "reference.json"
MAX_NOTES = 20


def study_call(workload, inputs, reference, tracer=None):
    """Time one study call and check its output.

    Returns (seconds or None if the call raised, per-unit failed flags,
    notes). With a tracer the call runs with every layer call wrapped,
    under one root span.
    """
    try:
        if tracer is None:
            start = time.perf_counter()
            output = workload.run(inputs)
            elapsed = time.perf_counter() - start
        else:
            with tracing(tracer), tracer.span("study", "experiments") as root:
                output = workload.run(inputs)
            elapsed = root["end"] - root["start"]
        failed, notes = workload.check(workload.summary(output, inputs),
                                       inputs, reference)
    except Exception:  # noqa: BLE001 - a raising call fails all its units
        traceback.print_exc()
        return None, [True] * workload.units(inputs), ["study call raised"]
    return elapsed, failed, notes


def measure(workload, seed: int, seconds: float, trace: bool, reference):
    """Study calls on inputs 0, 1, ... of ``seed`` until ``seconds`` have
    passed (at least one). With ``trace`` each input runs untraced and
    then traced, after one untimed call; per-layer metrics come from the
    traced calls."""
    tracer = Tracer() if trace else None
    out = {"study_s": [], "traced_s": [], "layers": [], "attempted": 0,
           "failed": 0, "notes": []}

    def call(inputs, traced):
        elapsed, failed, notes = study_call(workload, inputs, reference,
                                            tracer if traced else None)
        out["attempted"] += len(failed)
        out["failed"] += sum(failed)
        out["notes"] += notes[:MAX_NOTES - len(out["notes"])]
        return elapsed

    if trace:
        # an untimed first call, so that the untraced and traced calls
        # compared for the overhead are both warm
        call(workload.inputs(seed, 0), False)
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        inputs = workload.inputs(seed, index)
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.run = index
            elapsed = call(inputs, traced)
            if elapsed is None:
                continue
            if traced:
                out["traced_s"].append(elapsed)
                out["layers"].append(run_metrics(tracer.spans, index))
            else:
                out["study_s"].append(elapsed)
        index += 1
    out["calls"] = index
    if trace:
        out["spans"] = tracer.spans
    return out


def layer_summary(samples) -> dict:
    """Per-layer metrics of a traced run: medians of the times over the
    traced calls, counts of the first traced call (the same inputs at the
    same seed, so they repeat exactly), and the tracing overhead."""
    layers = samples["layers"]
    metrics = {key: (layers[0][key] if key in COUNTS else
                     statistics.median(call[key] for call in layers))
               for key in layers[0] if key != "study_s"}
    metrics["trace.overhead_s"] = (statistics.median(samples["traced_s"])
                                   - statistics.median(samples["study_s"]))
    return metrics


def versions() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.probe:
        # every import above is the set-up that setup_s times
        print(repr(time.monotonic()))
        return 0

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    samples = measure(workload, args.seed, args.seconds, bool(args.trace),
                      reference)
    if args.trace and samples["layers"] and samples["study_s"]:
        samples["layer_metrics"] = layer_summary(samples)
    samples["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["versions"] = versions()
    samples["inputs"] = workload.inputs(args.seed, 0)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
