"""cutdg study benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one table

Run from the root of a source checkout. With ``--trace 0`` it prints the
end-to-end metrics of one workload: ``study_s`` (median wall time of one
study call), ``setup_s`` (median over set-up probes of process start to
first study call), ``peak_rss_mb`` (of the process that ran only this
workload) and ``pass_frac`` (checked units that passed, over units
attempted; ``fail_frac`` is its complement and is printed too). With
``--trace 1`` it prints the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the raw
samples (and, traced, every span) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOAD_NAMES = ("convergence", "sweep", "properties", "assembly")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_NOTE = ("One BLAS thread. Per study call on a 2-vCPU x86_64 VM, two "
             "threads against one: sweep (5 positions) 4.4-5.4 s against "
             "6.4-7.5 s, convergence 18.2-19.1 s against 15.6-16.2 s. Over "
             "10 seeds the sweep's study_s spread (IQR/median) was 10-19% "
             "with two threads and 5.5% with one, which leaves the second "
             "vCPU to everything else on the box. Earlier 11-position "
             "sweeps: 9.3-10.2 s with two threads, 13.8-15.0 s with one, "
             "single eigvalsh calls spiking to 1.0 s.")
UNITS = {"peak_rss_mb": "MB", "pass_frac": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ms" if name.endswith("_ms") else "count"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (which
    would search the directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def why_chosen(name: str) -> str:
    """The workload's ``why`` in BENCHMARK.json, the one place it is kept."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def child_env() -> dict:
    """Load comes from one process with one BLAS thread (see BLAS_NOTE)."""
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0.0:
        raise BenchError("time limit reached")
    return left


def setup_seconds(env, deadline: float) -> float:
    """Process start to the end of the imports a study call needs."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), "--probe"], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return float(proc.stdout.split()[-1]) - start


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float):
    """Set-up probes (untraced runs only), then one worker process.
    Returns the result object and the worker's samples."""
    env = child_env()
    setups = [] if trace else [setup_seconds(env, deadline)
                               for _ in range(SETUP_PROBES)]
    proc = subprocess.run([sys.executable, str(WORKER), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker for {name} exited with {proc.returncode}")
    samples = json.loads(proc.stdout.strip().splitlines()[-1])
    if not samples["study_s"] or (trace and "layer_metrics" not in samples):
        raise BenchError(f"no study call of {name} completed")
    if trace:
        metrics = samples.pop("layer_metrics")
    else:
        metrics = {"study_s": statistics.median(samples["study_s"]),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": samples["peak_rss_mb"],
                   "pass_frac": 1.0 - samples["failed"] / samples["attempted"]}
    result = {"correct": samples["failed"] == 0,
              "attempted": samples["attempted"], "failed": samples["failed"],
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "commit": git_commit(),
              "nproc": os.cpu_count(),
              "blas_env": {var: env[var] for var in BLAS_ENV},
              "blas_note": BLAS_NOTE, "why": why_chosen(name),
              "setup_s": setups, **samples,
              "result": result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    return result, samples


def print_result(name: str, result: dict, samples: dict) -> None:
    print(f"workload {name}: {samples['calls']} study calls, "
          f"inputs {json.dumps(samples['inputs'])}")
    print(f"  why: {why_chosen(name)}")
    for key, m in result["metrics"].items():
        print(f"  {key:24s} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':24s} {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} units)")
    for note in samples["notes"]:
        print(f"  check failed: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cutdg study benchmark (run from the checkout root)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "cutdg" / "__init__.py").is_file():
        print(f"error: no cutdg sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            result, samples = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), deadline)
            print_result(name, result, samples)
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
