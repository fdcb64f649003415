"""Regenerate bench/reference.json, the outputs the benchmark checks
against at the seeds in REFERENCE_SEEDS.

    python3 bench/make_reference.py

Run it only when a change is meant to alter these outputs, and say so.
It takes about ten minutes, most of it the level-5 assembly systems.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE
from workloads import REFERENCE_SEEDS, WORKLOADS

# assembly draws a new system per call: cover the calls a 15 s run can
# reach even if the pipeline gets three times faster
CALLS = {"assembly": 12}


def entries(workload, seeds, calls: int = 1) -> list:
    """Reference entries for inputs 0 .. calls-1 of every seed, each
    distinct input once."""
    out = []
    for seed in seeds:
        for index in range(calls):
            inputs = workload.inputs(seed, index)
            if any(entry["inputs"] == inputs for entry in out):
                continue
            summary = workload.summary(workload.run(inputs), inputs)
            out.append({"inputs": inputs, "summary": summary})
    return out


def main() -> int:
    out = {"seeds": list(REFERENCE_SEEDS), "workloads": {}}
    for name, workload in WORKLOADS.items():
        out["workloads"][name] = entries(workload, REFERENCE_SEEDS,
                                         CALLS.get(name, 1))
        print(name, len(out["workloads"][name]), "entries", flush=True)
    # one entry per line
    blocks = [f' "{name}": [\n' + ",\n".join("  " + json.dumps(entry)
                                              for entry in rows) + "\n ]"
              for name, rows in out["workloads"].items()]
    REFERENCE.write_text('{"seeds": ' + json.dumps(out["seeds"])
                         + ', "workloads": {\n' + ",\n".join(blocks)
                         + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
