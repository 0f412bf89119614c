"""Record the reference outputs that runs with the reference seed compare
against; rerun only when a change to the program's results is intended.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Writes ``perfbench/reference.json``: for
each request of each workload at seed 0, the numbers its ``extract``
returns, plus the tolerance a later run must meet (|got - ref| <=
rtol |ref| + atol_frac max|ref| over each list).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

RTOL = 1e-6
ATOL_FRAC = 1e-9


def main() -> int:
    requests = {}
    workdir = os.path.join(".perfbench_work", "record")
    for workload in run.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "worker.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "0", "--record",
             "--workdir", workdir],
            env=run.child_env(), capture_output=True, text=True, check=True,
        )
        recorded = json.loads(done.stdout.splitlines()[-1])
        if recorded["problems"]:
            print(f"{workload}: {recorded['problems']}", file=sys.stderr)
            return 1
        requests[workload] = recorded["requests"]
    shutil.rmtree(workdir)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump({"rtol": RTOL, "atol_frac": ATOL_FRAC, "requests": requests}, handle)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
