"""Benchmark of the cavity-raman CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``sweep``, ``refit``, ``spectrum`` and ``validate``.  Each run starts fresh
interpreters: with ``--trace 0`` three that time the cold start (import of
``cavity_raman.cli`` and its parser), with ``--trace 1`` three under
``-X importtime``; then one worker (``worker.py``) that sends the
workload's requests to ``cavity_raman.cli.main`` in-process, one at a time,
for S seconds.  The worker's peak RSS is the run's memory figure.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The line before it
holds the run's metadata.  Work files go to ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join("src", "cavity_raman")
SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
# Each run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0
SETUP_CODE = "import cavity_raman.cli as cli; cli.build_parser()"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# -X importtime module whose cumulative time each metric reports.
IMPORT_METRICS = {
    "cli.import_ms": "cavity_raman.cli",
    "oracle.import_ms": "cavity_raman.oracle",
    "liouvillian.import_ms": "cavity_raman.liouvillian",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser.

    The wait blocks in waitpid: ``Popen.wait(timeout=...)`` polls in steps
    of up to 50 ms, which would quantize the times."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env)
        watchdog = threading.Timer(60.0, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return times


def import_ms(env: dict[str, str]) -> dict[str, float]:
    """Median cumulative import time of the modules in IMPORT_METRICS."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavity_raman.cli"],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        for name, module in IMPORT_METRICS.items():
            samples[name].append(cumulative[module])
    return {name: statistics.median(values) for name, values in samples.items()}


def source_identity() -> dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, "rb") as handle:
            digest.update(path.encode() + b"\0" + handle.read())
    identity: dict[str, object] = {"src_sha256": digest.hexdigest(), "git_sha": None, "git_dirty": None}
    if os.path.isdir(".git") and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True)
        if sha.returncode == 0:
            identity["git_sha"] = sha.stdout.strip()
            identity["git_dirty"] = bool(status.stdout.strip())
    return identity


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


PER_LAYER_UNITS = {
    "self_ms": "ms", "import_ms": "ms", "output_bytes": "bytes", "samples": "count",
    "builds_per_point": "ratio", "pipeline_calls_per_refit": "ratio",
    "pool_overlap": "ratio", "overhead_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small requests, for the benchmark's own tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"error: run from the root of a cavity-raman checkout ({PACKAGE} not found)",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    load_before = os.getloadavg()
    env = child_env()
    workdir = os.path.join(".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    setup = import_times = None
    if args.trace:
        import_times = import_ms(env)
    else:
        setup = setup_seconds(env)

    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", workdir,
    ]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=remaining)
    for path in glob.glob(os.path.join(workdir, "*.csv")):
        os.remove(path)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {
            name: metric(value, per_layer_unit(name))
            for name, value in {**result["per_layer"], **import_times}.items()
        }
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(result["pass_walls"]), "s"),
            "req_p50_s": metric(statistics.median(result["latencies"]), "s"),
            "req_tail_s": metric(result["tail"]["value"], "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "ok_frac": metric(1.0 - failed / attempted, "frac"),
        }
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "pass_walls_s": result["pass_walls"], "req_tail": result["tail"],
        "setup_samples_s": setup, "problems": result["problems"],
        **source_identity(), **result["versions"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
