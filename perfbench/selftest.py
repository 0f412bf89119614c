"""The benchmark's own tests: self-time arithmetic, a traced thread pool,
and a tiny-size run of every workload, traced and untraced.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes one to two minutes, most of it the
``validate`` request, which has no smaller size.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import unittest

import tracing
from tracing import END, NAME, PARENT, START

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0, None]


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlapping_children(self):
        root = span("root", 0.0, 10.0)
        # Two worker threads overlap on [3, 4]; one child outlives the root.
        children = [span("a", 1.0, 4.0, root), span("b", 3.0, 6.0, root), span("c", 8.0, 12.0, root)]
        grandchild = span("g", 1.5, 2.0, children[0])
        selfs = tracing.self_times([root, *children, grandchild])
        self.assertAlmostEqual(selfs[0], 10.0 - (5.0 + 2.0))
        self.assertAlmostEqual(selfs[1], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(selfs[4], 0.5)

    def test_union_length_edge_cases(self):
        self.assertEqual(tracing.union_length([], 0.0, 1.0), 0.0)
        self.assertAlmostEqual(tracing.union_length([(0.0, 1.0), (1.0, 2.0)], 0.0, 2.0), 2.0)
        self.assertAlmostEqual(tracing.union_length([(0.0, 5.0), (1.0, 2.0)], 0.0, 5.0), 5.0)
        self.assertAlmostEqual(tracing.union_length([(-1.0, 0.5), (3.0, 9.0)], 0.0, 4.0), 1.5)

    def test_pool_threads_attach_to_the_request_root(self):
        tracer = tracing.Tracer()
        child = tracer.wrap("child", lambda: time.sleep(0.05))

        def root():
            time.sleep(0.02)
            threads = [threading.Thread(target=child) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
                self.assertFalse(thread.is_alive())

        tracer.begin_request(7)
        tracer.wrap("root", root)()
        spans = tracer.spans
        self.assertEqual([s[NAME] for s in spans], ["root", "child", "child"])
        self.assertTrue(all(s[PARENT] is spans[0] for s in spans[1:]))
        self.assertTrue(all(s[4] == 7 for s in spans))
        own = tracing.self_times(spans)[0]
        duration = spans[0][END] - spans[0][START]
        children = sum(s[END] - s[START] for s in spans[1:])
        self.assertGreater(children, duration)  # the two threads overlapped
        self.assertGreater(own, 0.015)
        self.assertLess(own, duration - 0.04)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int):
        spec = load_benchmark()
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.splitlines()
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], meta["problems"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in expected},
        )
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0.0, name)
        if trace and workload == "sweep":
            self.assertEqual(result["metrics"]["liouvillian.builds_per_point"]["value"], 2.0)

    def test_workloads(self):
        for workload in ("sweep", "refit", "spectrum", "validate"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_refuses_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = run_bench("sweep", 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
