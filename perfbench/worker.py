"""One run of one workload in a fresh process: warm up, then send the
workload's requests to ``cavity_raman.cli.main`` in-process, one at a time,
for a fixed time; check every response; print one JSON line.

Started by ``run.py`` from the root of a checkout; the package is imported
from ``src/``.  With ``--trace 1`` the run has two halves: untraced, then
with every public function wrapped (see ``tracing.py``); the per-layer
numbers come from the second half and the overhead from comparing the two.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from cavity_raman import cli  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0


def call(argv: list[str]) -> tuple[int | None, str, str, float]:
    """(exit code or None if it raised, stdout, stderr or error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not a failed run
        elapsed = time.perf_counter() - start
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}", elapsed
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Client:
    """Closed-loop client: sends the next request when the last returns."""

    def __init__(self, workload, reference: dict | None, tracer: tracing.Tracer | None = None):
        self.workload = workload
        self.reference = reference
        self.tracer = tracer
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.extracts: dict[str, dict] = {}
        self.output_bytes = 0
        self.peak_rss_mb: float | None = None

    def send(self, request):
        """Send one request: (exit code, stdout, stderr, latency, client
        time spent on the output before the next request may go)."""
        if self.tracer is not None:
            self.tracer.begin_request(self.attempted)
        code, text, err, latency = call(request.argv)
        glue = time.perf_counter()
        if code == 0 and request.then is not None:
            request.then(text)
        self.attempted += 1
        return code, text, err, latency, time.perf_counter() - glue

    def record(self, request, code, text, err) -> None:
        problems = self._check(request, code, text, err)
        if problems:
            self.failed += 1
            message = f"{request.name}: {'; '.join(problems)}"
            if message not in self.problems:
                self.problems.append(message)

    def run_setup(self) -> None:
        for request in self.workload.setup:
            code, text, err, _, _ = self.send(request)
            self.record(request, code, text, err)

    def run_pass(self) -> None:
        """Send the requests back to back; check the responses after the
        pass, so that checking leaves no garbage between two requests."""
        wall = 0.0
        responses = []
        for request in self.workload.requests:
            code, text, err, latency, glue = self.send(request)
            self.latencies.append(latency)
            wall += latency + glue
            responses.append((request, code, text, err))
        self.pass_walls.append(wall)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for response in responses:
            self.record(*response)

    def _check(self, request, code, text, err) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {err.strip()[:300]}"]
        if request.out is not None:
            with open(request.out, encoding="utf-8") as handle:
                text = handle.read()
        self.output_bytes += len(text.encode())
        try:
            problems = request.check(text)
            extract = request.extract(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        self.extracts[request.name] = extract
        if self.reference is not None and not problems:
            expected = self.reference["requests"][self.workload.name].get(request.name)
            if expected is None:
                problems.append("no reference recorded")
            else:
                for key, values in expected.items():
                    if not workloads.close_enough(
                        extract.get(key, []), values,
                        self.reference["rtol"], self.reference["atol_frac"],
                    ):
                        problems.append(f"{key} differs from the reference")
        return problems

    def run_for(self, seconds: float) -> None:
        """Whole passes until ``seconds`` have gone by.  The peak RSS is read
        after the first pass's requests: later passes can only add allocator
        fragmentation, which would make it depend on the pass count."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.run_pass()


def warm_up(workload) -> list[str]:
    problems = []
    for argv in workload.warmup:
        code, _, err, _ = call(argv)
        if code != 0:
            problems.append(f"warm-up {argv[0]}: exit code {code}: {err.strip()[:300]}")
    return problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With 20 samples or fewer that
    percentile would not exceed the median, so the maximum is reported."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if 2 * rank <= len(ordered):
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), 10


# Probes run inside the traced call, so they must not raise when a later
# version of the package changes a signature or a result type.


def _samples(args, kwargs, result):
    try:
        bound = inspect.signature(_MIXTURE).bind(*args, **kwargs).arguments
        return int(np.size(bound["nu_rot"]) * np.size(bound["lambdas"]))
    except (TypeError, KeyError):
        return None


def _point_key(args, kwargs, result):
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError:
        return None


def _iterations(args, kwargs, result):
    return getattr(result, "iterations", None)


_MIXTURE = cli.spectrum_mod.mixture_intensity
PROBES = {
    "liouvillian.build_liouvillian": _point_key,
    "spectrum.mixture_intensity": _samples,
    "fit.fit_lorentzian": _iterations,
    "fit.fit_exponential": _iterations,
}


def layer_metrics(spans: list, passes: int, output_bytes: int) -> dict[str, float]:
    """Per-pass counts and self times from the traced half's spans."""
    selfs = tracing.self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    infos: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        name = span[tracing.NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        infos.setdefault(name, []).append(span[tracing.INFO])

    def per_pass(value: float) -> float:
        return value / passes

    def count(name: str) -> float:
        return per_pass(calls.get(name, 0))

    def self_ms(name: str) -> float:
        return per_pass(1e3 * self_s.get(name, 0.0))

    def info_sum(name: str) -> float:
        return per_pass(sum(v for v in infos.get(name, ()) if isinstance(v, int)))

    def under_refit(span) -> bool:
        parent = span[tracing.PARENT]
        while parent is not None:
            if parent[tracing.NAME] == "fit.fit_phonon_exponent":
                return True
            parent = parent[tracing.PARENT]
        return False

    points = {
        (span[tracing.REQUEST], span[tracing.INFO])
        for span in spans
        if span[tracing.NAME] == "liouvillian.build_liouvillian"
        and isinstance(span[tracing.INFO], int)
    }
    refits = calls.get("fit.fit_phonon_exponent", 0)
    in_refit = sum(
        1 for span in spans if span[tracing.NAME] == "fit.predict_rs" and under_refit(span)
    )
    # Point work run directly under cli.main (by the sweep pool) against
    # the cli.main spans that ran it: above 1 means the threads overlapped.
    pooled: dict[int, float] = {}
    enclosing = 0.0
    for span in spans:
        parent = span[tracing.PARENT]
        if (
            span[tracing.NAME] in ("fit.predict_rs", "fit.fit_emission_lines")
            and parent is not None
            and parent[tracing.NAME] == "cli.main"
        ):
            if id(parent) not in pooled:
                pooled[id(parent)] = 0.0
                enclosing += parent[tracing.END] - parent[tracing.START]
            pooled[id(parent)] += span[tracing.END] - span[tracing.START]
    rates = [name for name in calls if name.startswith("rates.")]
    errors = sum(
        1 for v in infos.get("fit.predict_rs", ()) if v == {"raised": "VanishingSpontaneous"}
    )
    return {
        "model.dressed_states.calls": count("model.dressed_states"),
        "model.dressed_states.self_ms": self_ms("model.dressed_states"),
        "liouvillian.build_liouvillian.calls": count("liouvillian.build_liouvillian"),
        "liouvillian.build_liouvillian.self_ms": self_ms("liouvillian.build_liouvillian"),
        "liouvillian.lindblad_dissipator.calls": count("liouvillian.lindblad_dissipator"),
        "liouvillian.steady_state.calls": count("liouvillian.steady_state"),
        "liouvillian.steady_state.self_ms": self_ms("liouvillian.steady_state"),
        "liouvillian.builds_per_point": (
            calls.get("liouvillian.build_liouvillian", 0) / len(points) if points else 0.0
        ),
        "rates.calls": per_pass(sum(calls[n] for n in rates)),
        "rates.self_ms": per_pass(1e3 * sum(self_s[n] for n in rates)),
        "spectrum.correlation_modes.calls": count("spectrum.correlation_modes"),
        "spectrum.correlation_modes.self_ms": self_ms("spectrum.correlation_modes"),
        "spectrum.classify_lines.calls": count("spectrum.classify_lines"),
        "spectrum.classify_lines.self_ms": self_ms("spectrum.classify_lines"),
        "spectrum.mixture_intensity.calls": count("spectrum.mixture_intensity"),
        "spectrum.mixture_intensity.self_ms": self_ms("spectrum.mixture_intensity"),
        "spectrum.mixture_intensity.samples": info_sum("spectrum.mixture_intensity"),
        "fit.predict_rs.calls": count("fit.predict_rs"),
        "fit.predict_rs.errors": per_pass(errors),
        "fit.fit_emission_lines.self_ms": self_ms("fit.fit_emission_lines"),
        "fit.fit_lorentzian.calls": count("fit.fit_lorentzian"),
        "fit.fit_lorentzian.self_ms": self_ms("fit.fit_lorentzian"),
        "fit.fit_lorentzian.iterations": info_sum("fit.fit_lorentzian"),
        "fit.fit_phonon_exponent.self_ms": self_ms("fit.fit_phonon_exponent"),
        "fit.pipeline_calls_per_refit": in_refit / refits if refits else 0.0,
        "fit.fit_exponential.iterations": info_sum("fit.fit_exponential"),
        "oracle.adiabatic_populations.self_ms": self_ms("oracle.adiabatic_populations"),
        "oracle.bare_lambda_evolve.self_ms": self_ms("oracle.bare_lambda_evolve"),
        "oracle.truncation_error.self_ms": self_ms("oracle.truncation_error"),
        "oracle.ladder_convergence.self_ms": self_ms("oracle.ladder_convergence"),
        "oracle.full_ladder_steady_state.calls": count("oracle.full_ladder_steady_state"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.output_bytes": per_pass(output_bytes),
        "cli.pool_overlap": sum(pooled.values()) / enclosing if enclosing else 0.0,
    }


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", action="store_true",
                        help="one untimed pass; print its extracts instead of a result")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.size, args.workdir)
    if args.record:
        client = Client(workload, None)
        client.run_setup()
        client.run_pass()
        print(json.dumps({"problems": client.problems, "requests": client.extracts}))
        return 0 if not client.problems else 1

    reference = None
    if args.seed == REFERENCE_SEED and args.size == "full":
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)

    plain = Client(workload, reference)
    plain.run_setup()
    problems = warm_up(workload)
    plain.run_for(args.seconds / 2.0 if args.trace else args.seconds)
    result = {
        "attempted": plain.attempted,
        "failed": plain.failed,
        "pass_walls": plain.pass_walls,
        "latencies": plain.latencies,
    }
    if args.trace:
        tracer = tracing.Tracer()
        traced = Client(workload, reference, tracer)
        tracer.install("cavity_raman", PROBES)
        try:
            traced.run_for(args.seconds / 2.0)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
        layers = layer_metrics(
            tracer.spans, len(traced.pass_walls), traced.output_bytes
        )
        layers["trace.overhead_frac"] = (
            statistics.median(traced.pass_walls) / statistics.median(plain.pass_walls) - 1.0
        )
        result["per_layer"] = layers
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        problems += traced.problems
    result["problems"] = problems + plain.problems
    result["peak_rss_mb"] = plain.peak_rss_mb
    result["versions"] = versions()
    value, percentile, beyond = tail(plain.latencies)
    result["tail"] = {"value": value, "percentile": percentile, "beyond": beyond,
                      "samples": len(plain.latencies)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
