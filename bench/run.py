"""hydrobohm benchmark: four verification workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload flatness-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

--trace 0 measures the end-to-end metrics untraced; --trace 1 first runs
untraced passes, then traced ones, and reports the per-layer metrics from
the traced passes (plus the tracing overhead).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `attempted` and `failed` count
calls into hydrobohm; a call fails when it raises or exits with a usage
error.  Failed verification cases count into fail_ratio instead.

A run lasts --seconds: set-up samples, the first (cold) pass and the
timed passes all fall inside it, and the last pass stops at the deadline.
Timings are calibrated against a fixed probe timed right before and right
after each call (see calibration.py).  wall_s, cases_per_s and the call
quantiles use each call's median calibrated time over the run's passes
(see call_times); the measured median pass time and its tail percentile
are printed beside them.  Load comes from this one process, serially,
with BLAS capped at one thread.  Metric names and units must
match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 11
CHILD_PROBES = 5
CHILD_TIMEOUT_S = 120

WORKLOADS = ("flatness-sweep", "airy-packet", "orthonormality", "artifact-export")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cases_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("worst_err_over_tol_p1", "tol"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def check_spec(spec: dict, per_layer) -> None:
    """The metrics this script reports must be exactly those BENCHMARK.json lists."""
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        fail(f"BENCHMARK.json end_to_end {declared} differs from {list(END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != list(per_layer):
        fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def quantile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    count = len(values)
    if count < 11:
        return f"n={count}, too few samples for a tail percentile"
    ordered = sorted(values)
    index = count - 11
    return f"p{100.0 * (index + 1) / count:.1f}={ordered[index]:.6f} s (n={count})"


def setup_sample(first_call: str) -> float:
    """Calibrated seconds to import hydrobohm and make the first call, in a fresh interpreter.

    The child times the probe right after, on the CPU it ran on.
    """
    code = (
        "import time\n"
        "started = time.perf_counter()\n"
        "import hydrobohm\n"
        f"{first_call}\n"
        "elapsed = time.perf_counter() - started\n"
        "import calibration, statistics\n"
        f"probe_s = statistics.median(calibration.probe() for _ in range({CHILD_PROBES}))\n"
        "print(repr(calibration.calibrated(elapsed, probe_s)))\n"
    )
    path = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        fail(f"set-up process failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Fresh-interpreter set-up samples spread evenly over the run.

    Spreading them makes their median follow the run as a whole rather
    than the second or two at its start.  A first, unrecorded process
    warms the file cache.
    """

    def __init__(self, first_call: str, started: float, seconds: float) -> None:
        self.first_call = first_call
        self.due = [started + seconds * index / SETUP_SAMPLES for index in range(SETUP_SAMPLES)]
        self.samples: list[float] = []
        self.sample()
        self.samples.clear()

    def sample(self) -> None:
        self.samples.append(setup_sample(self.first_call))

    def poll(self) -> bool:
        """Take every sample that is due; called between timed calls.

        Returns whether it took any.
        """
        took = False
        while self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.sample()
            took = True
        return took

    def finish(self) -> list[float]:
        """Take the samples a short run had no time for."""
        while self.due:
            self.due.pop(0)
            self.sample()
        return self.samples


@dataclass(frozen=True)
class Pass:
    wall: float  # measured seconds for the calls run
    outcomes: int  # verified outcomes
    latencies: list  # calibrated seconds per call in call-list order; None for a call not run
    complete: bool  # every call ran


def call_times(passes: list[Pass]) -> list[float]:
    """Each call's median calibrated time over the passes that ran it.

    Each pass runs the calls in a new order, so a call's samples fall at
    scattered times; the median drops the cold first pass and bursts.
    """
    return [
        statistics.median(latency for latency in column if latency is not None)
        for column in zip(*(entry.latencies for entry in passes))
    ]


class Runner:
    """Runs passes of one workload and accumulates checks and timings."""

    def __init__(self, workload, seed: int, calibration) -> None:
        self.workload = workload
        self.calibration = calibration
        self.order = list(range(len(workload.calls)))
        self.rng = random.Random(seed)
        self.calls = 0
        self.failed_calls = 0
        self.cases = 0
        self.failed_cases = 0
        self.worst = 0.0
        self.problems: list[str] = []

    def record_failure(self, problem: str) -> None:
        self.cases += 1
        self.failed_cases += 1
        self.problems.append(problem)

    def run_pass(self, deadline: float | None = None, poll=None) -> Pass:
        """One pass over the call list in a fresh seeded order, then the checks.

        The pass stops early once `deadline` has passed; `poll` runs
        between calls, outside their timings, and returns whether it did
        anything.  Calibration probes run between calls: each call is
        calibrated by the mean of the probes right before and right after
        it, and the probe after one call is the probe before the next.
        """
        probe, calibrated = self.calibration.probe, self.calibration.calibrated
        calls = self.workload.calls
        results: dict[int, tuple] = {}
        latencies = [None] * len(calls)
        wall = 0.0
        before = None
        for index in self.order:
            if poll is not None and poll():
                before = None
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if before is None:
                before = probe()
            call_started = time.perf_counter()
            try:
                results[index] = (calls[index].run(), None)
            except Exception as exc:  # a raising call is a failed operation, not a crash
                results[index] = (None, exc)
            measured = time.perf_counter() - call_started
            after = probe()
            latencies[index] = calibrated(measured, (before + after) / 2.0)
            before = after
            wall += measured
        self.rng.shuffle(self.order)
        outcomes = 0
        for index, (value, error) in results.items():
            call = calls[index]
            self.calls += 1
            if error is not None:
                self.failed_calls += 1
                self.record_failure(f"{call.label}: raised {error!r}")
                continue
            try:
                outcome = call.check(value)
            except Exception as exc:  # output too malformed to check
                self.record_failure(f"{call.label}: check raised {exc!r}")
                continue
            outcomes += outcome.cases
            self.cases += outcome.cases
            self.failed_cases += outcome.failed
            self.worst = max(self.worst, outcome.worst)
            self.problems.extend(outcome.problems)
        return Pass(wall, outcomes, latencies, len(results) == len(calls))


def run_until(runner: Runner, deadline: float, tracer=None, poll=None) -> tuple[list[Pass], list[dict]]:
    """Passes until `deadline`; the first one always completes.

    Untraced, the last pass stops at the deadline, so a run lasts its
    seconds however slow the machine is.  With a tracer, passes run whole
    and each pass's per-layer values are returned too.
    """
    passes: list[Pass] = []
    layers: list[dict] = []
    while not passes or time.perf_counter() < deadline:
        if tracer is None:
            passes.append(runner.run_pass(deadline if passes else None, poll))
        else:
            first_span = tracer.begin_pass(len(passes))
            passes.append(runner.run_pass(poll=poll))
            layers.append(tracer.pass_metrics(first_span))
    return passes, layers


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "processes": 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import calibration
    import tracing
    import workloads

    spec = load_spec()
    check_spec(spec, tracing.PER_LAYER)
    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"{name}-seed{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    previous_out = os.environ.get("HYDROBOHM_OUT_DIR")
    os.environ["HYDROBOHM_OUT_DIR"] = str(out_dir)
    try:
        workload = workloads.build(name, seed, str(out_dir))
        print(f"env {json.dumps(environment(), sort_keys=True)} workload={name} seed={seed} trace={int(trace)}")
        runner = Runner(workload, seed, calibration)
        started = time.perf_counter()
        if trace:
            spans_path = out_root / f"spans-{name}-seed{seed}.csv"
            metrics = traced_metrics(runner, started + seconds, seconds, spans_path, tracing)
            units = dict(tracing.PER_LAYER)
        else:
            sampler = SetupSampler(workload.first_call, started, seconds)
            metrics = end_to_end_metrics(runner, started + seconds, sampler)
            units = dict(END_TO_END)
    finally:
        if previous_out is None:
            os.environ.pop("HYDROBOHM_OUT_DIR", None)
        else:
            os.environ["HYDROBOHM_OUT_DIR"] = previous_out
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.calls,
        "failed": runner.failed_calls,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def end_to_end_metrics(runner: Runner, deadline: float, sampler: SetupSampler) -> dict:
    """Every end-to-end metric from one untraced run that ends at `deadline`.

    The first pass is timed like the others: it is the only one that pays
    for lazy set-up and cold caches, and the per-call median drops those
    samples once later passes have run the call.
    """
    passes, _ = run_until(runner, deadline, poll=sampler.poll)
    setup = sampler.finish()
    per_call = call_times(passes)
    complete = [entry for entry in passes if entry.complete]
    walls = [entry.wall for entry in complete]
    pooled = [latency for entry in passes for latency in entry.latencies if latency is not None]
    fail_ratio = runner.failed_cases / runner.cases
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_call),
        "cases_per_s": statistics.median(entry.outcomes for entry in complete) / sum(per_call),
        "call_p50_ms": 1e3 * quantile(per_call, 0.5),
        "call_p90_ms": 1e3 * quantile(per_call, 0.9),
        "pass_ratio": 1.0 - fail_ratio,
        "worst_err_over_tol_p1": 1.0 + runner.worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup_s = {metrics['setup_s']:.6f} s calibrated "
          f"(median of {len(setup)} fresh interpreters spread over the run)")
    print(f"wall_s = {metrics['wall_s']:.6f} s calibrated (sum of each call's median over {len(passes)} passes, "
          f"{len(passes) - len(complete)} cut at the deadline); "
          f"measured complete pass median {statistics.median(walls):.6f} s, {tail(walls)}")
    print(f"cases_per_s = {metrics['cases_per_s']:.3f} 1/s")
    note = "" if len(per_call) >= 100 else f"; only {len(per_call)} calls per pass"
    print(f"call_p50_ms = {metrics['call_p50_ms']:.4f} ms, call_p90_ms = {metrics['call_p90_ms']:.4f} ms "
          f"(over the median times of {len(per_call)} calls{note}); pooled over all {len(pooled)} calls: "
          f"p50 {1e3 * quantile(pooled, 0.5):.4f} ms, p90 {1e3 * quantile(pooled, 0.9):.4f} ms")
    print(f"fail_ratio = {fail_ratio:.6g} ({runner.failed_cases} of {runner.cases} outcomes)")
    print(f"worst_err_over_tol = {runner.worst:.6g} tol")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB")
    return metrics


def traced_metrics(runner: Runner, deadline: float, seconds: float, spans_path, tracing) -> dict:
    """Untraced passes for the first half of the run, traced ones after."""
    untraced, _ = run_until(runner, deadline - seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, per_pass = run_until(runner, deadline, tracer)
    tracer.write(spans_path)
    overhead = sum(call_times(traced)) - sum(call_times(untraced))
    metrics = tracing.layer_metrics(per_pass, [entry.wall for entry in traced], overhead)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"traced pass {metrics['trace.pass_s']:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s "
          f"({len(traced)} traced, {len(untraced)} untraced passes)")
    pass_s = metrics["trace.pass_s"]
    shares = sorted(
        ((value / pass_s, key) for key, value in metrics.items() if key.endswith(("self_s", "total_s", "quadrature_s"))),
        reverse=True,
    )
    for share, key in shares[:8]:
        print(f"  {key:45s} {100 * share:5.1f}% of the traced pass")
    return metrics


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(f"== {name}\n{done.stdout}")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            fail(f"{name} exited {done.returncode}")
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="default 1; confirm claims with seed 2")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hydrobohm" / "__init__.py").is_file():
        fail(f"no hydrobohm sources under {ROOT / 'src'}")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"  # before numpy loads, so BLAS starts one thread
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
