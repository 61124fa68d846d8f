"""avnsim benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  Report
lines come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run
details, with the run environment, go to ``.bench_work/results/`` and the
spans of a traced run to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# the keys of workloads.WORKLOADS, listed here so that parsing arguments
# does not import numpy before a traced run times ``import avnsim``
WORKLOAD_NAMES = ("cli_predict", "cli_simulate", "cli_lhv", "cli_reproduce", "seed_sweep", "noise_scan")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120.0
# On a shared 2-vCPU Intel Xeon VM, other tenants slow the machine whole
# seconds at a time: over three minutes of seed_sweep, one-second medians
# of the operation time ranged from 0.53 to 1.48 ms.  The 5th percentile of a run's operation times
# stays near the undisturbed speed, so it is the bounded metric; the
# median and the tail are reported beside it.
FAST_PERCENTILE = 5

END_TO_END = {
    "op_p5_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# what one operation is called on each workload, in user terms
ALIASES = {
    "cli_predict": "predict_s",
    "cli_simulate": "simulate_s",
    "cli_lhv": "lhv_s",
    "cli_reproduce": "reproduce_s",
    "seed_sweep": "runs_per_s",
    "noise_scan": "models_per_s",
}


# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
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


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------- measuring


class Phase:
    """Latencies and failures of the operations of one measured loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append("; ".join(failures))


def measure(workload, seconds: float, phase: Phase, tracer=None, start: int = 0) -> int:
    """Closed loop: the next operation starts when the previous one ends.

    Runs operations ``start``, ``start + 1``, ... for ``seconds`` (at least
    one) and returns the index of the next operation.
    """
    deadline = time.perf_counter() + seconds
    i = start
    while i == start or time.perf_counter() < deadline:
        req = workload.request(i)
        if tracer is not None:
            tracer.current_request = i
            span = tracer.open("op")
        start = time.perf_counter()
        try:
            result = workload.call(req)
            error = None
        except Exception as exc:  # a crash is a failed operation; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        phase.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(span)
        phase.record([error] if error else workload.check(req, result))
        i += 1
    return i


def finish(workload, phase: Phase) -> None:
    """End-of-run checks; each counts as one attempted operation."""
    try:
        results = workload.finish()
    except Exception as exc:
        results = [[f"{type(exc).__name__}: {exc}"]]
    for failures in results:
        phase.record(failures)


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    import workloads

    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", name, str(seed)],
        capture_output=True,
        env=workloads.child_env(),
        cwd=ROOT,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.decode().strip().splitlines()[-1])


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(latencies: list[float], p: float) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    label, value = "max", max(latencies)
    for p in (90.0, 99.0, 99.9):
        if len(latencies) * (1.0 - p / 100.0) >= 10:
            label, value = f"p{p:g}", percentile(latencies, p)
    return label, value


# ------------------------------------------------------------------ runs


def run_timed(name: str, seed: int, seconds: float) -> tuple[dict, Phase, dict]:
    import workloads

    workload = workloads.make(name)
    workload.setup(seed)
    phase = Phase()
    # set-up samples are spread over the run, so that their median is not
    # the speed of one moment of a machine whose speed drifts
    setups = []
    i = 0
    for _ in range(SETUP_REPEATS):
        setups.append(setup_seconds(name, seed))
        i = measure(workload, seconds / SETUP_REPEATS, phase, start=i)
    finish(workload, phase)
    lat = phase.latencies
    metrics = {
        "op_p5_ms": percentile(lat, FAST_PERCENTILE) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(workload.in_process),
    }
    label, value = tail(lat)
    details = {
        "operations": len(lat),
        "op_ms": {"p5": metrics["op_p5_ms"], "median": statistics.median(lat) * 1e3, label: value * 1e3},
        "ops_per_s": len(lat) / sum(lat),
        "setup_s_samples": setups,
    }
    return metrics, phase, details


def tour(tracer, seed: int) -> list[list[str]]:
    """One in-process pass over the four CLI documents, on its own tracer,
    which measures the layers a workload never calls."""
    import checks
    import layers
    import numpy as np
    import workloads
    from avnsim import cli

    run_seed = str(int(np.random.default_rng(seed).integers(0, workloads.SEED_RANGE)))
    results = []
    tracer.install(layers.TRACED)
    try:
        for argv, flag in (
            (["predict"], None),
            (["simulate", "--seed", run_seed], None),
            (["lhv"], "ok"),
            (["reproduce-paper", "--seed", run_seed], "all_pass"),
        ):
            out = io.StringIO()
            with tracer.span("tour"), redirect_stdout(out):
                code = cli.main(argv)
            doc, failures = checks.parse_document(code, out.getvalue())
            if doc is not None and flag is not None:
                failures += checks.flag(doc, flag)
            results.append(failures)
    finally:
        tracer.uninstall()
    return results


def run_traced(name: str, seed: int, seconds: float, import_s: float) -> tuple[dict, Phase, dict]:
    """Half the time untraced, half traced, then the traced tour.

    ``import_s`` is this process's ``import avnsim`` time; a cli_* workload
    reports its traced children's median instead.
    """
    import layers
    import tracer as tracing
    import workloads

    phase = Phase()
    plain = workloads.make(name)
    plain.setup(seed)
    measure(plain, seconds / 2.0, phase)
    finish(plain, phase)
    untraced = list(phase.latencies)

    tracer = tracing.Tracer()
    traced = workloads.make(name)
    if traced.in_process:
        tracer.install(layers.TRACED)
        with tracer.span("setup"):
            traced.setup(seed)
    else:
        traced.setup(seed)
        traced.tracer, traced.work_dir = tracer, WORK
    try:
        measure(traced, seconds / 2.0, phase, tracer)
        finish(traced, phase)
    finally:
        tracer.uninstall()
    traced_lat = phase.latencies[len(untraced):]
    tour_tracer = tracing.Tracer()
    for failures in tour(tour_tracer, seed):
        phase.record(failures)

    if not traced.in_process:
        import_s = statistics.median(traced.import_s)
    overhead = percentile(traced_lat, FAST_PERCENTILE) / percentile(untraced, FAST_PERCENTILE) - 1.0
    metrics, from_tour = layers.per_layer_metrics(tracer, tour_tracer, import_s, overhead)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": tracer.dump(), "tour": tour_tracer.dump()}, fh, separators=(",", ":"))
    details = {
        "untraced_operations": len(untraced),
        "traced_operations": len(traced_lat),
        "spans": len(tracer.start),
        "measured_on_tour": from_tour,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, phase, details


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "avnsim" / "__init__.py").is_file():
        print(f"bench: no avnsim sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()

    WORK.mkdir(exist_ok=True)
    if args.trace:
        # before the benchmark's own modules load numpy, so that this is
        # the whole import a process pays
        start = time.perf_counter()
        import avnsim  # noqa: F401

        import_s = time.perf_counter() - start
        import layers

        values, phase, details = run_traced(args.workload, args.seed, args.seconds, import_s)
        units = layers.PER_LAYER
    else:
        values, phase, details = run_timed(args.workload, args.seed, args.seconds)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        ops = details["op_ms"]
        if args.workload.startswith("cli_"):
            named = ", ".join(f"{k} {v / 1e3:.4g}" for k, v in ops.items())
            print(f"  {ALIASES[args.workload]}: {named} s  (n={details['operations']})")
        else:
            print(f"  {ALIASES[args.workload]} = {details['ops_per_s']:.6g} 1/s  (mean over {details['operations']} operations)")
    for key, value in details.items():
        print(f"  {key}: {value}")
    print(f"  failed_frac = {phase.failed / phase.attempted:g}  ({phase.failed} of {phase.attempted})")
    for message in phase.messages:
        print(f"  FAILED: {message}")

    result = {"correct": phase.failed == 0, "attempted": phase.attempted, "failed": phase.failed, "metrics": metrics}
    (WORK / "results").mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, details=details, failures=phase.messages)
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
