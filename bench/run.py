"""The liegauge benchmark: one command, every metric by name and unit.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--repeats R] [--out FILE]

Each workload runs in fresh interpreters started here, with BLAS and
OpenMP pinned to one thread.  `setup_s` is the median, over R fresh
interpreters, of the time from process start to the first op; the last of
them also runs the closed loop.  Op times are reported at the reference
speed of worker.py's calibration kernel and set-up times at the reference
start-up of a bare interpreter, with the raw wall times beside them.
With --trace 0 the last line of output is the end-to-end metrics, with
--trace 1 the per-layer metrics, both as one JSON object with the keys
correct, attempted, failed and metrics.
Workloads are described in bench/workloads.json and bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("cli_readme", "exact_sweep", "oracle_crosscheck",
                  "getzler_dg2")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
DEFAULT_REPEATS = 9
WORKER_TIMEOUT_S = 150
# Set-up is mostly process start and imports, which other tenants' load
# slows differently from the op loop's calibration kernel.  So each
# set-up is scaled by the start-up of a bare interpreter timed just before
# it: wall * REFERENCE_STARTUP_S / probe.  The reference is a bare start-up
# on a 2-vCPU Intel Xeon virtual machine under CPython 3.11.
REFERENCE_STARTUP_S = 0.05
_PROBE = "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def end_to_end_metrics(latencies_s, setups_s, peak_rss_kib) -> dict:
    """The end-to-end metric values, keyed by the names in END_TO_END."""
    if samples_beyond(len(latencies_s), 90) < 10:
        raise BenchError(f"p90 needs ten samples beyond it; "
                         f"{len(latencies_s)} ops are too few")
    return {
        "setup_s": statistics.median(setups_s),
        "ops_per_s": len(latencies_s) / sum(latencies_s),
        "op_p50_ms": 1e3 * percentile(latencies_s, 50),
        "op_p90_ms": 1e3 * percentile(latencies_s, 90),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


_positive_int.__name__ = "positive integer"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=_positive_int,
                        default=DEFAULT_SECONDS,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=_positive_int,
                        default=DEFAULT_REPEATS,
                        help="fresh interpreters timed for setup_s")
    parser.add_argument("--out", type=Path,
                        help="also write the full result as JSON here")
    return parser.parse_args(argv)


def _startup_probe(env: dict) -> float:
    """Wall time from spawning a bare interpreter to its first statement."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("the start-up probe failed")
    return float(done.stdout) - started


def _spawn(workload: str, seed: int, seconds: int, trace: int,
           setup_only: bool) -> tuple[float, float, dict | None]:
    """Run one worker; return its wall set-up time, the start-up probe
    timed just before it, and its result, if any."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    probe = _startup_probe(env)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()     # leaving the with block waits for the worker
            raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = dict(line.split(" ", 1) for line in out.splitlines()
                 if line.startswith(("ready ", "result ")))
    if "ready" not in lines or ("result" not in lines) != setup_only:
        raise BenchError(f"{workload} worker printed no result")
    ready = json.loads(lines["ready"])
    result = None if setup_only else json.loads(lines["result"])
    return ready["t_ready"] - started, probe, result


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 repeats: int) -> dict:
    spawned = [_spawn(workload, seed, seconds, trace, True)
               for _ in range(repeats - 1)]
    spawned.append(_spawn(workload, seed, seconds, trace, False))
    setups = [wall for wall, _, _ in spawned]
    probes = [probe for _, probe, _ in spawned]
    scaled_setups = [wall * REFERENCE_STARTUP_S / probe
                     for wall, probe, _ in spawned]
    result = spawned[-1][2]
    out = {
        "workload": workload,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "setups_wall_s": setups,
        "setups_scaled_s": scaled_setups,
        "startup_probes_s": probes,
        "setup_breakdown_s": result["setup"],
        "properties": result["properties"],
    }
    if trace:
        out["metrics"] = result["layers"]
        out["trace_file"] = result["trace_file"]
    else:
        out["metrics"] = end_to_end_metrics(
            result["scaled_s"], scaled_setups, result["peak_rss_kib"])
        out["wall"] = end_to_end_metrics(
            result["latencies_s"], setups, result["peak_rss_kib"])
        out["p90_samples_beyond"] = samples_beyond(result["attempted"], 90)
    return out


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """Where and on what the numbers were measured."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def _print_summary(res: dict, units: dict) -> None:
    print(f"workload {res['workload']}: {res['attempted']} ops")
    for name, value in res["metrics"].items():
        line = f"  {name:44s} {value:14.6g} {units[name]:5s}"
        if "wall" in res and name != "peak_rss_mb":
            line += f"  wall {res['wall'][name]:.6g}"
        if name == "setup_s":
            line += f"  (median of {len(res['setups_wall_s'])} interpreters)"
        elif name == "op_p90_ms":
            line += (f"  ({res['attempted']} samples, "
                     f"{res['p90_samples_beyond']} beyond)")
        print(line)
    print(f"  {'fail_ratio':44s} {res['failed'] / res['attempted']:14.6g} 1"
          f"  ({res['failed']} of {res['attempted']} ops)")
    print(f"  properties {json.dumps(res['properties'], sort_keys=True)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               args.repeats)
            _print_summary(res, units)
            results.append(res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    single = len(results) == 1
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = name if single else f"{res['workload']}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "env": env, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "repeats": args.repeats,
            "workloads": results}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
