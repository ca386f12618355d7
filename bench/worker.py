"""One workload in one fresh interpreter: set up, then a closed loop.

Started by run.py, never by hand.  Prints `ready {...}` when set-up is
done (imports, input generation and loading, one warm-up op) and, unless
--setup-only, `result {...}` at the end.  One client keeps one op in
flight; each op is timed alone and checked after the timer stops.

The machine may be shared: other tenants can slow it by up to 1.7x for
seconds to minutes at a time, which moves raw wall times far more than
any code change of interest.  So before each op (at most every
GAUGE_PERIOD_S) the worker times a fixed calibration kernel that does not
touch liegauge, and reports each op's wall time also scaled to the
kernel's reference speed: wall * KERNEL_REFERENCE_S / kernel time.  On an
uncontended machine of the reference speed the two agree.  Set-up is
scaled by run.py, against the start-up of a bare interpreter.

With --trace 1 untraced and traced cycles alternate, and the ratio of
their scaled busy times is the tracing overhead.  Per-layer metrics come
from the traced cycles; their spans are written to .bench_out/ under the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tracing import Instrumentation, Tracer, layer_metrics
from workloads import ROOT, WORKLOADS

MIN_OPS = 100   # the p90 of a run needs at least ten samples beyond it
# best wall time of _kernel on an uncontended 2-vCPU Intel Xeon virtual
# machine under CPython 3.11: the reference speed of scaled times
KERNEL_REFERENCE_S = 1.3e-3
GAUGE_PERIOD_S = 0.25


def _kernel() -> None:
    """Fixed exact-rational work and dict stores, independent of liegauge."""
    total, table = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[i, i % 7] = total


def _timed_kernel() -> float:
    """Wall time of one _kernel run with the cyclic collector off, so
    that the program's heap cannot change it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedGauge:
    """Reference seconds per wall second, from the best of three timings
    of _kernel, re-read at most every GAUGE_PERIOD_S."""

    def __init__(self):
        for _ in range(20):     # the interpreter specializes the kernel
            _kernel()
        self._read_at = -float("inf")

    def read(self) -> float:
        if time.perf_counter() - self._read_at < GAUGE_PERIOD_S:
            return self._scale
        self._scale = KERNEL_REFERENCE_S / min(
            _timed_kernel() for _ in range(3))
        self._read_at = time.perf_counter()
        return self._scale


def _setup(name: str, seed: int):
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    workload = WORKLOADS[name]
    for module in workload.modules:
        importlib.import_module(module)
    # never measure a copy of the package from outside this checkout
    loaded = Path(sys.modules["liegauge"].__file__).resolve()
    if loaded.parent != (src / "liegauge").resolve():
        raise RuntimeError(f"liegauge imported from {loaded}, not from {src}")
    t1 = time.perf_counter()
    inputs = workload(seed)
    t2 = time.perf_counter()
    inputs.warmup()
    t3 = time.perf_counter()
    return inputs, {"import_s": t1 - t0, "inputs_s": t2 - t1,
                    "warmup_s": t3 - t2}


def _checked(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:
        traceback.print_exc()
        return False


class Loop:
    """Closed-loop results, accumulated one cycle at a time."""

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self.latencies_s: list[float] = []      # wall
        self.scaled_s: list[float] = []         # at the reference speed
        self.cycles = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.props: dict[str, Counter] = {}
        self.keys: set = set()
        self.repeated = 0

    def run_cycle(self, workload, tracer: Tracer | None = None) -> None:
        """One cycle, one op in flight; each op is timed alone and checked
        after its timer stops."""
        for op in workload.cycle():
            before = self.gauge.read()
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out, raised = op.run(), False
            except Exception:
                raised = True
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
            # an op longer than the gauge period gets a fresh reading
            # after it, and the mean of the two readings
            scale = (before + self.gauge.read()) / 2
            self.latencies_s.append(elapsed)
            self.scaled_s.append(elapsed * scale)
            if raised:
                traceback.print_exc()
            if raised or not _checked(op, out):
                self.failed += 1
                got = "an exception" if raised else repr(out)[:200]
                print(f"failed op: {workload.name} {op.kind} {op.props} "
                      f"gave {got}", file=sys.stderr)
            self.kinds[op.kind] += 1
            for key, value in op.props.items():
                self.props.setdefault(key, Counter())[str(value)] += 1
            if op.key is not None:
                key = op.key() if callable(op.key) else op.key
                self.repeated += key in self.keys
                self.keys.add(key)
        self.cycles += 1

    def properties(self) -> dict:
        return {
            "ops": len(self.latencies_s),
            "cycles": self.cycles,
            "kinds": dict(self.kinds),
            "repeated_input_share": self.repeated / len(self.latencies_s),
            **{key: dict(counter) for key, counter in self.props.items()},
        }


def _write_trace(tracer: Tracer, name: str, seed: int) -> str:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-{seed}.json"
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
             for s in tracer.spans]
    layers = {name: {"calls": tracer.calls[name],
                     "total_s": tracer.total_s[name],
                     "self_s": tracer.self_s[name]} for name in tracer.calls}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"layers": layers, "counts": dict(tracer.counts),
                   "spans": spans}, fh)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload, setup = _setup(args.workload, args.seed)
    ready = dict(setup, t_ready=time.clock_gettime(time.CLOCK_MONOTONIC))
    print("ready " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0
    gauge = SpeedGauge()

    start = time.perf_counter()
    loop = Loop(gauge)
    if not args.trace:
        while (time.perf_counter() - start < args.seconds
               or len(loop.latencies_s) < MIN_OPS):
            loop.run_cycle(workload)
        result = {"attempted": len(loop.latencies_s), "failed": loop.failed}
    else:
        # traced and untraced cycles alternate, so both see the same
        # machine; their busy-time ratio is the tracing overhead
        tracer, traced = Tracer(), Loop(gauge)
        while (time.perf_counter() - start < args.seconds
               or not traced.cycles):
            loop.run_cycle(workload)
            with Instrumentation(tracer):
                traced.run_cycle(workload, tracer)
        overhead = sum(traced.scaled_s) / sum(loop.scaled_s)
        result = {"attempted": len(loop.latencies_s) + len(traced.latencies_s),
                  "failed": loop.failed + traced.failed,
                  "layers": layer_metrics(tracer, setup, overhead),
                  "trace_file": _write_trace(tracer, args.workload,
                                             args.seed)}
    result.update(latencies_s=loop.latencies_s, scaled_s=loop.scaled_s,
                  properties=loop.properties(), setup=setup)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
