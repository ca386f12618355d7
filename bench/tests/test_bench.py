"""Tests of the benchmark's own code: python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_declared_metrics_match_the_emitted_ones():
    assert _declared("end_to_end") == list(run.END_TO_END)
    assert _declared("per_layer") == list(tracing.LAYER_METRICS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)

    e2e = run.end_to_end_metrics([0.001 * (i + 1) for i in range(100)],
                                 [0.3, 0.1, 0.2], 2048)
    assert list(e2e) == [name for name, _ in run.END_TO_END]
    assert e2e["setup_s"] == 0.2
    assert e2e["ops_per_s"] == pytest.approx(100 / 5.05)
    assert e2e["op_p90_ms"] == pytest.approx(90.0)
    assert e2e["peak_rss_mb"] == 2.0
    layers = tracing.layer_metrics(
        tracing.Tracer(), {"import_s": 0.5, "inputs_s": 0.1}, 1.1)
    assert set(layers) == {name for name, _ in tracing.LAYER_METRICS}


def test_p90_keeps_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.samples_beyond(100, 90) == 10
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.samples_beyond(99, 90) == 9
    with pytest.raises(run.BenchError, match="ten samples"):
        run.end_to_end_metrics([0.01] * 99, [0.1], 1024)


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("a")            # 0
    t.enter("b")            # 1
    t.enter("c", False)     # 2, aggregated only
    t.exit()                # 3: c takes 1
    t.exit()                # 4: b takes 3, self 2
    t.enter("b")            # 6
    t.exit()                # 7: b takes 1
    t.exit()                # 10: a takes 10, self 10 - 3 - 1
    assert dict(t.calls) == {"a": 1, "b": 2, "c": 1}
    assert dict(t.self_s) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert dict(t.total_s) == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert [(s["name"], s["parent"]) for s in t.spans] == [
        ("a", None), ("b", 0), ("b", 0)]
    assert sum(s["self_s"] for s in t.spans) + t.self_s["c"] == 10.0


def test_instrumentation_covers_a_call_and_restores_the_package():
    from liegauge import liealg, relcoh
    from liegauge.exact import Matrix
    originals = (liealg.invariant_polynomial_dimension, liealg.joint_kernel,
                 relcoh.joint_kernel, Matrix.rref, Matrix.__mul__)
    t = tracing.Tracer()
    with tracing.Instrumentation(t):
        assert liealg.joint_kernel is relcoh.joint_kernel
        assert liealg.joint_kernel is not originals[1]
        # outside an op, where inputs are built, nothing is counted
        sl2 = liealg.make_classical("sl", 2)
        liealg.invariant_polynomial_dimension(sl2, 3)
        assert not t.calls and not t.counts
        t.begin_op()
        dim = liealg.invariant_polynomial_dimension(
            liealg.make_classical("sl", 2), 4)
        t.end_op()
    assert dim == 1
    assert (liealg.invariant_polynomial_dimension, liealg.joint_kernel,
            relcoh.joint_kernel, Matrix.rref, Matrix.__mul__) == originals
    values = tracing.layer_metrics(t, {"import_s": 0.0, "inputs_s": 0.0}, 1.0)
    assert values["liealg.invariant_dimension.calls"] == 1
    assert values["liealg.invariant_dimension.monomials"] == 15
    assert values["exact.joint_kernel.calls"] == 1
    assert values["exact.rref.calls"] == 1 + 3   # expansion solver, 3 kernels
    assert values["trace.coverage"] > 0.9


@pytest.mark.parametrize("args, field", [
    (["--workload", "nope"], "--workload"),
    (["--seed", "1.5"], "--seed"),
    (["--repeats", "0"], "--repeats"),
    (["--seconds", "-3"], "--seconds"),
    (["--trace", "2"], "--trace"),
])
def test_bad_arguments_fail_up_front_naming_the_field(args, field, capsys):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(args)
    assert exc.value.code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"),
                                             ("1", "per_layer")])
def test_a_short_run_prints_every_declared_metric(trace, declared):
    done = _run_bench("--workload", "cli_readme", "--seed", "5",
                      "--seconds", "1", "--repeats", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        _declared(declared)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "exact_sweep", "--seconds", "1",
                      "--repeats", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
