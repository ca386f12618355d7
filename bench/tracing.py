"""Outside-in layer tracing: spans around calls into `liegauge` layers.

The program has no tracing of its own, so the benchmark wraps public
functions and methods from outside.  Modules bind names at import time
(`from .exact import joint_kernel`), so a function is replaced in every
loaded `liegauge` module that holds it, under whatever name; a method is
replaced on its class.

Every wrapped call made inside an op opens a frame on one stack; calls
outside ops, where the benchmark builds its inputs, pass straight through
uncounted.  When a frame closes, its duration is added to its parent's
child time, so a layer's self time is its duration minus the time spent
in wrapped callees.  Frames of most layers are also kept as span records
(name, parent, start, end, self time) and written out at the end; frames
of hot leaf methods such as `Matrix.__mul__` are only aggregated, to keep
the trace small.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


class Tracer:
    """Span stack with exact self-time accounting and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans: list[dict] = []
        self.algebras: set = set()          # distinct structure-const inputs
        self.base_cochains: dict = {}       # seeded random cochains, by id
        self.op_tuples: set = set()         # distinct base-cochain arguments
        self._stack: list[list] = []

    def enter(self, name: str, record: bool = True) -> None:
        # frame: name, start, child time, own span id, nearest recorded span
        ancestor = self._stack[-1][4] if self._stack else None
        span_id = None
        if record:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "parent": ancestor,
                               "name": name})
        self._stack.append([name, self.clock(), 0.0, span_id,
                            ancestor if span_id is None else span_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id, _ = self._stack.pop()
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id].update(start=start, end=end, self_s=own)

    @property
    def in_op(self) -> bool:
        return bool(self._stack)

    def begin_op(self) -> None:
        self.op_tuples = set()
        self.enter("op")

    def end_op(self) -> None:
        self.exit()
        self.counts["getzler.cochain_eval.distinct"] += len(self.op_tuples)


def _wrap(tracer: Tracer, name: str, fn, record: bool, before=None,
          after=None):
    """Wrap fn in a frame named `name`.  Outside an op the call passes
    straight through, so the benchmark's own input generation is never
    counted.  `before` sees the call's arguments; `after` gets what
    `before` returned once the frame has closed."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.in_op:
            return fn(*args, **kwargs)
        token = before(*args, **kwargs) if before is not None else None
        tracer.enter(name, record)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
            if after is not None:
                after(token)
    return wrapper


class Instrumentation:
    """Installs wrappers for the layers listed in `install` and removes
    them on exit; only modules the workload already imported are touched."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def function(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        if mod is None:
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("liegauge"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, name, wrapper)

    def method(self, module: str, cls: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        if mod is None:
            return
        klass = getattr(mod, cls)
        self._set(klass, attr, make(getattr(klass, attr)))

    def install(self) -> None:
        from liegauge.exact import GaussianRational

        t = self.tracer

        def has_gaussian(values) -> bool:
            return any(isinstance(v, GaussianRational) for v in values)

        def plain(name, record=True, before=None, after=None):
            return lambda fn: _wrap(t, name, fn, record, before, after)

        def counting_inside(name, counted, key):
            """A frame that adds to counts[key] the calls of `counted`
            made while it is open."""
            def after(start):
                t.counts[key] += t.calls[counted] - start
            return plain(name, before=lambda *a, **k: t.calls[counted],
                         after=after)

        # exact
        def rref_before(m):
            t.counts["exact.rref.cells"] += m.rows * m.cols
            if has_gaussian(m.entries()):
                t.counts["exact.gaussian_calls"] += 1

        def kernel_before(dim, ops):
            t.counts["exact.joint_kernel.dim"] += dim
            if any(has_gaussian(op.entries() if hasattr(op, "entries")
                                 else (v for _, _, v in op)) for op in ops):
                t.counts["exact.gaussian_calls"] += 1

        self.method("liegauge.exact", "Matrix", "rref",
                    plain("exact.rref", before=rref_before))
        self.method("liegauge.exact", "Matrix", "__mul__",
                    plain("exact.matmul", record=False))
        self.method("liegauge.exact", "Matrix", "inverse",
                    plain("exact.inverse", record=False))
        self.function("liegauge.exact", "joint_kernel",
                      plain("exact.joint_kernel", before=kernel_before))

        # liealg
        def algebra_seen(alg):
            t.algebras.add(alg)

        def monomials(alg, degree, *args, **kwargs):
            if degree > 0:
                t.counts["liealg.invariant_dimension.monomials"] += \
                    math.comb(alg.dim + degree - 1, degree)

        self.function("liegauge.liealg", "structure_constants",
                      plain("liealg.structure_constants", before=algebra_seen))
        self.function("liegauge.liealg", "invariant_polynomial_dimension",
                      plain("liealg.invariant_dimension", before=monomials))

        # wzw
        def normalize(init):
            @functools.wraps(init)
            def wrapper(self_, kind, terms=(), *, normalized=False):
                if normalized or not t.in_op:
                    return init(self_, kind, terms, normalized=normalized)
                terms = tuple(terms)
                t.enter("wzw.normalize", record=False)
                try:
                    init(self_, kind, terms)
                finally:
                    t.exit()
                t.counts["wzw.normalize.terms_in"] += len(terms)
                t.counts["wzw.normalize.terms_out"] += len(self_.terms)
            return wrapper

        self.method("liegauge.wzw.words", "FormExpression", "__init__",
                    normalize)
        self.function("liegauge.wzw.evaluate", "evaluate",
                      counting_inside("wzw.evaluate", "exact.matmul",
                                      "wzw.evaluate.products"))
        self.function("liegauge.wzw.identities", "run_identity_suite",
                      plain("wzw.identities"))

        # relcoh: rref calls per pair are counted inside both stages
        for attr, name in (("cartan_complement", "relcoh.complement"),
                           ("relative_ce_cohomology", "relcoh.cohomology")):
            self.function("liegauge.relcoh", attr,
                          counting_inside(name, "exact.rref", "relcoh.rref"))

        # series, anomaly, lgio, report, cli
        for attr in ("e1_page_series", "koszul_cancellation",
                     "series_graded_algebra", "survivor_degrees",
                     "transgression_pairs"):
            self.function("liegauge.series", attr, plain("series"))
        self.function("liegauge.anomaly", "verdict", plain("anomaly.verdict"))
        self.function("liegauge.lgio", "load_embedding",
                      plain("lgio.load_embedding"))
        self.method("liegauge.report", "RunReport", "to_json",
                    plain("report.to_json"))
        self.function("liegauge.cli", "main", plain("cli"))

        # getzler
        for attr, name in (("__init__", "new"), ("wedge", "wedge"),
                           ("pullback_linear", "pullback"),
                           ("substitute_omega", "substitute")):
            self.method("liegauge.getzler.polyform", "PolyForm", attr,
                        plain(f"getzler.polyform.{name}", record=False))
        self.method("liegauge.getzler.action", "GroupSampler", "draw",
                    plain("getzler.sampler.draw"))

        def register(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cochain = fn(*args, **kwargs)
                t.base_cochains[id(cochain)] = cochain
                return cochain
            return wrapper

        for attr in ("random_cochain", "random_homogeneous_cochain"):
            self.function("liegauge.getzler.cochains", attr, register)

        def evaluation(self_, gs):
            if id(self_) in t.base_cochains:
                t.counts["getzler.cochain_eval.calls"] += 1
                t.op_tuples.add((id(self_),) + tuple(g.tobytes() for g in gs))

        self.method("liegauge.getzler.cochains", "EquivariantCochain",
                    "__call__", plain("getzler.operators", record=False,
                                      before=evaluation))


# name, unit; per-op values are averages over the traced ops
LAYER_METRICS = (
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("trace.overhead_ratio", "1"),
    ("trace.coverage", "1"),
    ("exact.rref.calls", "1/op"),
    ("exact.rref.self_s", "s/op"),
    ("exact.rref.cells", "1/op"),
    ("exact.joint_kernel.calls", "1/op"),
    ("exact.joint_kernel.self_s", "s/op"),
    ("exact.joint_kernel.dim", "1/op"),
    ("exact.matmul.calls", "1/op"),
    ("exact.matmul.self_s", "s/op"),
    ("exact.inverse.calls", "1/op"),
    ("exact.inverse.self_s", "s/op"),
    ("exact.gaussian_share", "1"),
    ("liealg.structure_constants.calls", "1/op"),
    ("liealg.structure_constants.self_s", "s/op"),
    ("liealg.structure_constants.useful_ratio", "1"),
    ("liealg.invariant_dimension.calls", "1/op"),
    ("liealg.invariant_dimension.self_s", "s/op"),
    ("liealg.invariant_dimension.monomials", "1/op"),
    ("wzw.normalize.calls", "1/op"),
    ("wzw.normalize.self_s", "s/op"),
    ("wzw.normalize.terms_in", "1/op"),
    ("wzw.normalize.terms_out", "1/op"),
    ("wzw.evaluate.calls", "1/op"),
    ("wzw.evaluate.self_s", "s/op"),
    ("wzw.evaluate.products", "1/op"),
    ("wzw.identities.self_s", "s/op"),
    ("relcoh.complement_self_s", "s/op"),
    ("relcoh.cohomology_self_s", "s/op"),
    ("relcoh.rref_per_pair", "1/pair"),
    ("anomaly.verdict.self_s", "s/op"),
    ("lgio.load_embedding.self_s", "s/op"),
    ("report.to_json.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("series.self_s", "s/op"),
    ("getzler.polyform.new.calls", "1/op"),
    ("getzler.polyform.new.self_s", "s/op"),
    ("getzler.polyform.wedge.calls", "1/op"),
    ("getzler.polyform.wedge.self_s", "s/op"),
    ("getzler.polyform.pullback.calls", "1/op"),
    ("getzler.polyform.pullback.self_s", "s/op"),
    ("getzler.polyform.substitute.calls", "1/op"),
    ("getzler.polyform.substitute.self_s", "s/op"),
    ("getzler.operators.self_s", "s/op"),
    ("getzler.cochain_eval.calls", "1/op"),
    ("getzler.cochain_eval.distinct_ratio", "1"),
    ("getzler.sampler.draw.self_s", "s/op"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup: dict, overhead_ratio: float
                  ) -> dict:
    """Per-layer metric values, keyed by the names in LAYER_METRICS."""
    ops = tracer.calls["op"]
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    values = {
        "setup.import_s": setup["import_s"],
        "setup.inputs_s": setup["inputs_s"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.coverage": 1.0 - _ratio(self_s["op"], tracer.total_s["op"]),
        "exact.gaussian_share": _ratio(
            counts["exact.gaussian_calls"],
            calls["exact.rref"] + calls["exact.joint_kernel"]),
        "liealg.structure_constants.useful_ratio": _ratio(
            len(tracer.algebras), calls["liealg.structure_constants"]),
        "relcoh.complement_self_s": _ratio(self_s["relcoh.complement"], ops),
        "relcoh.cohomology_self_s": _ratio(self_s["relcoh.cohomology"], ops),
        "relcoh.rref_per_pair": _ratio(counts["relcoh.rref"],
                                       calls["relcoh.complement"]),
        "getzler.cochain_eval.calls": _ratio(
            counts["getzler.cochain_eval.calls"], ops),
        "getzler.cochain_eval.distinct_ratio": _ratio(
            counts["getzler.cochain_eval.distinct"],
            counts["getzler.cochain_eval.calls"]),
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = _ratio(calls[layer], ops)
        elif field == "self_s":
            values[name] = _ratio(self_s[layer], ops)
        else:
            values[name] = _ratio(counts[name], ops)
    return {name: values[name] for name, _ in LAYER_METRICS}
