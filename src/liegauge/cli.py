"""Command-line front end.

One binary with subcommands, each returning a RunReport:

  anomaly        exact anomaly verdict for an embedding file
  wzw-verify     the symbolic identity suite with derived signs
  relcoh         relative cohomology Betti numbers for a classical pair
  invariants     invariant-polynomial dimensions by degree
  series         spectral page series with the cancellation verdict
  getzler-check  finite-difference residuals of the equivariant operators

Exit codes are uniform: 0 the checks pass (possibly with documented
convention warnings), 1 a check fails, 2 the input is invalid.  With
`--output structured` the report is canonical JSON, byte-identical for
identical inputs; the default text form is line oriented.

Each classical algebra comes from `lgio.classical` and each classical pair
from `_classical_pair`, both built once per process, so repeated in-process
calls share their structure data; a one-shot run builds them once.
Answers are never cached: every call recomputes its report.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .anomaly import verdict as anomaly_verdict
from .conventions import warning
from .liealg import (
    SYM_CEILING,
    classical_dimension,
    invariant_polynomial_dimension,
    symmetric_power_dimension,
)
from .lgio import classical, load_embedding, parse_label
from .relcoh import (
    ReductivePair,
    cartan_complement,
    check_complex_size,
    is_symmetric_pair,
    relative_ce_cohomology,
)
from .report import RunReport, inputs_digest
from .series import (
    check_series_size,
    e1_page_series,
    koszul_cancellation,
    series_graded_algebra,
    survivor_degrees,
    transgression_pairs,
)
from .wzw.identities import run_identity_suite

__all__ = [
    "cmd_anomaly",
    "cmd_wzw_verify",
    "cmd_relcoh",
    "cmd_invariants",
    "cmd_series",
    "cmd_getzler_check",
    "main",
]


def _verdict(ok: bool, warnings: list) -> str:
    if not ok:
        return "fail"
    return "warn" if warnings else "pass"


def _normalization_label(norm) -> str:
    factor, pi_power = norm
    return f"{Fraction(factor)} * pi^{pi_power}"


def cmd_anomaly(embedding_file: str) -> RunReport:
    emb = load_embedding(embedding_file)
    v = anomaly_verdict(emb)
    digest = inputs_digest({
        "command": "anomaly",
        "embedding_sha256": emb.sha256,
    })
    Q = v.report.Q
    results = {
        "anomaly_free": v.anomaly_free,
        "quadratic_form": {
            "rows": [" ".join(str(Q[i, j]) for j in range(Q.cols))
                     for i in range(Q.rows)],
            "normalization": _normalization_label(v.report.normalization),
        },
        "ad_invariance_checked": v.report.invariance_checked,
        "statements": list(v.statements),
    }
    warnings = [dict(w) for w in v.warnings]
    return RunReport("anomaly", digest, results,
                     _verdict(v.anomaly_free, warnings), warnings)


def cmd_wzw_verify() -> RunReport:
    suite = run_identity_suite()
    digest = inputs_digest({"command": "wzw-verify"})
    results = {
        "identities": [
            {"name": r.name, "ok": r.ok, "residual": r.residual,
             "detail": r.detail}
            for r in suite.results
        ],
        "all_residuals_zero": suite.all_ok,
    }
    warnings = [dict(w) for w in suite.warnings]
    return RunReport("wzw-verify", digest, results,
                     _verdict(suite.all_ok, warnings), warnings)


def _parse_pair(label: str):
    parts = [part.strip() for part in label.split("/")]
    if len(parts) <= 2 and all(parts):
        return parts[0], parts[1] if len(parts) == 2 else None
    raise ValueError(
        f"pair must look like 'sl3/so3' or a single algebra, got {label!r}")


@functools.cache
def _classical_pair(g: tuple[str, int], k: tuple[str, int] | None
                    ) -> ReductivePair:
    """The pair of parsed labels g and k (None for the plain complex),
    built and verified once per process; a pair that fails is not cached."""
    return cartan_complement(classical(*g), classical(*k) if k else None)


def cmd_relcoh(pair_label: str) -> RunReport:
    g_label, k_label = _parse_pair(pair_label)
    # labels of one matrix size give the complement dimension dim g - dim k,
    # so the pair is checked from its labels before any basis is built
    g_family, n = parse_label(g_label)
    m = classical_dimension(g_family, n)
    if k_label is not None:
        k_family, k_size = parse_label(k_label)
        m -= classical_dimension(k_family, k_size)
        if k_size != n:
            raise ValueError("subalgebra matrices must match the ambient size")
    check_complex_size(m)
    pair = _classical_pair((g_family, n),
                           (k_family, k_size) if k_label else None)
    betti = relative_ce_cohomology(pair)
    digest = inputs_digest({"command": "relcoh", "pair": pair_label})
    results = {
        "pair": pair_label,
        "complement_dimension": str(len(pair.p_basis)),
        "symmetric": is_symmetric_pair(pair),
        "betti": [str(b) for b in betti],
        "betti_line": " ".join(str(b) for b in betti),
    }
    return RunReport("relcoh", digest, results, "pass")


def cmd_invariants(algebra_label: str, max_degree: int) -> RunReport:
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")
    # Sym^d grows with d, so the top degree decides before any work is
    # done, and the label's dimension before any basis is built
    family, n = parse_label(algebra_label)
    nmono = symmetric_power_dimension(classical_dimension(family, n),
                                      max_degree)
    if nmono > SYM_CEILING:
        raise ValueError(
            f"max degree {max_degree}: Sym^{max_degree} dimension {nmono} "
            f"exceeds ceiling {SYM_CEILING}")
    algebra = classical(family, n)
    dims = [invariant_polynomial_dimension(algebra, d)
            for d in range(max_degree + 1)]
    digest = inputs_digest({
        "command": "invariants",
        "algebra": algebra_label,
        "max_degree": max_degree,
    })
    results = {
        "algebra": algebra_label,
        "dimensions": [str(d) for d in dims],
        "dimension_line": " ".join(str(d) for d in dims),
        "note": "invariants of the connected group (algebra invariance)",
    }
    return RunReport("invariants", digest, results, "pass")


def cmd_series(n: int, truncate: int) -> RunReport:
    check_series_size(n, truncate)
    first = e1_page_series(n, truncate)
    cancelled = koszul_cancellation(first, transgression_pairs(n))
    target = series_graded_algebra([], survivor_degrees(n), truncate)
    match = cancelled.coeffs == target.coeffs
    digest = inputs_digest({"command": "series", "n": n,
                            "truncate": truncate})
    results = {
        "n": str(n),
        "truncation": str(truncate),
        "survivor_degrees": [str(d) for d in survivor_degrees(n)],
        "first_page": [str(c) for c in first.coeffs],
        "cancelled_page": [str(c) for c in cancelled.coeffs],
        "target": [str(c) for c in target.coeffs],
        "match": match,
    }
    return RunReport("series", digest, results, _verdict(match, []))


def _json_float(x: float):
    """A residual as JSON carries it: the float itself when finite, else
    the string "nan", "inf" or "-inf"."""
    return x if math.isfinite(x) else str(x)


def cmd_getzler_check(group: str = "sl2", ambient: int = 2, arity: int = 2,
                      samples: int = 100, step: float = 1e-3,
                      seed: int = 0) -> RunReport:
    if group != "sl2" or ambient != 2:
        raise ValueError(
            "only the rank-one special linear group acting on the plane is "
            f"built in, got group={group!r} ambient={ambient}")
    if arity < 0:
        raise ValueError(f"arity must be >= 0, got {arity}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    # central differences at exp(+-step A) overflow for large steps, and
    # dividing by a subnormal step overflows to inf; NaN fails 0 < step
    if not (0 < step <= 1 and math.isfinite(1 / step)):
        raise ValueError(
            f"step must be in (0, 1] with a finite reciprocal, got {step}")
    from .getzler import checks as getzler_checks

    squares = [getzler_checks.dg_square_check(k, samples=samples, step=step,
                                              seed=seed)
               for k in range(arity + 1)]
    assoc = getzler_checks.associativity_check(seed=seed)
    leibniz = getzler_checks.leibniz_check(step=step, seed=seed)
    inclusion = getzler_checks.inclusion_check()
    ok = (all(s["ok"] for s in squares) and assoc["ok"] and leibniz["ok"]
          and inclusion["ok"])
    digest = inputs_digest({
        "command": "getzler-check", "group": group, "ambient": ambient,
        "arity": arity, "samples": samples, "step": step, "seed": seed,
    })
    results = {
        "group": group,
        "ambient_dimension": str(ambient),
        "total_square": [
            {"arity": str(s["arity"]),
             "max_residual": _json_float(s["residual"]),
             "halved_step_residual": _json_float(s["halved_step_residual"]),
             "reduction_ratio": _json_float(s["reduction_ratio"]),
             "tolerance": s["tolerance"], "ok": s["ok"]}
            for s in squares
        ],
        "associativity": {"max_residual": _json_float(assoc["residual"]),
                          "tolerance": assoc["tolerance"],
                          "ok": assoc["ok"]},
        "leibniz": {"max_residual": _json_float(leibniz["residual"]),
                    "tolerance": leibniz["tolerance"],
                    "ok": leibniz["ok"]},
        "cartan_inclusion": {
            "coboundary_residual": _json_float(inclusion["dbar_residual"]),
            "total_equals_geometric_pair": inclusion["cartan_match"],
            "tolerance": inclusion["tolerance"],
            "ok": inclusion["ok"],
        },
    }
    warnings = [warning("W4")]
    return RunReport("getzler-check", digest, results,
                     _verdict(ok, warnings), warnings)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it holds no per-call
    state and parsing does not change it.  Each subcommand sets `run` to
    a function of the parsed arguments that looks its cmd_* up by name
    when called."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "structured"),
                        default="text",
                        help="report form: line-oriented text or canonical "
                             "JSON")

    parser = argparse.ArgumentParser(
        prog="liegauge",
        description="exact checks for gauge anomalies, symbolic form "
                    "identities, equivariant operators, and cohomology "
                    "series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anomaly", parents=[common],
                       help="anomaly verdict for an embedding file")
    p.add_argument("embedding_file")
    p.set_defaults(run=lambda a: cmd_anomaly(a.embedding_file))

    p = sub.add_parser("wzw-verify", parents=[common],
                       help="run the symbolic identity suite")
    p.set_defaults(run=lambda a: cmd_wzw_verify())

    p = sub.add_parser("relcoh", parents=[common],
                       help="Betti numbers of a relative pair")
    p.add_argument("--pair", required=True,
                   help="classical pair like sl3/so3, or one algebra for "
                        "the plain complex")
    p.set_defaults(run=lambda a: cmd_relcoh(a.pair))

    p = sub.add_parser("invariants", parents=[common],
                       help="invariant polynomial dimensions by degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(run=lambda a: cmd_invariants(a.algebra, a.max_degree))

    p = sub.add_parser("series", parents=[common],
                       help="page series and the cancellation verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--truncate", type=int, required=True)
    p.set_defaults(run=lambda a: cmd_series(a.n, a.truncate))

    p = sub.add_parser("getzler-check", parents=[common],
                       help="residuals of the equivariant operator checks")
    p.add_argument("--group", default="sl2")
    p.add_argument("--ambient", type=int, default=2)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: cmd_getzler_check(
        group=a.group, ambient=a.ambient, arity=a.arity,
        samples=a.samples, step=a.step, seed=a.seed))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        report = args.run(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output == "structured":
        print(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
