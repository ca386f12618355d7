"""End-to-end acceptance suite: one test per shipped guarantee.

Each test states its tolerance and runtime budget inline and prints a
single pass or fail line under `pytest -v`.  Expected values are exact
integer or rational oracles fixed in advance; floating-point checks
compare measured residuals against the bounds declared next to them.
Nothing here re-derives an expected value from the code under test.
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

from liegauge.anomaly import verdict
from liegauge.cli import main
from liegauge.exact import Matrix
from liegauge.getzler.checks import (
    associativity_check,
    dg_square_check,
    inclusion_check,
    leibniz_check,
)
from liegauge.lgio import load_embedding
from liegauge.liealg import (
    invariant_polynomial_dimension,
    make_classical,
    structure_constants,
)
from liegauge.relcoh import cartan_complement, relative_ce_cohomology
from liegauge.series import (
    e1_page_series,
    koszul_cancellation,
    series_graded_algebra,
    survivor_degrees,
    transgression_pairs,
)
from liegauge.wzw.evaluate import evaluate
from liegauge.wzw.identities import run_identity_suite
from liegauge.wzw.ops import (
    contract,
    differential,
    lambda_commutator,
    lambda_form,
    lie_derivative,
    quadratic_expected_constant,
    wzw_form,
)
from liegauge.wzw.words import C, DG, G, GINV, FormExpression, Term
from reference import (
    quadratic_residual,
    trace_form,
    verify_antisymmetry,
    verify_jacobi,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _random_point(rng, n):
    while True:
        m = Matrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
        if m.rank() == n:
            return m


def _random_bindings(rng, n):
    return {(side, lab): Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
            for side in "LR" for lab in "ab"}


def test_c01_wzw_identity_suite_is_exactly_zero_and_fast():
    """Every identity in the suite normalizes to the zero word, the
    quadratic pairing leaves the expected pure constant, the bracket
    orientation is the derived one, and the whole run stays under 10 s."""
    t0 = time.monotonic()
    report = run_identity_suite()
    elapsed = time.monotonic() - t0

    bad = [r.name for r in report.results if not r.ok]
    assert report.all_ok, f"failing identities: {bad}"
    assert all(r.residual == "0" for r in report.results)

    names = {r.name for r in report.results}
    required = {
        "d(omega) = 0",
        "iota_a(omega) - d(lam_a) = 0",
        "L_a(omega) = 0",
        "L_b(lam_a) - lam_([a,b]) = 0",
        "iota_a(lam_b) + iota_b(lam_a) = (1/2pi)(Tr LL - Tr RR)",
    }
    assert required <= names, f"missing identities: {required - names}"

    # The bracket orientation is derived, not assumed: the engine proves
    # L_b lam_a = lam_([a,b]) and the flipped order must not be zero.
    lam_a = lambda_form("a")
    derived = lie_derivative(lam_a, "b") - lambda_commutator("a", "b")
    flipped = lie_derivative(lam_a, "b") - lambda_commutator("b", "a")
    assert derived.is_zero()
    assert not flipped.is_zero()
    assert {w["id"] for w in report.warnings} >= {"W1", "W2", "W3"}

    # Quadratic pairing: all group-dependent words cancel and the residual
    # equals the constant (1/2)pi^-1 (Tr T_L T_L - Tr T_R T_R) literally.
    resid = quadratic_residual("a", "b")
    assert all(letter[0] == "C" for term in resid.terms
               for letter in term.letters), "group dependence survived"
    assert (resid - quadratic_expected_constant("a", "b")).is_zero()

    assert elapsed < 10.0, f"identity suite took {elapsed:.2f}s (budget 10s)"


def test_c02_anomaly_fixture_verdicts_are_exact_and_fast():
    """The adjoint embedding and the block-duplication embedding have an
    exactly zero obstruction matrix; the left-only embedding's matrix is
    exactly the trace form.  Each fixture verdict takes under 1 s."""
    cases = [
        ("adjoint_sl3.json", True),
        ("left_only_sl3.json", False),
        ("block_dup_sl2_in_sl4.json", True),
    ]
    for fname, expected_free in cases:
        t0 = time.monotonic()
        v = verdict(load_embedding(FIXTURES / fname))
        elapsed = time.monotonic() - t0
        assert v.anomaly_free is expected_free, fname
        assert v.report.invariance_checked, fname
        assert v.report.normalization == (Fraction(1, 2), -1), fname
        if expected_free:
            assert v.report.Q.is_zero(), fname
        assert elapsed < 1.0, f"{fname} took {elapsed:.2f}s (budget 1s)"

    left_only = verdict(load_embedding(FIXTURES / "left_only_sl3.json"))
    assert left_only.report.Q == trace_form(make_classical("sl", 3))
    assert not left_only.report.Q.is_zero()


def test_c03_normal_form_zero_evaluates_to_zero_on_100_instances():
    """Raw, unnormalized expansions whose normal form is the zero word
    must evaluate to exactly zero at 100 seeded random instances of
    (invertible point, tangent vectors, constant bindings).  The pointwise
    evaluator shares no code with the rewriting engine, so this pits the
    two routes against each other.  Zero failures allowed."""
    omega, lam_a = wzw_form(), lambda_form("a")
    raw_zero = [
        differential(omega, normalize=False),
        FormExpression("trace",
                       contract(omega, "a", normalize=False).terms
                       + differential(lam_a, normalize=False).scale(-1).terms,
                       normalized=True),
        lie_derivative(omega, "a", normalize=False),
    ]
    # The normal forms are zero, but the raw term lists are not.
    assert all(FormExpression(e.kind, e.terms).is_zero() for e in raw_zero)
    assert all(e.terms for e in raw_zero)

    rng = random.Random(20260819)
    failures = 0
    for _ in range(100):
        n = rng.choice([2, 3])
        point = _random_point(rng, n)
        bindings = _random_bindings(rng, n)
        for expr in raw_zero:
            degree = next(iter(expr.degrees()))
            vectors = [Matrix(n, n,
                              [rng.randint(-2, 2) for _ in range(n * n)])
                       for _ in range(degree)]
            if not evaluate(expr, point, vectors, bindings).is_zero():
                failures += 1
    assert failures == 0, f"{failures} nonzero evaluations out of 300"


def test_c04_equivariant_operator_residuals_within_tolerance():
    """With the rank-one special linear group acting on the plane and
    polynomial coefficients of degree at most 2: the squared total
    differential stays below 1e-5 at arities 0, 1, 2 (100 samples, step
    1e-3) and halving the step shrinks it by at least 3x; cup
    associativity stays below 1e-8; the graded Leibniz residual stays
    below 1e-4.  Whole check under 2 minutes."""
    t0 = time.monotonic()
    for arity in (0, 1, 2):
        sq = dg_square_check(arity, samples=100, step=1e-3)
        assert sq["residual"] <= 1e-5, (arity, sq["residual"])
        assert sq["reduction_ratio"] >= 3.0, (arity, sq["reduction_ratio"])
        assert sq["ok"], sq

    assoc = associativity_check()
    assert assoc["residual"] <= 1e-8, assoc["residual"]

    leib = leibniz_check(step=1e-3)
    assert leib["residual"] <= 1e-4, leib["residual"]

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"operator checks took {elapsed:.1f}s (budget 120s)"


def test_c05_invariant_cochain_inclusion_is_coefficient_exact():
    """On the invariant Killing-quadratic 0-cochain the group coboundary
    is the literal zero form at exact group samples, and the total
    differential equals the geometric part (exterior derivative plus
    contraction) coefficient for coefficient."""
    result = inclusion_check()
    assert result["dbar_residual"] == 0.0
    assert result["total_bar_residual"] == 0.0
    assert result["cartan_match"] is True
    assert result["ok"]


def test_c06_relative_betti_numbers_are_exact():
    """Betti numbers of the invariant relative complexes: (1,0,1) for the
    rank-one special linear pair, (1,0,0,0,0,1) for the rank-two one, and
    (1,0,0,1) for the plain complex of the compact rank-one algebra.
    Under 1 minute total."""
    t0 = time.monotonic()
    sl2 = cartan_complement(make_classical("sl", 2), make_classical("so", 2))
    assert relative_ce_cohomology(sl2) == (1, 0, 1)
    sl3 = cartan_complement(make_classical("sl", 3), make_classical("so", 3))
    assert relative_ce_cohomology(sl3) == (1, 0, 0, 0, 0, 1)
    su2 = cartan_complement(make_classical("su", 2), None)
    assert relative_ce_cohomology(su2) == (1, 0, 0, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"Betti computations took {elapsed:.1f}s (budget 60s)"


def test_c07_invariant_polynomial_dimensions_are_exact():
    """Dimensions of invariant polynomials in degrees 2, 3, 4: (1, 0, 1)
    for the rank-one special linear algebra, (1, 1, 1) for the rank-two
    one, both exact."""
    sl2 = make_classical("sl", 2)
    sl3 = make_classical("sl", 3)
    assert tuple(invariant_polynomial_dimension(sl2, d)
                 for d in (2, 3, 4)) == (1, 0, 1)
    assert tuple(invariant_polynomial_dimension(sl3, d)
                 for d in (2, 3, 4)) == (1, 1, 1)


def test_c08_invariant_quadratic_form_space_is_one_dimensional():
    """The space of invariant quadratic polynomials on the special linear
    algebras of sizes 2, 3, 4 is exactly one-dimensional."""
    for n in (2, 3, 4):
        dim = invariant_polynomial_dimension(make_classical("sl", n), 2)
        assert dim == 1, f"sl({n}) invariant quadratics: {dim}"


def test_c09_koszul_cancelled_series_match_survivor_algebras():
    """For odd sizes 3, 5, 7 the transgression-cancelled first-page series
    equals the polynomial algebra on the surviving even generators,
    coefficient-exact through t^40: the cancellation routine divides the
    page series, and the survivor algebra is built here independently."""
    for n in (3, 5, 7):
        cancelled = koszul_cancellation(
            e1_page_series(n, 40), transgression_pairs(n))
        direct = series_graded_algebra([], survivor_degrees(n), 40)
        assert cancelled == direct, f"series mismatch at size {n}"


def test_c10_property_suites_jacobi_nilpotence_idempotence_determinism():
    """Structural invariants across the package: every constructed set of
    structure constants is antisymmetric and satisfies the Jacobi
    identity; on 60 random symbolic expressions the differential squares
    to zero and normalization is idempotent; every command-line report is
    byte-identical across repeated runs with fixed seeds."""
    # Structure constants: classical families plus every fixture domain.
    algebras = [make_classical(fam, n)
                for fam, sizes in (("sl", (2, 3, 4)), ("so", (3, 4, 5)),
                                   ("su", (2, 3)), ("gl", (2, 3)))
                for n in sizes]
    algebras += [load_embedding(path).domain
                 for path in sorted(FIXTURES.glob("*.json"))]
    for alg in algebras:
        c = structure_constants(alg)
        assert verify_antisymmetry(c), alg.name
        assert verify_jacobi(c), alg.name

    # Differential nilpotence and normalization idempotence on random
    # expressions drawn from the full word alphabet.
    alphabet = [G, GINV, C("L", "a"), C("R", "a"), C("L", "b"), C("R", "b")]
    rng = random.Random(97)
    for _ in range(60):
        kind = rng.choice(["matrix", "trace"])
        terms = []
        for _ in range(rng.randint(1, 4)):
            letters = [DG] * rng.randint(0, 3)
            for _ in range(rng.randint(0, 4)):
                letters.insert(rng.randint(0, len(letters)),
                               rng.choice(alphabet))
            terms.append(Term(Fraction(rng.randint(-4, 4) or 1,
                                       rng.randint(1, 3)),
                              rng.randint(-1, 1), tuple(letters)))
        expr = FormExpression(kind, terms)
        assert FormExpression(expr.kind, expr.terms) == expr
        assert differential(differential(expr)).is_zero()

    # Determinism: every subcommand, structured output, two runs each.
    commands = [
        ["anomaly", str(FIXTURES / "adjoint_sl3.json")],
        ["wzw-verify"],
        ["relcoh", "--pair", "sl2/so2"],
        ["invariants", "--algebra", "sl2", "--max-degree", "4"],
        ["series", "--n", "5", "--truncate", "40"],
        ["getzler-check", "--arity", "1", "--samples", "5", "--seed", "3"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--output", "structured"])
            assert code == 0, (argv, code)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], f"nondeterministic report: {argv}"
