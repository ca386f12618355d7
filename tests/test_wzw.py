"""Symbolic engine tests: normal forms, derivations, and the pointwise
evaluation oracle.

Expected normal forms below are hand computations (short words only); the
randomized blocks check structural laws (d.d = 0, idempotent normalization,
graded cyclicity) and that normalization never changes the value of an
expression under the independent evaluator.
"""

import random
from fractions import Fraction

import pytest

from liegauge.exact import Matrix
from liegauge.wzw import (
    C,
    DG,
    G,
    GINV,
    FormExpression,
    Term,
    contract,
    differential,
    evaluate,
    lambda_commutator,
    lambda_form,
    lie_derivative,
    mu,
    quadratic_expected_constant,
    run_identity_suite,
    theta,
    wzw_form,
)
from liegauge.wzw.ops import powers
from reference import quadratic_residual

CL_A, CR_A = C("L", "a"), C("R", "a")
CL_B, CR_B = C("L", "b"), C("R", "b")


def word(letters, coeff=1, pi=0, kind="matrix"):
    return FormExpression.word(letters, coeff, pi, kind)


# -- normal forms -------------------------------------------------------------


def test_adjacent_inverse_cancellation():
    assert word((G, GINV)) == FormExpression.one()
    assert word((GINV, G, DG)) == word((DG,))
    assert word((CL_A, G, GINV, CR_A)) == word((CL_A, CR_A))
    # nested: cancelling an inner pair exposes an outer pair
    assert word((G, G, GINV, GINV)) == FormExpression.one()


def test_cyclic_wraparound_cancellation():
    # Tr(g^-1 X g) = Tr(X): the wrap pair (g, g^-1) cancels
    assert word((GINV, CL_A, G), kind="trace") == word((CL_A,), kind="trace")


def test_trace_of_identity_word_kept():
    expr = word((G, GINV), kind="trace")
    assert expr.terms == (Term(Fraction(1), 0, ()),)
    assert evaluate(expr, Matrix.identity(3), []).parts == {0: Fraction(3)}


def test_cyclic_rotation_merges_terms():
    # Tr(AB) and Tr(BA) for degree-0 letters are the same normal form
    ab = word((CL_A, CL_B), kind="trace")
    ba = word((CL_B, CL_A), kind="trace")
    assert ab == ba
    assert (ab - ba).is_zero()


def test_even_mu_power_trace_vanishes_cyclically():
    # Tr((g^-1 dg)^2) = -Tr((g^-1 dg)^2) by graded rotation, hence 0
    assert powers(mu(), 2)[2].trace().is_zero()
    assert powers(mu(), 4)[4].trace().is_zero()
    assert not powers(mu(), 3)[3].trace().is_zero()


def test_trace_of_mu_power_equals_theta_power():
    # cyclic rotation of a single degree-0 letter is free of signs
    assert powers(mu(), 3)[3].trace() == powers(theta(), 3)[3].trace()


def test_koszul_sign_in_cyclic_rotation():
    # Tr(X dg dg') with X of degree 0: rotating X around is signless,
    # rotating a dg past the rest of odd degree flips the sign.
    w = word((DG, CL_A, DG), kind="trace")
    rotated = word((CL_A, DG, DG), kind="trace")
    # moving the leading dg (degree 1) past (CL_A dg) (degree 1) gives -1
    assert w == rotated.scale(-1)


def test_normalization_deterministic_order():
    e = word((CL_B,)) + word((CL_A,)) + word((CL_A,), pi=-1)
    assert [t.pi for t in e.terms] == [-1, 0, 0]


def test_multiplication_rules():
    m = mu() * theta()
    assert m.terms[0].letters == (GINV, DG, DG, GINV)
    with pytest.raises(ValueError):
        _ = mu().trace() * theta().trace()
    with pytest.raises(ValueError):
        _ = mu().trace() * theta()


def test_scale_carries_pi_power():
    e = mu().scale(Fraction(1, 3), -2)
    assert e.terms[0].pi == -2
    assert e.terms[0].coeff == Fraction(1, 3)


# -- derivations --------------------------------------------------------------


def test_differential_letter_rules():
    assert differential(word((G,))) == word((DG,))
    assert differential(word((GINV,))) == word((GINV, DG, GINV)).scale(-1)
    assert differential(word((DG,))).is_zero()
    assert differential(word((CL_A,))).is_zero()


def test_differential_of_mu_and_theta():
    assert differential(mu()) == powers(mu(), 2)[2].scale(-1)
    assert differential(theta()) == powers(theta(), 2)[2]


def test_differential_squares_to_zero_random():
    rng = random.Random(2718)
    for _ in range(60):
        expr = random_expression(rng)
        assert differential(differential(expr)).is_zero()


def test_contract_mu_theta_frozen():
    assert contract(mu(), "a") == (
        word((GINV, CL_A, G)) - word((CR_A,)))
    assert contract(theta(), "a") == (
        word((CL_A,)) - word((G, CR_A, GINV)))


def test_contract_is_graded_derivation():
    # iota(mu * mu) = iota(mu) mu - mu iota(mu)
    lhs = contract(powers(mu(), 2)[2], "a")
    rhs = contract(mu(), "a") * mu() - mu() * contract(mu(), "a")
    assert (lhs - rhs).is_zero()


def test_contractions_anticommute_random():
    rng = random.Random(31337)
    for _ in range(40):
        expr = random_expression(rng, min_degree=1)
        s = (contract(contract(expr, "a"), "b")
             + contract(contract(expr, "b"), "a"))
        assert s.is_zero()


def test_lie_derivative_of_invariant_form():
    assert lie_derivative(wzw_form(), "a").is_zero()


def test_equivariance_derived_orientation():
    lhs = lie_derivative(lambda_form("a"), "b")
    assert (lhs - lambda_commutator("a", "b")).is_zero()
    assert not (lhs - lambda_commutator("b", "a")).is_zero()


def test_quadratic_residual_constant():
    resid = quadratic_residual("a", "b")
    assert resid == quadratic_expected_constant("a", "b")
    assert all(l[0] == "C" for t in resid.terms for l in t.letters)


def test_identity_suite_all_green():
    rep = run_identity_suite()
    assert rep.all_ok
    assert {w["id"] for w in rep.warnings} == {"W1", "W2", "W3"}
    for r in rep.results:
        assert r.ok, f"{r.name}: residual {r.residual}"


# -- randomized expressions ---------------------------------------------------

ALPHABET = [G, GINV, CL_A, CR_A, CL_B, CR_B]


def random_expression(rng, kind=None, min_degree=0, max_degree=3):
    kind = kind or rng.choice(["matrix", "trace"])
    degree = rng.randint(min_degree, max_degree)
    terms = []
    for _ in range(rng.randint(1, 4)):
        letters = [DG] * degree
        for _ in range(rng.randint(0, 4)):
            letters.insert(rng.randint(0, len(letters)), rng.choice(ALPHABET))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff == 0:
            coeff = Fraction(1)
        terms.append(Term(coeff, rng.randint(-1, 1), tuple(letters)))
    return FormExpression(kind, terms)


def random_raw(rng, degree, kind="trace", nterms=3):
    terms = []
    for _ in range(nterms):
        letters = [DG] * degree
        for _ in range(rng.randint(0, 5)):
            letters.insert(rng.randint(0, len(letters)), rng.choice(ALPHABET))
        terms.append(Term(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                          rng.randint(-1, 1), tuple(letters)))
    # normalized=True skips rewriting: this is a raw term list
    return FormExpression(kind, terms, normalized=True)


def test_normalization_idempotent_random():
    rng = random.Random(777)
    for _ in range(60):
        e = random_expression(rng)
        again = FormExpression(e.kind, e.terms)
        assert again == e


def random_point(rng, n):
    while True:
        m = Matrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
        if m.rank() == n:
            return m


def random_bindings(rng, n):
    return {(side, lab): Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
            for side in "LR" for lab in "ab"}


def test_normalization_preserves_evaluation():
    rng = random.Random(424242)
    for trial in range(25):
        n = rng.choice([2, 3])
        degree = rng.randint(0, 3)
        raw = random_raw(rng, degree, kind=rng.choice(["matrix", "trace"]))
        normalized = FormExpression(raw.kind, raw.terms)
        point = random_point(rng, n)
        vectors = [Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
                   for _ in range(degree)]
        bindings = random_bindings(rng, n)
        assert (evaluate(raw, point, vectors, bindings)
                == evaluate(normalized, point, vectors, bindings))


def test_identity_raw_expansions_evaluate_to_zero():
    # the unnormalized Leibniz expansions of engine-zero identities must
    # evaluate to exactly zero: the oracle never sees the rewriting path
    rng = random.Random(1001)
    omega, lam_a = wzw_form(), lambda_form("a")
    raw_zero = [
        differential(omega, normalize=False),
        FormExpression("trace",
                       contract(omega, "a", normalize=False).terms
                       + differential(lam_a, normalize=False).scale(-1).terms,
                       normalized=True),
        lie_derivative(omega, "a", normalize=False),
    ]
    for trial in range(12):
        n = rng.choice([2, 3])
        point = random_point(rng, n)
        bindings = random_bindings(rng, n)
        for expr in raw_zero:
            d = next(iter(expr.degrees()))
            vectors = [Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
                       for _ in range(d)]
            assert evaluate(expr, point, vectors, bindings).is_zero()


def test_nonzero_normal_form_evaluates_nonzero_somewhere():
    rng = random.Random(55)
    for expr in [wzw_form(), lambda_form("a"), mu(), powers(theta(), 2)[2]]:
        (d,) = expr.degrees()
        hit = False
        for _ in range(20):
            n = 2
            point = random_point(rng, n)
            vectors = [Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
                       for _ in range(d)]
            if not evaluate(expr, point, vectors,
                            random_bindings(rng, n)).is_zero():
                hit = True
                break
        assert hit, f"{expr} evaluated to zero at 20 sampled points"


def test_evaluate_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        evaluate(mu(), Matrix.identity(2), [])


def test_evaluate_requires_bindings():
    with pytest.raises(KeyError):
        evaluate(word((CL_A,)), Matrix.identity(2), [])


def test_evaluate_reference_value():
    # Tr(g^-1 dg) at g = [[1,1],[0,1]], v = [[0,1],[0,0]]: g^-1 v has trace 0;
    # at v = [[1,0],[0,0]]: g^-1 v = [[1,0],[0,0]] minus [[0,... hand value 1
    g = Matrix.from_rows([[1, 1], [0, 1]])
    v = Matrix.from_rows([[1, 0], [0, 0]])
    got = evaluate(mu().trace(), g, [v])
    assert got.parts == {0: Fraction(1)}


# -- canonical fast paths, int-first coefficients, no kept state -------------


def _reference_word_key(letters):
    """The canonical letter order spelled out: constants by (side, label),
    then dg, g, g^-1."""
    rank = {"C": 0, "DG": 1, "G": 2, "GINV": 3}
    return tuple((rank[l[0]], l[1], l[2]) if l[0] == "C"
                 else (rank[l[0]], "", "") for l in letters)


def test_letter_tuples_order_as_the_canonical_key():
    rng = random.Random(2718)
    alphabet = ALPHABET + [DG, C("L", "ab"), C("R", "0")]
    words = [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
             for _ in range(400)]
    assert sorted(words) == sorted(words, key=_reference_word_key)
    e = random_expression(rng, max_degree=2)
    keys = [(t.pi, _reference_word_key(t.letters)) for t in e.terms]
    assert keys == sorted(keys)


def _raw_product(a, b):
    return FormExpression("matrix", [
        Term(s.coeff * t.coeff, s.pi + t.pi, s.letters + t.letters)
        for s in a.terms for t in b.terms], normalized=True)


def test_canonical_sums_and_products_match_full_normalization():
    rng = random.Random(31337)
    for _ in range(150):
        a = random_expression(rng, kind="matrix", max_degree=2)
        b = random_expression(rng, kind="matrix", max_degree=2)
        product = a * b
        assert product == FormExpression("matrix", _raw_product(a, b).terms)
        assert a + b == FormExpression("matrix", a.terms + b.terms)
        assert (product.trace()
                == FormExpression("trace", _raw_product(a, b).terms))
        ta = random_expression(rng, kind="trace")
        tb = random_expression(rng, kind="trace")
        assert ta - tb == FormExpression(
            "trace", ta.terms + tuple(Term(-t.coeff, t.pi, t.letters)
                                      for t in tb.terms))


def test_product_cancels_across_the_junction_in_cascade():
    left = word((CL_A, G, G)) + word((DG, GINV))
    right = word((GINV, GINV, CR_A)) + word((G, DG))
    assert left * right == (word((CL_A, CR_A)) + word((CL_A, G, G, G, DG))
                            + word((DG, GINV, GINV, GINV, CR_A))
                            + word((DG, DG)))


def test_raw_expressions_are_normalized_in_full_when_combined():
    # terms passed with normalized=True are kept as given, but nothing
    # built from them may take the canonical shortcuts
    pair = FormExpression("matrix", [Term(1, 0, (G, GINV))], normalized=True)
    assert pair * word((CL_A,)) == word((CL_A,))
    assert word((CL_A,)) * pair == word((CL_A,))
    assert pair + word((CL_A,)) == word(()) + word((CL_A,))
    assert (-pair).scale(3) + FormExpression.zero() == word((), -3)
    omega = wzw_form()
    raw = differential(contract(omega, "a"), normalize=False)
    assert raw + FormExpression.zero("trace") == differential(
        contract(omega, "a"))
    assert (-raw) + FormExpression.zero("trace") == -differential(
        contract(omega, "a"))
    by_degree: dict = {}
    for t in raw.terms:
        by_degree.setdefault(t.degree(), []).append(t)
    for terms in by_degree.values():
        part = FormExpression("trace", terms, normalized=True)
        assert part + FormExpression.zero("trace") == differential(
            contract(omega, "a"))


def _assert_int_first(expr):
    for t in expr.terms:
        assert type(t.coeff) is int or t.coeff.denominator != 1, repr(t)


def test_coefficients_are_int_first():
    rng = random.Random(99)
    lam_a, lam_b, omega = lambda_form("a"), lambda_form("b"), wzw_form()
    built = [omega, lam_a, quadratic_residual("a", "b"),
             quadratic_expected_constant("a", "b"), lie_derivative(lam_a, "b"),
             lambda_commutator("a", "b"),
             contract(omega, "a") - differential(lam_a),
             word((CL_A,), Fraction(4, 2)),
             mu().scale(Fraction(6, 3)), omega.scale(12, 1),
             (word((CL_A,), Fraction(1, 2)) + word((CL_A,), Fraction(1, 2)))]
    for _ in range(40):
        a = random_expression(rng, kind="matrix")
        b = random_expression(rng, kind="matrix")
        built += [a, a * b, (a + b).scale(Fraction(3, 2)), (a * b).trace()]
    for expr in built:
        _assert_int_first(expr)
    assert word((CL_A,), Fraction(4, 2)).terms[0].coeff == 2


def test_coefficients_that_are_not_rationals_are_rejected():
    # a float is not read as the binary fraction it stores: 0.1 would be
    # 3602879701896397/36028797018963968
    for bad in (0.1, 0.5, "1/2", 1j, None):
        with pytest.raises(TypeError):
            word((DG,), bad)
        with pytest.raises(TypeError):
            mu().scale(bad)
    # an int subclass is read as the int it is
    coeff = word((DG,), True).terms[0].coeff
    assert type(coeff) is int and coeff == 1


def _module_containers(modules):
    return {(m.__name__, name): len(value)
            for m in modules for name, value in vars(m).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set, tuple, frozenset))}


def _oracle_shaped_raw(rng):
    """Three random words of one form degree, two letters besides the dg
    letters each, kept raw: the shape the benchmark's oracle draws."""
    alphabet = [G, GINV] + [C(side, label) for side in "LR" for label in "ab"]
    degree = rng.randint(1, 3)
    terms = []
    for _ in range(3):
        letters = [DG] * degree
        for _ in range(2):
            letters.insert(rng.randint(0, len(letters)), rng.choice(alphabet))
        terms.append(Term(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                   rng.randint(1, 3)),
                          rng.randint(-1, 1), tuple(letters)))
    return FormExpression(rng.choice(("matrix", "trace")), terms,
                          normalized=True)


def test_normalization_keeps_no_state_between_calls():
    import inspect

    from liegauge import liealg
    from liegauge.wzw import ops, words

    modules = (words, ops, liealg)
    for m in modules:
        for name, value in vars(m).items():
            fns = [value]
            if inspect.isclass(value) and value.__module__ == m.__name__:
                fns = list(vars(value).values())
            for fn in fns:
                fn = getattr(fn, "func", fn)     # cached_property
                assert not hasattr(fn, "cache_info"), (m.__name__, name)

    first = run_identity_suite()
    before = _module_containers(modules)
    rng = random.Random(8080)
    for _ in range(1000):
        raw = _oracle_shaped_raw(rng)
        normal = FormExpression(raw.kind, raw.terms)
        _assert_int_first(normal)
    liealg.structure_constants(liealg.make_classical("sl", 3))
    assert _module_containers(modules) == before
    assert run_identity_suite() == first
