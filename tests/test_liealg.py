"""Lie algebra structure tests.

Expected values are frozen from hand computations (sl(2) brackets, Killing
matrices) or produced by independent oracles inside this file (partition
counting for invariant dimensions, trace-form proportionality for Killing
forms).
"""

from fractions import Fraction

import pytest

from liegauge.exact import GaussianRational, Matrix
from liegauge.liealg import (
    ExpansionSolver,
    MatrixLieAlgebra,
    adjoint_matrix,
    bracket,
    invariant_polynomial_dimension,
    invariant_symmetric_forms,
    is_ad_invariant,
    killing_form,
    make_classical,
    structure_constants,
    trace_form,
    verify_antisymmetry,
    verify_jacobi,
)


def polynomial_ring_dimension(generator_degrees, d):
    """Number of monomials of total degree d in free generators of the given
    degrees.  Independent counting oracle for invariant dimensions."""
    if d == 0:
        return 1
    if not generator_degrees:
        return 0
    head, tail = generator_degrees[0], generator_degrees[1:]
    total = 0
    k = 0
    while k * head <= d:
        total += polynomial_ring_dimension(tail, d - k * head)
        k += 1
    return total


# -- classical bases ---------------------------------------------------------


def test_classical_dimensions():
    assert make_classical("sl", 2).dim == 3
    assert make_classical("sl", 4).dim == 15
    assert make_classical("so", 3).dim == 3
    assert make_classical("so", 5).dim == 10
    assert make_classical("su", 3).dim == 8
    assert make_classical("gl", 3).dim == 9


def test_classical_bases_are_independent():
    for fam, n in [("sl", 3), ("so", 4), ("su", 2), ("gl", 2)]:
        ExpansionSolver(make_classical(fam, n).basis)  # raises if dependent


def test_sl2_basis_is_h_e_f():
    sl2 = make_classical("sl", 2)
    h, e, f = sl2.basis
    assert h == Matrix.from_rows([[1, 0], [0, -1]])
    assert e == Matrix.from_rows([[0, 1], [0, 0]])
    assert f == Matrix.from_rows([[0, 0], [1, 0]])


def test_classical_traces_and_hermiticity():
    for b in make_classical("sl", 3).basis:
        assert b.trace() == 0
    for b in make_classical("so", 4).basis:
        assert (b + b.transpose()).is_zero()
    for b in make_classical("su", 3).basis:
        assert b.trace() == 0
        assert (b + b.transpose().conjugate()).is_zero()


def test_invalid_family_and_size():
    with pytest.raises(ValueError):
        make_classical("sp", 2)
    with pytest.raises(ValueError):
        make_classical("sl", 1)


# -- structure constants ------------------------------------------------------


def test_sl2_structure_constants_hand_values():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h  (basis order h, e, f)
    c = structure_constants(make_classical("sl", 2))
    assert c[0][1] == (0, 2, 0)
    assert c[0][2] == (0, 0, -2)
    assert c[1][2] == (1, 0, 0)
    assert c[1][0] == (0, -2, 0)


def test_structure_constants_all_families():
    algebras = [make_classical(f, n)
                for f, n in [("sl", 2), ("sl", 3), ("sl", 4),
                             ("so", 2), ("so", 3), ("so", 4), ("so", 5),
                             ("su", 2), ("su", 3),
                             ("gl", 1), ("gl", 2), ("gl", 3)]]
    for alg in algebras:
        c = structure_constants(alg)
        assert verify_antisymmetry(c)
        assert verify_jacobi(c)


def test_su_structure_constants_are_real():
    c = structure_constants(make_classical("su", 3))
    for row in c:
        for coeffs in row:
            for x in coeffs:
                if isinstance(x, GaussianRational):
                    assert x.im == 0


def test_not_closed_basis_raises_with_pair():
    n = 2
    e01 = Matrix.from_rows([[0, 1], [0, 0]])
    e10 = Matrix.from_rows([[0, 0], [1, 0]])
    alg = MatrixLieAlgebra("bad", n, (e01, e10))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        structure_constants(alg)


def test_adjoint_matrix_columns():
    sl2 = make_classical("sl", 2)
    c = structure_constants(sl2)
    ad_h = adjoint_matrix(c, 0)
    # ad(h) e = 2e, ad(h) f = -2f, ad(h) h = 0
    assert ad_h.column(0) == (0, 0, 0)
    assert ad_h.column(1) == (0, 2, 0)
    assert ad_h.column(2) == (0, 0, -2)


# -- Killing form -------------------------------------------------------------


def test_killing_sl2_frozen():
    B = killing_form(make_classical("sl", 2))
    assert B == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_killing_sl_n_is_2n_times_trace_form(n):
    alg = make_classical("sl", n)
    assert killing_form(alg) == trace_form(alg).scale(2 * n)


@pytest.mark.parametrize("n", [2, 3])
def test_killing_su_n_is_2n_times_trace_form(n):
    # su(n) sits inside sl(n, C) as a real form, so the same multiple holds.
    alg = make_classical("su", n)
    assert killing_form(alg) == trace_form(alg).scale(2 * n)


def test_killing_su2_negative_definite_diagonal():
    # hand value: trace form of the (i*h, e-f, i(e+f)) basis is -2*Id
    assert killing_form(make_classical("su", 2)) == Matrix.identity(3).scale(-8)


def test_killing_so3_equals_trace_form():
    # ad of so(3) basis elements has eigenvalues {0, +-i}, so
    # tr(ad X ad X) = -2 = tr(X X) on the standard basis (hand computation).
    alg = make_classical("so", 3)
    assert killing_form(alg) == trace_form(alg)


@pytest.mark.parametrize("n", [4, 5])
def test_killing_so_n_proportional_to_trace_form(n):
    alg = make_classical("so", n)
    B, T = killing_form(alg), trace_form(alg)
    assert T[0, 0] != 0
    factor = Fraction(B[0, 0], T[0, 0])
    assert B == T.scale(factor)
    assert B.rank() == alg.dim  # semisimple: nondegenerate


def test_killing_gl_degenerate():
    assert killing_form(make_classical("gl", 1)).is_zero()
    alg = make_classical("gl", 2)
    B = killing_form(alg)
    assert B.rank() == 3
    # the identity matrix's coordinate vector spans the radical
    solver = ExpansionSolver(alg.basis)
    ident = solver.expand(Matrix.identity(2))
    assert all(not x for x in B.matvec(ident))


def test_killing_is_symmetric_and_ad_invariant():
    for fam, n in [("sl", 3), ("so", 4), ("su", 2)]:
        alg = make_classical(fam, n)
        c = structure_constants(alg)
        B = killing_form(alg, c)
        assert B == B.transpose()
        assert is_ad_invariant(c, B)


# -- invariant forms and polynomials ------------------------------------------


def test_invariant_forms_sl2_span_killing():
    forms = invariant_symmetric_forms(make_classical("sl", 2))
    assert len(forms) == 1
    q = forms[0]
    B = killing_form(make_classical("sl", 2))
    assert q[0, 0] != 0
    assert B == q.scale(Fraction(B[0, 0], q[0, 0]))


def test_invariant_forms_simple_algebras_are_lines():
    for fam, n in [("so", 3), ("su", 2), ("sl", 3)]:
        assert len(invariant_symmetric_forms(make_classical(fam, n))) == 1


def test_invariant_forms_gl2_plane():
    # gl(2) = sl(2) + center as modules: one invariant pairing on each part,
    # no invariant cross pairings, hence exactly two independent forms.
    forms = invariant_symmetric_forms(make_classical("gl", 2))
    assert len(forms) == 2
    c = structure_constants(make_classical("gl", 2))
    for q in forms:
        assert is_ad_invariant(c, q)


@pytest.mark.parametrize("n,degrees", [(2, (2,)), (3, (2, 3))])
def test_invariant_polynomials_match_free_generator_count(n, degrees):
    alg = make_classical("sl", n)
    for d in range(5):
        expected = polynomial_ring_dimension(list(degrees), d)
        assert invariant_polynomial_dimension(alg, d) == expected


def test_invariant_polynomials_gl1_all_one():
    alg = make_classical("gl", 1)
    for d in range(6):
        assert invariant_polynomial_dimension(alg, d) == 1


def test_invariant_polynomial_resource_guard():
    with pytest.raises(ValueError, match="ceiling"):
        invariant_polynomial_dimension(make_classical("sl", 3), 4, ceiling=10)


def test_bracket_antisymmetry_matrix_level():
    sl3 = make_classical("sl", 3)
    for x in sl3.basis[:4]:
        for y in sl3.basis[:4]:
            assert (bracket(x, y) + bracket(y, x)).is_zero()
