"""Lie algebra structure tests.

Expected values are frozen from hand computations (sl(2) brackets, Killing
matrices) or produced by independent oracles inside this file (partition
counting for invariant dimensions, trace-form proportionality for Killing
forms).
"""

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from liegauge.exact import GaussianRational, Matrix, joint_kernel
from liegauge.liealg import (
    SYM_CEILING,
    ExpansionSolver,
    MatrixLieAlgebra,
    ad_invariance_failure,
    bracket_entries,
    classical_dimension,
    coadjoint_images,
    graded_derivations,
    invariant_polynomial_dimension,
    killing_form,
    make_classical,
    structure_constants,
    symmetric_power_dimension,
)
from reference import (
    conjugate,
    from_columns,
    matvec,
    trace_form,
    triples,
    verify_antisymmetry,
    verify_jacobi,
    zero_matrix,
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
        assert (b + conjugate(b.transpose())).is_zero()


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
    # column l of ad(e_a) is c[a][l]: ad(h) h = 0, ad(h) e = 2e,
    # ad(h) f = -2f
    c = structure_constants(make_classical("sl", 2))
    assert c[0][0] == (0, 0, 0)
    assert c[0][1] == (0, 2, 0)
    assert c[0][2] == (0, 0, -2)


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
    assert all(not x for x in matvec(B, ident))


def test_killing_is_symmetric_and_ad_invariant():
    for fam, n in [("sl", 3), ("so", 4), ("su", 2)]:
        alg = make_classical(fam, n)
        B = killing_form(alg)
        assert B == B.transpose()
        assert ad_invariance_failure(structure_constants(alg), B) is None


# -- invariant forms and polynomials ------------------------------------------


# An invariant symmetric bilinear form is the polarization of an invariant
# quadratic polynomial, so the forms are counted in degree 2.


def test_invariant_forms_simple_algebras_are_lines():
    for fam, n in [("so", 3), ("su", 2), ("sl", 3)]:
        alg = make_classical(fam, n)
        assert invariant_polynomial_dimension(alg, 2) == 1


def test_invariant_forms_gl2_plane():
    # gl(2) = sl(2) + center as modules: one invariant pairing on each part,
    # no invariant cross pairings, hence exactly two independent forms.
    alg = make_classical("gl", 2)
    assert invariant_polynomial_dimension(alg, 2) == 2


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
    # Sym^5 of sl4's dual has 11628 monomials, over the ceiling; nothing
    # is built
    sl4 = make_classical("sl", 4)
    with pytest.raises(ValueError, match="11628 exceeds ceiling 5000"):
        invariant_polynomial_dimension(sl4, 5)
    assert "structure_constants" not in vars(sl4)


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """[x, y] = xy - yx through the sparse path the structure layer runs."""
    n = x.rows
    return Matrix(n, n, bracket_entries(x.sparse_rows(), y.sparse_rows(), n))


def test_bracket_antisymmetry_matrix_level():
    sl3 = make_classical("sl", 3)
    for x in sl3.basis[:4]:
        for y in sl3.basis[:4]:
            assert (bracket(x, y) + bracket(y, x)).is_zero()


def _random_entry(rng, gaussian):
    if rng.random() < 0.5:
        return 0
    x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if gaussian and rng.random() < 0.5:
        return GaussianRational(x, Fraction(rng.randint(-3, 3), 2))
    return x


def _assert_int_first(x):
    parts = (x.re, x.im) if type(x) is GaussianRational else (x,)
    for p in parts:
        assert type(p) is int or p.denominator != 1, repr(x)


@pytest.mark.parametrize("gaussian", [False, True])
def test_bracket_matches_product_difference(gaussian):
    # second route: the commutator through two dense matrix products
    rng = random.Random(4242 + gaussian)
    for _ in range(40):
        n = rng.randint(1, 4)
        x = Matrix(n, n, [_random_entry(rng, gaussian) for _ in range(n * n)])
        y = Matrix(n, n, [_random_entry(rng, gaussian) for _ in range(n * n)])
        got = bracket(x, y)
        assert got == x * y - y * x
        for v in got.entries():
            _assert_int_first(v)


def test_bracket_sums_fractions_to_an_int():
    # [x, y][0, 2] = 1/2 + 1/2, and y x = 0
    half = Fraction(1, 2)
    x = Matrix.from_rows([[0, half, half], [0, 0, 0], [0, 0, 0]])
    y = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 1]])
    got = bracket(x, y)
    assert got[0, 2] == 1 and type(got[0, 2]) is int


def _brute_force_invariance_failure(c, q):
    dim = len(c)
    for x in range(dim):
        for a in range(dim):
            for b in range(dim):
                s = sum(c[x][a][k] * q[k, b] + c[x][b][k] * q[a, k]
                        for k in range(dim))
                if s:
                    return (x, a, b)
    return None


@pytest.mark.parametrize("fam, n", [("sl", 2), ("sl", 3), ("so", 4),
                                    ("su", 2), ("gl", 2)])
def test_ad_invariance_failure_matches_brute_force(fam, n):
    alg = make_classical(fam, n)
    c = structure_constants(alg)
    q = killing_form(alg)
    assert ad_invariance_failure(c, q) is None
    rng = random.Random(f"{fam}{n}")
    dim = alg.dim
    failures = []
    for _ in range(12):
        entries = list(q.entries())
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randrange(dim), rng.randrange(dim)
            bump = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            entries[a * dim + b] += bump
            if a != b and rng.random() < 0.5:
                entries[b * dim + a] += bump
        perturbed = Matrix(dim, dim, entries)
        want = _brute_force_invariance_failure(c, perturbed)
        failures.append(want)
        assert ad_invariance_failure(c, perturbed) == want
    # the perturbations break invariance at more than one first triple
    assert len(set(failures) - {None}) > 1


def test_classical_dimension_closed_forms():
    for fam in ("sl", "so", "su", "gl"):
        for n in range(6):
            try:
                want = make_classical(fam, n).dim
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    classical_dimension(fam, n)
                continue
            assert classical_dimension(fam, n) == want
    with pytest.raises(ValueError, match="unknown family"):
        classical_dimension("sp", 4)


# -- seeded bases: int-first constants, checked by a second route ------------


def _seeded_basis(family, n, seed):
    """The classical algebra on a new basis: every element conjugated by
    one signed permutation and rescaled by a small nonzero rational."""
    rng = random.Random(seed)
    alg = make_classical(family, n)
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [0] * (n * n)
    for i, j in enumerate(perm):
        entries[i * n + j] = rng.choice((1, -1))
    P = Matrix(n, n, entries)
    scales = [Fraction(s) for s in (1, -1, 2, -2, 3, -3)] + [
        Fraction(1, s) for s in (2, -2, 3, -3)]
    basis = tuple((P * b * P.transpose()).scale(rng.choice(scales))
                  for b in alg.basis)
    return MatrixLieAlgebra(alg.name, n, basis, alg.scalar)


SEEDED = [(fam, n, seed) for fam, n in (("sl", 3), ("so", 4), ("su", 3),
                                        ("gl", 3))
          for seed in (11, 12, 13)]


@pytest.mark.parametrize("fam, n, seed", SEEDED)
def test_structure_constants_are_int_first_on_rescaled_bases(fam, n, seed):
    # rescaled bases give Fraction sums that cancel to integers; su(n) is
    # a real algebra, so its constants are rationals too
    c = structure_constants(_seeded_basis(fam, n, seed))
    for row in c:
        for coeffs in row:
            for x in coeffs:
                assert type(x) is int or x.denominator != 1, repr(x)


@pytest.mark.parametrize("fam, n, seed", SEEDED)
def test_structure_constants_match_a_solved_commutator(fam, n, seed):
    # second route: the commutator through two dense products, solved
    # against the flattened basis by one row reduction per pair
    alg = _seeded_basis(fam, n, seed)
    c = structure_constants(alg)
    dim = alg.dim
    for a in range(dim):
        for b in range(dim):
            x, y = alg.basis[a], alg.basis[b]
            z = x * y - y * x
            R, pivots = from_columns(
                [e.entries() for e in alg.basis] + [z.entries()]).rref()
            assert pivots == list(range(dim))
            assert c[a][b] == tuple(R[i, dim] for i in range(dim))


def test_expansion_accepts_flat_entries_and_keeps_its_errors():
    sl2 = make_classical("sl", 2)
    solver = ExpansionSolver(sl2.basis)
    m = Matrix.from_rows([[3, Fraction(1, 2)], [-1, -3]])
    assert solver.expand(m) == solver.expand(list(m.entries())) == (
        3, Fraction(1, 2), -1)
    with pytest.raises(ValueError, match="span"):
        solver.expand(Matrix.identity(2))
    empty = ExpansionSolver(())
    assert empty.expand(zero_matrix(2, 2)) == ()
    with pytest.raises(ValueError, match="empty basis"):
        empty.expand(Matrix.identity(2))


# -- Sym^d derivations: the shared builder against a per-monomial reference --


def ref_coadjoint_derivation(c, a, monomials, index):
    """e_a acting as a derivation on Sym^d of the dual, built monomial by
    monomial: xi_v maps to -sum_j c[a][j][v] xi_j, extended by the Leibniz
    rule, each target monomial found by sorting.  Unscaled triples."""
    ca = c[a]
    dim = len(c)
    images = [[(j, -ca[j][v]) for j in range(dim) if ca[j][v]]
              for v in range(dim)]
    triples = []
    for col, mono in enumerate(monomials):
        seen = {}
        for v in mono:
            seen[v] = seen.get(v, 0) + 1
        for v, mult in seen.items():
            pos = mono.index(v)
            rest = mono[:pos] + mono[pos + 1:]
            for j, coeff in images[v]:
                target = tuple(sorted(rest + (j,)))
                triples.append((index[target], col, mult * coeff))
    return triples


def _ref_ops(alg, degree):
    c = structure_constants(alg)
    monomials = list(combinations_with_replacement(range(alg.dim), degree))
    index = {m: i for i, m in enumerate(monomials)}
    return monomials, [ref_coadjoint_derivation(c, a, monomials, index)
                       for a in range(alg.dim)]


def sym_ops(alg, degree):
    """The builder's coadjoint derivations on Sym^degree of the dual."""
    return graded_derivations(coadjoint_images(structure_constants(alg), 0),
                              alg.dim, degree, alternating=False)


def _summed(triples):
    out = {}
    for i, j, v in triples:
        out[i, j] = out.get((i, j), 0) + v
    return {key: v for key, v in out.items() if v}


DERIVATION_ALGEBRAS = [("sl", 2), ("sl", 3), ("sl", 4), ("so", 3), ("so", 4),
                       ("so", 5), ("su", 2), ("su", 3), ("gl", 2), ("gl", 3)]


@pytest.mark.parametrize("fam, n", DERIVATION_ALGEBRAS)
def test_derivations_match_the_per_monomial_reference(fam, n):
    for alg in (make_classical(fam, n), _seeded_basis(fam, n, 20 + n)):
        for degree in range(1, 5):
            if symmetric_power_dimension(alg.dim, degree) > SYM_CEILING:
                continue
            _, refs = _ref_ops(alg, degree)
            assert ([_summed(op) for op in sym_ops(alg, degree)]
                    == [_summed(r) for r in refs])


def test_gaussian_derivations_match_the_per_monomial_reference():
    # i*h, e, f spans sl(2) over Q(i) with Gaussian structure constants
    h, e, f = make_classical("sl", 2).basis
    alg = MatrixLieAlgebra("isl(2)", 2, (h.scale(GaussianRational(0, 1)),
                                         e, f), "gaussian")
    assert any(type(x) is GaussianRational for row in structure_constants(alg)
               for coeffs in row for x in coeffs)
    for degree in (1, 2, 3):
        assert [_summed(op) for op in sym_ops(alg, degree)] == [
            _summed(ref) for ref in _ref_ops(alg, degree)[1]]
    assert invariant_polynomial_dimension(alg, 2) == 1


def test_joint_kernel_ignores_operator_scale():
    # c * M has the reduced row echelon form of M, so scaling any operator
    # by a nonzero factor leaves every kernel vector as it is; this is what
    # lets a derivation be scaled to int entries
    for fam, n, degree in (("sl", 3, 3), ("so", 4, 2), ("gl", 2, 3),
                           ("su", 2, 4)):
        alg = _seeded_basis(fam, n, 5)
        monomials, ref = _ref_ops(alg, degree)
        dim = len(monomials)
        want = joint_kernel(dim, ref)
        assert want
        for factor in (6, Fraction(-3, 2)):
            scaled = [[(i, j, factor * v) for i, j, v in op] for op in ref]
            assert joint_kernel(dim, scaled) == want
            # the same operators with repeated entries summed, through
            # dense matrices
            summed = []
            for op in scaled:
                entries = [0] * (dim * dim)
                for i, j, v in op:
                    entries[i * dim + j] += v
                summed.append(triples(Matrix(dim, dim, entries)))
            assert joint_kernel(dim, summed) == want
        assert joint_kernel(dim, sym_ops(alg, degree)) == want

