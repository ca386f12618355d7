"""Exact scalar/linear algebra tests.

The elimination code is checked against an independent fraction-free
(Bareiss) elimination oracle for ranks, and against direct substitution for
kernel/inverse results, so no expected value below depends on the
implementation under test.
"""

import random
from fractions import Fraction

import pytest

from liegauge.exact import (
    GaussianRational,
    I,
    Matrix,
    as_scalar,
    joint_kernel,
    rational_from_string,
    scalar_from_json,
    scalar_to_json,
)


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination rank (oracle).

    Uses exact integer arithmetic after clearing denominators, with its own
    (partial-pivot by first nonzero) strategy; shares no code with
    Matrix.rref.
    """
    if not rows:
        return 0
    # clear denominators row by row
    m = []
    for row in rows:
        den = 1
        for x in row:
            den = den * Fraction(x).denominator // _gcd(den, Fraction(x).denominator)
        m.append([int(Fraction(x) * den) for x in row])
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a if a > 0 else -a


def random_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_gaussian(rng, span=6):
    return GaussianRational(random_fraction(rng, span), random_fraction(rng, span))


def random_matrix(rng, rows, cols, gaussian=False):
    gen = random_gaussian if gaussian else random_fraction
    return Matrix(rows, cols, [gen(rng) for _ in range(rows * cols)])


# -- scalars ---------------------------------------------------------------


def test_gaussian_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(Fraction(2), Fraction(1, 5))
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-14, 5))
    assert a * b - b * a == GaussianRational(0, 0)
    assert (a / b) * b == a
    assert I * I == -1
    assert a.conjugate().conjugate() == a


def test_field_axioms_random_triples():
    rng = random.Random(20240817)
    for gaussian in (False, True):
        for _ in range(200):
            gen = random_gaussian if gaussian else random_fraction
            x, y, z = gen(rng), gen(rng), gen(rng)
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)
            if y:
                assert (x / y) * y == x


def test_gaussian_interop_with_rationals():
    a = GaussianRational(1, 2)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 2)
    assert 2 * a == GaussianRational(2, 4)
    assert Fraction(1) / I == -I
    # zero-imaginary values hash like their rational part
    assert hash(GaussianRational(Fraction(7, 3), 0)) == hash(Fraction(7, 3))


def test_scalar_parsing_roundtrip():
    assert rational_from_string("-3/7") == Fraction(-3, 7)
    assert rational_from_string("5") == Fraction(5)
    assert scalar_from_json(["1/2", "-2"]) == GaussianRational(Fraction(1, 2), -2)
    for v in (Fraction(-9, 4), GaussianRational(Fraction(0), Fraction(1, 3))):
        assert scalar_from_json(scalar_to_json(v)) == v
    with pytest.raises(ValueError):
        scalar_from_json({"re": 1})
    # a JSON integer stays an int; a JSON boolean is not a number
    assert type(scalar_from_json(-4)) is int and scalar_from_json(-4) == -4
    for flag in (True, False):
        with pytest.raises(ValueError, match="bad scalar literal"):
            scalar_from_json(flag)


# -- elimination against the oracle -----------------------------------------


def test_rank_matches_bareiss_oracle():
    rng = random.Random(99)
    for trial in range(40):
        r = rng.randint(1, 6)
        c = rng.randint(1, 7)
        m = random_matrix(rng, r, c)
        # sprinkle exact dependencies to exercise rank deficiency
        if trial % 3 == 0 and r >= 2:
            rows = m.to_lists()
            rows[-1] = [2 * x for x in rows[0]]
            m = Matrix.from_rows(rows)
        assert m.rank() == bareiss_rank(m.to_lists())


def test_rref_shape_and_rowspace():
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        R, pivots = m.rref()
        # canonical RREF shape
        for r, j in enumerate(pivots):
            assert R[r, j] == 1
            for i in range(R.rows):
                if i != r:
                    assert R[i, j] == 0
        # pivot columns strictly increase
        assert pivots == sorted(pivots)
        # row space is preserved: stacking changes no rank
        stacked = Matrix.from_rows(m.to_lists() + R.to_lists())
        assert stacked.rank() == len(pivots) == m.rank()


def test_rref_pivot_tiebreak_is_first_nonzero():
    # column 0 is zero in row 0, so the pivot must come from row 1 (the
    # first nonzero scanning top to bottom), giving a deterministic swap.
    m = Matrix.from_rows([[0, 2], [3, 1], [6, 1]])
    R, pivots = m.rref()
    assert pivots == [0, 1]
    assert R.row(0) == (Fraction(1), Fraction(0))


def test_kernel_vectors_annihilate():
    rng = random.Random(1234)
    for gaussian in (False, True):
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6), gaussian)
            basis = m.kernel_basis()
            assert len(basis) == m.cols - m.rank()  # rank-nullity
            for v in basis:
                assert all(not x for x in m.matvec(v))
            # independence of the kernel basis
            if basis:
                K = Matrix.from_columns(basis)
                assert K.rank() == len(basis)


def test_inverse():
    rng = random.Random(11)
    found = 0
    while found < 10:
        m = random_matrix(rng, 3, 3)
        if m.rank() < 3:
            continue
        found += 1
        assert m * m.inverse() == Matrix.identity(3)
        assert m.inverse() * m == Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_matrix_ring_ops():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert a.trace() == 5
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    c = Matrix(2, 2, [I, 1 + 0 * I, 0, I])
    assert c.conjugate()[0, 0] == -I


def test_joint_kernel_matches_stacked_kernel():
    rng = random.Random(42)
    for _ in range(15):
        dim = rng.randint(2, 5)
        ops = [random_matrix(rng, dim, dim) for _ in range(rng.randint(1, 3))]
        # force some shared kernel occasionally
        if rng.random() < 0.5:
            v = [random_fraction(rng) for _ in range(dim)]
            ops = [op - Matrix.from_columns([op.matvec(v)]) *
                   Matrix.from_rows([v]).scale(0) for op in ops]  # no-op, keep generic
        got = joint_kernel(dim, ops)
        stacked = Matrix.from_rows(
            [row for op in ops for row in op.to_lists()])
        want = stacked.kernel_basis()
        assert len(got) == len(want)
        # spans agree: ranks of unions match
        if got:
            both = Matrix.from_columns(list(got) + list(want))
            assert both.rank() == len(got)
        for v in got:
            for op in ops:
                assert all(not x for x in op.matvec(v))


def test_joint_kernel_sparse_operator():
    # operator as triples: projection onto coordinate 0 and onto coordinate 2
    p0 = [(0, 0, Fraction(1))]
    p2 = [(0, 2, Fraction(1))]
    basis = joint_kernel(3, [p0, p2])
    assert len(basis) == 1
    assert basis[0] == (Fraction(0), Fraction(1), Fraction(0))


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_gaussian_parts_must_be_exact():
    for bad in (0.1, "1/2", None, 1j):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(1, bad)
    # exact parts are int-first: an integral Fraction becomes an int
    x = GaussianRational(Fraction(6, 3), Fraction(1, 2))
    assert type(x.re) is int and x.re == 2 and x.im == Fraction(1, 2)
    assert type((GaussianRational(3, 1) / GaussianRational(3, 1)).re) is int
    assert repr(GaussianRational(Fraction(4, 2), -1)) == "(2-1i)"


# -- sparse elimination against the dense reference --------------------------
#
# The reference below is the dense Gauss-Jordan elimination and dense
# iterative joint kernel that `Matrix.rref` and `joint_kernel` replaced,
# kept here as an oracle: it works on full lists of lists and shares no
# code with the sparse implementation.


def _ref_div(x, y):
    if isinstance(x, GaussianRational) or isinstance(y, GaussianRational):
        return x / y
    return Fraction(x) / y


def ref_rref(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for j in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][j]
        rows[r] = [_ref_div(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_kernel(rows, ncols):
    R, pivots = ref_rref(rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = 1
        for r, pj in enumerate(pivots):
            v[pj] = -R[r][j]
        basis.append(v)
    return basis


def ref_joint_kernel(dim, ops):
    basis = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
    for op in ops:
        if not basis:
            return []
        if isinstance(op, Matrix):
            dense = op.to_lists()
        else:
            dense = [[0] * dim for _ in range(dim)]
            for i, j, val in op:
                dense[i][j] = dense[i][j] + val
        images = [[sum(dense[i][j] * v[j] for j in range(dim))
                   for i in range(dim)] for v in basis]
        coeffs = ref_kernel([[img[i] for img in images] for i in range(dim)],
                            len(basis))
        basis = [[sum(c * v[i] for c, v in zip(cv, basis))
                  for i in range(dim)] for cv in coeffs]
    return basis


def assert_normalized(x):
    assert type(x) in (int, Fraction, GaussianRational), repr(x)
    parts = (x.re, x.im) if type(x) is GaussianRational else (x,)
    for p in parts:
        assert type(p) is int or (type(p) is Fraction and p.denominator != 1), \
            repr(x)


def random_sparse_scalar(rng, gaussian, density):
    if rng.random() > density:
        return 0
    x = rng.choice((1, -1, 2, -3)) if rng.random() < 0.4 \
        else random_fraction(rng)
    if gaussian and rng.random() < 0.5:
        return GaussianRational(x, random_fraction(rng))
    return x


def random_sparse_rows(rng, nrows, ncols, gaussian):
    density = rng.choice((0.1, 0.25, 0.5))
    rows = [[random_sparse_scalar(rng, gaussian, density)
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.4:          # a zero row
        rows[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.4:          # a zero column
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    if nrows >= 2 and rng.random() < 0.5:     # rank deficiency
        a, b = rng.sample(range(nrows), 2)
        f = rng.choice((2, Fraction(-1, 3)))
        rows[b] = [f * x + y for x, y in zip(rows[a], rows[b])] \
            if rng.random() < 0.5 else [f * x for x in rows[a]]
    return rows


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_rref_matches_dense_reference(gaussian):
    rng = random.Random(4242 + gaussian)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        rows = random_sparse_rows(rng, nrows, ncols, gaussian)
        R, pivots = Matrix.from_rows(rows).rref()
        want_R, want_pivots = ref_rref(rows, ncols)
        assert pivots == want_pivots
        assert R.to_lists() == want_R
        for x in R.entries():
            assert_normalized(x)


def _random_ops(rng, dim, gaussian):
    ops = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            ops.append(Matrix.from_rows(
                random_sparse_rows(rng, dim, dim, gaussian)))
            continue
        triples = [(rng.randrange(dim), rng.randrange(dim),
                    random_sparse_scalar(rng, gaussian, 1.0))
                   for _ in range(rng.randint(0, 2 * dim))]
        if triples and rng.random() < 0.3:     # repeated (i, j) entries
            triples.append(triples[0])
        ops.append(triples)
    return ops


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_joint_kernel_matches_dense_reference(gaussian):
    rng = random.Random(77 + gaussian)
    cases = []
    for trial in range(60):
        dim = rng.randint(1, 7)
        ops = _random_ops(rng, dim, gaussian)
        if trial % 5 == 0:
            ops.insert(0, Matrix.zero(dim, dim))
        cases.append((dim, ops))
    # restriction sums fractions to the integer -1 in the kernel vector
    cases.append((5, [Matrix.from_rows([[0, Fraction(1, 2), -1, 0, 0],
                                        [0, Fraction(-2, 3), -2, -3, 0]]
                                       + [[0] * 5] * 3),
                      [(4, 4, 1), (4, 2, 2)]]))
    for dim, ops in cases:
        got = joint_kernel(dim, ops)
        want = ref_joint_kernel(dim, ops)
        assert [list(v) for v in got] == want
        for v in got:
            assert len(v) == dim
            for x in v:
                assert_normalized(x)


# -- no float ever enters the exact layer ---------------------------------


def exact_leaves(value):
    """Every scalar inside matrices and nested tuples/lists of results."""
    if isinstance(value, Matrix):
        yield from value.entries()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from exact_leaves(item)
    else:
        yield value


def test_exact_results_hold_no_floats():
    from pathlib import Path

    from liegauge.anomaly import anomaly_form, verdict
    from liegauge.liealg import (
        invariant_polynomial_dimension,
        invariant_symmetric_forms,
        killing_form,
        make_classical,
        structure_constants,
    )
    from liegauge.lgio import classical_from_label, load_embedding
    from liegauge.relcoh import (
        cartan_complement,
        invariant_wedge_basis,
        relative_ce_cohomology,
    )

    results = []
    # the README exact commands: anomaly, relcoh, invariants
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for name in ("adjoint_sl3", "left_only_sl3", "left_only_sl2",
                 "block_dup_sl2_in_sl4"):
        emb = load_embedding(fixtures / f"{name}.json")
        report = verdict(emb).report
        results += [report.Q, report.normalization, anomaly_form(emb).Q]
    for g, k in (("sl3", "so3"), ("sl2", "so2"), ("su2", None)):
        pair = cartan_complement(classical_from_label(g),
                                 classical_from_label(k) if k else None)
        results += [pair.p_basis, pair.complement_action,
                    pair.projected_constants, relative_ce_cohomology(pair)]
        results += [invariant_wedge_basis(pair, q)
                    for q in range(pair.p_dim + 1)]
    sl2 = make_classical("sl", 2)
    results.append([invariant_polynomial_dimension(sl2, d)
                    for d in range(5)])
    # the exact primitives, on rational and Gaussian algebras
    for fam, n in (("sl", 3), ("so", 4), ("su", 2), ("gl", 2)):
        alg = make_classical(fam, n)
        results += [structure_constants(alg), killing_form(alg),
                    invariant_symmetric_forms(alg)]
    m = Matrix.from_rows([[2, 4, 1], [1, 3, 0], [0, 1, 5]])
    results += [m.inverse(), m.rref()[0], Matrix.from_rows(
        [[3, 1, 2], [6, 2, 4]]).kernel_basis()]
    results.append(joint_kernel(3, [[(0, 0, 2), (0, 1, 3)], m]))
    results.append(joint_kernel(3, [[(0, 0, 2), (0, 1, 3)]]))

    leaves = list(exact_leaves(results))
    assert any(isinstance(x, Fraction) for x in leaves)
    assert any(isinstance(x, GaussianRational) for x in leaves)
    for x in leaves:
        assert type(x) in (int, Fraction, GaussianRational), repr(x)
        if isinstance(x, GaussianRational):
            assert all(type(p) is int
                       or (type(p) is Fraction and p.denominator != 1)
                       for p in (x.re, x.im)), repr(x)
    # integral rationals are stored as int
    for x in exact_leaves([r for r in results if isinstance(r, Matrix)]):
        assert not (isinstance(x, Fraction) and x.denominator == 1), x
