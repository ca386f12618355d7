"""Exact scalar/linear algebra tests.

The elimination code is checked against an independent fraction-free
(Bareiss) elimination oracle for ranks, and against direct substitution for
kernel/inverse results, so no expected value below depends on the
implementation under test.
"""

import math
import random
from fractions import Fraction

import pytest

from liegauge.exact import (
    GaussianRational,
    I,
    Matrix,
    _columns,
    _combination,
    as_scalar,
    joint_kernel,
    rational_from_string,
    scalar_from_json,
)
from reference import conjugate, densify, from_columns, kernel, matvec, triples


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
    assert scalar_from_json("-9/4") == Fraction(-9, 4)
    assert scalar_from_json(["0", "1/3"]) == GaussianRational(0, Fraction(1, 3))
    with pytest.raises(ValueError):
        scalar_from_json({"re": 1})
    # a JSON integer stays an int; a JSON boolean is not a number
    assert type(scalar_from_json(-4)) is int and scalar_from_json(-4) == -4
    for flag in (True, False):
        with pytest.raises(ValueError, match="bad scalar literal"):
            scalar_from_json(flag)


@pytest.mark.parametrize("text", [
    " 3 ", "-0", "0003", "+3", "1/2", "1.5", "\u0663", "--3", "", "1/0"])
def test_rational_from_string_agrees_with_fraction(text):
    # the int fast path and Fraction give the same value, as an int when
    # it is integral, and raise the same exception type otherwise
    try:
        want = Fraction(text.strip())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            rational_from_string(text)
        return
    got = rational_from_string(text)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


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
    assert R.to_lists()[0] == [1, 0]


def test_scale_matches_the_entrywise_products():
    # 0, 1 and -1 int entries take shared products; a Gaussian entry on
    # the real axis is stored as its rational part, so its product with a
    # Gaussian is a Gaussian and with a rational a rational
    entries = [0, 1, -1, 2, Fraction(1, 2), GaussianRational(1, 0),
               GaussianRational(0, 0), GaussianRational(0, -1), -1, 1]
    m = Matrix(2, 5, entries)
    for c in (3, -1, 0, Fraction(-2, 3), Fraction(4, 2), I,
              GaussianRational(Fraction(1, 2), -2)):
        want = [as_scalar(as_scalar(c) * a) for a in entries]
        got = m.scale(c).entries()
        assert list(got) == want
        assert [type(x) for x in got] == [type(x) for x in want]
        for x in got:
            assert_normalized(x)


def test_kernel_vectors_annihilate():
    rng = random.Random(1234)
    for gaussian in (False, True):
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6), gaussian)
            basis = kernel(m)
            assert len(basis) == m.cols - m.rank()  # rank-nullity
            for v in basis:
                assert all(not x for x in matvec(m, v))
            # independence of the kernel basis
            if basis:
                K = from_columns(basis)
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
    assert conjugate(c)[0, 0] == -I


def test_matrix_index_is_bounds_checked():
    flat = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    sparse = Matrix._of_rows(3, [{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}])
    for m in (flat, sparse):
        assert [m[i, j] for i in range(2) for j in range(3)] == \
            [1, 2, 3, 4, 5, 6]
        # a column past either end used to wrap into the flat entries
        for ij in ((0, 3), (0, -1), (1, 3), (2, 0), (-1, 0), (5, 5)):
            with pytest.raises(IndexError):
                m[ij]


def test_joint_kernel_matches_stacked_kernel():
    rng = random.Random(42)
    for _ in range(15):
        dim = rng.randint(2, 5)
        ops = [random_matrix(rng, dim, dim) for _ in range(rng.randint(1, 3))]
        # force a shared kernel vector v half the time: op - (op v) w^T
        # with w . v = 1 maps v to zero
        if rng.random() < 0.5:
            v = [random_fraction(rng) for _ in range(dim)]
            vv = sum(x * x for x in v)
            if vv:
                w = Matrix.from_rows([[x / vv for x in v]])
                ops = [op - from_columns([matvec(op, v)]) * w for op in ops]
        got = [densify(v, dim)
               for v in joint_kernel(dim, [triples(op) for op in ops])]
        stacked = [row for op in ops for row in op.to_lists()]
        # the restriction keeps the basis normalized at the free columns
        # of the stacked matrix, so the vectors themselves agree
        assert got == [tuple(v) for v in ref_kernel(stacked, dim)]
        for v in got:
            for op in ops:
                assert all(not x for x in matvec(op, v))


def test_joint_kernel_sparse_operator():
    # operator as triples: projection onto coordinate 0 and onto coordinate 2
    p0 = [(0, 0, Fraction(1))]
    p2 = [(0, 2, Fraction(1))]
    basis = joint_kernel(3, [p0, p2])
    assert basis == [{1: 1}]
    assert type(basis[0][1]) is int


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


def random_large_rows(rng, nrows, ncols, density, gaussian):
    """A sparse matrix of the given density with dependent rows (each a
    combination of two others), zero columns and zero rows, so that
    elimination meets fill-in, cancellation to zero and rank deficiency."""
    def entry():
        if rng.random() > density:
            return 0
        x = rng.choice((1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)))
        if gaussian and rng.random() < 0.5:
            return GaussianRational(x, rng.choice((1, -2, Fraction(1, 3))))
        return x

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(nrows // 4):
        a, b, t = rng.sample(range(nrows), 3)
        f = rng.choice((1, -2, Fraction(1, 3)))
        g = rng.choice((-1, 3, Fraction(-2, 5)))
        rows[t] = [f * x + g * y for x, y in zip(rows[a], rows[b])]
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    for _ in range(rng.randint(1, 2)):
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows


# (rows, cols, density): ten cases per scalar kind, twenty in all; the
# densest go with the smaller shapes, whose exact entries stay short
LARGE_CASES = ((40, 50, 0.05), (50, 40, 0.1), (40, 40, 0.1), (30, 50, 0.2),
               (12, 45, 0.5), (45, 12, 0.5), (25, 25, 0.35), (36, 20, 0.2),
               (20, 36, 0.35), (8, 50, 0.5))


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_rref_matches_dense_reference(gaussian):
    rng = random.Random(4242 + gaussian)
    cases = [(random_sparse_rows(rng, nrows, ncols, gaussian), ncols)
             for nrows, ncols in ((rng.randint(1, 8), rng.randint(1, 9))
                                  for _ in range(60))]
    cases += [(random_large_rows(rng, nrows, ncols, density, gaussian), ncols)
              for nrows, ncols, density in LARGE_CASES]
    for rows, ncols in cases:
        m = Matrix.from_rows(rows)
        R, pivots = m.rref()
        want_R, want_pivots = ref_rref(rows, ncols)
        assert pivots == want_pivots
        assert R.to_lists() == want_R
        for x in R.entries():
            assert_normalized(x)
        # a reduced form is its own reduced form
        assert R.rref() == (R, pivots)
        assert [list(v) for v in kernel(m)] == ref_kernel(rows, ncols)


def _random_ops(rng, dim, gaussian):
    ops = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            ops.append(triples(Matrix.from_rows(
                random_sparse_rows(rng, dim, dim, gaussian))))
            continue
        op = [(rng.randrange(dim), rng.randrange(dim),
               random_sparse_scalar(rng, gaussian, 1.0))
              for _ in range(rng.randint(0, 2 * dim))]
        if op and rng.random() < 0.3:     # repeated (i, j) entries
            op.append(op[0])
        ops.append(op)
    return ops


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_joint_kernel_matches_dense_reference(gaussian):
    # kernel vectors are zero-free {index: value} dicts of normalized
    # scalars that densify to the dense reference's vectors
    from liegauge.liealg import make_classical

    rng = random.Random(77 + gaussian)
    cases = []
    for trial in range(60):
        dim = rng.randint(1, 7)
        ops = _random_ops(rng, dim, gaussian)
        if trial % 5 == 0:
            ops.insert(0, [])      # the zero operator
        cases.append((dim, ops))
    # restriction sums fractions to the integer -1 in the kernel vector
    cases.append((5, [triples(Matrix.from_rows(
        [[0, Fraction(1, 2), -1, 0, 0], [0, Fraction(-2, 3), -2, -3, 0]]
        + [[0] * 5] * 3)), [(4, 4, 1), (4, 2, 2)]]))
    # the coadjoint derivations of classical algebras on Sym^d, whose
    # joint kernel is the invariant polynomials, scaled so that Fractions
    # or Gaussian rationals occur
    factor = Fraction(1, 3) * (I if gaussian else 1)
    for family, n, degree in (("sl", 2, 4), ("so", 4, 2), ("su", 2, 2),
                              ("gl", 2, 3)):
        alg = make_classical(family, n)
        cases.append((math.comb(alg.dim + degree - 1, degree), [
            [(i, j, factor * x) for i, j, x in op]
            for op in alg.coadjoint_derivations(degree)]))
    for dim, ops in cases:
        got = joint_kernel(dim, ops)
        assert [list(densify(v, dim)) for v in got] == ref_joint_kernel(
            dim, ops)
        for v in got:
            assert_sparse_vector(v, dim)


def assert_sparse_vector(v, dim):
    """v is a `{index: value}` dict of nonzero normalized scalars."""
    assert type(v) is dict
    for i, x in v.items():
        assert type(i) is int and 0 <= i < dim
        assert x
        assert_normalized(x)



# -- a matrix built from flat entries and from sparse rows -------------------


def both_forms(rng, rows, ncols):
    """The matrix of `rows` built from its flat entries and from sparse
    rows, each row dict listing its columns in a shuffled order."""
    dense = Matrix(len(rows), ncols, [x for row in rows for x in row])
    sparse = []
    for row in rows:
        cols = [j for j, x in enumerate(row) if x]
        rng.shuffle(cols)
        sparse.append({j: as_scalar(row[j]) for j in cols})
    return dense, Matrix._of_rows(ncols, sparse)


@pytest.mark.parametrize("gaussian", [False, True])
def test_flat_and_sparse_built_matrices_agree(gaussian):
    rng = random.Random(5150 + gaussian)
    cases = [random_sparse_rows(rng, nrows, ncols, gaussian)
             for nrows, ncols in ((rng.randint(1, 6), rng.randint(1, 6))
                                  for _ in range(40))]
    # full squares, mostly invertible
    cases += [[[random_sparse_scalar(rng, gaussian, 1.0) for _ in range(n)]
               for _ in range(n)] for n in (1, 2, 3, 4) for _ in range(5)]
    shapes = [(len(rows), len(rows[0])) for rows in cases]
    # 0 x n and n x 0
    cases += [[], [], [[]] * 3, [[]]]
    shapes += [(0, 0), (0, 4), (3, 0), (1, 0)]
    inverted = 0
    for rows, (nrows, ncols) in zip(cases, shapes):
        dense, sparse = both_forms(rng, rows, ncols)
        before = [dict(row) for row in sparse.sparse_rows()]
        assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols) == (
            nrows, ncols)
        assert dense == sparse and sparse == dense
        assert hash(dense) == hash(sparse)
        assert dense.entries() == sparse.entries()
        assert dense.sparse_rows() == sparse.sparse_rows() == before
        (R, pivots), (S, spivots) = dense.rref(), sparse.rref()
        assert (R, pivots) == (S, spivots)
        assert R.entries() == S.entries()
        assert R.sparse_rows() == S.sparse_rows()
        assert dense.rank() == sparse.rank() == len(pivots)
        assert kernel(dense) == kernel(sparse)
        if nrows == ncols and len(pivots) == nrows:
            inverse = sparse.inverse()
            assert dense.inverse() == inverse
            assert sparse * inverse == Matrix.identity(nrows)
            inverted += 1
        elif nrows == ncols:
            for m in (dense, sparse):
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
        # elimination works on copies: the sparse-built rows are unchanged
        assert sparse.sparse_rows() == before
    assert inverted >= 15


# -- no float ever enters the exact layer ---------------------------------


def exact_leaves(value):
    """Every scalar inside matrices, nested tuples/lists and the
    `{index: value}` dicts of kernel vectors, whose keys are ints."""
    if isinstance(value, Matrix):
        yield from value.entries()
    elif isinstance(value, dict):
        assert all(type(i) is int for i in value), value
        yield from value.values()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from exact_leaves(item)
    else:
        yield value


def test_exact_results_hold_no_floats():
    from pathlib import Path

    from liegauge.anomaly import anomaly_form, verdict
    from liegauge.liealg import (
        coadjoint_images,
        graded_derivations,
        invariant_polynomial_dimension,
        killing_form,
        make_classical,
        structure_constants,
    )
    from liegauge.lgio import load_embedding, parse_label
    from liegauge.relcoh import (
        _differential_images,
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
        sub = make_classical(*parse_label(k)) if k else None
        pair = cartan_complement(make_classical(*parse_label(g)), sub)
        results += [pair.p_basis, pair.projected_constants,
                    relative_ce_cohomology(pair)]
        c, kd, m = pair.split.structure_constants, pair.k_dim, pair.p_dim
        for q in range(m + 1):
            results += [invariant_wedge_basis(pair, q), graded_derivations(
                coadjoint_images(c[:kd], kd), m, q, alternating=True)]
            results.append(graded_derivations(
                _differential_images(pair), m, q, alternating=True))
    sl2 = make_classical("sl", 2)
    results.append([invariant_polynomial_dimension(sl2, d)
                    for d in range(5)])
    # the exact primitives, on rational and Gaussian algebras
    for fam, n in (("sl", 3), ("so", 4), ("su", 2), ("gl", 2)):
        alg = make_classical(fam, n)
        results += [structure_constants(alg), killing_form(alg),
                    graded_derivations(coadjoint_images(
                        structure_constants(alg), 0), alg.dim, 2,
                        alternating=False)]
    m = Matrix.from_rows([[2, 4, 1], [1, 3, 0], [0, 1, 5]])
    results += [m.inverse(), m.rref()[0], joint_kernel(3, [triples(
        Matrix.from_rows([[3, 1, 2], [6, 2, 4]]))])]
    results.append(joint_kernel(3, [[(0, 0, 2), (0, 1, 3)], triples(m)]))
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


def test_no_exact_value_is_a_gaussian_on_the_real_axis():
    from liegauge.liealg import killing_form, make_classical
    from liegauge.relcoh import cartan_complement

    su2, su3 = make_classical("su", 2), make_classical("su", 3)
    results = []
    for alg in (su2, su3):
        results += [alg.basis, alg.structure_constants, killing_form(alg)]
    results.append(cartan_complement(su3, make_classical("so", 3)).p_basis)
    # a Gaussian matrix whose kernel has real and non-real entries, and a
    # combination of its columns whose second entry I * I - 1 is -2
    m = Matrix.from_rows([[1, I, GaussianRational(2, 0), 0],
                          [I, -1, GaussianRational(0, 2), 3]])
    cols = _columns(triples(m), 4)
    image = _combination([(I, cols[0]), (1, cols[1])])
    assert image == {0: 2 * I, 1: -2}
    results += [joint_kernel(4, [triples(m)]), image, su2.basis[0].trace()]
    results += [scalar_from_json(["1", "0"]), scalar_from_json(["0", "0"]),
                as_scalar(GaussianRational(Fraction(4, 2), 0))]

    leaves = list(exact_leaves(results))
    assert any(type(x) is GaussianRational for x in leaves)
    for x in leaves:
        assert type(x) is not GaussianRational or x.im != 0, repr(x)
        assert_normalized(x)
    assert type(scalar_from_json(["1", "0"])) is int
