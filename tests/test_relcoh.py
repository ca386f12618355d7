"""Reductive pair construction, invariant wedges, and Betti numbers.

The sparse derivation action used by the module is validated against an
independent dense implementation written here with its own sign handling
(explicit bubble sort of wedge words instead of position counting).  The
sparse differential is validated entry by entry against the dense
reference it replaced, and the Betti numbers against closed forms.
"""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest

from liegauge.exact import Matrix
from liegauge.lgio import parse_label
from liegauge.exact import GaussianRational
from liegauge.liealg import (
    MatrixLieAlgebra,
    coadjoint_images,
    graded_derivations,
    make_classical,
    structure_constants,
)
from liegauge.relcoh import (
    cartan_complement,
    invariant_wedge_basis,
    invariant_wedge_dimension,
    is_symmetric_pair,
    relative_ce_cohomology,
)
from reference import from_columns, matvec, zero_matrix

SL2 = make_classical("sl", 2)
SL3 = make_classical("sl", 3)
SO2 = make_classical("so", 2)
SO3 = make_classical("so", 3)


# -- complement construction ----------------------------------------------------


def test_sl2_so2_complement_frozen():
    pair = cartan_complement(SL2, SO2)
    h, e, f = SL2.basis
    assert pair.p_basis == (h, e + f)
    assert pair.p_dim == 2 and pair.k_dim == 1


def test_sl3_so3_complement_dimension():
    pair = cartan_complement(SL3, SO3)
    assert pair.p_dim == 5
    # symmetric traceless matrices
    for p in pair.p_basis:
        assert p == p.transpose()


def test_plain_ce_complement_is_everything():
    pair = cartan_complement(SL2, None)
    assert pair.p_basis == SL2.basis
    assert pair.k is None


def test_complement_rejects_non_subalgebra():
    h, e, f = SL2.basis
    ef = MatrixLieAlgebra("ef", 2, (e, f))
    with pytest.raises(ValueError, match="not a subalgebra"):
        cartan_complement(SL2, ef)
    # [h1, h2] = 0 closes, [h1, s] is antisymmetric: the first failing
    # pair in lexicographic order is named
    h1, h2 = SL3.basis[:2]
    s = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError) as info:
        cartan_complement(SL3, MatrixLieAlgebra("hhs", 3, (h1, h2, s)))
    assert str(info.value) == (
        "not a subalgebra: hhs: bracket of basis pair (0, 2) is outside "
        "the span; not a Lie subalgebra")


def test_complement_rejects_degenerate_restriction():
    h, e, f = SL2.basis
    borel = MatrixLieAlgebra("borel", 2, (h, e))
    with pytest.raises(ValueError, match="radical dimension 1"):
        cartan_complement(SL2, borel)
    nil = MatrixLieAlgebra("nil", 2, (e,))
    with pytest.raises(ValueError, match="radical dimension 1"):
        cartan_complement(SL2, nil)


def test_complement_rejects_wrong_size_and_outside_span():
    with pytest.raises(ValueError, match="ambient size"):
        cartan_complement(SL3, SO2)
    proj = MatrixLieAlgebra("proj", 2, (Matrix.from_rows([[1, 0], [0, 0]]),))
    with pytest.raises(ValueError, match="span"):
        cartan_complement(SL2, proj)


def test_complement_rejects_a_compact_form_in_a_real_algebra():
    # the solver expands over Q(i), where i*h has the coordinate i in sl2;
    # a coordinate off the real axis is outside the real span of g
    su2 = make_classical("su", 2)
    for g in (SL2, make_classical("gl", 2)):
        with pytest.raises(ValueError, match="does not lie in the span"):
            cartan_complement(g, su2)
    ih = MatrixLieAlgebra("ih", 2, (su2.basis[0],))
    with pytest.raises(ValueError, match="does not lie in the span"):
        cartan_complement(SL2, ih)
    # a real subalgebra of a Gaussian algebra keeps its rational coordinates
    assert cartan_complement(su2, SO2).p_dim == 2


def test_classical_algebras_and_pairs_are_built_afresh(solver_builds):
    # the library layer caches nothing: only the command layer shares
    # classical structure data, so hand-built algebras never pile up
    assert make_classical("sl", 2) is not make_classical("sl", 2)
    for _ in range(2):
        # equal algebras as new objects: ambient and split solvers each time
        solver_builds.clear()
        cartan_complement(MatrixLieAlgebra("g", 3, SL3.basis),
                          MatrixLieAlgebra("k", 3, SO3.basis))
        assert solver_builds == [8, 8]
    # the same objects: the ambient solver is memoized on g, the split is
    # rebuilt with the pair
    g, k = MatrixLieAlgebra("g", 3, SL3.basis), MatrixLieAlgebra(
        "k", 3, SO3.basis)
    first = cartan_complement(g, k)
    solver_builds.clear()
    assert cartan_complement(g, k) is not first
    assert solver_builds == [8]


def test_symmetric_pair_detection():
    assert is_symmetric_pair(cartan_complement(SL2, SO2))
    assert is_symmetric_pair(cartan_complement(SL3, SO3))
    assert not is_symmetric_pair(cartan_complement(SL2, None))


def test_each_bracket_is_expanded_once(monkeypatch):
    # sl3/so3 with the ambient structure constants warm: 3 expansions place
    # so3 in sl3, 3 give so3's own structure constants (its closure check),
    # 3 * 5 give the action on the complement together with its stability
    # check, and C(5, 2) = 10 the projected complement brackets
    from liegauge.liealg import ExpansionSolver
    g, k = make_classical("sl", 3), make_classical("so", 3)
    g.structure_constants
    calls = []
    expand = ExpansionSolver.expand

    def counting(self, m):
        calls.append(m)
        return expand(self, m)

    monkeypatch.setattr(ExpansionSolver, "expand", counting)
    pair = cartan_complement(g, k)
    assert relative_ce_cohomology(pair) == (1, 0, 0, 0, 0, 1)
    assert len(calls) == 3 + 3 + 3 * 5 + 10


@pytest.mark.parametrize("g, k, solvers", [
    (("sl", 3), ("so", 3), 2), (("sl", 2), ("so", 2), 2),
    (("su", 3), ("so", 3), 2), (("sl", 3), None, 1)])
def test_expansion_solvers_per_pair(solver_builds, g, k, solvers):
    # one for the ambient basis and one for the split (k, p) basis, whose
    # structure constants hold every bracket of the pair; the plain
    # complex reads the ambient table itself
    pair = cartan_complement(make_classical(*g),
                             make_classical(*k) if k else None)
    relative_ce_cohomology(pair)
    assert len(solver_builds) == solvers


# -- independent wedge-action oracle ---------------------------------------------


def dense_wedge_action(R, m, q):
    """Dense matrix of the dual derivation action on q-wedges, built by
    explicit wedge-word sorting; independent of the module's sparse path."""
    subsets = list(itertools.combinations(range(m), q))
    index_of = {s: i for i, s in enumerate(subsets)}
    n = len(subsets)
    col_entries = []
    for S in subsets:
        accum = {}
        for t in range(q):
            for l in range(m):
                coeff = -R[S[t], l]
                if coeff == 0:
                    continue
                word = list(S)
                word[t] = l
                if len(set(word)) < q:
                    continue
                sign = 1
                w = list(word)
                for a in range(len(w)):          # bubble sort with sign
                    for b in range(len(w) - 1 - a):
                        if w[b] > w[b + 1]:
                            w[b], w[b + 1] = w[b + 1], w[b]
                            sign = -sign
                key = index_of[tuple(w)]
                accum[key] = accum.get(key, Fraction(0)) + coeff * sign
        col_entries.append(accum)
    flat = [Fraction(0)] * (n * n)
    for col, accum in enumerate(col_entries):
        for row, v in accum.items():
            flat[row * n + col] = v
    return Matrix(n, n, flat)


def complement_matrices(pair):
    """One matrix R per subalgebra basis element, read from the split
    table: bracket(kappa, p_i) = sum_j R[j, i] p_j."""
    c, kd = pair.split.structure_constants, pair.k_dim
    return [from_columns([col[kd:] for col in c[a][kd:]])
            for a in range(kd)]


def dense(triples, rows, cols):
    """A (row, col, value) triple list, repeats summed, as a Matrix."""
    flat = [0] * (rows * cols)
    for i, j, v in triples:
        flat[i * cols + j] += v
    return Matrix(rows, cols, flat)


def wedge_ops(pair, q):
    """The builder's subalgebra derivations on the q-wedge of the dual
    complement."""
    c, kd = pair.split.structure_constants, pair.k_dim
    return graded_derivations(coadjoint_images(c[:kd], kd), pair.p_dim, q,
                              alternating=True)


def module_action_matrices(pair, q):
    """Recover the module's sparse action as dense matrices."""
    n = math.comb(pair.p_dim, q)
    return [dense(op, n, n) for op in wedge_ops(pair, q)]


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sparse_action_matches_dense_oracle(q):
    pair = cartan_complement(SL3, SO3)
    dense_ops = [dense_wedge_action(R, pair.p_dim, q)
                 for R in complement_matrices(pair)]
    assert module_action_matrices(pair, q) == dense_ops


def isl2():
    # i*h, e, f spans sl(2) over Q(i) with Gaussian structure constants
    h, e, f = SL2.basis
    return MatrixLieAlgebra("isl(2)", 2, (h.scale(GaussianRational(0, 1)),
                                         e, f), "gaussian")


@pytest.mark.parametrize("case", ["wedge2_sl3_so3", "sym2_sl3", "sym2_isl2"])
def test_builder_operators_are_a_representation(case):
    # [D_a, D_b] = sum_k c_ab^k D_k: the derivations reproduce the
    # brackets of the acting algebra, which a wrong Leibniz sign or
    # multiplicity breaks
    if case.startswith("wedge2"):
        pair = cartan_complement(SL3, SO3)
        c = structure_constants(SO3)
        n = math.comb(pair.p_dim, 2)
        ops = wedge_ops(pair, 2)
    else:
        alg = SL3 if case.endswith("sl3") else isl2()
        c = structure_constants(alg)
        n = math.comb(alg.dim + 1, 2)
        ops = graded_derivations(coadjoint_images(c, 0), alg.dim, 2,
                                 alternating=False)
    D = [dense(op, n, n) for op in ops]
    assert any(not d.is_zero() for d in D)
    for a in range(len(D)):
        for b in range(a + 1, len(D)):
            rhs = zero_matrix(n, n)
            for k, coeff in enumerate(c[a][b]):
                if coeff:
                    rhs = rhs + D[k].scale(coeff)
            assert D[a] * D[b] - D[b] * D[a] == rhs


# -- invariant wedges -------------------------------------------------------------


def test_sl2_so2_invariant_dimensions():
    pair = cartan_complement(SL2, SO2)
    assert [invariant_wedge_dimension(pair, q) for q in range(3)] == [1, 0, 1]


def test_sl3_so3_invariant_dimensions():
    pair = cartan_complement(SL3, SO3)
    dims = [invariant_wedge_dimension(pair, q) for q in range(6)]
    assert dims == [1, 0, 0, 0, 0, 1]


def test_invariant_dimension_duality():
    for g, k in ((SL2, SO2), (SL3, SO3)):
        pair = cartan_complement(g, k)
        m = pair.p_dim
        for q in range(m + 1):
            assert (invariant_wedge_dimension(pair, q)
                    == invariant_wedge_dimension(pair, m - q))


def test_wedge_zero_always_invariant():
    for g, k in ((SL2, SO2), (SL3, SO3), (SL2, None)):
        pair = cartan_complement(g, k)
        assert invariant_wedge_dimension(pair, 0) == 1


def test_wedge_bounds_and_ceiling():
    pair = cartan_complement(SL3, SO3)
    with pytest.raises(ValueError, match="outside"):
        invariant_wedge_dimension(pair, 6)
    # C(24, 5) = 42504 subsets is over the ceiling; nothing is built
    sl5 = make_classical("sl", 5)
    plain = cartan_complement(sl5, None)
    with pytest.raises(ValueError, match="needs 42504 .* ceiling 20000"):
        invariant_wedge_dimension(plain, 5)
    assert "structure_constants" not in vars(sl5)


def test_invariant_vectors_are_actually_invariant():
    pair = cartan_complement(SL3, SO3)
    vectors = invariant_wedge_basis(pair, 5)
    mats = module_action_matrices(pair, 5)
    for v in vectors:
        for mat in mats:
            assert not any(matvec(mat, v))


# -- Betti numbers ----------------------------------------------------------------


def test_betti_sl2_so2():
    pair = cartan_complement(SL2, SO2)
    assert relative_ce_cohomology(pair) == (1, 0, 1)


def test_betti_sl3_so3():
    pair = cartan_complement(SL3, SO3)
    assert relative_ce_cohomology(pair) == (1, 0, 0, 0, 0, 1)


def test_betti_sl4_so4():
    # (1 + t^4)(1 + t^5): at even n there is one more generator, in degree
    # n, which the odd-n closed form (1 + t^5) does not have
    pair = cartan_complement(make_classical("sl", 4), make_classical("so", 4))
    assert relative_ce_cohomology(pair) == (1, 0, 0, 0, 1, 1, 0, 0, 0, 1)


PLAIN_BETTI = {
    # the exterior algebras on the primitive degrees (Hopf-Koszul):
    # 3 for rank one, 3, 5 for sl3/su3, 3, 3 for so4, 3, 7 for so5, and
    # one more generator in degree 1 for the centre of gl
    "su2": (1, 0, 0, 1),
    "sl2": (1, 0, 0, 1),
    "sl3": (1, 0, 0, 1, 0, 1, 0, 0, 1),
    "su3": (1, 0, 0, 1, 0, 1, 0, 0, 1),
    "so4": (1, 0, 0, 2, 0, 0, 1),
    "so5": (1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1),
    "gl2": (1, 1, 0, 1, 1),
    "gl3": (1, 1, 0, 1, 1, 1, 1, 0, 1, 1),
}


@pytest.mark.parametrize("label", list(PLAIN_BETTI))
def test_betti_plain(label):
    pair = cartan_complement(make_classical(*parse_label(label)), None)
    assert relative_ce_cohomology(pair) == PLAIN_BETTI[label]


# -- the differential against a dense reference -----------------------------------


def ref_differential_matrix(cbar, subsets_q, subsets_q1) -> Matrix:
    """Dense relative differential from q-wedges to (q+1)-wedges:
    (d phi)(x_0..x_q) = sum_{i<j} (-1)^{i+j} phi(proj[x_i, x_j], others),
    each entry accumulated in place."""
    index_of = {S: i for i, S in enumerate(subsets_q)}
    entries = {}
    for row, T in enumerate(subsets_q1):
        for i in range(len(T)):
            for j in range(i + 1, len(T)):
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                rest_set = set(rest)
                pair_sign = -1 if (i + j) % 2 else 1
                for l, val in enumerate(cbar[T[i]][T[j]]):
                    if val == 0 or l in rest_set:
                        continue
                    S = tuple(sorted(rest_set | {l}))
                    below = sum(1 for u in rest if u < l)
                    sign = -pair_sign if below % 2 else pair_sign
                    key = (row, index_of[S])
                    entries[key] = entries.get(key, 0) + val * sign
    rows, cols = len(subsets_q1), len(subsets_q)
    flat = [0] * (rows * cols)
    for (r, c), v in entries.items():
        flat[r * cols + c] = v
    return Matrix(rows, cols, flat)


def sparse_differential(pair, q) -> Matrix:
    """The module's sparse differential from q-wedges, repeats summed into
    a dense matrix."""
    from liegauge.relcoh import _differential_images
    m = pair.p_dim
    (d,) = graded_derivations(_differential_images(pair), m, q,
                              alternating=True)
    return dense(d, math.comb(m, q + 1), math.comb(m, q))


def torus_pair():
    # a rank-one torus inside sl(3) gives a reductive but non-symmetric pair
    return cartan_complement(SL3, MatrixLieAlgebra("t1", 3, (SL3.basis[0],)))


@pytest.mark.parametrize("label", ["sl2", "su2", "so3", "gl2", "so4", "sl3/t1"])
def test_sparse_differential_matches_reference(label):
    pair = (torus_pair() if label == "sl3/t1"
            else cartan_complement(make_classical(*parse_label(label)), None))
    m = pair.p_dim
    for q in range(m):
        ref = ref_differential_matrix(
            pair.projected_constants,
            list(itertools.combinations(range(m), q)),
            list(itertools.combinations(range(m), q + 1)))
        assert sparse_differential(pair, q) == ref


def test_full_differential_squares_to_zero_plain_ce():
    # d.d = 0 on the whole wedge complex, not just invariants.  A wrong
    # sign can show only where two consecutive d_q are nonzero: rank one
    # has a single nonzero d_1, while gl2, so4 and sl3 have several.
    for label, consecutive in (("sl2", False), ("su2", False),
                               ("so3", False), ("gl2", True), ("so4", True),
                               ("sl3", True)):
        pair = cartan_complement(make_classical(*parse_label(label)), None)
        d = [sparse_differential(pair, q) for q in range(pair.p_dim)]
        for d1, d2 in zip(d, d[1:]):
            assert (d2 * d1).is_zero()
        assert any(not d1.is_zero() and not d2.is_zero()
                   for d1, d2 in zip(d, d[1:])) == consecutive, label


def test_relative_differential_squares_on_nonsymmetric_pair():
    # the projected differential must still square to zero on the
    # invariant cochains; the Betti numbers are those of SU(3)/U(1),
    # (1 + t^2)(1 + t^5)
    pair = torus_pair()
    assert not is_symmetric_pair(pair)
    for q in range(pair.p_dim - 1):
        d1 = sparse_differential(pair, q)
        d2 = sparse_differential(pair, q + 1)
        for w in invariant_wedge_basis(pair, q):
            assert not any(matvec(d2, matvec(d1, w)))
    assert relative_ce_cohomology(pair) == (1, 0, 1, 0, 0, 1, 0, 1)


def test_symmetric_pairs_report_zero_differential(monkeypatch):
    # every projected constant of a symmetric pair is zero, so its Betti
    # numbers are the invariant dimensions and no differential is built
    from liegauge import relcoh

    def refuse(*args):
        raise AssertionError("symmetric pair built a differential")

    monkeypatch.setattr(relcoh, "_differential_images", refuse)
    pair = cartan_complement(SL3, SO3)
    assert is_symmetric_pair(pair)
    assert relative_ce_cohomology(pair) == tuple(
        invariant_wedge_dimension(pair, q) for q in range(6))


# -- graded operators built once per object and degree --------------------------


def _fresh_pair(label):
    g, _, k = label.partition("/")
    return cartan_complement(make_classical(*parse_label(g)),
                             make_classical(*parse_label(k)) if k else None)


@pytest.mark.parametrize("label", ["sl3/so3", "su2"])
def test_memoized_wedge_operators_match_a_fresh_build(label):
    from liegauge.relcoh import _differential_images
    pair = _fresh_pair(label)
    c, kd, m = pair.split.structure_constants, pair.k_dim, pair.p_dim
    for q in range(m + 1):
        ops = pair.subalgebra_action(q)
        assert [list(op) for op in ops] == graded_derivations(
            coadjoint_images(c[:kd], kd), m, q, alternating=True)
        assert pair.subalgebra_action(q) is ops
        d = pair.differential(q)
        assert [list(d)] == graded_derivations(
            _differential_images(pair), m, q, alternating=True)
        assert pair.differential(q) is d


def test_memoized_sym_operators_match_a_fresh_build():
    alg = make_classical("sl", 2)
    for d in range(5):
        ops = alg.coadjoint_derivations(d)
        assert [list(op) for op in ops] == graded_derivations(
            coadjoint_images(structure_constants(alg), 0), alg.dim, d,
            alternating=False)
        assert alg.coadjoint_derivations(d) is ops


def test_equal_objects_build_their_own_operators(monkeypatch):
    from liegauge import liealg, relcoh
    built = []
    build = liealg.graded_derivations

    def counting(images, n, degree, alternating):
        built.append(degree)
        return build(images, n, degree, alternating)

    monkeypatch.setattr(liealg, "graded_derivations", counting)
    monkeypatch.setattr(relcoh, "graded_derivations", counting)
    algs = [make_classical("sl", 2) for _ in range(2)]
    assert algs[0] == algs[1] and algs[0] is not algs[1]
    ops = [alg.coadjoint_derivations(2) for alg in algs]
    assert ops[0] == ops[1] and ops[0] is not ops[1]
    assert built == [2, 2]
    built.clear()
    pairs = [cartan_complement(alg, make_classical("so", 2)) for alg in algs]
    assert pairs[0] == pairs[1]
    actions = [pair.subalgebra_action(1) for pair in pairs]
    differentials = [pair.differential(1) for pair in pairs]
    assert actions[0] == actions[1] and actions[0] is not actions[1]
    assert differentials[0] == differentials[1]
    assert built == [1, 1, 1, 1]


def test_operator_builders_hold_no_reference_to_their_object():
    # with the cycle collector off, an object is freed when its last
    # reference goes only if nothing it holds (a builder closing over
    # the object, say) refers back to it
    from liegauge.liealg import invariant_polynomial_dimension
    gc.disable()
    try:
        alg = make_classical("sl", 2)
        assert invariant_polynomial_dimension(alg, 2) == 1
        pairs = [cartan_complement(make_classical("sl", 3),
                                   make_classical("so", 3)),
                 cartan_complement(make_classical("sl", 2), None)]
        assert [relative_ce_cohomology(pair) for pair in pairs] == [
            (1, 0, 0, 0, 0, 1), (1, 0, 0, 1)]
        refs = [weakref.ref(alg)] + [weakref.ref(pair) for pair in pairs]
        refs += [weakref.ref(pair.split) for pair in pairs]
        del alg, pairs
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
