"""Reductive pair construction, invariant wedges, and Betti numbers.

The sparse derivation action used by the module is validated against an
independent dense implementation written here with its own sign handling
(explicit bubble sort of wedge words instead of position counting).
"""

import itertools
from fractions import Fraction

import pytest

from liegauge.exact import Matrix
from liegauge.liealg import (
    MatrixLieAlgebra,
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
def test_expansion_solvers_per_pair(monkeypatch, g, k, solvers):
    # one for the ambient basis and one for the split (k, p) basis, whose
    # structure constants hold every bracket of the pair; the plain
    # complex reads the ambient table itself
    from liegauge.liealg import ExpansionSolver
    built = []
    init = ExpansionSolver.__init__

    def counting(self, basis):
        built.append(len(basis))
        init(self, basis)

    monkeypatch.setattr(ExpansionSolver, "__init__", counting)
    pair = cartan_complement(make_classical(*g),
                             make_classical(*k) if k else None)
    relative_ce_cohomology(pair)
    assert len(built) == solvers


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


def module_action_matrices(pair, q):
    """Recover the module's sparse action as dense matrices by probing."""
    from liegauge.relcoh import _derivation_triples, _subsets
    subsets = _subsets(pair.p_dim, q)
    index_of = {s: i for i, s in enumerate(subsets)}
    n = len(subsets)
    out = []
    for R in pair.complement_action:
        flat = [Fraction(0)] * (n * n)
        for i, j, v in _derivation_triples(R, subsets, index_of):
            flat[i * n + j] += v
        out.append(Matrix(n, n, flat))
    return out


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sparse_action_matches_dense_oracle(q):
    pair = cartan_complement(SL3, SO3)
    actions = pair.complement_action
    dense = [dense_wedge_action(R, pair.p_dim, q) for R in actions]
    assert module_action_matrices(pair, q) == dense


def test_complement_action_is_a_representation():
    # the action matrices must reproduce the subalgebra's own brackets:
    # [R_a, R_b] = sum_c c_ab^c R_c
    pair = cartan_complement(SL3, SO3)
    R = pair.complement_action
    c = structure_constants(SO3)
    for a in range(3):
        for b in range(3):
            lhs = R[a] * R[b] - R[b] * R[a]
            rhs = Matrix.zero(5, 5)
            for k, coeff in enumerate(c[a][b]):
                if coeff:
                    rhs = rhs + R[k].scale(coeff)
            assert lhs == rhs


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
            assert not any(mat.matvec(v))


# -- Betti numbers ----------------------------------------------------------------


def test_betti_sl2_so2():
    pair = cartan_complement(SL2, SO2)
    assert relative_ce_cohomology(pair) == (1, 0, 1)


def test_betti_sl3_so3():
    pair = cartan_complement(SL3, SO3)
    assert relative_ce_cohomology(pair) == (1, 0, 0, 0, 0, 1)


def test_betti_su2_plain():
    su2 = make_classical("su", 2)
    pair = cartan_complement(su2, None)
    assert relative_ce_cohomology(pair) == (1, 0, 0, 1)


def test_betti_sl2_plain():
    pair = cartan_complement(SL2, None)
    assert relative_ce_cohomology(pair) == (1, 0, 0, 1)


def test_full_differential_squares_to_zero_plain_ce():
    # d.d = 0 on the whole wedge complex, not just invariants
    from liegauge.relcoh import _differential_matrix, _subsets
    for alg in (SL2, make_classical("su", 2), SO3):
        pair = cartan_complement(alg, None)
        cbar = pair.projected_constants
        m = pair.p_dim
        for q in range(m - 1):
            d1 = _differential_matrix(cbar, _subsets(m, q), _subsets(m, q + 1))
            d2 = _differential_matrix(cbar, _subsets(m, q + 1),
                                      _subsets(m, q + 2))
            assert (d2 * d1).is_zero()


def test_relative_differential_squares_on_nonsymmetric_pair():
    # a rank-one torus inside sl(3) gives a reductive but non-symmetric
    # pair; the projected differential must still square to zero on the
    # invariant cochains, and the resulting Betti numbers must be sane
    from liegauge.relcoh import _differential_matrix, _subsets
    torus = MatrixLieAlgebra("t1", 3, (SL3.basis[0],))
    pair = cartan_complement(SL3, torus)
    assert not is_symmetric_pair(pair)
    cbar = pair.projected_constants
    m = pair.p_dim
    for q in range(m - 1):
        W = invariant_wedge_basis(pair, q)
        d1 = _differential_matrix(cbar, _subsets(m, q), _subsets(m, q + 1))
        d2 = _differential_matrix(cbar, _subsets(m, q + 1), _subsets(m, q + 2))
        for w in W:
            assert not any(d2.matvec(d1.matvec(w)))
    betti = relative_ce_cohomology(pair)
    assert betti[0] == 1
    assert all(b >= 0 for b in betti)


def test_symmetric_pairs_report_zero_differential():
    pair = cartan_complement(SL3, SO3)
    assert is_symmetric_pair(pair)
    assert relative_ce_cohomology(pair) == tuple(
        invariant_wedge_dimension(pair, q) for q in range(6))
