"""Tests for the equivariant-cochain engine.

The sign conventions here are load-bearing, so the expected values fall in
three buckets:

  * hand-computed oracles frozen before the engine ran (the adjoint
    substitution at an explicit unipotent element, the contraction of a
    single coordinate differential, the two-argument group contraction at
    an explicit lower-triangular element);
  * structural identities that must hold exactly because every float
    operation involved is dyadic (coboundary of an invariant cochain,
    action composition, unit laws);
  * finite-difference identities that must hold at second order in the
    step, witnessed by the reduction ratio under step halving.
"""

import cmath
import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from liegauge.getzler.action import (
    FIELD_SIGN,
    GroupSampler,
    LinearAction,
    expm,
    matmul,
)
from liegauge.getzler.cochains import (
    CochainFamily,
    EquivariantCochain,
    constant_cochain,
    random_cochain,
    random_homogeneous_cochain,
    vanish_factor,
)
from liegauge.getzler.operators import (
    cup,
    cup_family,
    op_d,
    op_dbar,
    op_ibar,
    op_iota,
    square_residual,
    total_differential,
)
from liegauge.getzler import action as action_module
from liegauge.getzler import checks
from liegauge.getzler import operators as operators_module
from liegauge.getzler.polyform import (
    EXPONENT_LIMIT,
    PolyForm,
    Substitution,
    _layout,
    max_residual,
)
from liegauge.liealg import MatrixLieAlgebra, make_classical
from reference import ad_matrix_by_columns, parity_insert_signs, parity_slots

SL2 = LinearAction.sl2()

UNIPOTENT_UP = np.array([[1.0, 1.0], [0.0, 1.0]])
UNIPOTENT_LOW = np.array([[1.0, 0.0], [1.0, 1.0]])


def dyadic_samples():
    return [np.array(rows, dtype=float) for rows in checks.DYADIC_SL2_SAMPLES]


def term(g_dim: int, m: int, coeff: float, omega_exp=None, x_exp=None,
         dx=()) -> PolyForm:
    """One monomial coeff * Omega^omega_exp x^x_exp dx; exponents default
    to zero."""
    omega = tuple(omega_exp) if omega_exp is not None else (0,) * g_dim
    x = tuple(x_exp) if x_exp is not None else (0,) * m
    return PolyForm(g_dim, m, {(omega, x, tuple(dx)): coeff})


def vanishes(form: PolyForm) -> bool:
    """The form is the zero form of its shape."""
    return form == PolyForm.zero(form.g_dim, form.m)


def form_degrees(form: PolyForm) -> set[int]:
    """Polynomial degrees 2|Omega| + |dx| present among the terms."""
    return {2 * sum(omega) + len(dx) for omega, _, dx in form.terms}


def unit_cochain(action: LinearAction) -> EquivariantCochain:
    """The formal multiplicative unit: the constant-one 0-cochain.  It does
    not vanish at the identity; it is exempt from that normalization."""
    return constant_cochain(action, term(action.g_dim, action.m, 1.0))


# -- polynomial forms ---------------------------------------------------------


class TestPolyForm:
    def test_wedge_antisymmetry_and_overlap(self):
        a = term(1, 3, 1.0, dx=(0,))
        b = term(1, 3, 1.0, dx=(1,))
        ab = a.wedge(b)
        ba = b.wedge(a)
        assert ab == term(1, 3, 1.0, dx=(0, 1))
        assert ba == term(1, 3, -1.0, dx=(0, 1))
        assert vanishes(a.wedge(a))

    def test_wedge_interleaving_sign(self):
        # dx1 wedge (dx0 ^ dx2) needs one transposition: -dx0^dx1^dx2.
        left = term(1, 3, 1.0, dx=(1,))
        right = term(1, 3, 1.0, dx=(0, 2))
        assert left.wedge(right) == term(1, 3, -1.0, dx=(0, 1, 2))

    def test_exterior_d_basic(self):
        # d(x0 dx1) = dx0 ^ dx1, already in increasing order.
        form = term(1, 2, 1.0, x_exp=(1, 0), dx=(1,))
        assert form.exterior_d() == term(1, 2, 1.0, dx=(0, 1))
        # d(x0 x1) = x1 dx0 + x0 dx1.
        fn = term(1, 2, 1.0, x_exp=(1, 1))
        expected = (term(1, 2, 1.0, x_exp=(0, 1), dx=(0,))
                    + term(1, 2, 1.0, x_exp=(1, 0), dx=(1,)))
        assert fn.exterior_d() == expected

    def test_exterior_d_squares_to_zero_exactly(self):
        form = (term(2, 3, 0.5, x_exp=(2, 1, 0))
                + term(2, 3, 1.25, x_exp=(1, 1, 1), dx=(2,))
                + term(2, 3, -0.75, omega_exp=(1, 1),
                                x_exp=(0, 2, 1), dx=(0,)))
        assert vanishes(form.exterior_d().exterior_d())

    def test_contraction_is_an_exact_antiderivation_square_zero(self):
        field = Substitution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        form = (term(1, 2, 1.0, x_exp=(1, 0), dx=(0, 1))
                + term(1, 2, -2.0, dx=(0,)))
        once = form.contract_linear_field(field)
        assert not vanishes(once)
        assert vanishes(once.contract_linear_field(field))

    def test_contraction_slot_sign(self):
        # iota_V (dx0 ^ dx1) = (Vx)_0 dx1 - (Vx)_1 dx0 for V = identity.
        form = term(1, 2, 1.0, dx=(0, 1))
        expected = (term(1, 2, 1.0, x_exp=(1, 0), dx=(1,))
                    + term(1, 2, -1.0, x_exp=(0, 1), dx=(0,)))
        assert form.contract_linear_field(Substitution(np.eye(2))) == expected

    def test_substitution_of_generators_hand_expansion(self):
        # Generator rows (1,0,-1): Omega^0 -> Omega^0 - Omega^2, squared.
        M = [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        form = term(3, 0, 1.0, omega_exp=(2, 0, 0))
        expected = (term(3, 0, 1.0, omega_exp=(2, 0, 0))
                    + term(3, 0, -2.0, omega_exp=(1, 0, 1))
                    + term(3, 0, 1.0, omega_exp=(0, 0, 2)))
        assert form.substitute_omega(Substitution(M)) == expected

    def test_pullback_hand_expansion(self):
        # x0 dx1 under x -> Bx with B = [[1,1],[2,3]] (rows act on both
        # the coordinate and its differential).
        B = [[1.0, 1.0], [2.0, 3.0]]
        form = term(1, 2, 1.0, x_exp=(1, 0), dx=(1,))
        expected = (term(1, 2, 2.0, x_exp=(1, 0), dx=(0,))
                    + term(1, 2, 3.0, x_exp=(1, 0), dx=(1,))
                    + term(1, 2, 2.0, x_exp=(0, 1), dx=(0,))
                    + term(1, 2, 3.0, x_exp=(0, 1), dx=(1,)))
        assert form.pullback_linear(Substitution(B)) == expected

    def test_pullback_composes_contravariantly(self):
        B1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        B2 = np.array([[1.0, 0.0], [2.0, 1.0]])
        form = (term(1, 2, 1.0, x_exp=(2, 0), dx=(1,))
                + term(1, 2, -0.5, x_exp=(0, 1), dx=(0, 1)))
        chained = (form.pullback_linear(Substitution(B1))
                   .pullback_linear(Substitution(B2)))
        assert chained == form.pullback_linear(Substitution(B1 @ B2))

    def test_twist_signs_per_term_degree(self):
        form = (term(1, 2, 1.0, dx=(0,))          # degree 1
                + term(1, 2, 1.0, omega_exp=(1,)))  # degree 2
        twisted = form.twist(1)
        expected = (term(1, 2, -1.0, dx=(0,))
                    + term(1, 2, 1.0, omega_exp=(1,)))
        assert twisted == expected
        assert form.twist(2) == form

    def test_degrees_and_norm(self):
        form = (term(2, 2, -3.0, omega_exp=(1, 1), dx=(0,))
                + term(2, 2, 0.25, x_exp=(1, 1)))
        assert form_degrees(form) == {5, 0}
        assert form.norm() == 3.0
        assert form_degrees(PolyForm.zero(2, 2)) == set()

    def test_norm_keeps_a_nan_in_either_order(self):
        nan, two = ((0,), (0,), ()), ((1,), (0,), ())
        for terms in ({nan: math.nan, two: 2.0}, {two: 2.0, nan: math.nan}):
            assert math.isnan(PolyForm(1, 1, terms).norm())
        assert PolyForm(1, 1, {two: -2.0}).norm() == 2.0
        assert math.isnan(max_residual([0.5, 3.0, math.nan, 1.0]))
        assert max_residual([0.5, 3.0, 1.0]) == 3.0
        assert max_residual([]) == 0.0

    def test_zero_terms_are_pruned(self):
        form = term(1, 1, 1.0) + term(1, 1, -1.0)
        assert form == PolyForm.zero(1, 1)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            term(1, 1, 1.0) + term(2, 1, 1.0)

    @pytest.mark.parametrize("key", [
        ((1,), (0, 0), ()),           # omega exponents longer than g_dim
        ((0, 0), (0,), ()),           # x exponents shorter than m
        ((0, 0), (0, 0, 0), ()),      # x exponents longer than m
        ((0, 0), (0, 0), (1, 0)),     # dx indices unsorted
        ((0, 0), (0, 0), (1, 1)),     # dx index repeated
        ((0, 0), (0, 0), (2,)),       # dx index beyond m
        ((0, 0), (0, 0), (-1,)),      # negative dx index
    ])
    def test_constructor_rejects_malformed_terms(self, key):
        with pytest.raises(ValueError):
            PolyForm(2, 2, {key: 1.0})

    def test_constructor_drops_zeros_and_stores_floats(self):
        form = PolyForm(2, 2, {((0, 0), (0, 0), ()): 0.0,
                               ((1, 0), (0, 1), (0,)): -0.0,
                               ((0, 1), (1, 0), (0, 1)): 2})
        assert form.terms == {((0, 1), (1, 0), (0, 1)): 2.0}
        assert type(form.terms[((0, 1), (1, 0), (0, 1))]) is float


    @pytest.mark.parametrize("key, bad", [
        (((-1, 0), (0, 0), ()), "-1"),
        (((0, 0), (0, -2), ()), "-2"),
        (((EXPONENT_LIMIT, 0), (0, 0), ()), str(EXPONENT_LIMIT)),
        (((0, 0), (0, EXPONENT_LIMIT + 5), (0,)), str(EXPONENT_LIMIT + 5)),
    ])
    def test_constructor_rejects_exponents_out_of_range(self, key, bad):
        with pytest.raises(ValueError, match=f"exponent {bad} outside"):
            PolyForm(2, 2, {key: 1.0})

    def test_constructor_accepts_the_largest_exponent(self):
        top = EXPONENT_LIMIT - 1
        form = term(2, 2, 1.0, omega_exp=(top, 0), x_exp=(0, top))
        assert form.terms == {((top, 0), (0, top), ()): 1.0}

    def test_exponent_overflow_raises_instead_of_carrying(self):
        top = EXPONENT_LIMIT - 1
        high_omega = term(2, 2, 1.0, omega_exp=(top, 0), dx=(0,))
        high_x = term(2, 2, 1.0, x_exp=(top, 1), dx=(1,))
        one_omega = term(2, 2, 1.0, omega_exp=(1, 0))
        # row 1 sends dx1 to x0 and x1 to x0, onto the top exponent
        onto_x0 = [[1.0, 0.0], [1.0, 0.0]]
        raising = [
            lambda: high_omega.wedge(one_omega),
            lambda: PolyForm.combine(2, 2, [(high_omega, 1.0, 0)]),
            lambda: high_omega.multiply_omega_linear(
                Substitution([[1.0, 0.0]]), 0),
            lambda: high_x.contract_linear_field(Substitution(onto_x0)),
            lambda: high_x.pullback_linear(Substitution(onto_x0)),
            lambda: term(2, 0, 1.0, omega_exp=(top, 1))
            .substitute_omega(Substitution(onto_x0)),
        ]
        for op in raising:
            with pytest.raises(ValueError, match="exponent reached"):
                op()
        # below the limit the same operations go through
        swap = [[0.0, 1.0], [1.0, 0.0]]
        assert not vanishes(PolyForm.combine(2, 2, [(high_omega, 1.0, 1)]))
        assert not vanishes(high_x.contract_linear_field(
            Substitution(np.eye(2))))
        assert not vanishes(high_x.pullback_linear(Substitution(swap)))


# -- bitwise reference: the tuple-keyed PolyForm --------------------------------


def _merge_dx(left: tuple, right: tuple):
    if set(left) & set(right):
        return None
    sign = 1
    for i in left:
        sign *= -1 if sum(1 for j in right if j < i) % 2 else 1
    return sign, tuple(sorted(left + right))


def _insert_dx(i: int, dx: tuple):
    if i in dx:
        return None
    below = sum(1 for j in dx if j < i)
    return (-1 if below % 2 else 1), tuple(sorted(dx + (i,)))


def _bump(exp: tuple, i: int, by: int = 1) -> tuple:
    return exp[:i] + (exp[i] + by,) + exp[i + 1:]


def _expand_linear_power(acc: dict, row, nvars: int) -> dict:
    out: dict = {}
    for exp, c in acc.items():
        for j in range(nvars):
            cj = float(row[j])
            if cj == 0.0:
                continue
            key = _bump(exp, j)
            out[key] = out.get(key, 0.0) + c * cj
    return {k: v for k, v in out.items() if v != 0.0}


def _expand_power(exp: tuple, rows, nvars: int) -> dict:
    acc = {(0,) * nvars: 1.0}
    for i, e in enumerate(exp):
        for _ in range(e):
            acc = _expand_linear_power(acc, rows[i], nvars)
    return acc


def _expand_wedge(dx: tuple, B, m: int) -> dict:
    acc: dict[tuple, float] = {(): 1.0}
    for i in dx:
        nxt: dict[tuple, float] = {}
        for partial, f in acc.items():
            for j in range(m):
                bij = float(B[i][j])
                if bij == 0.0:
                    continue
                merged = _merge_dx(partial, (j,))
                if merged is None:
                    continue
                sign, new_dx = merged
                nxt[new_dx] = nxt.get(new_dx, 0.0) + f * bij * sign
        acc = nxt
    return acc


class TupleForm:
    """The tuple-keyed PolyForm operations the packed keys replaced, kept
    as an oracle: every float operation, and the insertion order of every
    dict, must come out the same."""

    def __init__(self, g_dim, m, terms):
        self.g_dim, self.m, self.terms = g_dim, m, dict(terms)

    def _like(self, terms):
        return TupleForm(self.g_dim, self.m,
                         {k: c for k, c in terms.items() if c != 0.0})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        c = float(c)
        return self._like({k: v * c for k, v in self.terms.items()})

    def twist(self, l):
        if l % 2 == 0:
            return self
        out = {}
        for key, c in self.terms.items():
            omega, _, dx = key
            deg = 2 * sum(omega) + len(dx)
            out[key] = -c if deg % 2 else c
        return self._like(out)

    def wedge(self, other):
        out: dict = {}
        for (o1, x1, s1), c1 in self.terms.items():
            for (o2, x2, s2), c2 in other.terms.items():
                merged = _merge_dx(s1, s2)
                if merged is None:
                    continue
                sign, dx = merged
                omega = tuple(a + b for a, b in zip(o1, o2))
                x = tuple(a + b for a, b in zip(x1, x2))
                key = (omega, x, dx)
                out[key] = out.get(key, 0.0) + sign * c1 * c2
        return self._like(out)

    def multiply_omega_linear(self, coeffs):
        out: dict = {}
        for (omega, x, dx), c in self.terms.items():
            for a in range(self.g_dim):
                ca = float(coeffs[a])
                if ca == 0.0:
                    continue
                key = (_bump(omega, a), x, dx)
                out[key] = out.get(key, 0.0) + c * ca
        return self._like(out)

    def exterior_d(self):
        out: dict = {}
        for (omega, x, dx), c in self.terms.items():
            for i in range(self.m):
                if x[i] == 0:
                    continue
                inserted = _insert_dx(i, dx)
                if inserted is None:
                    continue
                sign, new_dx = inserted
                key = (omega, _bump(x, i, -1), new_dx)
                out[key] = out.get(key, 0.0) + c * x[i] * sign
        return self._like(out)

    def contract_linear_field(self, V):
        out: dict = {}
        for (omega, x, dx), c in self.terms.items():
            for t, i in enumerate(dx):
                rest = dx[:t] + dx[t + 1:]
                slot_sign = -1 if t % 2 else 1
                for j in range(self.m):
                    vij = float(V[i][j])
                    if vij == 0.0:
                        continue
                    key = (omega, _bump(x, j), rest)
                    out[key] = out.get(key, 0.0) + c * vij * slot_sign
        return self._like(out)

    def substitute_omega(self, M):
        out: dict = {}
        expansions: dict = {}
        for (omega, x, dx), c in self.terms.items():
            acc = expansions.get(omega)
            if acc is None:
                acc = expansions[omega] = _expand_power(omega, M, self.g_dim)
            for new_omega, factor in acc.items():
                key = (new_omega, x, dx)
                out[key] = out.get(key, 0.0) + c * factor
        return self._like(out)

    def pullback_linear(self, B):
        out: dict = {}
        x_expansions: dict = {}
        dx_expansions: dict = {}
        for (omega, x, dx), c in self.terms.items():
            xacc = x_expansions.get(x)
            if xacc is None:
                xacc = x_expansions[x] = _expand_power(x, B, self.m)
            dxacc = dx_expansions.get(dx)
            if dxacc is None:
                dxacc = dx_expansions[dx] = _expand_wedge(dx, B, self.m)
            for new_x, xf in xacc.items():
                for new_dx, df in dxacc.items():
                    key = (omega, new_x, new_dx)
                    out[key] = out.get(key, 0.0) + c * xf * df
        return self._like(out)


def _bits(terms: dict) -> list:
    """Keys, order and float bits of a term dict."""
    return [(key, float.hex(c)) for key, c in terms.items()]


def _reference_forms(rng, g_dim, m):
    """Tuple-keyed term dicts: empty, every dx, seeded random ones with
    either random or dyadic coefficients (so products cancel), and a
    random one with its negation."""
    dxs = [tuple(i for i in range(m) if mask >> i & 1)
           for mask in range(1 << m)]

    def exps(n, top):
        out = [0] * n
        for _ in range(rng.randint(0, top)):
            if n:
                out[rng.randrange(n)] += 1
        return tuple(out)

    def coeff(dyadic):
        if dyadic:
            return rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
        return rng.uniform(-1.0, 1.0)

    forms = [{}, {(exps(g_dim, 1), exps(m, 2), dx): coeff(False)
                  for dx in dxs}]
    for n in range(1, 7):
        dyadic = n % 2 == 0
        terms = {}
        for _ in range(n):
            key = (exps(g_dim, 2), exps(m, 2), rng.choice(dxs))
            terms[key] = terms.get(key, 0.0) + coeff(dyadic)
        forms.append({k: c for k, c in terms.items() if c != 0.0})
    forms.append({k: -c for k, c in forms[-1].items()})
    return forms


def _reference_matrices(rng, n):
    """The all-ones matrix and a +-1 matrix, whose expansions cancel
    exactly, then seeded random ones with zero and dyadic entries."""
    ones = [[1.0] * n for _ in range(n)]
    signs = [[1.0 if j <= i else -1.0 for j in range(n)] for i in range(n)]
    return [ones, signs] + [
        [[rng.choice((0.0, 0.0, 1.0, -1.0, 0.5, 2.0, rng.uniform(-2, 2)))
          for _ in range(n)] for _ in range(n)] for _ in range(3)]


@pytest.mark.parametrize("g_dim", [1, 3])
@pytest.mark.parametrize("m", [0, 2, 3])
def test_packed_keys_match_the_tuple_reference_bitwise(g_dim, m):
    rng = random.Random(1000 * g_dim + m)
    dicts = _reference_forms(rng, g_dim, m)
    pairs = []
    for terms in dicts:
        form = PolyForm(g_dim, m, terms)
        assert _bits(form.terms) == _bits(terms)
        pairs.append((form, TupleForm(g_dim, m, terms)))

    def same(ours, ref):
        assert _bits(ours.terms) == _bits(ref.terms)
        assert all(type(c) is float for c in ours.terms.values())

    for form, ref in pairs:
        same(form.exterior_d(), ref.exterior_d())
        for l in (0, 1):
            same(form.twist(l), ref.twist(l))
        for c in (1.0, -1.0, 0.375, 0.0):
            same(form.scale(c), ref.scale(c))
        for a in range(g_dim):
            unit = [1.0 if b == a else 0.0 for b in range(g_dim)]
            same(PolyForm.combine(g_dim, m, [(form, 1.0, a)]),
                 ref.multiply_omega_linear(unit))
        for M in _reference_matrices(rng, g_dim):
            same(form.multiply_omega_linear(Substitution(M), 0),
                 ref.multiply_omega_linear(M[0]))
            same(form.substitute_omega(Substitution(M)),
                 ref.substitute_omega(M))
        for B in _reference_matrices(rng, m):
            same(form.contract_linear_field(Substitution(B)),
                 ref.contract_linear_field(B))
            same(form.pullback_linear(Substitution(B)),
                 ref.pullback_linear(B))
    for form1, ref1 in pairs:
        for form2, ref2 in pairs:
            same(form1 + form2, ref1 + ref2)
            same(form1 - form2, ref1 - ref2)
            same(PolyForm.combine(g_dim, m, [(form1, 1.0, None),
                                             (form2, -1.0, None)]),
                 ref1 - ref2)
            same(form1.wedge(form2), ref1.wedge(ref2))
    # the negated pair cancels to the empty form in both
    assert vanishes(pairs[-1][0] + pairs[-2][0])


# -- the linear action and its exact plumbing --------------------------------


def _adjugate_inverse(a: list) -> list:
    """The inverse of a 3-by-3 matrix of Fractions, as its adjugate over
    its determinant."""
    def minor(i, j):
        (p, q), (r, t) = [[a[k][l] for l in range(3) if l != j]
                          for k in range(3) if k != i]
        return p * t - q * r
    cof = [[(-1) ** (i + j) * minor(i, j) for j in range(3)]
           for i in range(3)]
    det = sum(a[0][j] * cof[0][j] for j in range(3))
    return [[cof[j][i] / det for j in range(3)] for i in range(3)]


class TestLinearAction:
    def test_dual_frame_roundtrip_is_exact(self):
        # for dyadic g every g A_b g^(-1) = [[p, q], [r, -p]] is exact, and
        # its coefficients on (h, e, f) come back as exactly (p, q, r)
        for g in dyadic_samples():
            ginv = SL2.inverse(g)
            ad = SL2.ad_matrix(g, ginv)
            for b, A in enumerate(SL2.basis):
                (p, q), (r, _) = g @ np.array(A) @ np.array(ginv)
                assert [row[b] for row in ad] == [p, q, r]

    def test_dependent_basis_rejected(self):
        h, e, _ = SL2.algebra.basis
        dependent = MatrixLieAlgebra("dep", 2, (h, e, h + e))
        with pytest.raises(ValueError, match="linearly dependent"):
            LinearAction(dependent)

    def test_adjoint_matrix_hand_values(self):
        # At the upper unipotent element the adjoint images of the basis
        # are h - 2e, e, and h - e + f; the matrix stores them by columns.
        expected = ((1.0, 0.0, 1.0),
                    (-2.0, 1.0, -1.0),
                    (0.0, 0.0, 1.0))
        up = SL2.ad_matrix(UNIPOTENT_UP, SL2.inverse(UNIPOTENT_UP))
        assert up == expected
        eye = SL2.ad_matrix(np.eye(2), SL2.inverse(np.eye(2)))
        assert eye == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def test_adjoint_matrix_is_multiplicative(self):
        def ad(g):
            return np.array(SL2.ad_matrix(g, SL2.inverse(g)))

        g1, g2 = dyadic_samples()[2:4]
        assert np.array_equal(ad(g1 @ g2), ad(g1) @ ad(g2))

    def test_group_action_is_a_left_action_bitwise(self):
        form = (term(3, 2, 1.0, omega_exp=(1, 0, 1),
                              x_exp=(1, 0), dx=(1,))
                + term(3, 2, -0.5, x_exp=(0, 2), dx=(0,)))
        for g1 in dyadic_samples()[:3]:
            for g2 in dyadic_samples()[3:]:
                nested = SL2.group_action(g2, SL2.group_action(g1, form))
                joint = SL2.group_action(g2 @ g1, form)
                assert nested == joint

    def test_identity_action_returns_the_form_unchanged(self):
        form = term(3, 2, 1.5, omega_exp=(0, 1, 0), dx=(0,))
        assert SL2.group_action(np.eye(2), form) == form

    def test_dyadic_inverse_is_exact(self):
        for g in dyadic_samples():
            assert np.array_equal(SL2.inverse(g) @ g, np.eye(2))

    def test_from_exact_algebra_matches_builtin(self):
        alg = make_classical("sl", 2)
        built = LinearAction(alg)
        assert built.algebra is alg
        for ours, theirs, exact in zip(SL2.basis, built.basis, alg.basis):
            assert np.array_equal(ours, theirs)
            assert np.array(theirs).tolist() == exact.to_lists()

    def test_complex_algebra_rejected(self):
        with pytest.raises(ValueError, match="non-real"):
            LinearAction(make_classical("su", 2))

    def test_a_gaussian_basis_declared_rational_is_refused_by_name(self):
        # realness is read from the entries, not the declared scalar
        su2 = make_classical("su", 2)
        with pytest.raises(ValueError, match="su2 has non-real"):
            LinearAction(MatrixLieAlgebra("su2", 2, su2.basis))

    def test_a_real_basis_declared_gaussian_acts(self):
        sl2 = make_classical("sl", 2)
        built = LinearAction(MatrixLieAlgebra("sl2", 2, sl2.basis,
                                              "gaussian"))
        for ours, theirs in zip(SL2.basis, built.basis):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("kind", ["so", "sl"])
    def test_dyadic_three_by_three_inverse_is_exact(self, kind):
        # products of elementary I + c E_ij have determinant one and,
        # with dyadic c, an inverse whose products with g are exact
        action = LinearAction(make_classical(kind, 3))
        rng = random.Random(31)
        eye = [[float(i == j) for j in range(3)] for i in range(3)]
        for _ in range(20):
            g = eye
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                step = [row[:] for row in eye]
                step[i][j] = rng.choice([-2.0, -0.5, 0.25, 1.0, 1.5])
                g = matmul(g, step)
            assert matmul(action.inverse(g), g) == tuple(map(tuple, eye))

    @pytest.mark.parametrize("kind", ["so", "sl"])
    def test_three_by_three_inverse_rounds_the_exact_inverse(self, kind):
        action = LinearAction(make_classical(kind, 3))
        sampler = GroupSampler(action, seed=32)
        for _ in range(20):
            g = sampler.draw()
            want = _adjugate_inverse([[Fraction(v) for v in row]
                                      for row in g])
            assert action.inverse(g) == tuple(
                tuple(float(x) for x in row) for row in want)

    def test_drawn_elements_keep_numpy_bytes(self):
        for action in (SL2, LinearAction(make_classical("so", 3))):
            for g in GroupSampler(action, seed=33).draw_tuple(5):
                assert g.tobytes() == np.array(g).tobytes()
                assert all(type(v) is float for row in g for v in row)

    def test_sampler_is_deterministic_and_invertible(self):
        a = GroupSampler(SL2, seed=9)
        b = GroupSampler(SL2, seed=9)
        for _ in range(20):
            ga, gb = a.draw(), b.draw()
            assert np.array_equal(ga, gb)
            assert abs(np.linalg.det(ga)) > 1e-8


def _hex_rows(matrix) -> list:
    return [[v.hex() for v in row] for row in matrix]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_dx_signs_read_from_the_wedge_table_match_parity(m):
    layout = _layout(1, m)
    assert len(layout.wedge_sign) == 4 ** m
    assert layout.insert_sign == parity_insert_signs(m)
    assert layout.slots == parity_slots(m)


@pytest.mark.parametrize("kind, n", [("sl", 2), ("so", 3), ("sl", 3)])
def test_ad_matrix_matches_the_column_expansion_bitwise(kind, n):
    action = LinearAction(make_classical(kind, n))
    for h in GroupSampler(action, seed=34).draw_tuple(8):
        hinv = action.inverse(h)
        # both ways round: transports expand Ad(h^(-1)) with h as inverse
        for g, ginv in ((h, hinv), (hinv, h)):
            got = action.ad_matrix(g, ginv)
            assert _hex_rows(got) == _hex_rows(
                ad_matrix_by_columns(action, g, ginv))


# -- cochains ------------------------------------------------------------------


def _assert_close(got, want):
    """Entrywise within 1e-14 of the largest entry of the closed form."""
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestExpm:
    """`expm` against closed forms.  Each case includes an input of 1-norm
    above 1/2, where the scaling and squaring branch runs."""

    @pytest.mark.parametrize("t", [0.25, -0.7, 3.0, 1e3])
    def test_nilpotent_generators_exactly(self, t):
        _, e, f = map(np.array, SL2.basis)
        for A in (e, f):
            assert np.array_equal(expm(t * A), np.eye(2) + t * A)

    @pytest.mark.parametrize("t", [0.2, -1.5, 3.25])
    def test_diagonal_generator(self, t):
        h = np.array(SL2.basis[0])
        _assert_close(expm(t * h), np.diag(np.exp(t * np.diag(h))))

    @pytest.mark.parametrize("a, b, c", [
        (0.1, 0.2, -0.3),    # det Z > 0: a rotation-like element
        (0.3, 0.1, 0.4),     # det Z < 0
        (1.2, -0.8, 0.5),    # det Z < 0, scaled
        (0.2, 1.5, -2.0),    # det Z > 0, scaled
    ])
    def test_traceless_two_by_two(self, a, b, c):
        h, e, f = map(np.array, SL2.basis)
        Z = a * h + b * e + c * f
        delta = cmath.sqrt(-np.linalg.det(Z))
        want = (cmath.cosh(delta).real * np.eye(2)
                + (cmath.sinh(delta) / delta).real * Z)
        _assert_close(expm(Z), want)

    @pytest.mark.parametrize("w", [(0.1, -0.2, 0.15), (1.0, 2.0, -0.5),
                                   (-2.5, 0.3, 1.1)])
    def test_rotations_by_rodrigues(self, w):
        so3 = LinearAction(make_classical("so", 3))
        K = sum(x * np.array(B) for x, B in zip(w, so3.basis))
        theta = math.sqrt(-np.trace(K @ K) / 2)
        want = (np.eye(3) + math.sin(theta) / theta * K
                + (1 - math.cos(theta)) / theta ** 2 * (K @ K))
        _assert_close(expm(K), want)


def _numpy_vanish_factor(gs) -> float:
    """The vanish factor as numpy sums it, the reference for the sums."""
    out = 1.0
    for g in gs:
        g = np.asarray(g, dtype=float)
        d = g - np.eye(g.shape[0])
        out *= float(np.sum(d * d))
    return out


class TestCochains:
    def test_arity_mismatch_message(self):
        c = unit_cochain(SL2)
        with pytest.raises(ValueError,
                           match="arity 0 called with 1 group elements"):
            c((np.eye(2),))

    def test_addition_requires_matching_arity(self):
        c0 = unit_cochain(SL2)
        c1 = random_cochain(SL2, random.Random(0), 1)
        with pytest.raises(ValueError):
            c0 + c1

    def test_normalized_cochains_vanish_when_any_argument_is_identity(self):
        c = random_cochain(SL2, random.Random(1), 2)
        g = GroupSampler(SL2, seed=4).draw()
        assert vanishes(c((np.eye(2), g)))
        assert vanishes(c((g, np.eye(2))))
        assert not vanishes(c((g, g)))

    def test_unit_cochain_is_one_everywhere(self):
        one = unit_cochain(SL2)
        assert one(()) == term(3, 2, 1.0)

    def test_vanish_factor_is_zero_only_at_the_identity(self):
        assert vanish_factor((np.eye(2),)) == 0.0
        assert vanish_factor((UNIPOTENT_UP,)) == 1.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_vanish_factor_matches_the_numpy_sum_bitwise(self, m):
        rng = np.random.default_rng(m)
        eye = np.eye(m)
        edges = [eye, -0.0 * eye, eye + np.spacing(1.0), np.full((m, m), -0.0)]
        for trial in range(3000):
            gs = tuple(
                rng.uniform(-3.0, 3.0, (m, m)) * 10.0 ** rng.integers(-9, 9)
                + eye * rng.integers(0, 2)
                for _ in range(rng.integers(0, 4)))
            if trial < len(edges):
                gs = (edges[trial],) + gs
            want = _numpy_vanish_factor(gs).hex()
            assert vanish_factor(gs).hex() == want
            assert vanish_factor([g.tolist() for g in gs]).hex() == want

    def test_vanish_factor_of_larger_elements_agrees_to_the_last_bits(self):
        # numpy sums eight or more terms pairwise, so 3x3 distances may
        # differ from the row-major sum in the last bit
        rng = np.random.default_rng(3)
        for _ in range(500):
            g = rng.uniform(-3.0, 3.0, (3, 3))
            want = _numpy_vanish_factor((g,))
            assert abs(vanish_factor((g,)) - want) <= 4 * np.spacing(want)

    def test_family_collects_components_by_arity(self):
        c1 = random_cochain(SL2, random.Random(2), 1)
        fam = CochainFamily.of(c1) + CochainFamily.of(unit_cochain(SL2))
        assert fam.arities() == [0, 1]
        diff = fam - fam
        g = GroupSampler(SL2, seed=1).draw()
        assert vanishes(diff.component(1)((g,)))


# -- the evaluation scope -------------------------------------------------------


class _Tracked(PolyForm):
    """A PolyForm that a weak reference can watch."""
    __slots__ = ("__weakref__",)


class TestEvaluationScope:
    def test_square_evaluates_each_node_and_transport_once(self, monkeypatch):
        action = LinearAction.sl2()
        base = random_cochain(action, random.Random(70), 2)
        evaluated = Counter()

        def counted(gs):
            evaluated[b"".join(g.tobytes() for g in gs)] += 1
            return base(gs)

        c = EquivariantCochain(action, 2, counted)
        ad_matrix = action.ad_matrix
        transported = Counter()

        def counted_ad(h, *hinv):
            transported[np.asarray(h).tobytes()] += 1
            return ad_matrix(h, *hinv)

        monkeypatch.setattr(action, "ad_matrix", counted_ad)
        component = total_differential(total_differential(c)).component(2)
        component(GroupSampler(action, seed=12).draw_tuple(2))
        # the operators ask for c 109 times at 61 distinct tuples, and
        # transport by 9 distinct elements 24 times; each is built once
        assert len(evaluated) == 61 and set(evaluated.values()) == {1}
        assert len(transported) == 9 and set(transported.values()) == {1}

    def test_no_scope_outlives_a_call(self):
        action = LinearAction.sl2()
        watched = []

        def evaluate(gs):
            form = _Tracked(3, 2, {((1, 0, 0), (1, 0), ()): 1.0})
            watched.append(weakref.ref(form))
            return form

        inner = EquivariantCochain(action, 1, evaluate)
        g = GroupSampler(action, seed=13).draw()

        assert not vanishes(op_d(inner)((g,)))
        gc.collect()
        assert action.scope is None and watched[0]() is None

        def fail(gs):
            raise RuntimeError("evaluator failed")

        broken = op_d(inner) + EquivariantCochain(action, 1, fail)
        with pytest.raises(RuntimeError, match="evaluator failed"):
            broken((g,))
        gc.collect()
        assert action.scope is None and watched[1]() is None
        op_d(inner)((g,))
        assert len(watched) == 3

    def test_keys_are_exact_bytes(self):
        action = LinearAction.sl2()
        g = UNIPOTENT_LOW.copy()
        ulp = g.copy()
        ulp[1, 0] = np.nextafter(1.0, 2.0)
        signed = g.copy()
        signed[0, 1] = -0.0
        evaluated = []

        def evaluate(gs):
            evaluated.append(gs[0])
            return term(3, 2, float(len(evaluated)))

        inner = EquivariantCochain(action, 1, evaluate)
        values, transports = [], []

        def outer(gs):
            for h in (g, ulp, signed, g.copy(), g.tolist()):
                values.append(inner((h,)))
                transports.append(action.transport(h))
            return PolyForm.zero(3, 2)

        EquivariantCochain(action, 0, outer)(())
        # one ulp or the sign of a zero is a different element; a copy or
        # a nested list with the same entries is the same one
        assert len(evaluated) == 3
        assert [v.terms for v in values[:3]] == [
            {((0, 0, 0), (0, 0), ()): x} for x in (1.0, 2.0, 3.0)]
        assert values[3] is values[0] and values[4] is values[0]
        assert len({id(t) for t in transports}) == 3
        assert transports[3] is transports[0] is transports[4]

    def test_float_arrays_reach_the_evaluator_unchanged(self):
        seen = []

        def evaluate(gs):
            seen.extend(gs)
            return PolyForm.zero(3, 2)

        g = GroupSampler(SL2, seed=17).draw()
        EquivariantCochain(SL2, 1, evaluate)((g,))
        single = np.array(g, dtype=np.float32)
        EquivariantCochain(SL2, 1, evaluate)((single,))
        assert seen[0] is g
        assert np.asarray(seen[1]).dtype == np.float64
        assert np.array_equal(seen[1], single)

    def test_list_arguments_give_the_array_values(self):
        c = random_cochain(SL2, random.Random(71), 1)
        squared = total_differential(total_differential(c)).component(2)
        gs = GroupSampler(SL2, seed=14).draw_tuple(2)
        assert squared([np.array(g).tolist() for g in gs]) == squared(gs)


def _hex_terms(form: PolyForm) -> list:
    return [(key, c.hex()) for key, c in form.terms.items()]


def _checked_values(seed: int, action_for_call) -> list:
    """d_G^2, cup and Leibniz values of seeded cochains at three tuples,
    each computed on the action that action_for_call() gives, as hex."""
    out = []
    for call in range(3):
        action = action_for_call()
        rng = random.Random(seed)
        a = random_homogeneous_cochain(action, rng, 1, 1, 0)
        b = random_cochain(action, rng, 1)
        c = random_cochain(action, rng, 1)
        leibniz = total_differential(cup(a, b)) - (
            cup_family(total_differential(a), CochainFamily.of(b))
            + cup_family(CochainFamily.of(a),
                         total_differential(b)).scale(-1.0))
        families = (total_differential(total_differential(c)),
                    CochainFamily.of(cup(cup(a, b), c)), leibniz)
        gs = GroupSampler(action, seed=10 * seed + call).draw_tuple(3)
        for family in families:
            for k in family.arities():
                out.append(_hex_terms(family.component(k)(gs[:k])))
    return out


class _KeepsNothing(dict):
    """A kept-transport table that stores nothing."""

    def setdefault(self, key, default=None):
        return default


def _fresh_unkept_action() -> LinearAction:
    """A new action that keeps no transport: each lives for one call."""
    action = LinearAction.sl2()
    action.kept = _KeepsNothing()
    return action


class TestKeptTransports:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_values_match_a_fresh_action_bitwise(self, seed):
        shared = LinearAction.sl2()
        kept = _checked_values(seed, lambda: shared)
        assert any(v is not None for v in shared.kept.values())
        fresh = []

        def unkept():
            fresh.append(_fresh_unkept_action())
            return fresh[-1]

        assert kept == _checked_values(seed, unkept)
        assert fresh and not any(action.kept for action in fresh)

    def test_a_second_op_ibar_reuses_the_inserted_elements(self,
                                                           monkeypatch):
        action = LinearAction.sl2()
        built = []

        def counted_expm(Z):
            built.append(Z)
            return expm(Z)

        # the operators module too, should it make its own elements
        monkeypatch.setattr(action_module, "expm", counted_expm)
        monkeypatch.setattr(operators_module, "expm", counted_expm,
                            raising=False)
        inserted = []

        def evaluate(gs):
            inserted.append(gs[0])
            return PolyForm.zero(3, 2)

        c = EquivariantCochain(action, 1, evaluate)
        for _ in range(2):
            op_ibar(c, 1e-3)(())
        per_call = 2 * action.g_dim
        assert len(inserted) == 2 * per_call
        assert all(a is b for a, b in zip(inserted[:per_call],
                                          inserted[per_call:]))
        assert len(built) <= per_call

    def test_a_second_call_builds_no_step_transport(self, monkeypatch):
        action = LinearAction.sl2()
        c = random_cochain(action, random.Random(72), 2)
        component = total_differential(total_differential(c)).component(2)
        built = []
        ad_matrix = action.ad_matrix

        def counted_ad(h, *hinv):
            built.append(np.asarray(h).tobytes())
            return ad_matrix(h, *hinv)

        monkeypatch.setattr(action, "ad_matrix", counted_ad)
        sampler = GroupSampler(action, seed=15)
        component(sampler.draw_tuple(2))
        first = set(built)
        built.clear()
        component(sampler.draw_tuple(2))
        # ad_matrix gets h^(-1) for the element h it transports by
        steps = {action.inverse(np.frombuffer(key).reshape(2, 2)).tobytes()
                 for key in action.kept}
        assert steps & first and not steps & set(built)
        # the other elements still live for one call
        assert built and action.scope is None

    def test_the_table_holds_the_inserted_elements_per_step(self):
        action = LinearAction.sl2()
        c = random_cochain(action, random.Random(73), 1)
        assert action.kept == {}
        per_step = 2 * action.g_dim
        for step, steps in ((1e-3, 1), (1e-3, 1), (5e-4, 2)):
            op_ibar(c, step)
            assert len(action.kept) == steps * per_step
        assert set(action.kept.values()) == {None}
        squared = total_differential(total_differential(c, 5e-4), 5e-4)
        squared.component(1)(GroupSampler(action, seed=16).draw_tuple(1))
        assert len(action.kept) == 2 * per_step
        assert any(v is not None for v in action.kept.values())


# -- the four operators --------------------------------------------------------


class TestGeometricOperators:
    def test_contraction_of_a_coordinate_differential(self):
        # iota(dx0) is the first component of the field of the symbolic
        # generator: Omega^0 x0 + Omega^1 x1 for the standard basis.
        c = constant_cochain(SL2, term(3, 2, 1.0, dx=(0,)))
        expected = (term(3, 2, 1.0, omega_exp=(1, 0, 0),
                                  x_exp=(1, 0))
                    + term(3, 2, 1.0, omega_exp=(0, 1, 0),
                                    x_exp=(0, 1)))
        assert op_iota(c)(()) == expected

    def test_field_orientation_is_frozen(self):
        assert FIELD_SIGN == 1.0

    def test_iota_squares_to_zero_exactly(self):
        c = random_cochain(SL2, random.Random(3), 1)
        sampler = GroupSampler(SL2, seed=2)
        for _ in range(5):
            assert vanishes(op_iota(op_iota(c))((sampler.draw(),)))

    def test_d_squares_to_zero_exactly(self):
        c = random_cochain(SL2, random.Random(4), 1)
        sampler = GroupSampler(SL2, seed=3)
        for _ in range(5):
            assert vanishes(op_d(op_d(c))((sampler.draw(),)))

    def test_d_carries_the_arity_sign(self):
        form = term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        flat = EquivariantCochain(SL2, 1, lambda gs: form)
        expected = term(3, 2, -1.0, dx=(0, 1))
        assert op_d(flat)((UNIPOTENT_UP,)) == expected


class TestCoboundary:
    def test_hand_substituted_adjoint_oracle(self):
        # At the upper unipotent element the adjoint of the inverse sends
        # the symbolic generator coordinates to (O^0 - O^2, 2 O^0 + O^1 -
        # O^2, O^2), so the square of the first coordinate picks up
        # -2 O^0 O^2 + (O^2)^2 under the coboundary.
        quad = constant_cochain(
            SL2, term(3, 2, 1.0, omega_exp=(2, 0, 0)))
        result = op_dbar(quad)((UNIPOTENT_UP,))
        expected = (term(3, 2, -2.0, omega_exp=(1, 0, 1))
                    + term(3, 2, 1.0, omega_exp=(0, 0, 2)))
        assert result == expected

    def test_coboundary_of_invariant_cochain_is_bitwise_zero(self):
        inv = checks.killing_quadratic_cochain(SL2)
        bar = op_dbar(inv)
        for g in dyadic_samples():
            assert vanishes(bar((g,)))

    def test_killing_value_is_invariant_under_the_action(self):
        value = checks.killing_quadratic_cochain(SL2)(())
        for g in dyadic_samples():
            assert SL2.group_action(g, value) == value

    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_coboundary_squares_to_zero(self, arity):
        c = random_cochain(SL2, random.Random(10 + arity), arity)
        squared = op_dbar(op_dbar(c))
        sampler = GroupSampler(SL2, seed=5)
        worst = max(squared(sampler.draw_tuple(arity + 2)).norm()
                    for _ in range(10))
        assert worst <= 1e-9

    def test_coboundary_telescopes_at_identity_slots(self):
        c = random_cochain(SL2, random.Random(20), 1)
        bar = op_dbar(c)
        g = GroupSampler(SL2, seed=6).draw()
        assert vanishes(bar((np.eye(2), g)))
        assert vanishes(bar((g, np.eye(2))))


class TestGroupContraction:
    def test_rejects_arity_zero(self):
        with pytest.raises(ValueError, match="arity at least 1"):
            op_ibar(unit_cochain(SL2))

    def test_vanishing_derivative_of_a_quadratic_profile(self):
        # The vanish factor is quadratic at the identity, so inserting a
        # one-parameter subgroup and differentiating gives zero up to the
        # second-order finite-difference error.
        payload = term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 1, lambda gs: payload.scale(vanish_factor(gs)))
        assert op_ibar(c)(()).norm() <= 1e-5

    def test_linear_entry_profile_gives_the_generator_coordinate(self):
        # f(g) = g[0,1] * P differentiates to the coefficient of the
        # raising element, that is Omega^1 P.
        payload = term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 1, lambda gs: payload.scale(float(gs[0][0][1])))
        expected = payload.multiply_omega_linear(
            Substitution([[0.0, 1.0, 0.0]]), 0)
        assert (op_ibar(c)(()) - expected).norm() <= 1e-6

    def test_two_argument_transport_oracle(self):
        # f(g1, g2) = g1[0,1] g2[1,0] P at g = [[2, 1/2], [1, 3/4]], where
        # both off-diagonal entries are live.  The first slot inserts the
        # raw generator: + O^1 g[1,0] P = O^1 P.  The second slot
        # transports by the inverse adjoint, whose lowering coordinates at
        # this element are (-4, -1, 4), contributing
        # -g[0,1] (-4 O^0 - O^1 + 4 O^2) P.  Hand total, frozen before the
        # engine ran: (2 O^0 + 3/2 O^1 - 2 O^2) P.
        payload = term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 2,
            lambda gs: payload.scale(float(gs[0][0][1]) * float(gs[1][1][0])))
        g = np.array([[2.0, 0.5], [1.0, 0.75]])
        result = op_ibar(c)((g,))
        expected = payload.multiply_omega_linear(
            Substitution([[2.0, 1.5, -2.0]]), 0)
        assert (result - expected).norm() <= 1e-6

    def test_finite_difference_error_is_second_order(self):
        # f(g) = g[0,0] P picks up the diagonal one-parameter subgroup,
        # where the central difference of exp carries the classic
        # sinh(s)/s - 1 = s^2/6 + ... error; successive step halvings must
        # shrink the change by a factor of about four.
        payload = term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 1, lambda gs: payload.scale(float(gs[0][0][0])))
        coarse = op_ibar(c, step=2e-3)(())
        fine = op_ibar(c, step=1e-3)(())
        finest = op_ibar(c, step=5e-4)(())
        first_gap = (coarse - fine).norm()
        second_gap = (fine - finest).norm()
        assert second_gap > 1e-9
        assert 3.0 < first_gap / second_gap < 5.0


# -- self-checks that no report runs ---------------------------------------------

TOL_VANISH = 1e-12


def vanish_check() -> dict:
    """All four operators preserve vanish-at-identity: outputs evaluated
    at 10 sampled tuples with one slot pinned to the identity stay below
    TOL_VANISH."""
    action = LinearAction.sl2()
    rng = random.Random(0)
    worst = 0.0
    for arity in (1, 2):
        cochain = random_cochain(action, rng, arity)
        outputs = [op_d(cochain), op_iota(cochain), op_dbar(cochain),
                   op_ibar(cochain)]
        sampler = GroupSampler(action, 0.5, arity)
        for out in outputs:
            if out.arity == 0:
                continue
            for _ in range(10):
                gs = list(sampler.draw_tuple(out.arity))
                slot = rng.randrange(out.arity)
                gs[slot] = np.eye(action.m)
                worst = max_residual((worst, out(tuple(gs)).norm()))
    return {"residual": worst, "tolerance": TOL_VANISH,
            "ok": worst <= TOL_VANISH}


def degree_shift_check() -> dict:
    """Structural degree bookkeeping: with deg1 the arity and deg2 the
    polynomial degree, the shifts are d (0,+1), iota (0,+1), dbar (+1,0),
    ibar (-1,+2)."""
    action = LinearAction.sl2()
    cochain = random_homogeneous_cochain(action, random.Random(0), 1, 1, 1)
    base_degree = 2 * 1 + 1
    sampler = GroupSampler(action, 0.5, 7)
    shifts = {
        "d": (op_d(cochain), 1, base_degree + 1),
        "iota": (op_iota(cochain), 1, base_degree + 1),
        "dbar": (op_dbar(cochain), 2, base_degree),
        "ibar": (op_ibar(cochain), 0, base_degree + 2),
    }
    table = {}
    for name, (out, want_arity, want_degree) in shifts.items():
        degrees = set()
        for _ in range(5):
            degrees |= form_degrees(out(sampler.draw_tuple(out.arity)))
        table[name] = (out.arity == want_arity
                       and degrees <= {want_degree})
    return {"shifts": table, "ok": all(table.values())}


# -- the total differential ----------------------------------------------------


class TestTotalDifferential:
    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_square_is_second_order_small(self, arity):
        report = checks.dg_square_check(arity, samples=10, step=1e-3, seed=0)
        assert report["ok"]
        assert report["residual"] <= checks.TOL_SQUARE
        assert report["reduction_ratio"] >= checks.MIN_STEP_RATIO

    def test_component_arities_of_the_total_differential(self):
        c = random_cochain(SL2, random.Random(40), 1)
        fam = total_differential(c)
        assert fam.arities() == [0, 1, 2]

    def test_degree_shifts(self):
        report = degree_shift_check()
        assert report["ok"]
        assert report["shifts"] == {"d": True, "iota": True,
                                    "dbar": True, "ibar": True}

    def test_vanishing_at_identity_slots_for_all_operators(self):
        report = vanish_check()
        assert report["ok"]
        assert report["residual"] == 0.0

    def test_invariant_cochains_reduce_to_the_geometric_pair(self):
        report = checks.inclusion_check()
        assert report["ok"]
        assert report["dbar_residual"] == 0.0
        assert report["total_bar_residual"] == 0.0
        assert report["cartan_match"]

    def test_geometric_component_matches_the_public_operators_bitwise(self):
        c = random_cochain(SL2, random.Random(51), 1)
        geometric = total_differential(c).component(1)
        reference = op_d(c) + op_iota(c)
        sampler = GroupSampler(SL2, seed=10)
        for _ in range(3):
            gs = sampler.draw_tuple(1)
            assert geometric(gs) == reference(gs)

    def test_square_residual_evaluates_an_arity_zero_component_once(self):
        base = random_cochain(SL2, random.Random(52), 0)
        runs = []

        def counted(gs):
            runs.append(gs)
            return base(gs)

        c = EquivariantCochain(SL2, 0, counted)
        square_residual(c, GroupSampler(SL2, seed=11), samples=5)
        # d_G^2 of a 0-cochain has arities 0, 1 and 2; each outermost call
        # evaluates c once, and only the arity-0 component is not sampled
        assert runs == [()] * (1 + 2 * 5)

    def test_square_residual_matches_direct_recomputation(self):
        c = random_cochain(SL2, random.Random(50), 0)
        sampler = GroupSampler(SL2, seed=8)
        reported = square_residual(c, sampler, samples=3)
        squared = total_differential(total_differential(c))
        sampler2 = GroupSampler(SL2, seed=8)
        direct = max(squared.component(k)(sampler2.draw_tuple(k)).norm()
                     for k in squared.arities() for _ in range(3))
        assert reported <= max(direct, 1e-5) * 10


# -- the cup product -----------------------------------------------------------


class TestCup:
    def test_unit_laws_are_bitwise(self):
        one = unit_cochain(SL2)
        b = random_cochain(SL2, random.Random(60), 2)
        left = cup(one, b)
        right = cup(b, one)
        sampler = GroupSampler(SL2, seed=9)
        for _ in range(4):
            gs = sampler.draw_tuple(2)
            assert left(gs) == b(gs)
            assert right(gs) == b(gs)

    def test_arities_add(self):
        a = random_cochain(SL2, random.Random(61), 1)
        b = random_cochain(SL2, random.Random(62), 2)
        assert cup(a, b).arity == 3

    def test_total_degrees_add(self):
        a = random_homogeneous_cochain(SL2, random.Random(63), 1, 1, 1)
        b = random_homogeneous_cochain(SL2, random.Random(64), 1, 0, 1)
        gs = GroupSampler(SL2, seed=10).draw_tuple(2)
        value = cup(a, b)(gs)
        assert form_degrees(value) <= {4}

    def test_mixing_actions_rejected(self):
        other = LinearAction.sl2()
        a = unit_cochain(SL2)
        b = unit_cochain(other)
        with pytest.raises(ValueError, match="different actions"):
            cup(a, b)

    def test_associativity(self):
        report = checks.associativity_check()
        assert report["ok"]
        assert report["residual"] <= checks.TOL_ASSOC

    def test_leibniz_rule(self):
        report = checks.leibniz_check()
        assert report["ok"]
        assert report["residual"] <= checks.TOL_LEIBNIZ

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_fails_the_leibniz_check(self):
        # exp(+-1e300 A) overflows and the arity-1 component of the
        # difference has only NaN coefficients; max() used to drop them
        report = checks.leibniz_check(step=1e300)
        assert math.isnan(report["residual"]) and not report["ok"]

    def test_family_cup_collects_all_components(self):
        a = CochainFamily.of(random_cochain(SL2, random.Random(70), 0))
        b = (CochainFamily.of(random_cochain(SL2, random.Random(71), 1))
             + CochainFamily.of(random_cochain(SL2, random.Random(72), 0)))
        prod = cup_family(a, b)
        assert prod.arities() == [0, 1]
