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

import random

import numpy as np
import pytest

from liegauge.getzler.action import FIELD_SIGN, GroupSampler, LinearAction
from liegauge.getzler.cochains import (
    CochainFamily,
    EquivariantCochain,
    constant_cochain,
    random_cochain,
    random_homogeneous_cochain,
    unit_cochain,
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
from liegauge.getzler import checks
from liegauge.getzler.polyform import PolyForm
from liegauge.liealg import make_classical

SL2 = LinearAction.sl2()

UNIPOTENT_UP = np.array([[1.0, 1.0], [0.0, 1.0]])
UNIPOTENT_LOW = np.array([[1.0, 0.0], [1.0, 1.0]])


def dyadic_samples():
    return [np.array(rows, dtype=float) for rows in checks.DYADIC_SL2_SAMPLES]


# -- polynomial forms ---------------------------------------------------------


class TestPolyForm:
    def test_wedge_antisymmetry_and_overlap(self):
        a = PolyForm.term(1, 3, 1.0, dx=(0,))
        b = PolyForm.term(1, 3, 1.0, dx=(1,))
        ab = a.wedge(b)
        ba = b.wedge(a)
        assert ab == PolyForm.term(1, 3, 1.0, dx=(0, 1))
        assert ba == PolyForm.term(1, 3, -1.0, dx=(0, 1))
        assert a.wedge(a).is_zero()

    def test_wedge_interleaving_sign(self):
        # dx1 wedge (dx0 ^ dx2) needs one transposition: -dx0^dx1^dx2.
        left = PolyForm.term(1, 3, 1.0, dx=(1,))
        right = PolyForm.term(1, 3, 1.0, dx=(0, 2))
        assert left.wedge(right) == PolyForm.term(1, 3, -1.0, dx=(0, 1, 2))

    def test_exterior_d_basic(self):
        # d(x0 dx1) = dx0 ^ dx1, already in increasing order.
        form = PolyForm.term(1, 2, 1.0, x_exp=(1, 0), dx=(1,))
        assert form.exterior_d() == PolyForm.term(1, 2, 1.0, dx=(0, 1))
        # d(x0 x1) = x1 dx0 + x0 dx1.
        fn = PolyForm.term(1, 2, 1.0, x_exp=(1, 1))
        expected = (PolyForm.term(1, 2, 1.0, x_exp=(0, 1), dx=(0,))
                    + PolyForm.term(1, 2, 1.0, x_exp=(1, 0), dx=(1,)))
        assert fn.exterior_d() == expected

    def test_exterior_d_squares_to_zero_exactly(self):
        form = (PolyForm.term(2, 3, 0.5, x_exp=(2, 1, 0))
                + PolyForm.term(2, 3, 1.25, x_exp=(1, 1, 1), dx=(2,))
                + PolyForm.term(2, 3, -0.75, omega_exp=(1, 1),
                                x_exp=(0, 2, 1), dx=(0,)))
        assert form.exterior_d().exterior_d().is_zero()

    def test_contraction_is_an_exact_antiderivation_square_zero(self):
        field = np.array([[0.0, 1.0], [1.0, 0.0]])
        form = (PolyForm.term(1, 2, 1.0, x_exp=(1, 0), dx=(0, 1))
                + PolyForm.term(1, 2, -2.0, dx=(0,)))
        once = form.contract_linear_field(field)
        assert not once.is_zero()
        assert once.contract_linear_field(field).is_zero()

    def test_contraction_slot_sign(self):
        # iota_V (dx0 ^ dx1) = (Vx)_0 dx1 - (Vx)_1 dx0 for V = identity.
        form = PolyForm.term(1, 2, 1.0, dx=(0, 1))
        expected = (PolyForm.term(1, 2, 1.0, x_exp=(1, 0), dx=(1,))
                    + PolyForm.term(1, 2, -1.0, x_exp=(0, 1), dx=(0,)))
        assert form.contract_linear_field(np.eye(2)) == expected

    def test_substitution_of_generators_hand_expansion(self):
        # Generator rows (1,0,-1): Omega^0 -> Omega^0 - Omega^2, squared.
        M = [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        form = PolyForm.term(3, 0, 1.0, omega_exp=(2, 0, 0))
        expected = (PolyForm.term(3, 0, 1.0, omega_exp=(2, 0, 0))
                    + PolyForm.term(3, 0, -2.0, omega_exp=(1, 0, 1))
                    + PolyForm.term(3, 0, 1.0, omega_exp=(0, 0, 2)))
        assert form.substitute_omega(M) == expected

    def test_pullback_hand_expansion(self):
        # x0 dx1 under x -> Bx with B = [[1,1],[2,3]] (rows act on both
        # the coordinate and its differential).
        B = [[1.0, 1.0], [2.0, 3.0]]
        form = PolyForm.term(1, 2, 1.0, x_exp=(1, 0), dx=(1,))
        expected = (PolyForm.term(1, 2, 2.0, x_exp=(1, 0), dx=(0,))
                    + PolyForm.term(1, 2, 3.0, x_exp=(1, 0), dx=(1,))
                    + PolyForm.term(1, 2, 2.0, x_exp=(0, 1), dx=(0,))
                    + PolyForm.term(1, 2, 3.0, x_exp=(0, 1), dx=(1,)))
        assert form.pullback_linear(B) == expected

    def test_pullback_composes_contravariantly(self):
        B1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        B2 = np.array([[1.0, 0.0], [2.0, 1.0]])
        form = (PolyForm.term(1, 2, 1.0, x_exp=(2, 0), dx=(1,))
                + PolyForm.term(1, 2, -0.5, x_exp=(0, 1), dx=(0, 1)))
        chained = form.pullback_linear(B1).pullback_linear(B2)
        assert chained == form.pullback_linear(B1 @ B2)

    def test_twist_signs_per_term_degree(self):
        form = (PolyForm.term(1, 2, 1.0, dx=(0,))          # degree 1
                + PolyForm.term(1, 2, 1.0, omega_exp=(1,)))  # degree 2
        twisted = form.twist(1)
        expected = (PolyForm.term(1, 2, -1.0, dx=(0,))
                    + PolyForm.term(1, 2, 1.0, omega_exp=(1,)))
        assert twisted == expected
        assert form.twist(2) == form

    def test_degrees_and_norm(self):
        form = (PolyForm.term(2, 2, -3.0, omega_exp=(1, 1), dx=(0,))
                + PolyForm.term(2, 2, 0.25, x_exp=(1, 1)))
        assert form.degrees() == {5, 0}
        assert form.norm() == 3.0
        assert PolyForm.zero(2, 2).degrees() == set()

    def test_zero_terms_are_pruned(self):
        form = PolyForm.term(1, 1, 1.0) + PolyForm.term(1, 1, -1.0)
        assert form.is_zero()
        assert form == PolyForm.zero(1, 1)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            PolyForm.term(1, 1, 1.0) + PolyForm.term(2, 1, 1.0)

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


# -- the linear action and its exact plumbing --------------------------------


class TestLinearAction:
    def test_dual_frame_roundtrip_is_exact(self):
        h, e, f = SL2.basis
        M = 2.0 * h + 3.0 * e - 1.0 * f
        assert SL2.coefficients(M) == [2.0, 3.0, -1.0]

    def test_dependent_basis_rejected(self):
        h, e, _ = (np.asarray(b) for b in SL2.basis)
        with pytest.raises(ValueError, match="linearly dependent"):
            LinearAction("dep", [h, e, h + e])

    def test_adjoint_matrix_hand_values(self):
        # At the upper unipotent element the adjoint images of the basis
        # are h - 2e, e, and h - e + f; the matrix stores them by columns.
        expected = [[1.0, 0.0, 1.0],
                    [-2.0, 1.0, -1.0],
                    [0.0, 0.0, 1.0]]
        assert SL2.ad_matrix(UNIPOTENT_UP) == expected
        eye = SL2.ad_matrix(np.eye(2))
        assert eye == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_adjoint_matrix_is_multiplicative(self):
        g1, g2 = dyadic_samples()[2:4]
        lhs = np.array(SL2.ad_matrix(g1 @ g2))
        rhs = np.array(SL2.ad_matrix(g1)) @ np.array(SL2.ad_matrix(g2))
        assert np.array_equal(lhs, rhs)

    def test_group_action_is_a_left_action_bitwise(self):
        form = (PolyForm.term(3, 2, 1.0, omega_exp=(1, 0, 1),
                              x_exp=(1, 0), dx=(1,))
                + PolyForm.term(3, 2, -0.5, x_exp=(0, 2), dx=(0,)))
        for g1 in dyadic_samples()[:3]:
            for g2 in dyadic_samples()[3:]:
                nested = SL2.group_action(g2, SL2.group_action(g1, form))
                joint = SL2.group_action(g2 @ g1, form)
                assert nested == joint

    def test_identity_action_returns_the_form_unchanged(self):
        form = PolyForm.term(3, 2, 1.5, omega_exp=(0, 1, 0), dx=(0,))
        assert SL2.group_action(np.eye(2), form) is form

    def test_dyadic_inverse_is_exact(self):
        for g in dyadic_samples():
            assert np.array_equal(SL2.inverse(g) @ g, np.eye(2))

    def test_from_exact_algebra_matches_builtin(self):
        built = LinearAction.from_exact_algebra(make_classical("sl", 2))
        for ours, theirs in zip(SL2.basis, built.basis):
            assert np.array_equal(ours, theirs)

    def test_complex_algebra_rejected(self):
        with pytest.raises(ValueError, match="non-real"):
            LinearAction.from_exact_algebra(make_classical("su", 2))

    def test_sampler_is_deterministic_and_invertible(self):
        a = GroupSampler(SL2, seed=9)
        b = GroupSampler(SL2, seed=9)
        for _ in range(20):
            ga, gb = a.draw(), b.draw()
            assert np.array_equal(ga, gb)
            assert abs(np.linalg.det(ga)) > 1e-8

    def test_point_action_has_no_coordinates(self):
        point = LinearAction.abelian_point(2)
        assert point.m == 0
        assert GroupSampler(point, seed=0).draw().shape == (0, 0)
        assert point.coefficients(np.zeros((0, 0))) == [0.0, 0.0]


# -- cochains ------------------------------------------------------------------


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
        assert c((np.eye(2), g)).is_zero()
        assert c((g, np.eye(2))).is_zero()
        assert not c((g, g)).is_zero()

    def test_unit_cochain_is_one_everywhere(self):
        one = unit_cochain(SL2)
        assert one(()) == PolyForm.constant(3, 2, 1.0)

    def test_vanish_factor_is_zero_only_at_the_identity(self):
        assert vanish_factor((np.eye(2),)) == 0.0
        assert vanish_factor((UNIPOTENT_UP,)) == 1.0

    def test_family_collects_components_by_arity(self):
        c1 = random_cochain(SL2, random.Random(2), 1)
        fam = CochainFamily.of(c1) + CochainFamily.of(unit_cochain(SL2))
        assert fam.arities() == [0, 1]
        diff = fam - fam
        g = GroupSampler(SL2, seed=1).draw()
        assert diff.component(1)((g,)).is_zero()


# -- the four operators --------------------------------------------------------


class TestGeometricOperators:
    def test_contraction_of_a_coordinate_differential(self):
        # iota(dx0) is the first component of the field of the symbolic
        # generator: Omega^0 x0 + Omega^1 x1 for the standard basis.
        c = constant_cochain(SL2, PolyForm.term(3, 2, 1.0, dx=(0,)))
        expected = (PolyForm.term(3, 2, 1.0, omega_exp=(1, 0, 0),
                                  x_exp=(1, 0))
                    + PolyForm.term(3, 2, 1.0, omega_exp=(0, 1, 0),
                                    x_exp=(0, 1)))
        assert op_iota(c)(()) == expected

    def test_field_orientation_is_frozen(self):
        assert FIELD_SIGN == 1.0

    def test_iota_squares_to_zero_exactly(self):
        c = random_cochain(SL2, random.Random(3), 1)
        sampler = GroupSampler(SL2, seed=2)
        for _ in range(5):
            assert op_iota(op_iota(c))((sampler.draw(),)).is_zero()

    def test_d_squares_to_zero_exactly(self):
        c = random_cochain(SL2, random.Random(4), 1)
        sampler = GroupSampler(SL2, seed=3)
        for _ in range(5):
            assert op_d(op_d(c))((sampler.draw(),)).is_zero()

    def test_d_carries_the_arity_sign(self):
        form = PolyForm.term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        flat = EquivariantCochain(SL2, 1, lambda gs: form)
        expected = PolyForm.term(3, 2, -1.0, dx=(0, 1))
        assert op_d(flat)((UNIPOTENT_UP,)) == expected


class TestCoboundary:
    def test_hand_substituted_adjoint_oracle(self):
        # At the upper unipotent element the adjoint of the inverse sends
        # the symbolic generator coordinates to (O^0 - O^2, 2 O^0 + O^1 -
        # O^2, O^2), so the square of the first coordinate picks up
        # -2 O^0 O^2 + (O^2)^2 under the coboundary.
        quad = constant_cochain(
            SL2, PolyForm.term(3, 2, 1.0, omega_exp=(2, 0, 0)))
        result = op_dbar(quad)((UNIPOTENT_UP,))
        expected = (PolyForm.term(3, 2, -2.0, omega_exp=(1, 0, 1))
                    + PolyForm.term(3, 2, 1.0, omega_exp=(0, 0, 2)))
        assert result == expected

    def test_coboundary_of_invariant_cochain_is_bitwise_zero(self):
        algebra = make_classical("sl", 2)
        inv = checks.killing_quadratic_cochain(SL2, algebra)
        bar = op_dbar(inv)
        for g in dyadic_samples():
            assert bar((g,)).is_zero()

    def test_killing_value_is_invariant_under_the_action(self):
        algebra = make_classical("sl", 2)
        value = checks.killing_quadratic_cochain(SL2, algebra)(())
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
        assert bar((np.eye(2), g)).is_zero()
        assert bar((g, np.eye(2))).is_zero()


class TestGroupContraction:
    def test_rejects_arity_zero(self):
        with pytest.raises(ValueError, match="arity at least 1"):
            op_ibar(unit_cochain(SL2))

    def test_vanishing_derivative_of_a_quadratic_profile(self):
        # The vanish factor is quadratic at the identity, so inserting a
        # one-parameter subgroup and differentiating gives zero up to the
        # second-order finite-difference error.
        payload = PolyForm.term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 1, lambda gs: payload.scale(vanish_factor(gs)))
        assert op_ibar(c)(()).norm() <= 1e-5

    def test_linear_entry_profile_gives_the_generator_coordinate(self):
        # f(g) = g[0,1] * P differentiates to the coefficient of the
        # raising element, that is Omega^1 P.
        payload = PolyForm.term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 1, lambda gs: payload.scale(float(gs[0][0, 1])))
        expected = payload.multiply_omega_linear([0.0, 1.0, 0.0])
        assert (op_ibar(c)(()) - expected).norm() <= 1e-6

    def test_two_argument_transport_oracle(self):
        # f(g1, g2) = g1[0,1] g2[1,0] P at g = [[2, 1/2], [1, 3/4]], where
        # both off-diagonal entries are live.  The first slot inserts the
        # raw generator: + O^1 g[1,0] P = O^1 P.  The second slot
        # transports by the inverse adjoint, whose lowering coordinates at
        # this element are (-4, -1, 4), contributing
        # -g[0,1] (-4 O^0 - O^1 + 4 O^2) P.  Hand total, frozen before the
        # engine ran: (2 O^0 + 3/2 O^1 - 2 O^2) P.
        payload = PolyForm.term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 2,
            lambda gs: payload.scale(float(gs[0][0, 1]) * float(gs[1][1, 0])))
        g = np.array([[2.0, 0.5], [1.0, 0.75]])
        result = op_ibar(c)((g,))
        expected = payload.multiply_omega_linear([2.0, 1.5, -2.0])
        assert (result - expected).norm() <= 1e-6

    def test_finite_difference_error_is_second_order(self):
        # f(g) = g[0,0] P picks up the diagonal one-parameter subgroup,
        # where the central difference of exp carries the classic
        # sinh(s)/s - 1 = s^2/6 + ... error; successive step halvings must
        # shrink the change by a factor of about four.
        payload = PolyForm.term(3, 2, 1.0, x_exp=(1, 0), dx=(1,))
        c = EquivariantCochain(
            SL2, 1, lambda gs: payload.scale(float(gs[0][0, 0])))
        coarse = op_ibar(c, step=2e-3)(())
        fine = op_ibar(c, step=1e-3)(())
        finest = op_ibar(c, step=5e-4)(())
        first_gap = (coarse - fine).norm()
        second_gap = (fine - finest).norm()
        assert second_gap > 1e-9
        assert 3.0 < first_gap / second_gap < 5.0


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
        report = checks.degree_shift_check()
        assert report["ok"]
        assert report["shifts"] == {"d": True, "iota": True,
                                    "dbar": True, "ibar": True}

    def test_vanishing_at_identity_slots_for_all_operators(self):
        report = checks.vanish_check()
        assert report["ok"]
        assert report["residual"] == 0.0

    def test_invariant_cochains_reduce_to_the_geometric_pair(self):
        report = checks.inclusion_check()
        assert report["ok"]
        assert report["dbar_residual"] == 0.0
        assert report["total_bar_residual"] == 0.0
        assert report["cartan_match"]

    def test_point_action_kills_the_geometric_pair(self):
        report = checks.abelian_point_check(g_dim=2)
        assert report["ok"]
        assert report["geometric_zero"]
        assert report["bar_zero"]

    def test_geometric_component_matches_the_public_operators_bitwise(self):
        c = random_cochain(SL2, random.Random(51), 1)
        geometric = total_differential(c).component(1)
        reference = op_d(c) + op_iota(c)
        sampler = GroupSampler(SL2, seed=10)
        for _ in range(3):
            gs = sampler.draw_tuple(1)
            assert geometric(gs) == reference(gs)

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
        assert value.degrees() <= {4}

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

    def test_family_cup_collects_all_components(self):
        a = CochainFamily.of(random_cochain(SL2, random.Random(70), 0))
        b = (CochainFamily.of(random_cochain(SL2, random.Random(71), 1))
             + CochainFamily.of(random_cochain(SL2, random.Random(72), 0)))
        prod = cup_family(a, b)
        assert prod.arities() == [0, 1]
