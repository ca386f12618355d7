"""The four checks that `getzler-check` reports, on sl(2) acting on R^2.

Each check returns a plain dict with the measured residual, the tolerance
it is judged against, and an "ok" flag, so the command-line layer can
render them uniformly and tests can assert on the numbers.  All randomness
is seeded explicitly, with seed 0 where a check takes no seed; identical
seeds give identical dicts.  A NaN anywhere in a residual makes the
residual NaN, and the check fails.
"""

from __future__ import annotations

import math
import random

from ..liealg import killing_form
from .action import GroupSampler, LinearAction
from .cochains import (
    CochainFamily,
    constant_cochain,
    random_cochain,
    random_homogeneous_cochain,
)
from .operators import (
    cup,
    cup_family,
    op_d,
    op_dbar,
    op_iota,
    square_residual,
    total_differential,
)
from .polyform import PolyForm, max_residual

__all__ = [
    "DYADIC_SL2_SAMPLES",
    "TOL_SQUARE",
    "TOL_ASSOC",
    "TOL_LEIBNIZ",
    "MIN_STEP_RATIO",
    "killing_quadratic_cochain",
    "dg_square_check",
    "associativity_check",
    "leibniz_check",
    "inclusion_check",
]

TOL_SQUARE = 1e-5
TOL_ASSOC = 1e-8
TOL_LEIBNIZ = 1e-4
MIN_STEP_RATIO = 3.0

# determinant-one matrices with dyadic entries: group arithmetic on these
# is exact in floats, so invariance statements can be checked bitwise
DYADIC_SL2_SAMPLES = (
    ((1.0, 1.0), (0.0, 1.0)),
    ((1.0, 0.0), (1.0, 1.0)),
    ((2.0, 0.5), (1.0, 0.75)),
    ((1.0, 0.5), (1.0, 1.5)),
    ((3.0, 1.0), (2.0, 1.0)),
    ((5.0, 2.0), (2.0, 1.0)),
)


def killing_quadratic_cochain(action: LinearAction):
    """The invariant 0-cochain B(X, X) for B the Killing form of the
    action's exact algebra; coefficients are exact dyadic floats."""
    B = killing_form(action.algebra)
    terms = {}
    g_dim = action.g_dim
    for a in range(g_dim):
        for b in range(a, g_dim):
            coeff = float(B[a, b]) * (1.0 if a == b else 2.0)
            if coeff == 0.0:
                continue
            omega = [0] * g_dim
            omega[a] += 1
            omega[b] += 1
            terms[(tuple(omega), (0,) * action.m, ())] = coeff
    return constant_cochain(action, PolyForm(g_dim, action.m, terms))


def dg_square_check(arity: int, samples: int = 100, step: float = 1e-3,
                    seed: int = 0) -> dict:
    """Residual of d_G squared on a random normalized cochain, plus the
    same residual at half the step; second-order consistency demands the
    ratio stay above MIN_STEP_RATIO."""
    action = LinearAction.sl2()
    rng = random.Random(seed)
    cochain = random_cochain(action, rng, arity)
    residual = square_residual(
        cochain, GroupSampler(action, seed=seed + 1), samples, step)
    halved = square_residual(
        cochain, GroupSampler(action, seed=seed + 1), samples, step / 2.0)
    # a NaN halved residual gives a NaN ratio, which fails the check
    ratio = residual / halved if halved != 0.0 else math.inf
    return {
        "arity": arity,
        "residual": residual,
        "halved_step_residual": halved,
        "reduction_ratio": ratio,
        "tolerance": TOL_SQUARE,
        "ok": residual <= TOL_SQUARE and ratio >= MIN_STEP_RATIO,
    }


def associativity_check(seed: int = 0) -> dict:
    """(a cup b) cup c versus a cup (b cup c) on random cochains at 25
    sampled tuples each; the cup is exact polynomial arithmetic, so only
    roundoff shows up."""
    action = LinearAction.sl2()
    rng = random.Random(seed)
    worst = 0.0
    for arities in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        a, b, c = (random_cochain(action, rng, k) for k in arities)
        left = cup(cup(a, b), c)
        right = cup(a, cup(b, c))
        sampler = GroupSampler(action, seed=seed + sum(arities))
        for _ in range(25):
            gs = sampler.draw_tuple(sum(arities))
            worst = max_residual((worst, (left(gs) - right(gs)).norm()))
    return {"residual": worst, "tolerance": TOL_ASSOC,
            "ok": worst <= TOL_ASSOC}


def leibniz_check(step: float = 1e-3, seed: int = 0) -> dict:
    """d_G(a cup b) against (d_G a) cup b + (-1)^deg(a) a cup (d_G b) for
    homogeneous a, so the sign is well defined, at 25 sampled tuples per
    component; finite differences in the group contraction dominate the
    residual."""
    action = LinearAction.sl2()
    rng = random.Random(seed)
    worst = 0.0
    for omega_deg, dx_deg in ((1, 0), (0, 1), (1, 1)):
        a = random_homogeneous_cochain(action, rng, 1, omega_deg, dx_deg)
        b = random_cochain(action, rng, 1)
        deg_a = 1 + 2 * omega_deg + dx_deg
        sign = -1.0 if deg_a % 2 else 1.0
        lhs = total_differential(cup(a, b), step)
        rhs = cup_family(total_differential(a, step), CochainFamily.of(b)) \
            + cup_family(CochainFamily.of(a),
                         total_differential(b, step)).scale(sign)
        diff = lhs - rhs
        sampler = GroupSampler(action, seed=seed + omega_deg + 2 * dx_deg)
        for arity in diff.arities():
            component = diff.component(arity)
            for _ in range(25):
                worst = max_residual(
                    (worst, component(sampler.draw_tuple(arity)).norm()))
    return {"residual": worst, "tolerance": TOL_LEIBNIZ,
            "ok": worst <= TOL_LEIBNIZ}


def inclusion_check() -> dict:
    """The commuting square for invariant 0-cochains: the coboundary of
    the Killing quadratic must be the literal zero form at the exact group
    samples DYADIC_SL2_SAMPLES, and the total differential must agree with
    the geometric part coefficient for coefficient."""
    cochain = killing_quadratic_cochain(LinearAction.sl2())
    dbar = op_dbar(cochain)
    dbar_worst = max_residual(dbar((g,)).norm()
                              for g in DYADIC_SL2_SAMPLES)
    cartan = (op_d(cochain) + op_iota(cochain))(())
    total = total_differential(cochain)
    geometric = total.component(0)(())
    bar_component = total.component(1)
    bar_worst = max_residual(bar_component((g,)).norm()
                             for g in DYADIC_SL2_SAMPLES)
    return {
        "dbar_residual": dbar_worst,
        "total_bar_residual": bar_worst,
        "cartan_match": geometric == cartan,
        "tolerance": 0.0,
        "ok": dbar_worst == 0.0 and bar_worst == 0.0
              and geometric == cartan,
    }

