"""Named verification routines over the equivariant operators.

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

import numpy as np

from ..liealg import killing_form, make_classical
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
    op_ibar,
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
    "TOL_VANISH",
    "MIN_STEP_RATIO",
    "killing_quadratic_cochain",
    "dg_square_check",
    "associativity_check",
    "leibniz_check",
    "inclusion_check",
    "vanish_check",
    "degree_shift_check",
    "abelian_point_check",
]

TOL_SQUARE = 1e-5
TOL_ASSOC = 1e-8
TOL_LEIBNIZ = 1e-4
TOL_VANISH = 1e-12
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


def _default_action() -> LinearAction:
    return LinearAction.sl2()


def killing_quadratic_cochain(action: LinearAction, algebra):
    """The invariant 0-cochain B(X, X) for B the Killing form of the exact
    algebra underlying the action; coefficients are exact dyadic floats."""
    B = killing_form(algebra)
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
                    seed: int = 0, action: LinearAction | None = None) -> dict:
    """Residual of d_G squared on a random normalized cochain, plus the
    same residual at half the step; second-order consistency demands the
    ratio stay above MIN_STEP_RATIO."""
    action = action or _default_action()
    rng = random.Random(seed)
    cochain = random_cochain(action, rng, arity)
    residual = square_residual(
        cochain, GroupSampler(action, 0.5, seed + 1), samples, step)
    halved = square_residual(
        cochain, GroupSampler(action, 0.5, seed + 1), samples, step / 2.0)
    # a NaN halved residual gives a NaN ratio, which fails the check
    ratio = residual / halved if halved != 0.0 else math.inf
    return {
        "arity": arity,
        "samples": samples,
        "step": step,
        "residual": residual,
        "halved_step_residual": halved,
        "reduction_ratio": ratio,
        "tolerance": TOL_SQUARE,
        "min_ratio": MIN_STEP_RATIO,
        "ok": residual <= TOL_SQUARE and ratio >= MIN_STEP_RATIO,
    }


def associativity_check(seed: int = 0,
                        action: LinearAction | None = None) -> dict:
    """(a cup b) cup c versus a cup (b cup c) on random cochains at 25
    sampled tuples each; the cup is exact polynomial arithmetic, so only
    roundoff shows up."""
    action = action or _default_action()
    rng = random.Random(seed)
    worst = 0.0
    for arities in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        a, b, c = (random_cochain(action, rng, k) for k in arities)
        left = cup(cup(a, b), c)
        right = cup(a, cup(b, c))
        sampler = GroupSampler(action, 0.5, seed + sum(arities))
        for _ in range(25):
            gs = sampler.draw_tuple(sum(arities))
            worst = max_residual((worst, (left(gs) - right(gs)).norm()))
    return {"residual": worst, "tolerance": TOL_ASSOC,
            "ok": worst <= TOL_ASSOC}


def leibniz_check(step: float = 1e-3, seed: int = 0,
                  action: LinearAction | None = None) -> dict:
    """d_G(a cup b) against (d_G a) cup b + (-1)^deg(a) a cup (d_G b) for
    homogeneous a, so the sign is well defined, at 25 sampled tuples per
    component; finite differences in the group contraction dominate the
    residual."""
    action = action or _default_action()
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
        sampler = GroupSampler(action, 0.5, seed + omega_deg + 2 * dx_deg)
        for arity in diff.arities():
            component = diff.component(arity)
            for _ in range(25):
                worst = max_residual(
                    (worst, component(sampler.draw_tuple(arity)).norm()))
    return {"residual": worst, "step": step, "tolerance": TOL_LEIBNIZ,
            "ok": worst <= TOL_LEIBNIZ}


def inclusion_check(action: LinearAction | None = None,
                    algebra=None) -> dict:
    """The commuting square for invariant 0-cochains: the coboundary of
    the Killing quadratic must be the literal zero form at the exact group
    samples DYADIC_SL2_SAMPLES, and the total differential must agree with
    the geometric part coefficient for coefficient."""
    action = action or _default_action()
    algebra = algebra or make_classical("sl", 2)
    cochain = killing_quadratic_cochain(action, algebra)
    dbar = op_dbar(cochain)
    dbar_worst = max_residual(dbar((np.asarray(g),)).norm()
                              for g in DYADIC_SL2_SAMPLES)
    cartan = (op_d(cochain) + op_iota(cochain))(())
    total = total_differential(cochain)
    geometric = total.component(0)(())
    bar_component = total.component(1)
    bar_worst = max_residual(bar_component((np.asarray(g),)).norm()
                             for g in DYADIC_SL2_SAMPLES)
    return {
        "dbar_residual": dbar_worst,
        "total_bar_residual": bar_worst,
        "cartan_match": geometric == cartan,
        "tolerance": 0.0,
        "ok": dbar_worst == 0.0 and bar_worst == 0.0
              and geometric == cartan,
    }


def vanish_check(action: LinearAction | None = None) -> dict:
    """All four operators preserve vanish-at-identity: outputs evaluated
    at 10 sampled tuples with one slot pinned to the identity stay below
    TOL_VANISH."""
    action = action or _default_action()
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
                gs[slot] = action.identity()
                worst = max_residual((worst, out(tuple(gs)).norm()))
    return {"residual": worst, "tolerance": TOL_VANISH,
            "ok": worst <= TOL_VANISH}


def degree_shift_check(action: LinearAction | None = None) -> dict:
    """Structural degree bookkeeping: with deg1 the arity and deg2 the
    polynomial degree, the shifts are d (0,+1), iota (0,+1), dbar (+1,0),
    ibar (-1,+2)."""
    action = action or _default_action()
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
            degrees |= out(sampler.draw_tuple(out.arity)).degrees()
        table[name] = (out.arity == want_arity
                       and degrees <= {want_degree})
    return {"shifts": table, "ok": all(table.values())}


def abelian_point_check(g_dim: int = 1) -> dict:
    """Abelian algebra on a point: the geometric differential d + iota is
    identically zero on generator polynomials, and the coboundary of any
    0-cochain vanishes because the trivial group acts trivially."""
    action = LinearAction.abelian_point(g_dim)
    rng = random.Random(0)
    terms = {}
    for _ in range(4):
        omega = [0] * g_dim
        for _ in range(rng.randint(0, 3)):
            omega[rng.randrange(g_dim)] += 1
        terms[(tuple(omega), (), ())] = rng.uniform(-1.0, 1.0)
    cochain = constant_cochain(action, PolyForm(g_dim, 0, terms))
    geometric = (op_d(cochain) + op_iota(cochain))(())
    empty = np.zeros((0, 0))
    bar = op_dbar(cochain)((empty,))
    return {
        "geometric_zero": geometric.is_zero(),
        "bar_zero": bar.is_zero(),
        "ok": geometric.is_zero() and bar.is_zero(),
    }
