"""The four equivariant operators, their total differential, and the cup.

Conventions, fixed here and documented in CONVENTIONS.md:

  * geometric pieces: op_d applies the exterior derivative and op_iota the
    Omega-weighted contraction with the fundamental fields, both scaled by
    (-1)^arity so they anticommute with the group-direction pieces;
  * coboundary op_dbar: alternating sum over argument merges with the
    first term acted on by the leading group element and the last term
    left bare, the shape that makes the square vanish for a left action
    (generator substitution by the inverse adjoint, pullback along the
    inverse on the ambient space);
  * group contraction op_ibar: alternating sum over insertion slots of the
    t-derivative at zero with exp(t X_i) inserted, X_i the argument
    transported by the inverse adjoint of the product of the arguments in
    front of the slot.  The derivative is taken per basis direction by
    central differences and recombined with the Omega-linear coordinate
    forms, which is exact in Omega.

The square of the total differential is the designated arbiter for every
sign above; see the checks module.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .action import GroupSampler, LinearAction
from .cochains import CochainFamily, EquivariantCochain
from .polyform import PolyForm

__all__ = [
    "op_d",
    "op_iota",
    "op_dbar",
    "op_ibar",
    "total_differential",
    "square_residual",
    "cup",
    "cup_family",
]


def _parity(k: int) -> float:
    return -1.0 if k % 2 else 1.0


def _d_value(value: PolyForm, sign: float) -> PolyForm:
    return value.exterior_d().scale(sign)


def _iota_value(action: LinearAction, value: PolyForm,
                sign: float) -> PolyForm:
    unit_rows = np.eye(action.g_dim)
    total = PolyForm.zero(action.g_dim, action.m)
    for a in range(action.g_dim):
        contracted = value.contract_linear_field(action.field_matrix(a))
        total = total + contracted.multiply_omega_linear(unit_rows[a])
    return total.scale(sign)


def op_d(c: EquivariantCochain) -> EquivariantCochain:
    """Exterior derivative on the value, with the arity sign (-1)^k."""
    sign = _parity(c.arity)
    return EquivariantCochain(
        c.action, c.arity, lambda gs: _d_value(c(gs), sign))


def op_iota(c: EquivariantCochain) -> EquivariantCochain:
    """Contraction with the fundamental field of the symbolic argument,
    Omega-weighted per basis direction, with the arity sign (-1)^k."""
    sign = _parity(c.arity)
    return EquivariantCochain(
        c.action, c.arity, lambda gs: _iota_value(c.action, c(gs), sign))


def _geometric_pair(c: EquivariantCochain) -> EquivariantCochain:
    """op_d(c) + op_iota(c), evaluating c once per argument tuple."""
    sign = _parity(c.arity)

    def evaluate(gs):
        value = c(gs)
        return _d_value(value, sign) + _iota_value(c.action, value, sign)

    return EquivariantCochain(c.action, c.arity, evaluate)


def op_dbar(c: EquivariantCochain) -> EquivariantCochain:
    """Group coboundary, arity k -> k+1."""
    action = c.action
    k = c.arity

    def evaluate(gs):
        total = action.group_action(gs[0], c(gs[1:]))
        for i in range(1, k + 1):
            merged = gs[:i - 1] + (gs[i - 1] @ gs[i],) + gs[i + 1:]
            total = total + c(merged).scale(_parity(i))
        return total + c(gs[:k]).scale(_parity(k + 1))

    return EquivariantCochain(action, k + 1, evaluate)


def op_ibar(c: EquivariantCochain, step: float = 1e-3) -> EquivariantCochain:
    """Group-direction contraction, arity k -> k-1, by central differences.

    The inserted argument runs over exp(+-step * A_b) per basis direction;
    the directional derivatives recombine against the coordinates of the
    adjoint-transported symbolic argument, so the only approximation is the
    O(step^2) finite-difference error.
    """
    if c.arity < 1:
        raise ValueError("group contraction needs arity at least 1")
    action = c.action
    k = c.arity
    if action.m == 0:
        exps = [(np.zeros((0, 0)), np.zeros((0, 0)))] * action.g_dim
    else:
        exps = [(expm(step * A), expm(-step * A)) for A in action.basis]
    half = 1.0 / (2.0 * step)
    unit_rows = np.eye(action.g_dim)

    def evaluate(gs):
        total = PolyForm.zero(action.g_dim, action.m)
        for i in range(k):
            leading = gs[:i]
            if leading:
                h = leading[0]
                for g in leading[1:]:
                    h = h @ g
                ad_rows = action.ad_matrix(action.inverse(h))
            else:
                ad_rows = unit_rows
            sign = _parity(i)
            for b in range(action.g_dim):
                plus, minus = exps[b]
                diff = (c(gs[:i] + (plus,) + gs[i:])
                        - c(gs[:i] + (minus,) + gs[i:])).scale(half)
                total = total + diff.multiply_omega_linear(
                    ad_rows[b]).scale(sign)
        return total

    return EquivariantCochain(action, k - 1, evaluate)


def total_differential(x, step: float = 1e-3) -> CochainFamily:
    """d_G = d + iota + dbar + ibar, assembled arity by arity."""
    family = x if isinstance(x, CochainFamily) else CochainFamily.of(x)
    out = CochainFamily()
    for arity in family.arities():
        c = family.component(arity)
        out = out + CochainFamily.of(op_dbar(c))
        out = out + CochainFamily.of(_geometric_pair(c))
        if arity >= 1:
            out = out + CochainFamily.of(op_ibar(c, step))
    return out


def square_residual(x, sampler: GroupSampler, samples: int,
                    step: float = 1e-3) -> float:
    """Largest coefficient of d_G(d_G x) over sampled argument tuples."""
    squared = total_differential(total_differential(x, step), step)
    worst = 0.0
    for arity in squared.arities():
        component = squared.component(arity)
        for _ in range(samples):
            value = component(sampler.draw_tuple(arity))
            worst = max(worst, value.norm())
    return worst


def cup(a: EquivariantCochain, b: EquivariantCochain) -> EquivariantCochain:
    """Cup product: the product of the leading factor's arguments acts on
    the trailing factor's value, with the per-term sign (-1)^(l * degree)
    on the leading value for l the arity of the second factor."""
    if a.action is not b.action:
        raise ValueError("cochains belong to different actions")
    action = a.action
    k, l = a.arity, b.arity

    def evaluate(gs):
        left = a(gs[:k])
        right = b(gs[k:])
        if k > 0:
            gamma = gs[0]
            for g in gs[1:k]:
                gamma = gamma @ g
            right = action.group_action(gamma, right)
        return left.twist(l).wedge(right)

    return EquivariantCochain(action, k + l, evaluate)


def cup_family(a: CochainFamily, b: CochainFamily) -> CochainFamily:
    out = CochainFamily()
    for k in a.arities():
        for l in b.arities():
            out = out + CochainFamily.of(cup(a.component(k), b.component(l)))
    return out
