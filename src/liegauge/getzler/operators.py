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

from functools import reduce

from .action import GroupSampler, matmul
from .cochains import CochainFamily, EquivariantCochain
from .polyform import PolyForm, max_residual

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


def op_d(c: EquivariantCochain) -> EquivariantCochain:
    """Exterior derivative on the value, with the arity sign (-1)^k."""
    sign = _parity(c.arity)
    return EquivariantCochain(
        c.action, c.arity, lambda gs: c(gs).exterior_d().scale(sign))


def op_iota(c: EquivariantCochain) -> EquivariantCochain:
    """Contraction with the fundamental field of the symbolic argument,
    Omega-weighted per basis direction, with the arity sign (-1)^k."""
    action = c.action
    sign = _parity(c.arity)

    def evaluate(gs):
        value = c(gs)
        return PolyForm.combine(action.g_dim, action.m, [
            (value.contract_linear_field(field), sign, a)
            for a, field in enumerate(action.fields)])

    return EquivariantCochain(action, c.arity, evaluate)


def op_dbar(c: EquivariantCochain) -> EquivariantCochain:
    """Group coboundary, arity k -> k+1."""
    action = c.action
    k = c.arity

    def evaluate(gs):
        parts = [(action.group_action(gs[0], c(gs[1:])), 1.0, None)]
        for i in range(1, k + 1):
            merged = gs[:i - 1] + (matmul(gs[i - 1], gs[i]),) + gs[i + 1:]
            parts.append((c(merged), _parity(i), None))
        parts.append((c(gs[:k]), _parity(k + 1), None))
        return PolyForm.combine(action.g_dim, action.m, parts)

    return EquivariantCochain(action, k + 1, evaluate)


def op_ibar(c: EquivariantCochain, step: float = 1e-3) -> EquivariantCochain:
    """Group-direction contraction, arity k -> k-1, by central differences.

    The inserted argument runs over exp(+-step * A_b) per basis direction,
    which the action builds once per step; the directional derivatives
    recombine against the coordinates of the adjoint-transported symbolic
    argument, so the only approximation is the O(step^2) finite-difference
    error.
    """
    if c.arity < 1:
        raise ValueError("group contraction needs arity at least 1")
    action = c.action
    k = c.arity
    exps = action.inserted(step)
    half = 1.0 / (2.0 * step)

    def evaluate(gs):
        parts = []
        for i in range(k):
            if i:
                ad = action.transport(reduce(matmul, gs[:i]))[0]
            for b in range(action.g_dim):
                plus, minus = exps[b]
                diff = (c(gs[:i] + (plus,) + gs[i:])
                        - c(gs[:i] + (minus,) + gs[i:]))
                # with no leading arguments the transport is the identity,
                # so the term is the scaled difference shifted by Omega^b
                parts.append(
                    (diff.scale(half).multiply_omega_linear(ad, b),
                     _parity(i), None) if i else (diff, half, b))
        return PolyForm.combine(action.g_dim, action.m, parts)

    return EquivariantCochain(action, k - 1, evaluate)


def total_differential(x, step: float = 1e-3) -> CochainFamily:
    """d_G = d + iota + dbar + ibar, assembled arity by arity."""
    family = x if isinstance(x, CochainFamily) else CochainFamily.of(x)
    parts = []
    for arity in family.arities():
        c = family.component(arity)
        parts += [op_dbar(c), op_d(c) + op_iota(c)]
        if arity >= 1:
            parts.append(op_ibar(c, step))
    return CochainFamily(parts)


def square_residual(x, sampler: GroupSampler, samples: int,
                    step: float = 1e-3) -> float:
    """Largest coefficient of d_G(d_G x) over sampled argument tuples;
    NaN once any coefficient is NaN.  The arity-0 component, whose tuple
    is always empty, is evaluated once."""
    squared = total_differential(total_differential(x, step), step)
    return max_residual(
        squared.component(arity)(sampler.draw_tuple(arity)).norm()
        for arity in squared.arities()
        for _ in range(samples if arity else min(samples, 1)))


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
            right = action.group_action(reduce(matmul, gs[:k]), right)
        return left.twist(l).wedge(right)

    return EquivariantCochain(action, k + l, evaluate)


def cup_family(a: CochainFamily, b: CochainFamily) -> CochainFamily:
    return CochainFamily([cup(a.component(k), b.component(l))
                          for k in a.arities() for l in b.arities()])
