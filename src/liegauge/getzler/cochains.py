"""Group cochains valued in polynomial forms, and families thereof.

A cochain of arity k maps a tuple of k group elements to a PolyForm; the
symbolic argument X never appears as data because the value is polynomial
in its coordinates.  Evaluators must be pure and PolyForm values are never
mutated: the outermost call opens a scope on the action that evaluates each
(cochain, argument bytes) pair once and transports by each group element
once, and drops it when that call returns.  What lives longer is on the
action and fixed by its basis: the fundamental fields, the elements
exp(+-step A_b) that op_ibar inserts, built once per step, and their
transports, each built on first use and kept for the action's lifetime.

Normalized cochains vanish whenever an argument is the identity; the
random generators below enforce this with a squared-distance factor per
argument, as the complex requires.  Each draws one frozen form of a fixed
shape (term count and factor bounds are constants every check shares),
so a seeded generator fixes the cochain.

Operators mix arities (the coboundary raises it, the group contraction
lowers it), so inhomogeneous elements are kept as CochainFamily objects:
one cochain per arity, missing arities meaning zero.
"""

from __future__ import annotations

from .action import FloatMatrix, LinearAction
from .polyform import PolyForm

__all__ = [
    "EquivariantCochain",
    "CochainFamily",
    "constant_cochain",
    "vanish_factor",
    "random_cochain",
    "random_homogeneous_cochain",
]


class EquivariantCochain:
    """Arity-k cochain: a pure evaluator from k-tuples of group elements
    to PolyForm values over the action's dimensions."""

    def __init__(self, action: LinearAction, arity: int, evaluator):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.action = action
        self.arity = arity
        self._evaluator = evaluator

    def __call__(self, gs) -> PolyForm:
        gs = tuple(map(FloatMatrix.of, gs))
        if len(gs) != self.arity:
            raise ValueError(
                f"cochain of arity {self.arity} called with {len(gs)} "
                "group elements")
        action = self.action
        outermost = action.scope is None
        if outermost:
            action.scope = {}
        try:
            key = (self, *map(FloatMatrix.tobytes, gs))
            if key not in action.scope:
                action.scope[key] = self._evaluator(gs)
            return action.scope[key]
        finally:
            if outermost:
                action.scope = None

    def scale(self, c: float) -> "EquivariantCochain":
        return EquivariantCochain(
            self.action, self.arity, lambda gs: self(gs).scale(c))

    def __add__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        if self.arity != other.arity:
            raise ValueError("cannot add cochains of different arity")
        if self.action is not other.action:
            raise ValueError("cochains belong to different actions")
        return EquivariantCochain(
            self.action, self.arity, lambda gs: self(gs) + other(gs))


def constant_cochain(action: LinearAction, form: PolyForm
                     ) -> EquivariantCochain:
    if (form.g_dim, form.m) != (action.g_dim, action.m):
        raise ValueError("form dimensions do not match the action")
    return EquivariantCochain(action, 0, lambda gs: form)


def vanish_factor(gs) -> float:
    """Product of squared Frobenius distances to the identity, one factor
    per argument (any nested sequences); exactly zero when any argument is
    the identity.  Each distance is summed left to right in row-major
    order, which is numpy's order for fewer than eight terms; for m >= 3
    numpy sums pairwise, and the two may differ in the last bit."""
    out = 1.0
    for g in gs:
        total = 0.0
        for i, row in enumerate(g):
            for j, v in enumerate(row):
                d = float(v) - 1.0 if i == j else float(v)
                total += d * d
        out *= total
    return out


def _exponents(rng, size: int, count: int) -> tuple[int, ...]:
    """Exponent vector of count factors, each drawn uniformly from size
    variables."""
    out = [0] * size
    for _ in range(count):
        out[rng.randrange(size)] += 1
    return tuple(out)


def _random_normalized_cochain(action: LinearAction, rng, arity: int,
                               count: int, omega_count, dx_count
                               ) -> EquivariantCochain:
    """The term loop of both generators: each of `count` terms draws
    omega_count() generator factors, up to two coordinate factors,
    dx_count() differentials and a coefficient, in that order."""
    terms = {}
    for _ in range(count):
        omega = _exponents(rng, action.g_dim, omega_count())
        x = _exponents(rng, action.m, rng.randint(0, 2))
        dx = tuple(sorted(rng.sample(range(action.m), dx_count())))
        key = (omega, x, dx)
        terms[key] = terms.get(key, 0.0) + rng.uniform(-1.0, 1.0)
    form = PolyForm(action.g_dim, action.m, terms)
    if arity == 0:
        return constant_cochain(action, form)
    return EquivariantCochain(
        action, arity, lambda gs: form.scale(vanish_factor(gs)))


def random_cochain(action: LinearAction, rng, arity: int
                   ) -> EquivariantCochain:
    """Normalized random cochain: a frozen random form scaled by the
    vanish-at-identity factor of the arguments.  The form has four terms,
    each with up to two generator factors, up to two coordinate factors,
    any set of differentials and a coefficient in [-1, 1]."""
    return _random_normalized_cochain(
        action, rng, arity, 4, lambda: rng.randint(0, 2),
        lambda: rng.randint(0, action.m))


def random_homogeneous_cochain(action: LinearAction, rng, arity: int,
                               omega_deg: int, dx_deg: int
                               ) -> EquivariantCochain:
    """Normalized random cochain of sharp polynomial degree
    2*omega_deg + dx_deg, for tests that need a well-defined total degree
    (the Leibniz sign, degree shifts).  The form has three terms, each with
    omega_deg generator factors, up to two coordinate factors, dx_deg
    differentials and a coefficient in [-1, 1]."""
    if dx_deg > action.m:
        raise ValueError("cannot wedge more differentials than coordinates")
    return _random_normalized_cochain(
        action, rng, arity, 3, lambda: omega_deg, lambda: dx_deg)


class CochainFamily:
    """Finite arity-indexed sum of cochains; missing arities are zero."""

    def __init__(self, components=None):
        self.components: dict[int, EquivariantCochain] = {}
        for c in components or ():
            held = self.components.get(c.arity)
            self.components[c.arity] = c if held is None else held + c

    @classmethod
    def of(cls, cochain: EquivariantCochain) -> "CochainFamily":
        return cls([cochain])

    def arities(self) -> list[int]:
        return sorted(self.components)

    def component(self, arity: int) -> EquivariantCochain | None:
        return self.components.get(arity)

    def __add__(self, other: "CochainFamily") -> "CochainFamily":
        return CochainFamily([*self.components.values(),
                              *other.components.values()])

    def scale(self, factor: float) -> "CochainFamily":
        return CochainFamily(
            [c.scale(factor) for c in self.components.values()])

    def __sub__(self, other: "CochainFamily") -> "CochainFamily":
        return self + other.scale(-1.0)
