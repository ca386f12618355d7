"""Group cochains valued in polynomial forms, and families thereof.

A cochain of arity k maps a tuple of k group elements to a PolyForm; the
symbolic argument X never appears as data because the value is polynomial
in its coordinates.  Evaluators must be pure and PolyForm values are never
mutated: the outermost call opens a scope on the action that evaluates each
(cochain, argument bytes) pair once and transports by each group element
once, and drops it when that call returns.  What lives longer is on the
action and fixed by its basis: the fundamental fields, and the transports
by the elements exp(+-step A_b) that op_ibar inserts, each built on first
use and kept for the action's lifetime.

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

import operator

import numpy as np

from .action import LinearAction
from .polyform import PolyForm

__all__ = [
    "EquivariantCochain",
    "CochainFamily",
    "constant_cochain",
    "unit_cochain",
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
        gs = tuple([np.asarray(g, float) for g in gs])
        if len(gs) != self.arity:
            raise ValueError(
                f"cochain of arity {self.arity} called with {len(gs)} "
                "group elements")
        action = self.action
        outermost = action.scope is None
        if outermost:
            action.scope = {}
        try:
            key = (self, *map(np.ndarray.tobytes, gs))
            if key not in action.scope:
                action.scope[key] = self._evaluator(gs)
            return action.scope[key]
        finally:
            if outermost:
                action.scope = None

    def scale(self, c: float) -> "EquivariantCochain":
        return EquivariantCochain(
            self.action, self.arity, lambda gs: self(gs).scale(c))

    def _pointwise(self, other: "EquivariantCochain", op
                   ) -> "EquivariantCochain":
        if self.arity != other.arity:
            raise ValueError("cannot add cochains of different arity")
        if self.action is not other.action:
            raise ValueError("cochains belong to different actions")
        return EquivariantCochain(
            self.action, self.arity, lambda gs: op(self(gs), other(gs)))

    def __add__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        return self._pointwise(other, operator.add)

    def __sub__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        return self._pointwise(other, operator.sub)


def constant_cochain(action: LinearAction, form: PolyForm
                     ) -> EquivariantCochain:
    if (form.g_dim, form.m) != (action.g_dim, action.m):
        raise ValueError("form dimensions do not match the action")
    return EquivariantCochain(action, 0, lambda gs: form)


def unit_cochain(action: LinearAction) -> EquivariantCochain:
    """The formal multiplicative unit: the constant-one 0-cochain.  It does
    not vanish at the identity; it is exempt from that normalization."""
    return constant_cochain(
        action, PolyForm.constant(action.g_dim, action.m, 1.0))


def vanish_factor(gs) -> float:
    """Product of squared Frobenius distances to the identity, one factor
    per argument; exactly zero when any argument is the identity.  Each
    distance is summed in row-major order, as numpy sums fewer than eight
    terms.  For m >= 3 (nine or more terms) the result may differ in the
    last bit from numpy's pairwise sum; a pin on such a value is recorded
    with this sum."""
    out = 1.0
    for g in gs:
        rows = g.tolist() if isinstance(g, np.ndarray) else g
        total = 0.0
        for i, row in enumerate(rows):
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


def _normalized_cochain(action: LinearAction, arity: int, terms: dict
                        ) -> EquivariantCochain:
    form = PolyForm(action.g_dim, action.m, terms)
    if arity == 0:
        return EquivariantCochain(action, 0, lambda gs: form)
    return EquivariantCochain(
        action, arity, lambda gs: form.scale(vanish_factor(gs)))


def random_cochain(action: LinearAction, rng, arity: int
                   ) -> EquivariantCochain:
    """Normalized random cochain: a frozen random form scaled by the
    vanish-at-identity factor of the arguments.  The form has four terms,
    each with up to two generator factors, up to two coordinate factors,
    any set of differentials and a coefficient in [-1, 1]."""
    m = action.m
    terms = {}
    for _ in range(4):
        omega = _exponents(rng, action.g_dim, rng.randint(0, 2))
        x = _exponents(rng, m, rng.randint(0, 2) if m else 0)
        dx = tuple(sorted(rng.sample(range(m), rng.randint(0, m)))) \
            if m else ()
        key = (omega, x, dx)
        terms[key] = terms.get(key, 0.0) + rng.uniform(-1.0, 1.0)
    return _normalized_cochain(action, arity, terms)


def random_homogeneous_cochain(action: LinearAction, rng, arity: int,
                               omega_deg: int, dx_deg: int
                               ) -> EquivariantCochain:
    """Normalized random cochain of sharp polynomial degree
    2*omega_deg + dx_deg, for tests that need a well-defined total degree
    (the Leibniz sign, degree shifts).  The form has three terms, each with
    omega_deg generator factors, up to two coordinate factors, dx_deg
    differentials and a coefficient in [-1, 1]."""
    m = action.m
    if dx_deg > m:
        raise ValueError("cannot wedge more differentials than coordinates")
    terms = {}
    for _ in range(3):
        omega = _exponents(rng, action.g_dim, omega_deg)
        x = _exponents(rng, m, rng.randint(0, 2) if m else 0)
        dx = tuple(sorted(rng.sample(range(m), dx_deg)))
        key = (omega, x, dx)
        terms[key] = terms.get(key, 0.0) + rng.uniform(-1.0, 1.0)
    return _normalized_cochain(action, arity, terms)


class CochainFamily:
    """Finite arity-indexed sum of cochains; missing arities are zero."""

    def __init__(self, components=None):
        self.components: dict[int, EquivariantCochain] = {}
        for c in components or ():
            self._accumulate(c)

    @classmethod
    def of(cls, cochain: EquivariantCochain) -> "CochainFamily":
        return cls([cochain])

    def _accumulate(self, cochain: EquivariantCochain) -> None:
        held = self.components.get(cochain.arity)
        self.components[cochain.arity] = \
            cochain if held is None else held + cochain

    def arities(self) -> list[int]:
        return sorted(self.components)

    def component(self, arity: int) -> EquivariantCochain | None:
        return self.components.get(arity)

    def __add__(self, other: "CochainFamily") -> "CochainFamily":
        out = CochainFamily()
        for c in self.components.values():
            out._accumulate(c)
        for c in other.components.values():
            out._accumulate(c)
        return out

    def scale(self, factor: float) -> "CochainFamily":
        return CochainFamily(
            [c.scale(factor) for c in self.components.values()])

    def __sub__(self, other: "CochainFamily") -> "CochainFamily":
        return self + other.scale(-1.0)
