"""Group cochains valued in polynomial forms, and families thereof.

A cochain of arity k maps a tuple of k group elements to a PolyForm; the
symbolic argument X never appears as data because the value is polynomial
in its coordinates.  Evaluators must be pure functions of their arguments.

Normalized cochains vanish whenever an argument is the identity; the
random generators below enforce this with a squared-distance factor per
argument, as the complex requires.

Operators mix arities (the coboundary raises it, the group contraction
lowers it), so inhomogeneous elements are kept as CochainFamily objects:
one cochain per arity, missing arities meaning zero.
"""

from __future__ import annotations

import numpy as np

from .action import LinearAction
from .polyform import PolyForm

__all__ = [
    "EquivariantCochain",
    "CochainFamily",
    "constant_cochain",
    "unit_cochain",
    "zero_cochain",
    "vanish_factor",
    "random_polyform",
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
        gs = tuple(gs)
        if len(gs) != self.arity:
            raise ValueError(
                f"cochain of arity {self.arity} called with {len(gs)} "
                "group elements")
        return self._evaluator(gs)

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

    def __sub__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        return self + other.scale(-1.0)


def zero_cochain(action: LinearAction, arity: int) -> EquivariantCochain:
    form = PolyForm.zero(action.g_dim, action.m)
    return EquivariantCochain(action, arity, lambda gs: form)


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
    per argument; exactly zero when any argument is the identity."""
    out = 1.0
    for g in gs:
        g = np.asarray(g, dtype=float)
        d = g - np.eye(g.shape[0])
        out *= float(np.sum(d * d))
    return out


def random_polyform(rng, g_dim: int, m: int, max_omega: int = 2,
                    max_x: int = 2, n_terms: int = 4) -> PolyForm:
    """Random form with coefficients in [-1, 1] and bounded exponents."""
    terms = {}
    for _ in range(n_terms):
        omega = [0] * g_dim
        for _ in range(rng.randint(0, max_omega)):
            omega[rng.randrange(g_dim)] += 1
        x = [0] * m
        for _ in range(rng.randint(0, max_x) if m else 0):
            x[rng.randrange(m)] += 1
        dx = tuple(sorted(rng.sample(range(m), rng.randint(0, m)))) \
            if m else ()
        key = (tuple(omega), tuple(x), dx)
        terms[key] = terms.get(key, 0.0) + rng.uniform(-1.0, 1.0)
    return PolyForm(g_dim, m, terms)


def random_homogeneous_polyform(rng, g_dim: int, m: int, omega_deg: int,
                                dx_deg: int, max_x: int = 2,
                                n_terms: int = 3) -> PolyForm:
    """Random form whose every term has the given Omega-degree and
    dx-degree, so the polynomial degree 2*omega_deg + dx_deg is sharp."""
    if dx_deg > m:
        raise ValueError("cannot wedge more differentials than coordinates")
    terms = {}
    for _ in range(n_terms):
        omega = [0] * g_dim
        for _ in range(omega_deg):
            omega[rng.randrange(g_dim)] += 1
        x = [0] * m
        for _ in range(rng.randint(0, max_x) if m else 0):
            x[rng.randrange(m)] += 1
        dx = tuple(sorted(rng.sample(range(m), dx_deg)))
        key = (tuple(omega), tuple(x), dx)
        terms[key] = terms.get(key, 0.0) + rng.uniform(-1.0, 1.0)
    return PolyForm(g_dim, m, terms)


def _normalized_cochain(action: LinearAction, arity: int, form: PolyForm
                        ) -> EquivariantCochain:
    if arity == 0:
        return EquivariantCochain(action, 0, lambda gs: form)
    return EquivariantCochain(
        action, arity, lambda gs: form.scale(vanish_factor(gs)))


def random_cochain(action: LinearAction, rng, arity: int,
                   max_omega: int = 2, max_x: int = 2) -> EquivariantCochain:
    """Normalized random cochain: a frozen random form scaled by the
    vanish-at-identity factor of the arguments."""
    form = random_polyform(rng, action.g_dim, action.m, max_omega, max_x)
    return _normalized_cochain(action, arity, form)


def random_homogeneous_cochain(action: LinearAction, rng, arity: int,
                               omega_deg: int, dx_deg: int,
                               max_x: int = 2) -> EquivariantCochain:
    """Normalized random cochain of sharp polynomial degree, for tests that
    need a well-defined total degree (the Leibniz sign, degree shifts)."""
    form = random_homogeneous_polyform(
        rng, action.g_dim, action.m, omega_deg, dx_deg, max_x)
    return _normalized_cochain(action, arity, form)


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
