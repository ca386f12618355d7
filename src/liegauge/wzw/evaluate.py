"""Pointwise exact evaluation of group-variable words.

This is the semantic oracle for the rewriting engine: it never rewrites
anything.  A form of degree d is evaluated at an invertible point matrix
and d tangent matrices by antisymmetrized multilinear substitution: for
every permutation s of the tangent slots, the i-th dg letter (in order of
appearance) becomes vectors[s(i)] weighted by sign(s); g becomes the point,
g^-1 its exact inverse, and constants come from the supplied bindings.

Powers of pi stay symbolic: results are PiValue maps {pi exponent: value},
with exact scalars for traced expressions and exact matrices otherwise.
"""

from __future__ import annotations

from itertools import permutations

from ..exact import Matrix
from .words import DG, G, GINV, FormExpression


class PiValue:
    """Finite sum of (pi^k * exact value), keyed by the exponent k."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {}
        if parts:
            for k, v in parts.items():
                self.add(k, v)

    def add(self, k: int, v):
        if k in self.parts:
            v = self.parts[k] + v
        is_zero = v.is_zero() if isinstance(v, Matrix) else not v
        if is_zero:
            self.parts.pop(k, None)
        else:
            self.parts[k] = v

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        if isinstance(other, PiValue):
            return self.parts == other.parts
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __repr__(self):
        if not self.parts:
            return "0"
        return " + ".join(f"pi^{k}*{v!r}" if k else f"{v!r}"
                          for k, v in sorted(self.parts.items()))


def _is_odd(perm) -> bool:
    """Parity of a permutation: that of its inversion count."""
    return sum(a > b for i, a in enumerate(perm)
               for b in perm[i + 1:]) % 2 == 1


def evaluate(expr: FormExpression, point: Matrix, vectors,
             bindings=None) -> PiValue:
    """Evaluate at (point; vectors) with constants bound by (side, label).

    Every term must have form degree len(vectors); bindings maps
    ('L'|'R', label) to square matrices of the point's size.
    """
    bindings = bindings or {}
    n = point.rows
    if point.cols != n:
        raise ValueError("point must be square")
    pinv = point.inverse()
    d = len(vectors)
    for v in vectors:
        if v.rows != n or v.cols != n:
            raise ValueError("tangent matrices must match the point's size")

    def lookup(letter):
        if letter == G:
            return point
        if letter == GINV:
            return pinv
        key = (letter[1], letter[2])
        if key not in bindings:
            raise KeyError(f"no binding for constant {letter}")
        m = bindings[key]
        if m.rows != n or m.cols != n:
            raise ValueError(f"binding for {letter} has wrong size")
        return m

    result = PiValue()
    for t in expr.terms:
        if t.degree() != d:
            raise ValueError(
                f"term of degree {t.degree()} evaluated on {d} vectors")
        fixed = [None if l == DG else lookup(l) for l in t.letters]
        total = None
        for perm in permutations(range(d)):
            prod = Matrix.identity(n)
            slot = 0
            for f in fixed:
                if f is None:
                    f = vectors[perm[slot]]
                    slot += 1
                prod = prod * f
            if _is_odd(perm):
                prod = -prod
            total = prod if total is None else total + prod
        if expr.kind == "trace":
            result.add(t.pi, total.trace() * t.coeff)
        else:
            result.add(t.pi, total.scale(t.coeff))
    return result
