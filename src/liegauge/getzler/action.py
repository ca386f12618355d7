"""Linear group actions on R^m and the plumbing the operators need.

A LinearAction packages a Lie algebra basis acting on the ambient space as
m-by-m float matrices.  Group elements are invertible m-by-m matrices (the
represented group itself), so adjoint conjugation and pullbacks are plain
arithmetic on FloatMatrix rows of Python floats, `matmul` summing each
entry left to right with no BLAS kernel; `expm` makes them from the algebra.

Expansion of a matrix in the basis goes through a dual frame computed once
with exact rational arithmetic and then converted to floats; for bases with
integer or dyadic entries the resulting coefficients are exact, which is
what lets downstream invariance checks come out as literal zeros.

The fundamental vector field of a basis element A is x -> FIELD_SIGN * A x.
Together with the placement of the group action inside the coboundary (it
enters on the first argument; see the operators module) this is the unique
combination under which the total differential squares to zero, which is
the arbiter for every sign in this package.  See the repository's
CONVENTIONS.md, section W4.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import add, mul

from ..exact import Matrix
from ..liealg import make_classical
from .polyform import Substitution

__all__ = ["FIELD_SIGN", "FloatMatrix", "LinearAction", "GroupSampler",
           "expm", "matmul"]

FIELD_SIGN = 1.0

# _TAYLOR[j][i] = 1/(4j + i)!, exp's Taylor coefficients through degree 15
_TAYLOR = tuple(tuple(1 / math.factorial(4 * j + i) for i in range(4))
                for j in range(4))


class FloatMatrix(tuple):
    """An m-by-m matrix as a tuple of m rows of floats; `of` converts any
    nested sequence, an array included.  tobytes() is the row-major
    float64 bytes, numpy's layout, and is the key that tells elements
    apart: one ulp, or 0.0 against -0.0, is another element."""

    @classmethod
    def of(cls, rows) -> "FloatMatrix":
        return rows if isinstance(rows, cls) else cls(
            [tuple([float(v) for v in row]) for row in rows])

    @cached_property
    def _bytes(self) -> bytes:
        return struct.pack(f"{len(self) ** 2}d", *chain.from_iterable(self))

    def tobytes(self) -> bytes:
        return self._bytes


def matmul(a, b) -> FloatMatrix:
    """The product a b, each entry summed left to right."""
    cols = tuple(zip(*b))
    out = []
    for row in a:
        entries = []
        for col in cols:
            products = map(mul, row, col)
            total = next(products)
            for p in products:
                total += p
            entries.append(total)
        out.append(tuple(entries))
    return FloatMatrix(out)


def expm(Z) -> FloatMatrix:
    """exp(Z): Z scaled by 2^-s to a 1-norm below 1/2, the degree-15 Taylor
    polynomial there in Paterson-Stockmeyer blocks (the rows of _TAYLOR
    against I, A, A^2, A^3, then Horner's rule in A^4), squared s times.
    The dropped tail, under 2^-60 in norm, is below 2^-53 relative to
    exp(A), whose norm is at least e^(-1/2)."""
    norm = max(reduce(add, map(abs, col)) for col in zip(*Z))
    s = max(0, math.frexp(norm)[1] + 1)
    A = [tuple([math.ldexp(v, -s) for v in row]) for row in Z]
    A2 = matmul(A, A)
    A4 = matmul(A2, A2)
    *blocks, E = [[tuple([t0 * (i == j) + t1 * x1 + t2 * x2 + t3 * x3
                          for j, (x1, x2, x3) in enumerate(zip(*rows))])
                   for i, rows in enumerate(zip(A, A2, matmul(A2, A)))]
                  for t0, t1, t2, t3 in _TAYLOR]
    for B in reversed(blocks):
        E = [tuple([x + y for x, y in zip(r, q)])
             for r, q in zip(matmul(E, A4), B)]
    for _ in range(s):
        E = matmul(E, E)
    return FloatMatrix(E)


class LinearAction:
    """An exact MatrixLieAlgebra with rational entries (whatever its declared
    `scalar`), as float matrices acting on R^m in its defining
    representation; the action keeps the algebra as `algebra`."""

    def __init__(self, alg):
        if not alg.is_real():
            raise ValueError(
                f"{alg.name} has non-real entries; no real ambient action")
        m = alg.matrix_size
        mats = [FloatMatrix.of(b.to_lists()) for b in alg.basis]
        self.m = m
        self.algebra = alg
        self.g_dim = len(mats)
        self.basis = tuple(mats)
        # fields[a]: the matrix V of the fundamental field x -> V x of
        # direction a, orientation sign included, with its row table
        self.fields = tuple(Substitution([[FIELD_SIGN * v for v in row]
                                          for row in b]) for b in mats)
        self._dual = self._dual_frame()
        # None, or the scope an outermost EquivariantCochain call holds open:
        # values by (cochain, argument bytes), transports by element bytes
        self.scope = None
        # transports of inserted elements, kept for the action's lifetime
        # by element bytes; None until the element is first transported
        self.kept: dict = {}
        self._inserted: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def sl2(cls) -> "LinearAction":
        """sl(2) on R^2, on the classical basis (h, e, f)."""
        return cls(make_classical("sl", 2))

    # -- exact dual frame -----------------------------------------------------

    def _dual_frame(self):
        """Left inverse P of the flattened basis, so that coefficients of a
        matrix M inside the span are P @ vec(M).  Computed with rationals:
        P = (F^T F)^(-1) F^T for F the m^2-by-g_dim basis matrix, read
        from the exact algebra's entries."""
        Ft = Matrix.from_rows([b.entries() for b in self.algebra.basis])
        F = Ft.transpose()
        try:
            P = (Ft * F).inverse() * Ft
        except ValueError:
            raise ValueError("basis matrices are linearly dependent") from None
        return [[float(P[a, k]) for k in range(self.m * self.m)]
                for a in range(self.g_dim)]

    # -- group plumbing ---------------------------------------------------------

    def inverse(self, h) -> FloatMatrix:
        """h^(-1): the adjugate form for m = 2, exact for dyadic entries
        with unit determinant; else h's exact inverse, rounded once."""
        h = FloatMatrix.of(h)
        if self.m == 2:
            (a, b), (c, d) = h
            det = a * d - b * c
            return FloatMatrix([(d / det, -b / det), (-c / det, a / det)])
        exact = Matrix.from_rows([[Fraction(v) for v in row] for row in h])
        return FloatMatrix.of(exact.inverse().to_lists())

    def ad_matrix(self, h, hinv) -> FloatMatrix:
        """Ad(h)[a][b], the coefficient a of h A_b hinv for hinv = h^(-1):
        the dual frame times the matrix of the flattened h A_b hinv by
        columns.  X -> Ad(h) X acts on coordinates by this matrix."""
        columns = [tuple(chain.from_iterable(matmul(matmul(h, A), hinv)))
                   for A in self.basis]
        return matmul(self._dual, tuple(zip(*columns)))

    def inserted(self, step: float) -> tuple:
        """The pairs (exp(step A_b), exp(-step A_b)) per basis direction b
        that op_ibar inserts, built once per step; their transports are
        kept for the action's lifetime, each built on first use."""
        if step not in self._inserted:
            pairs = self._inserted[step] = tuple(
                tuple(expm([[t * v for v in row] for row in A])
                      for t in (step, -step)) for A in self.basis)
            for h in chain.from_iterable(pairs):
                self.kept.setdefault(h.tobytes(), None)
        return self._inserted[step]

    def transport(self, h) -> tuple:
        """Substitutions of Ad(h^(-1)) rows and of h^(-1), for acting by h,
        with every row table and expansion built from them so far.  An
        inserted element's live as long as the action; any other's are
        built once while a scope is open and dropped with it."""
        h = FloatMatrix.of(h)
        key = h.tobytes()
        table = (self.kept if key in self.kept
                 else {} if self.scope is None else self.scope)
        if table.get(key) is None:
            hinv = self.inverse(h)
            table[key] = (Substitution(self.ad_matrix(hinv, h)),
                          Substitution(hinv))
        return table[key]

    def group_action(self, h, form):
        """The left action of a group element on a form value: substitute
        the generators by Ad(h^(-1)) and pull the form back along
        x -> h^(-1) x."""
        omega, pullback = self.transport(h)
        return form.substitute_omega(omega).pullback_linear(pullback)


class GroupSampler:
    """Seeded sampler of group elements exp(Z), Z a random basis combination
    with coefficients uniform in [-scale, scale].  Always invertible."""

    def __init__(self, action: LinearAction, scale: float = 0.5,
                 seed: int = 0):
        self.action = action
        self.scale = scale
        self._rng = random.Random(seed)

    def draw(self) -> FloatMatrix:
        Z = [[0.0] * self.action.m] * self.action.m
        for A in self.action.basis:
            u = self._rng.uniform(-self.scale, self.scale)
            Z = [[z + u * a for z, a in zip(*rows)] for rows in zip(Z, A)]
        return expm(Z)

    def draw_tuple(self, arity: int) -> tuple:
        return tuple(self.draw() for _ in range(arity))
