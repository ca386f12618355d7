"""Linear group actions on R^m and the plumbing the operators need.

A LinearAction packages a Lie algebra basis acting on the ambient space as
m-by-m float matrices.  Group elements are invertible m-by-m matrices (the
represented group itself), so adjoint conjugation and pullbacks are plain
matrix arithmetic.

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

import random
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from ..exact import Matrix
from .polyform import Substitution

__all__ = ["FIELD_SIGN", "LinearAction", "GroupSampler"]

FIELD_SIGN = 1.0


class LinearAction:
    def __init__(self, name: str, basis, m: int | None = None):
        self.name = name
        mats = [np.asarray(b, dtype=float) for b in basis]
        if m is None:
            if not mats:
                raise ValueError("cannot infer the ambient dimension")
            m = mats[0].shape[0]
        for b in mats:
            if b.shape != (m, m):
                raise ValueError(f"basis matrix of shape {b.shape}, "
                                 f"expected ({m}, {m})")
        self.m = m
        self.g_dim = len(mats)
        self.basis = tuple(mats)
        # fields[a]: the matrix V of the fundamental field x -> V x of
        # direction a, orientation sign included, with its row table
        self.fields = tuple(Substitution((FIELD_SIGN * b).tolist())
                            for b in mats)
        self._eye = np.eye(m)
        self._dual = self._dual_frame()
        # None, or the scope an outermost EquivariantCochain call holds open:
        # values by (cochain, argument bytes), transports by element bytes
        self.scope = None
        # transports kept for the action's lifetime, by element bytes;
        # None until the element is first transported
        self.kept: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def sl2(cls) -> "LinearAction":
        h = [[1.0, 0.0], [0.0, -1.0]]
        e = [[0.0, 1.0], [0.0, 0.0]]
        f = [[0.0, 0.0], [1.0, 0.0]]
        return cls("sl2 on R^2", [h, e, f])

    @classmethod
    def abelian_point(cls, g_dim: int) -> "LinearAction":
        """An abelian algebra acting on a point (m = 0): the degeneration
        where the whole geometric differential d + iota vanishes."""
        return cls(f"abelian rank {g_dim} on a point",
                   [np.zeros((0, 0))] * g_dim, m=0)

    @classmethod
    def from_exact_algebra(cls, alg) -> "LinearAction":
        """Float image of an exact MatrixLieAlgebra in its defining
        representation; rational scalars only."""
        if alg.scalar != "rational":
            raise ValueError(
                f"{alg.name} has non-real entries; no real ambient action")
        mats = [[[float(b[i, j]) for j in range(alg.matrix_size)]
                 for i in range(alg.matrix_size)] for b in alg.basis]
        return cls(f"{alg.name} on R^{alg.matrix_size}", mats)

    # -- exact dual frame -----------------------------------------------------

    def _dual_frame(self):
        """Left inverse P of the flattened basis, so that coefficients of a
        matrix M inside the span are P @ vec(M).  Computed with rationals:
        P = (F^T F)^(-1) F^T for F the m^2-by-g_dim basis matrix."""
        if self.m == 0:
            return None
        cols = [[Fraction(float(b[i, j])) for i in range(self.m)
                 for j in range(self.m)] for b in self.basis]
        F = Matrix.from_columns(cols)
        Ft = F.transpose()
        try:
            P = (Ft * F).inverse() * Ft
        except ValueError:
            raise ValueError("basis matrices are linearly dependent") from None
        return np.array([[float(P[a, k]) for k in range(self.m * self.m)]
                         for a in range(self.g_dim)])

    def coefficients(self, M) -> list[float]:
        """Expansion coefficients of an m-by-m matrix in the basis; exact
        when the dual frame and the matrix have dyadic entries."""
        if self.m == 0:
            return [0.0] * self.g_dim
        vec = np.asarray(M, dtype=float).reshape(self.m * self.m)
        return [float(row @ vec) for row in self._dual]

    # -- group plumbing ---------------------------------------------------------

    def identity(self) -> np.ndarray:
        return np.eye(self.m)

    def is_identity(self, h) -> bool:
        return np.array_equal(np.asarray(h), self._eye)

    def inverse(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if self.m == 2:
            # adjugate form: exact for dyadic entries with unit determinant
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            return np.array([[h[1, 1] / det, -h[0, 1] / det],
                             [-h[1, 0] / det, h[0, 0] / det]])
        return np.linalg.inv(h)

    def ad_matrix(self, h) -> list[list[float]]:
        """Rows a, columns b with Ad(h)[a][b] = coefficient a of h A_b h^(-1);
        the argument substitution X -> Ad(h) X acts on coordinates by this
        matrix."""
        if self.m == 0:
            return [[1.0 if a == b else 0.0 for b in range(self.g_dim)]
                    for a in range(self.g_dim)]
        h = np.asarray(h, dtype=float)
        hinv = self.inverse(h)
        columns = [self.coefficients(h @ A @ hinv) for A in self.basis]
        return [[columns[b][a] for b in range(self.g_dim)]
                for a in range(self.g_dim)]

    def keep(self, elements) -> None:
        """Keep the transports of these elements for the action's lifetime
        (op_ibar's inserted elements, the same in every call); each is
        built on first use."""
        for h in elements:
            self.kept.setdefault(np.asarray(h, float).tobytes(), None)

    def transport(self, h) -> tuple:
        """Substitutions of Ad(h^(-1)) rows and of h^(-1), for acting by h,
        with every row table and expansion built from them so far.  A kept
        element's lives as long as the action; any other's is built once
        per element bytes while a scope is open and dropped with it."""
        key = np.asarray(h, float).tobytes()
        if key in self.kept:
            table = self.kept
        elif self.scope is None:
            table = {}
        else:
            table = self.scope
        if table.get(key) is None:
            hinv = self.inverse(h)
            table[key] = (Substitution(self.ad_matrix(hinv)),
                          Substitution(hinv))
        return table[key]

    def group_action(self, h, form):
        """The left action of a group element on a form value: substitute
        the generators by Ad(h^(-1)) and pull the form back along
        x -> h^(-1) x.  Exact skip when h is the identity."""
        if self.is_identity(h):
            return form
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

    def draw(self) -> np.ndarray:
        Z = np.zeros((self.action.m, self.action.m))
        for A in self.action.basis:
            Z = Z + self._rng.uniform(-self.scale, self.scale) * A
        return expm(Z)

    def draw_tuple(self, arity: int) -> tuple:
        return tuple(self.draw() for _ in range(arity))
