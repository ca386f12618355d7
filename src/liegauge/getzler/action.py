"""Linear group actions on R^m and the plumbing the operators need.

A LinearAction packages a Lie algebra basis acting on the ambient space as
m-by-m float matrices.  Group elements are invertible m-by-m matrices (the
represented group itself), so adjoint conjugation and pullbacks are plain
matrix arithmetic, and `expm` (numpy only) makes them from the algebra.

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

import numpy as np

from ..exact import Matrix
from ..liealg import make_classical
from .polyform import Substitution

__all__ = ["FIELD_SIGN", "LinearAction", "GroupSampler", "expm"]

FIELD_SIGN = 1.0

# _TAYLOR[j][i] = 1/(4j + i)!, exp's Taylor coefficients through degree 15
_TAYLOR = np.array([[1 / math.factorial(4 * j + i) for i in range(4)]
                    for j in range(4)])


def expm(Z) -> np.ndarray:
    """exp(Z): Z scaled by 2^-s to a 1-norm below 1/2, the degree-15 Taylor
    polynomial there in Paterson-Stockmeyer blocks (one product of _TAYLOR
    with I, A, A^2, A^3, then Horner's rule in A^4), squared s times.  The
    dropped tail, under 2^-60 in norm, is below 2^-53 relative to exp(A),
    whose norm is at least e^(-1/2)."""
    A = np.asarray(Z, dtype=float)
    s = max(0, math.frexp(np.abs(A).sum(axis=0).max())[1] + 1)
    A = A / 2.0 ** s
    A2 = A @ A
    A4 = A2 @ A2
    powers = np.array([np.eye(len(A)), A, A2, A2 @ A])
    *blocks, E = (_TAYLOR @ powers.reshape(4, -1)).reshape(powers.shape)
    for B in reversed(blocks):
        E = E @ A4 + B
    for _ in range(s):
        E = E @ E
    return E


class LinearAction:
    """An exact MatrixLieAlgebra with rational entries (whatever its declared
    `scalar`), as float matrices acting on R^m in its defining
    representation; the action keeps the algebra as `algebra`."""

    def __init__(self, alg):
        if not alg.is_real():
            raise ValueError(
                f"{alg.name} has non-real entries; no real ambient action")
        m = alg.matrix_size
        mats = [np.array(b.to_lists(), dtype=float) for b in alg.basis]
        self.m = m
        self.algebra = alg
        self.g_dim = len(mats)
        self.basis = tuple(mats)
        # fields[a]: the matrix V of the fundamental field x -> V x of
        # direction a, orientation sign included, with its row table
        self.fields = tuple(Substitution((FIELD_SIGN * b).tolist())
                            for b in mats)
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
        return np.array([[float(P[a, k]) for k in range(self.m * self.m)]
                         for a in range(self.g_dim)])

    def coefficients(self, M) -> list[float]:
        """Expansion coefficients of an m-by-m matrix in the basis; exact
        when the dual frame and the matrix have dyadic entries."""
        vec = np.asarray(M, dtype=float).reshape(self.m * self.m)
        return [float(row @ vec) for row in self._dual]

    # -- group plumbing ---------------------------------------------------------

    def inverse(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        if self.m == 2:
            # adjugate form: exact for dyadic entries with unit determinant
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            return np.array([[h[1, 1] / det, -h[0, 1] / det],
                             [-h[1, 0] / det, h[0, 0] / det]])
        return np.linalg.inv(h)

    def ad_matrix(self, h, hinv=None) -> list[list[float]]:
        """Rows a, columns b with Ad(h)[a][b] = coefficient a of h A_b h^(-1);
        the argument substitution X -> Ad(h) X acts on coordinates by this
        matrix.  h^(-1) is computed unless given."""
        h = np.asarray(h, dtype=float)
        hinv = self.inverse(h) if hinv is None else hinv
        columns = [self.coefficients(h @ A @ hinv) for A in self.basis]
        return [list(row) for row in zip(*columns)]

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

    def draw(self) -> np.ndarray:
        Z = np.zeros((self.action.m, self.action.m))
        for A in self.action.basis:
            Z = Z + self._rng.uniform(-self.scale, self.scale) * A
        return expm(Z)

    def draw_tuple(self, arity: int) -> tuple:
        return tuple(self.draw() for _ in range(arity))
