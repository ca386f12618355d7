"""Relative Chevalley-Eilenberg cohomology of reductive matrix pairs.

Given a subalgebra with nondegenerate restricted Killing form, the
orthogonal complement is a stable summand and the cochains are the
subalgebra-invariant alternating forms on it.  The differential uses only
the complement component of brackets; for symmetric pairs it vanishes and
the Betti numbers reduce to invariant-wedge dimensions, a fact this module
re-proves on each run rather than assuming.  Stability of the complement
is verified in `ReductivePair.complement_action`.

Everything here is exact.  The wedge spaces are indexed by sorted index
subsets and the subalgebra acts through sparse derivation operators, so the
joint-invariant computation stays within the iterative kernel refinement of
`exact.joint_kernel`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .exact import Matrix, Scalar, joint_kernel
from .liealg import ExpansionSolver, MatrixLieAlgebra, bracket, killing_form

__all__ = [
    "ReductivePair",
    "cartan_complement",
    "invariant_wedge_basis",
    "invariant_wedge_dimension",
    "relative_ce_cohomology",
    "is_symmetric_pair",
]

WEDGE_CEILING = 20000
# largest dense differential, C(m, q) * C(m, q + 1) entries, that
# relative_ce_cohomology builds; every complement with m <= 10 fits
DIFFERENTIAL_CEILING = 100000


@dataclass(frozen=True)
class ReductivePair:
    """Algebra, stable subalgebra, and a computed stable complement.

    Build through cartan_complement, which verifies that the subalgebra is
    closed, that the two span the algebra directly and, by computing
    `complement_action`, that the complement is stable.
    """

    g: MatrixLieAlgebra
    k: MatrixLieAlgebra | None
    p_basis: tuple[Matrix, ...]

    @property
    def k_dim(self) -> int:
        return self.k.dim if self.k is not None else 0

    @property
    def p_dim(self) -> int:
        return len(self.p_basis)

    @cached_property
    def split_solver(self) -> ExpansionSolver:
        """Expands ambient elements in the (subalgebra, complement) basis;
        built once per pair."""
        parts = (tuple(self.k.basis) if self.k is not None else ()) \
            + self.p_basis
        return ExpansionSolver(parts)

    @cached_property
    def complement_action(self) -> tuple[Matrix, ...]:
        """One matrix R per subalgebra basis element, with
        bracket(kappa, p_i) = sum_j R[j, i] p_j; each bracket is expanded
        once, and a nonzero subalgebra part fails stability (ValueError)."""
        if self.k is None:
            return ()
        split, kd = self.split_solver, self.k_dim
        mats = []
        for kappa in self.k.basis:
            cols = [split.expand(bracket(kappa, p)) for p in self.p_basis]
            if any(any(c[:kd]) for c in cols):
                raise ValueError(
                    "complement is not stable under the subalgebra")
            mats.append(Matrix.from_columns([c[kd:] for c in cols]))
        return tuple(mats)

    @cached_property
    def projected_constants(self):
        """cbar[i][j] = complement component of bracket(p_i, p_j) in
        complement coordinates; the subalgebra component is projected
        away."""
        split, kd, m = self.split_solver, self.k_dim, self.p_dim
        zero = (0,) * m
        cbar = [[zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                coords = split.expand(
                    bracket(self.p_basis[i], self.p_basis[j]))
                vals = tuple(coords[kd:])
                cbar[i][j] = vals
                cbar[j][i] = tuple(-v for v in vals)
        return cbar


def cartan_complement(g: MatrixLieAlgebra, k: MatrixLieAlgebra | None
                      ) -> ReductivePair:
    """Killing-orthogonal complement of k in g, with invariants verified.

    Raises ValueError when the restricted Killing form is degenerate
    (reporting the radical dimension), when k is not a subalgebra, or when
    the complement fails stability.
    """
    if k is None or k.dim == 0:
        return ReductivePair(g=g, k=None, p_basis=tuple(g.basis))
    if k.matrix_size != g.matrix_size:
        raise ValueError("subalgebra matrices must match the ambient size")
    solver = g.expansion_solver
    try:
        k_coords = [solver.expand(x) for x in k.basis]
    except ValueError:
        raise ValueError("subalgebra basis does not lie in the span") from None
    try:
        k.structure_constants
    except ValueError as exc:
        raise ValueError(f"not a subalgebra: {exc}") from None
    B = killing_form(g)
    pairing_rows = [[sum(kc[r] * B[r, s] for r in range(g.dim))
                     for s in range(g.dim)] for kc in k_coords]
    restricted = Matrix(k.dim, k.dim, [
        sum(pairing_rows[i][s] * k_coords[j][s] for s in range(g.dim))
        for i in range(k.dim) for j in range(k.dim)])
    radical = k.dim - restricted.rank()
    if radical:
        raise ValueError(
            "restricted Killing form is degenerate "
            f"(radical dimension {radical})")
    p_coords = Matrix.from_rows(pairing_rows).kernel_basis()
    # p = sum_r v[r] g.basis[r]: the flattened basis times the coordinates
    n = g.matrix_size
    flat = Matrix.from_columns([b.entries() for b in g.basis])
    pair = ReductivePair(g=g, k=k, p_basis=tuple(
        Matrix(n, n, flat.matvec(v)) for v in p_coords))
    pair.complement_action  # verifies stability
    return pair


def is_symmetric_pair(pair: ReductivePair) -> bool:
    """True when every complement bracket lands inside the subalgebra."""
    cbar = pair.projected_constants
    return all(not any(c) for row in cbar for c in row)


def _subsets(m: int, q: int):
    return list(itertools.combinations(range(m), q))


def _check_ceiling(m: int, q: int, ceiling: int) -> None:
    count = math.comb(m, q)
    if count > ceiling:
        raise ValueError(
            f"wedge degree {q} needs {count} basis subsets, over the "
            f"ceiling {ceiling}")


def _derivation_triples(R: Matrix, subsets, index_of) -> list:
    """Sparse action of one subalgebra element on a wedge power of the dual
    complement: generators transform as xi_i -> -sum_l R[i, l] xi_l and the
    action extends by the Leibniz rule."""
    triples = []
    for col, S in enumerate(subsets):
        inside = set(S)
        for t, s in enumerate(S):
            for l in range(R.rows):
                val = -R[s, l]
                if val == 0 or (l in inside and l != s):
                    continue
                replaced = tuple(sorted(inside - {s} | {l}))
                below = sum(1 for u in S if u != s and u < l)
                sign = -1 if (t - below) % 2 else 1
                triples.append((index_of[replaced], col, val * sign))
    return triples


def invariant_wedge_basis(pair: ReductivePair, q: int,
                          ceiling: int = WEDGE_CEILING) -> list[tuple]:
    """Coordinate vectors (in the sorted-subset basis) spanning the
    subalgebra-invariant part of the q-wedge of the dual complement."""
    m = pair.p_dim
    if q < 0 or q > m:
        raise ValueError(f"wedge degree {q} outside 0..{m}")
    _check_ceiling(m, q, ceiling)
    subsets = _subsets(m, q)
    if pair.k is None:
        n = len(subsets)
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    index_of = {S: i for i, S in enumerate(subsets)}
    ops = [_derivation_triples(R, subsets, index_of)
           for R in pair.complement_action]
    return joint_kernel(len(subsets), ops)


def invariant_wedge_dimension(pair: ReductivePair, q: int,
                              ceiling: int = WEDGE_CEILING) -> int:
    return len(invariant_wedge_basis(pair, q, ceiling))


def _differential_matrix(cbar, subsets_q, subsets_q1) -> Matrix:
    """Relative differential from q-wedges to (q+1)-wedges:
    (d phi)(x_0..x_q) = sum_{i<j} (-1)^{i+j} phi(proj[x_i, x_j], others)."""
    index_of = {S: i for i, S in enumerate(subsets_q)}
    entries: dict[tuple[int, int], Scalar] = {}
    for row, T in enumerate(subsets_q1):
        for i in range(len(T)):
            for j in range(i + 1, len(T)):
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                rest_set = set(rest)
                pair_sign = -1 if (i + j) % 2 else 1
                for l, val in enumerate(cbar[T[i]][T[j]]):
                    if val == 0 or l in rest_set:
                        continue
                    S = tuple(sorted(rest_set | {l}))
                    below = sum(1 for u in rest if u < l)
                    sign = -pair_sign if below % 2 else pair_sign
                    key = (row, index_of[S])
                    entries[key] = entries.get(key, 0) + val * sign
    rows, cols = len(subsets_q1), len(subsets_q)
    flat = [0] * (rows * cols)
    for (r, c), v in entries.items():
        flat[r * cols + c] = v
    return Matrix(rows, cols, flat)


def relative_ce_cohomology(pair: ReductivePair,
                           ceiling: int = WEDGE_CEILING) -> tuple[int, ...]:
    """Betti numbers of the invariant subcomplex, degree 0..dim complement.

    The differential is built in full and applied to the invariant
    cochains; when the pair is symmetric the restricted maps are asserted
    to be zero, which re-derives the standard vanishing instead of
    trusting it.  The wedge ceiling is checked for every degree before
    any work; C(m, q) grows up to q = m // 2, so the first degree over the
    ceiling, if any, is found there.  Then each dense differential is
    checked against DIFFERENTIAL_CEILING.
    """
    m = pair.p_dim
    for q in range(m // 2 + 1):
        _check_ceiling(m, q, ceiling)
    for q in range(m):
        entries = math.comb(m, q) * math.comb(m, q + 1)
        if entries > DIFFERENTIAL_CEILING:
            raise ValueError(
                f"differential from wedge degree {q} needs {entries} "
                f"matrix entries, over the ceiling {DIFFERENTIAL_CEILING}")
    cbar = pair.projected_constants
    symmetric = is_symmetric_pair(pair)
    invariants = [invariant_wedge_basis(pair, q, ceiling)
                  for q in range(m + 1)]
    subset_lists = [_subsets(m, q) for q in range(m + 1)]
    ranks = []
    for q in range(m):
        W = invariants[q]
        if not W:
            ranks.append(0)
            continue
        D = _differential_matrix(cbar, subset_lists[q], subset_lists[q + 1])
        images = [D.matvec(w) for w in W]
        if symmetric:
            if any(any(img) for img in images):
                raise AssertionError(
                    "symmetric pair produced a nonzero differential")
            ranks.append(0)
            continue
        ranks.append(Matrix.from_columns([list(i) for i in images]).rank())
    betti = []
    for q in range(m + 1):
        b = len(invariants[q])
        if q < m:
            b -= ranks[q]
        if q > 0:
            b -= ranks[q - 1]
        betti.append(b)
    return tuple(betti)
