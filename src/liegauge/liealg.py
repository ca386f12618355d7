"""Matrix Lie algebras with exact structure theory.

A MatrixLieAlgebra is a finite basis of square matrices over the rationals
or Gaussian rationals, closed under the commutator bracket.  On top of the
basis this module computes structure constants, the Killing form (the
trace form of ad, by `trace_pairings`, which gives `anomaly`'s form too),
the ad-invariance test of a bilinear form, and dimensions of invariant
polynomials in the symmetric algebra of the dual.

One Leibniz builder, `graded_derivations`, gives the derivations of
symmetric and exterior powers as sparse triples: here the coadjoint action
on Sym^d g*, whose joint kernel is the invariant polynomials, and in
`relcoh` the action on wedges of p* and the relative differential.  The
operators depend only on the algebra (or pair) and the degree, so each
object holds a cached builder (`MatrixLieAlgebra.coadjoint_derivations`)
that closes over its generator images, never the object, and builds the
tuples once per degree; every kernel is still computed on each call.

The structure layer is sparse end to end: an algebra takes the sparse rows
of its basis matrices once, when it builds its structure constants, and
each bracket goes from those rows straight to flat entries, which its
`ExpansionSolver` expands through a transform held as sparse columns.

Classical bases are fixed and documented so that every downstream exact
value is reproducible:

  sl(n): diagonal generators E_jj - E_(j+1)(j+1) for j = 0..n-2 first, then
         off-diagonal E_jk (j != k) in lexicographic (j, k) order.  For
         n = 2 this is exactly (h, e, f).
  so(n): E_jk - E_kj for j < k, lexicographic.
  su(n): i(E_jj - E_(j+1)(j+1)) for j = 0..n-2 first, then for each j < k
         (lexicographic) the pair E_jk - E_kj, i(E_jk + E_kj).  Gaussian
         rational entries, with every real entry (zeros among them) a
         rational; the algebra is real, so structure constants are
         rational.
  gl(n): all E_jk in lexicographic (j, k) order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .exact import (
    GaussianRational,
    I,
    Matrix,
    Scalar,
    _columns,
    as_scalar,
    joint_kernel,
)

SYM_CEILING = 5000


@dataclass(frozen=True)
class MatrixLieAlgebra:
    name: str
    matrix_size: int
    basis: tuple[Matrix, ...]
    scalar: str = "rational"  # "rational" | "gaussian"

    def __post_init__(self):
        for b in self.basis:
            if b.rows != self.matrix_size or b.cols != self.matrix_size:
                raise ValueError(f"{self.name}: basis element of wrong size")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_real(self) -> bool:
        """True when no basis entry is a `GaussianRational`; `scalar` is
        not read."""
        return not any(type(x) is GaussianRational
                       for b in self.basis for x in b.entries())

    @cached_property
    def expansion_solver(self) -> "ExpansionSolver":
        """Expands matrices in this basis; built once per algebra."""
        return ExpansionSolver(self.basis)

    @cached_property
    def structure_constants(self) -> tuple:
        """The algebra's structure constants, computed once per algebra;
        see the module-level `structure_constants`."""
        solver = self.expansion_solver
        n, dim = self.matrix_size, self.dim
        rows = [b.sparse_rows() for b in self.basis]
        c = []
        for a in range(dim):
            row = []
            for b in range(dim):
                if b < a:
                    # antisymmetry by construction; recomputing would be
                    # wasted work
                    row.append(tuple(-x for x in c[b][a]))
                    continue
                if b == a:
                    row.append((0,) * dim)
                    continue
                try:
                    row.append(solver.expand(
                        bracket_entries(rows[a], rows[b], n)))
                except ValueError:
                    raise ValueError(
                        f"{self.name}: bracket of basis pair ({a}, {b}) "
                        "is outside the span; not a Lie subalgebra") from None
            c.append(tuple(row))
        return tuple(c)

    @cached_property
    def coadjoint_derivations(self):
        """Cached builder: `coadjoint_derivations(degree)` is one tuple of
        `graded_derivations` triples per basis element on Sym^degree g*,
        built on first request from images built once per algebra; tuples
        throughout, so one caller cannot alter a shared algebra's."""
        images, dim = coadjoint_images(structure_constants(self), 0), self.dim

        @cache
        def build(degree: int) -> tuple:
            return tuple(map(tuple, graded_derivations(
                images, dim, degree, alternating=False)))
        return build


def bracket_entries(xr: list, yr: list, n: int) -> list:
    """Flat row-major entries of [x, y] = xy - yx for n x n matrices given
    by their `Matrix.sparse_rows`, in one pass over the nonzero entries;
    sums are not normalized."""
    out = [0] * (n * n)
    for i in range(n):
        base = i * n
        for t, a in xr[i].items():
            for j, b in yr[t].items():
                out[base + j] += a * b
        for t, a in yr[i].items():
            for j, b in xr[t].items():
                out[base + j] -= a * b
    return out


def _unit(n: int, j: int, k: int) -> Matrix:
    return Matrix(n, n, [1 if (r, c) == (j, k) else 0
                         for r in range(n) for c in range(n)])


def classical_dimension(family: str, n: int) -> int:
    """Dimension of sl(n), so(n), su(n) or gl(n) from its closed form,
    with the same errors as `make_classical` and no basis built."""
    fam = family.lower()
    if fam in ("sl", "so", "su"):
        if n < 2:
            raise ValueError(f"{fam}(n) requires n >= 2")
        return n * (n - 1) // 2 if fam == "so" else n * n - 1
    if fam == "gl":
        if n < 1:
            raise ValueError("gl(n) requires n >= 1")
        return n * n
    raise ValueError(f"unknown family {family!r}")


def make_classical(family: str, n: int) -> MatrixLieAlgebra:
    """Standard basis for sl(n), so(n), su(n), gl(n), built afresh on each
    call.  See module docstring."""
    classical_dimension(family, n)
    fam = family.lower()
    if fam == "sl":
        basis = [_unit(n, j, j) - _unit(n, j + 1, j + 1) for j in range(n - 1)]
        basis += [_unit(n, j, k) for j in range(n) for k in range(n) if j != k]
        return MatrixLieAlgebra(f"sl({n})", n, tuple(basis), "rational")
    if fam == "so":
        basis = [_unit(n, j, k) - _unit(n, k, j)
                 for j in range(n) for k in range(j + 1, n)]
        return MatrixLieAlgebra(f"so({n})", n, tuple(basis), "rational")
    if fam == "su":
        basis = [(_unit(n, j, j) - _unit(n, j + 1, j + 1)).scale(I)
                 for j in range(n - 1)]
        for j in range(n):
            for k in range(j + 1, n):
                basis.append(_unit(n, j, k) - _unit(n, k, j))
                basis.append((_unit(n, j, k) + _unit(n, k, j)).scale(I))
        return MatrixLieAlgebra(f"su({n})", n, tuple(basis), "gaussian")
    basis = [_unit(n, j, k) for j in range(n) for k in range(n)]
    return MatrixLieAlgebra(f"gl({n})", n, tuple(basis), "rational")


class ExpansionSolver:
    """Expands matrices in a fixed matrix basis, exactly and repeatedly.

    One row reduction of [flattened basis | identity], built as sparse
    rows, gives a transform
    that maps a flattened matrix to its basis coefficients followed by
    consistency residues.  The transform is held as sparse columns, one
    per matrix entry, so an expansion touches only the transform entries
    that meet the matrix's nonzero entries.  Raises ValueError on a
    dependent basis.
    """

    def __init__(self, basis: Sequence[Matrix]):
        if not basis:
            self.dim = 0
            return
        n2 = basis[0].rows * basis[0].cols
        dim = self.dim = len(basis)
        aug = [{dim + t: 1} for t in range(n2)]
        for k, b in enumerate(basis):
            for t, x in enumerate(b.entries()):
                if x:
                    aug[t][k] = x
        R, pivots = Matrix._of_rows(dim + n2, aug).rref()
        if pivots[:dim] != list(range(dim)):
            raise ValueError("basis matrices are linearly dependent")
        self._columns = _columns(
            [(i, k - dim, x) for i, row in enumerate(R.sparse_rows())
             for k, x in row.items() if k >= dim], n2)

    def expand(self, m) -> tuple[Scalar, ...]:
        """Coefficients of m, a Matrix or its flat row-major entries, in
        the basis; ValueError if m is outside the span.

        Coefficients are normalized by `as_scalar`, so a real algebra such
        as su(n) gets rational structure constants.
        """
        entries = m.entries() if isinstance(m, Matrix) else m
        if self.dim == 0:
            if any(entries):
                raise ValueError("nonzero matrix in empty basis")
            return ()
        cols = self._columns
        if len(entries) != len(cols):
            raise ValueError("matrix size does not match the basis")
        w = [0] * len(cols)
        for t, x in enumerate(entries):
            if x:
                for i, v in cols[t]:
                    w[i] += v * x
        if any(w[self.dim:]):
            raise ValueError("matrix does not lie in the basis span")
        return tuple(map(as_scalar, w[:self.dim]))


def structure_constants(alg: MatrixLieAlgebra):
    """Structure constants c[a][b] = coefficients of [e_a, e_b] in the basis.

    Raises ValueError naming the offending pair when the basis is not
    closed under the bracket.  Computed once per algebra object.
    """
    return alg.structure_constants


def trace_pairings(images: Sequence[Sequence[Scalar]], n: int) -> Matrix:
    """The matrix Tr(A_a A_b) of n x n matrices A_a given by their flat
    row-major entries: each trace the sum A[i, j] B[j, i] over the nonzero
    entries of A, with no product matrix, for a <= b only and mirrored."""
    dim = len(images)
    # A[i, j] with the flat index of B[j, i] it pairs with
    pairs = [[((t % n) * n + t // n, x) for t, x in enumerate(e) if x]
             for e in images]
    flat = [0] * (dim * dim)
    for a, pa in enumerate(pairs):
        for b in range(a, dim):
            be = images[b]
            s = 0
            for t, x in pa:
                s += x * be[t]
            flat[a * dim + b] = flat[b * dim + a] = s
    return Matrix(dim, dim, flat)


def killing_form(alg: MatrixLieAlgebra) -> Matrix:
    """B_ab = trace(ad e_a . ad e_b), computed from structure constants.

    `trace_pairings` of the adjoint images (ad e_a)[m, l] = c[a][l][m].
    This is the definition; comparisons against multiples of the matrix
    trace form live in tests, not here.
    """
    c = structure_constants(alg)
    return trace_pairings([[x for row in zip(*ca) for x in row] for ca in c],
                          alg.dim)


def ad_invariance_failure(c, q: Matrix):
    """The first basis triple (x, a, b), in lexicographic order, with
    Q([x,a],b) + Q(a,[x,b]) != 0, or None when q is ad-invariant.

    For each x the rows over a are accumulated from the nonzero structure
    constants and the nonzero entries of q.
    """
    dim = len(c)
    qe = q.entries()
    qrows = q.sparse_rows()
    for x in range(dim):
        cx = c[x]
        nonzero = [[(k, v) for k, v in enumerate(cx[a]) if v]
                   for a in range(dim)]
        triples = [(b, k, v) for b in range(dim) for k, v in nonzero[b]]
        for a in range(dim):
            # row a of Q([x, .], .) + Q(., [x, .]): rows of Q scaled by
            # c[x][a], then row a of Q paired with each c[x][b]
            row = [0] * dim
            for k, v in nonzero[a]:
                for b, w in qrows[k].items():
                    row[b] += v * w
            base = a * dim
            for b, k, v in triples:
                w = qe[base + k]
                if w:
                    row[b] += v * w
            for b, s in enumerate(row):
                if s:
                    return (x, a, b)
    return None


# -- graded derivations on Sym and wedge powers -----------------------------


def coadjoint_images(c, offset: int) -> list:
    """Generator images for `graded_derivations` of the dual action of each
    row c[a] of a structure-constant table on the basis elements from
    `offset` on: xi_v -> -sum_j c[a][offset + j][offset + v] xi_j, from
    (a . xi)(e_j) = -xi([e_a, e_j]).  All rows at offset 0 give g*; the k
    rows at offset dim k of a table on k + p give p*."""
    out = []
    for ca in c:
        cols = zip(*(row[offset:] for row in ca[offset:]))
        out.append([[((j,), -x) for j, x in enumerate(col) if x]
                    for col in cols])
    return out


def _raising(elements, index: dict, n: int, alternating: bool) -> list:
    """For each sorted tuple of `elements` and each letter j, the index in
    `index` of the tuple with j inserted and the sign (-1)^(letters below
    j) of moving it there from the front, or None when an alternating
    tuple already holds j."""
    table = []
    for e in elements:
        row = []
        for j in range(n):
            p = bisect_left(e, j)
            if alternating and p < len(e) and e[p] == j:
                row.append(None)
            else:
                row.append((index[e[:p] + (j,) + e[p:]],
                            -1 if alternating and p % 2 else 1))
        table.append(row)
    return table


def graded_derivations(images, n: int, degree: int,
                       alternating: bool) -> list[list]:
    """Derivations of Sym(V), or of the exterior algebra of V when
    `alternating`, on the sorted `degree`-tuples of a basis xi_0..xi_(n-1)
    of V (in the order of itertools.combinations_with_replacement or
    combinations), as [(row, col, value)] triples whose repeats sum, one
    list per derivation.

    images[v] lists (word, value) pairs, xi_v mapping to the sum of value *
    xi_word; a word of two letters, an even 2-form as for a differential,
    raises the degree by one.  The Leibniz rule takes xi_v out of a tuple
    at position t, with factor its multiplicity in Sym or (-1)^t in the
    exterior algebra, and inserts the word's letters, last first, through
    one raising table per degree; an exterior letter already held kills
    the term.
    """
    if not images or not degree:
        return [[] for _ in images]
    choose = combinations if alternating else combinations_with_replacement
    letters = range(n)
    rests = list(choose(letters, degree - 1))
    rest_index = {e: i for i, e in enumerate(rests)}
    elements = list(choose(letters, degree))
    index = {e: i for i, e in enumerate(elements)}
    # (col, v, factor, index of the tuple without that v), once per
    # distinct v in Sym since equal letters give equal terms
    lowering = []
    for col, e in enumerate(elements):
        for t, v in enumerate(e):
            if alternating:
                factor = -1 if t % 2 else 1
            elif t and e[t - 1] == v:
                continue
            else:
                factor = e.count(v)
            lowering.append((col, v, factor, rest_index[e[:t] + e[t + 1:]]))
    up = _raising(rests, index, n, alternating)
    top = None
    if any(len(w) == 2 for gens in images for terms in gens for w, _ in terms):
        top = _raising(elements, {e: i for i, e in enumerate(
            choose(letters, degree + 1))}, n, alternating)
    ops = []
    for gens in images:
        ones = [[(w[0], x) for w, x in terms if len(w) == 1] for terms in gens]
        out = [(hit[0], col, factor * hit[1] * x)
               for col, v, factor, r in lowering
               for j, x in ones[v] if (hit := up[r][j]) is not None]
        if top is not None:
            twos = [[(w[0], w[1], x) for w, x in terms if len(w) == 2]
                    for terms in gens]
            out += [(second[0], col, factor * hit[1] * second[1] * x)
                    for col, v, factor, r in lowering for a, b, x in twos[v]
                    if (hit := up[r][b]) is not None
                    and (second := top[hit[0]][a]) is not None]
        ops.append(out)
    return ops


def symmetric_power_dimension(dim: int, degree: int) -> int:
    return math.comb(dim + degree - 1, degree)


def invariant_polynomial_dimension(alg: MatrixLieAlgebra, degree: int) -> int:
    """dim of degree-d invariants in the symmetric algebra of the dual.

    Invariance means annihilation by every basis derivation, i.e. this is
    the Lie-algebra (connected-group) invariant space.  Guarded: raises
    ValueError when the symmetric power dimension exceeds SYM_CEILING.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    nmono = symmetric_power_dimension(alg.dim, degree)
    if nmono > SYM_CEILING:
        raise ValueError(
            f"Sym^{degree} dimension {nmono} exceeds ceiling {SYM_CEILING}")
    return len(joint_kernel(nmono, alg.coadjoint_derivations(degree)))
