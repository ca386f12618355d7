"""Relative Chevalley-Eilenberg cohomology of reductive matrix pairs.

Given a subalgebra with nondegenerate restricted Killing form, the
orthogonal complement is a stable summand and the cochains are the
subalgebra-invariant alternating forms on it.  The differential uses only
the complement component of brackets, the projected constants.  For a
symmetric pair `is_symmetric_pair` reads every one of them as zero on each
run, so the differential vanishes without being built and the Betti
numbers are the invariant-wedge dimensions; any other pair applies a
sparse differential to its invariant cochains.  Every bracket of the pair
is read from one structure-constant table of the algebra on the basis
adapted to subalgebra plus complement (`ReductivePair.split`), where
`cartan_complement` also verifies closure and stability.

Everything here is exact.  The wedge spaces are indexed by sorted index
subsets.  `liealg.graded_derivations` builds both the sparse subalgebra
action, from the coadjoint images on the split table, and the
differential, from the images d xi_l of the dual generators, so the
joint-invariant computation stays within the iterative kernel refinement
of `exact.joint_kernel`.  Both depend only on the pair and the wedge
degree, so a pair holds a cached builder of each
(`ReductivePair.subalgebra_action`, `ReductivePair.differential`) that
closes over generator images built once per pair, never the pair, and
builds the tuples once per degree; every kernel and rank is still
computed on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

from .exact import (
    GaussianRational,
    Matrix,
    _columns,
    _combination,
    joint_kernel,
)
from .liealg import (
    MatrixLieAlgebra,
    coadjoint_images,
    graded_derivations,
    killing_form,
)

__all__ = [
    "ReductivePair",
    "cartan_complement",
    "check_complex_size",
    "invariant_wedge_basis",
    "invariant_wedge_dimension",
    "relative_ce_cohomology",
    "is_symmetric_pair",
]

WEDGE_CEILING = 20000
# largest differential, C(m, q) * C(m, q + 1) entries if dense, whose
# images on the invariant cochains of a non-symmetric pair
# relative_ce_cohomology ranks as sparse rows; every m <= 10 fits
DIFFERENTIAL_CEILING = 100000


@dataclass(frozen=True)
class ReductivePair:
    """Algebra, stable subalgebra, and a computed stable complement.

    Build through cartan_complement, which verifies on the `split` table
    that the subalgebra is closed and that the complement is stable.
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
    def split(self) -> MatrixLieAlgebra:
        """The algebra on the basis k.basis + p_basis, so that its
        structure constants hold every bracket of the pair; the algebra
        itself for the plain complex."""
        if self.k is None:
            return self.g
        return MatrixLieAlgebra(self.g.name, self.g.matrix_size,
                                self.k.basis + self.p_basis, self.g.scalar)

    @cached_property
    def projected_constants(self):
        """cbar[i][j] = complement component of bracket(p_i, p_j) in
        complement coordinates; the subalgebra component is projected
        away.  Tuples throughout, like the table they are cut from, so a
        pair shared between callers cannot be altered by one of them."""
        c, kd = self.split.structure_constants, self.k_dim
        return tuple(tuple(col[kd:] for col in row[kd:]) for row in c[kd:])

    @cached_property
    def subalgebra_action(self):
        """Cached builder: `subalgebra_action(q)` is the subalgebra's
        action on the q-wedge of the dual complement, one tuple of
        `graded_derivations` triples per subalgebra basis element (none
        for the plain complex).  Tuples throughout, like
        `projected_constants`."""
        c, kd, m = self.split.structure_constants, self.k_dim, self.p_dim
        images = coadjoint_images(c[:kd], kd)

        @cache
        def build(q: int) -> tuple:
            return tuple(map(tuple, graded_derivations(
                images, m, q, alternating=True)))
        return build

    @cached_property
    def differential(self):
        """Cached builder: `differential(q)` is the relative differential
        from the q-wedge to the (q+1)-wedge of the dual complement as a
        tuple of `graded_derivations` triples."""
        images, m = _differential_images(self), self.p_dim

        @cache
        def build(q: int) -> tuple:
            (d,) = graded_derivations(images, m, q, alternating=True)
            return tuple(d)
        return build


def cartan_complement(g: MatrixLieAlgebra, k: MatrixLieAlgebra | None
                      ) -> ReductivePair:
    """Killing-orthogonal complement of k in g, with invariants verified.

    Raises ValueError when k is outside the real span of g (some basis
    element of k has a coordinate in g that is not rational), when the
    restricted Killing form is degenerate (reporting the radical
    dimension), when k is not a subalgebra (some bracket of k has a
    complement part), or when the complement fails stability (some
    bracket of k with the complement has a subalgebra part); both are
    read from the pair's `split` structure constants.
    """
    if k is None or k.dim == 0:
        return ReductivePair(g=g, k=None, p_basis=tuple(g.basis))
    if k.matrix_size != g.matrix_size:
        raise ValueError("subalgebra matrices must match the ambient size")
    solver = g.expansion_solver
    try:
        k_coords = [solver.expand(x) for x in k.basis]
    except ValueError:
        k_coords = None
    # g is a real algebra: the solver expands over Q(i), so i*h has a
    # coordinate in sl(2, R), but only rational coordinates are in its span
    if k_coords is None or any(type(x) is GaussianRational
                               for kc in k_coords for x in kc):
        raise ValueError("subalgebra basis does not lie in the span")
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
    p_coords = joint_kernel(g.dim, [[
        (i, s, x) for i, row in enumerate(pairing_rows)
        for s, x in enumerate(row) if x]])
    # p = sum_r v[r] g.basis[r], over the nonzero coordinates of v
    n = g.matrix_size
    flat = [[(t, x) for t, x in enumerate(b.entries()) if x]
            for b in g.basis]
    pair = ReductivePair(g=g, k=k, p_basis=tuple(
        Matrix(n, n, [p.get(t, 0) for t in range(n * n)])
        for p in (_combination((x, flat[r]) for r, x in v.items())
                  for v in p_coords)))
    c, kd = pair.split.structure_constants, k.dim
    for a in range(kd):
        for b in range(a + 1, kd):
            if any(c[a][b][kd:]):
                raise ValueError(
                    f"not a subalgebra: {k.name}: bracket of basis pair "
                    f"({a}, {b}) is outside the span; not a Lie subalgebra")
    if any(any(col[:kd]) for row in c[:kd] for col in row[kd:]):
        raise ValueError("complement is not stable under the subalgebra")
    return pair


def is_symmetric_pair(pair: ReductivePair) -> bool:
    """True when every complement bracket lands inside the subalgebra."""
    cbar = pair.projected_constants
    return all(not any(c) for row in cbar for c in row)


def _check_ceiling(m: int, q: int) -> None:
    count = math.comb(m, q)
    if count > WEDGE_CEILING:
        raise ValueError(
            f"wedge degree {q} needs {count} basis subsets, over the "
            f"ceiling {WEDGE_CEILING}")


def invariant_wedge_basis(pair: ReductivePair, q: int) -> list[dict]:
    """Coordinate vectors (in the sorted-subset basis) spanning the
    subalgebra-invariant part of the q-wedge of the dual complement, as
    `joint_kernel` returns them: `{subset index: value}` dicts of the
    nonzero coordinates.  The plain complex has no acting rows, so every
    vector is invariant.  Each call computes the kernel afresh; the pair's
    action on the q-wedge is built on the first call for q and kept
    (`ReductivePair.subalgebra_action`)."""
    m = pair.p_dim
    if q < 0 or q > m:
        raise ValueError(f"wedge degree {q} outside 0..{m}")
    _check_ceiling(m, q)
    return joint_kernel(math.comb(m, q), pair.subalgebra_action(q))


def invariant_wedge_dimension(pair: ReductivePair, q: int) -> int:
    return len(invariant_wedge_basis(pair, q))


def _differential_images(pair: ReductivePair) -> list:
    """The relative differential as generator images for
    `graded_derivations`: d xi_l = -sum_{a<b} cbar[a][b][l] xi_a ^ xi_b,
    the dual of (d xi)(x, y) = -xi(proj[x, y])."""
    cbar, m = pair.projected_constants, pair.p_dim
    return [[[((a, b), -cbar[a][b][l]) for a in range(m)
              for b in range(a + 1, m) if cbar[a][b][l]] for l in range(m)]]


def check_complex_size(m: int) -> None:
    """Fail fast when a wedge space on an m-dimensional complement is over
    the wedge ceiling.  C(m, q) grows up to q = m // 2, so the first degree
    over the ceiling, if any, is found there.  Needs only m, so callers can
    check before building any algebra."""
    for q in range(m // 2 + 1):
        _check_ceiling(m, q)


def relative_ce_cohomology(pair: ReductivePair) -> tuple[int, ...]:
    """Betti numbers of the invariant subcomplex, degree 0..dim complement.

    The differential reads nothing but the projected constants, so a
    symmetric pair (all of them zero) returns its invariant-wedge
    dimensions and builds no differential.  Any other pair applies the
    sparse differential to its invariant cochains and ranks the images.
    Before any invariant work come the wedge ceiling for every degree,
    then, for a non-symmetric pair, DIFFERENTIAL_CEILING on each
    differential's C(m, q) * C(m, q + 1) entries.
    """
    m = pair.p_dim
    check_complex_size(m)
    if is_symmetric_pair(pair):
        return tuple(invariant_wedge_dimension(pair, q)
                     for q in range(m + 1))
    for q in range(m):
        entries = math.comb(m, q) * math.comb(m, q + 1)
        if entries > DIFFERENTIAL_CEILING:
            raise ValueError(
                f"differential from wedge degree {q} needs {entries} "
                f"matrix entries, over the ceiling {DIFFERENTIAL_CEILING}")
    invariants = [invariant_wedge_basis(pair, q) for q in range(m + 1)]
    # ranks[q + 1] is the rank of d on the invariant q-cochains: that of
    # their images, taken as the sparse rows of a Matrix
    ranks = [0] * (m + 2)
    for q in range(m):
        if not invariants[q]:
            continue
        cols = _columns(pair.differential(q), math.comb(m, q))
        ranks[q + 1] = Matrix._of_rows(math.comb(m, q + 1), [
            _combination((x, cols[j]) for j, x in w.items())
            for w in invariants[q]]).rank()
    return tuple(len(invariants[q]) - ranks[q] - ranks[q + 1]
                 for q in range(m + 1))
