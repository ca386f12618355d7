"""Matrix Lie algebras with exact structure theory.

A MatrixLieAlgebra is a finite basis of square matrices over the rationals
or Gaussian rationals, closed under the commutator bracket.  On top of the
basis this module computes structure constants, adjoint matrices, the
Killing form (defined through adjoint traces, never through matrix traces),
ad-invariant symmetric bilinear forms, and dimensions of invariant
polynomials in the symmetric algebra of the dual.

Classical bases are fixed and documented so that every downstream exact
value is reproducible:

  sl(n): diagonal generators E_jj - E_(j+1)(j+1) for j = 0..n-2 first, then
         off-diagonal E_jk (j != k) in lexicographic (j, k) order.  For
         n = 2 this is exactly (h, e, f).
  so(n): E_jk - E_kj for j < k, lexicographic.
  su(n): i(E_jj - E_(j+1)(j+1)) for j = 0..n-2 first, then for each j < k
         (lexicographic) the pair E_jk - E_kj, i(E_jk + E_kj).  Gaussian
         rational entries; the algebra is real, so structure constants come
         out with zero imaginary part.
  gl(n): all E_jk in lexicographic (j, k) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .exact import I, Matrix, Scalar, divide, joint_kernel

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

    @cached_property
    def expansion_solver(self) -> "ExpansionSolver":
        """Expands matrices in this basis; built once per algebra."""
        return ExpansionSolver(self.basis)

    @cached_property
    def structure_constants(self) -> tuple:
        """The algebra's structure constants, computed once per algebra;
        see the module-level `structure_constants`."""
        solver = self.expansion_solver
        dim = self.dim
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
                        bracket(self.basis[a], self.basis[b])))
                except ValueError:
                    raise ValueError(
                        f"{self.name}: bracket of basis pair ({a}, {b}) "
                        "is outside the span; not a Lie subalgebra") from None
            c.append(tuple(row))
        return tuple(c)


def _sparse_rows(m: Matrix) -> list[list]:
    """The nonzero entries of each row of a square matrix, as (column,
    value) pairs."""
    n, e = m.cols, m.entries()
    return [[(j, x) for j, x in enumerate(e[i * n:(i + 1) * n]) if x]
            for i in range(n)]


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """Commutator [x, y] = xy - yx, formed in one pass over the nonzero
    entries; integral entries are ints."""
    n = x.rows
    if x.cols != n or y.rows != n or y.cols != n:
        raise ValueError("bracket needs two square matrices of one size")
    xr, yr = _sparse_rows(x), _sparse_rows(y)
    out = [0] * (n * n)
    for i in range(n):
        base = i * n
        for t, a in xr[i]:
            for j, b in yr[t]:
                out[base + j] += a * b
        for t, a in yr[i]:
            for j, b in xr[t]:
                out[base + j] -= a * b
    return Matrix(n, n, out)


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

    Precomputes a row-reduction transform of the flattened basis so each
    expansion is a single matrix-vector product plus a consistency check.
    Raises ValueError on a dependent basis.
    """

    def __init__(self, basis: Sequence[Matrix]):
        if not basis:
            self.dim = 0
            return
        n2 = basis[0].rows * basis[0].cols
        self.dim = len(basis)
        flat = Matrix.from_columns([b.entries() for b in basis])
        aug = flat.hstack(Matrix.identity(n2))
        R, pivots = aug.rref()
        if pivots[:self.dim] != list(range(self.dim)):
            raise ValueError("basis matrices are linearly dependent")
        self.transform = Matrix(
            n2, n2, [R[i, self.dim + j] for i in range(n2) for j in range(n2)])

    def expand(self, m: Matrix) -> tuple[Scalar, ...]:
        """Coefficients of m in the basis; ValueError if m is outside the span."""
        if self.dim == 0:
            if m.is_zero():
                return ()
            raise ValueError("nonzero matrix in empty basis")
        w = self.transform.matvec(m.entries())
        if any(w[self.dim:]):
            raise ValueError("matrix does not lie in the basis span")
        return tuple(w[:self.dim])


def structure_constants(alg: MatrixLieAlgebra):
    """Structure constants c[a][b] = coefficients of [e_a, e_b] in the basis.

    Raises ValueError naming the offending pair when the basis is not
    closed under the bracket.  Computed once per algebra object.
    """
    return alg.structure_constants


def verify_antisymmetry(c) -> bool:
    dim = len(c)
    return all(c[a][b][k] == -c[b][a][k]
               for a in range(dim) for b in range(dim) for k in range(dim))


def verify_jacobi(c) -> bool:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] == 0 for all basis triples."""
    dim = len(c)
    for a in range(dim):
        for b in range(a + 1, dim):
            cab = c[a][b]
            for cc in range(b + 1, dim):
                cbc = c[b][cc]
                cca = c[cc][a]
                for l in range(dim):
                    s = 0
                    for m in range(dim):
                        s = (s + cab[m] * c[m][cc][l]
                             + cbc[m] * c[m][a][l]
                             + cca[m] * c[m][b][l])
                    if s:
                        return False
    return True


def adjoint_matrix(c, a: int) -> Matrix:
    """Matrix of ad(e_a) in the basis: column l holds [e_a, e_l]."""
    dim = len(c)
    return Matrix(dim, dim,
                  [c[a][l][m] for m in range(dim) for l in range(dim)])


def killing_form(alg: MatrixLieAlgebra, c=None) -> Matrix:
    """B_ab = trace(ad e_a . ad e_b), computed from structure constants.

    With (ad e_a)[m, l] = c[a][l][m] the trace is the sum over l, m of
    c[a][l][m] c[b][m][l].  This is the definition; comparisons against
    multiples of the matrix trace form live in tests, not here.
    """
    if c is None:
        c = structure_constants(alg)
    dim = alg.dim
    nonzero = [[(l, m, x) for l in range(dim) for m, x in enumerate(c[a][l])
                if x] for a in range(dim)]
    return Matrix(dim, dim, [sum(x * c[b][m][l] for l, m, x in nonzero[a])
                             for a in range(dim) for b in range(dim)])


def trace_form(alg: MatrixLieAlgebra) -> Matrix:
    """T_ab = Tr(e_a e_b) in the defining representation."""
    dim = alg.dim
    return Matrix(dim, dim, [(alg.basis[a] * alg.basis[b]).trace()
                             for a in range(dim) for b in range(dim)])


def ad_invariance_failure(c, q: Matrix):
    """The first basis triple (x, a, b), in lexicographic order, with
    Q([x,a],b) + Q(a,[x,b]) != 0, or None when q is ad-invariant.

    For each x the rows over a are accumulated from the nonzero structure
    constants and the nonzero entries of q.
    """
    dim = len(c)
    qe = q.entries()
    qrows = _sparse_rows(q)
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
                for b, w in qrows[k]:
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


def is_ad_invariant(c, q: Matrix) -> bool:
    """Check Q([x,a],b) + Q(a,[x,b]) == 0 on all basis triples."""
    return ad_invariance_failure(c, q) is None


# -- symmetric powers of the dual -------------------------------------------


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Weakly increasing index tuples of the given length (monomial basis)."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, start, left):
        if left == 0:
            out.append(tuple(prefix))
            return
        for v in range(start, nvars):
            prefix.append(v)
            rec(prefix, v, left - 1)
            prefix.pop()

    rec([], 0, degree)
    return out


def coadjoint_derivation(c, a: int, monomials, index) -> list:
    """Sparse matrix of e_a acting as a derivation on Sym^d of the dual.

    The action on a dual generator is (a . xi_v)(e_j) = -xi_v([e_a, e_j]),
    so xi_v maps to -sum_j c[a][j][v] xi_j; it extends to monomials by the
    Leibniz rule.  Returns [(row, col, val)] triples over the monomial basis.
    """
    ca = c[a]
    dim = len(c)
    images = [[(j, -ca[j][v]) for j in range(dim) if ca[j][v]]
              for v in range(dim)]
    triples = []
    for col, mono in enumerate(monomials):
        seen = {}
        for v in mono:
            seen[v] = seen.get(v, 0) + 1
        for v, mult in seen.items():
            if not images[v]:
                continue
            pos = mono.index(v)
            rest = mono[:pos] + mono[pos + 1:]
            for j, coeff in images[v]:
                target = tuple(sorted(rest + (j,)))
                triples.append((index[target], col, mult * coeff))
    return triples


def _derivation_ops(alg: MatrixLieAlgebra, degree: int):
    """Structure constants, Sym^degree monomials and basis derivations."""
    c = structure_constants(alg)
    monomials = _monomials(alg.dim, degree)
    index = {m: i for i, m in enumerate(monomials)}
    return c, monomials, [coadjoint_derivation(c, a, monomials, index)
                          for a in range(alg.dim)]


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
    if degree == 0:
        return 1
    nmono = symmetric_power_dimension(alg.dim, degree)
    if nmono > SYM_CEILING:
        raise ValueError(
            f"Sym^{degree} dimension {nmono} exceeds ceiling {SYM_CEILING}")
    _, _, ops = _derivation_ops(alg, degree)
    return len(joint_kernel(nmono, ops))


def invariant_symmetric_forms(alg: MatrixLieAlgebra) -> list[Matrix]:
    """Basis of ad-invariant symmetric bilinear forms Q on the algebra.

    Solved as the joint kernel of the basis derivations on Sym^2 of the
    dual; each kernel vector is converted to the symmetric matrix with
    Q(x, y) = the polynomial's polarization.  Every returned form is
    re-checked against the invariance identity.
    """
    c, monomials, ops = _derivation_ops(alg, 2)
    dim = alg.dim
    kernel = joint_kernel(len(monomials), ops)
    forms = []
    for vec in kernel:
        q = [[0] * dim for _ in range(dim)]
        for (i, j), coeff in zip(monomials, vec):
            if i == j:
                q[i][i] = coeff
            else:
                half = divide(coeff, 2)
                q[i][j] = half
                q[j][i] = half
        qm = Matrix.from_rows(q)
        if not is_ad_invariant(c, qm):
            raise AssertionError("kernel vector failed invariance re-check")
        forms.append(qm)
    return forms
