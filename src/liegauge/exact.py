"""Exact scalar arithmetic and exact linear algebra.

Scalars are rationals or `GaussianRational` (elements of Q(i), stored as
a pair of rational parts).  A rational with denominator 1 is a Python
`int`, any other is a `fractions.Fraction`, and the parts of a
`GaussianRational` follow the same int-first rule; almost every entry of
the classical bases and their structure data is a small integer, and
integer arithmetic is several times faster than Fraction arithmetic.
Division goes through `divide`, which returns an exact Fraction where
`int / int` would return a float.  Everything downstream that must be
exact (structure constants, Killing forms, anomaly matrices, kernel
computations) runs on top of this module; no floats enter here.

Matrices are stored densely, but elimination works on sparse rows (a
`{column: value}` dict of the nonzero entries), so pivot scaling and row
updates touch only nonzero entries; the operators of `joint_kernel` are
indexed by column for the same reason.  Row reduction uses the first
nonzero entry in each column as the pivot, scanning rows top to bottom,
so results are deterministic and reproducible across runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union


def _rational(x) -> Union[int, Fraction]:
    """An exact rational, int-first: an integral Fraction becomes an int."""
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """A Gaussian rational a + b*i with exact rational parts.

    Each part is an `int` or a non-integral `Fraction`; anything else
    (a float, a string) is a TypeError.  Interoperates with int and
    Fraction (coerced to imaginary part 0).  Instances are immutable and
    hashable; a value with zero imaginary part hashes like its rational
    part so mixed-keyed dicts behave.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _rational(re))
        object.__setattr__(self, "im", _rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            divide(self.re * o.re + self.im * o.im, n),
            divide(self.im * o.re - self.re * o.im, n),
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


I = GaussianRational(0, 1)

Scalar = Union[int, Fraction, GaussianRational]


def as_scalar(x: Scalar) -> Scalar:
    """Coerce an int/Fraction/GaussianRational to an exact scalar; an
    integral Fraction becomes an int."""
    if type(x) is int or type(x) is GaussianRational:
        return x
    return _rational(x)


def divide(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a / b; an integral rational quotient is an int."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_scalar(a / b)


def conj(x: Scalar) -> Scalar:
    x = as_scalar(x)
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


def rational_from_string(s: str) -> Fraction:
    """Parse "p/q" or "p" with arbitrary-precision integers."""
    return Fraction(s.strip())


def scalar_to_json(x: Scalar):
    """Inverse-parse a scalar into the file-format literal."""
    x = as_scalar(x)
    if isinstance(x, GaussianRational):
        return [str(x.re), str(x.im)]
    return str(x)


def scalar_from_json(v) -> Scalar:
    """Parse a file-format scalar: a "p/q" string, a JSON integer (kept an
    int) or a two-element [re, im] list; a JSON boolean is not a number."""
    if isinstance(v, str):
        return rational_from_string(v)
    if type(v) is int:
        return v
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return GaussianRational(rational_from_string(str(v[0])),
                                rational_from_string(str(v[1])))
    raise ValueError(f"bad scalar literal: {v!r}")


class Matrix:
    """Immutable dense matrix over exact scalars."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        e = tuple(map(as_scalar, entries))
        if len(e) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", e)

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "Matrix":
        """Trusted constructor: `entries` is a tuple of rows * cols scalars
        already normalized by `as_scalar` (a zero may be the int 0)."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_e", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalar]]) -> "Matrix":
        c = len(cols)
        r = len(cols[0]) if c else 0
        return cls(r, c, [cols[j][i] for i in range(r) for j in range(c)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def entries(self) -> tuple:
        return self._e

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c: Scalar) -> "Matrix":
        c = as_scalar(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self._e, other._e
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                s = 0
                for t in range(k):
                    x = arow[t]
                    if x:
                        s = s + x * b[t * m + j]
                out.append(s)
        return Matrix(n, m, out)

    def __rmul__(self, other):
        return self.scale(other)

    def matvec(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        nonzero = [(t, x) for t, x in enumerate(v) if x]
        e, n = self._e, self.cols
        out = []
        for i in range(self.rows):
            s = 0
            base = i * n
            for t, x in nonzero:
                s = s + e[base + t] * x
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self._e[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def conjugate(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [conj(a) for a in self._e])

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        s = 0
        for i in range(self.rows):
            s = s + self._e[i * self.cols + i]
        return s

    def is_zero(self) -> bool:
        return all(not x for x in self._e)

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and all(a == b for a, b in zip(self._e, other._e)))

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(
            " ".join(repr(x) for x in self.row(i)) for i in range(self.rows))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return Matrix.from_rows(rows)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form.

        Returns (R, pivot_columns).  Pivot choice: scan columns left to
        right; in each column take the first row (top to bottom, among rows
        not yet used) with a nonzero entry.  Rows are eliminated as sparse
        `{column: value}` dicts, so only nonzero entries are visited.
        """
        nr, nc, e = self.rows, self.cols, self._e
        if not nr:
            return self, []
        rows = [{j: x for j, x in enumerate(e[i * nc:(i + 1) * nc]) if x}
                for i in range(nr)]
        pivots: list[int] = []
        r = 0
        for j in range(nc):
            sel = None
            for i in range(r, nr):
                if j in rows[i]:
                    sel = i
                    break
            if sel is None:
                continue
            prow = rows[sel]
            rows[sel] = rows[r]
            inv = prow[j]
            if inv != 1:
                prow = {k: divide(x, inv) for k, x in prow.items()}
            prow[j] = 1
            rows[r] = prow
            for i, row in enumerate(rows):
                f = row.get(j)
                if f is None or i == r:
                    continue
                for k, b in prow.items():
                    v = row.get(k, 0) - f * b
                    if v:
                        row[k] = v
                    else:
                        del row[k]
            pivots.append(j)
            r += 1
            if r == nr:
                break
        flat = [0] * (nr * nc)
        for i, row in enumerate(rows):
            base = i * nc
            for k, x in row.items():
                flat[base + k] = as_scalar(x)
        return Matrix._of(nr, nc, tuple(flat)), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right kernel, as tuples of length self.cols.

        Deterministic: one vector per free column, in column order, with a 1
        in the free position.
        """
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for j in free:
            v = [0] * self.cols
            v[j] = 1
            for r, pj in enumerate(pivots):
                v[pj] = -R[r, j]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        R, pivots = self.hstack(Matrix.identity(n)).rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._of(n, n, tuple(R[i, n + j] for i in range(n)
                                      for j in range(n)))


SparseOp = list  # [(i, j, value)] triples; rows index output, cols input


def _columns(op, dim: int) -> list[list]:
    """The nonzero entries of a Matrix or triple-list operator, grouped by
    input column: column j holds (i, value) pairs, repeated triples summed
    and each value normalized once."""
    if isinstance(op, Matrix):
        n = op.cols
        op = [(t // n, t % n, x) for t, x in enumerate(op.entries()) if x]
    by_col: list[dict] = [{} for _ in range(dim)]
    for i, j, val in op:
        col = by_col[j]
        col[i] = col.get(i, 0) + val
    return [[(i, as_scalar(x)) for i, x in col.items() if x]
            for col in by_col]


def _combination(terms) -> dict:
    """The sum of c * v over (c, v) pairs of a scalar and a sparse vector
    given as (index, value) pairs, as an `{index: value}` dict with zeros
    dropped and values normalized."""
    out: dict = {}
    for c, vec in terms:
        for i, x in vec:
            out[i] = out.get(i, 0) + c * x
    return {i: as_scalar(x) for i, x in out.items() if x}


def joint_kernel(dim: int, ops: Sequence) -> list[tuple]:
    """Intersection of the kernels of several operators on a dim-space.

    Each op is a Matrix (dim x dim) or a sparse [(i, j, value)] triple list.
    Works by iterative restriction: the running kernel basis is refined one
    operator at a time, so early operators with small kernels keep later
    eliminations cheap.  The basis is kept sparse and each operator is
    indexed by column once, so an image costs the nonzeros of the basis
    vector times those of the columns it meets.  Returns basis vectors
    (tuples of length dim).
    """
    basis: list[dict] = [{j: 1} for j in range(dim)]
    for op in ops:
        if not basis:
            return []
        cols = _columns(op, dim)
        images = [_combination((x, cols[j]) for j, x in v.items())
                  for v in basis]
        k = len(basis)
        flat = [0] * (dim * k)
        for c, image in enumerate(images):
            for i, x in image.items():
                flat[i * k + c] = x
        coeffs = Matrix._of(dim, k, tuple(flat)).kernel_basis()
        basis = [_combination((c, v.items()) for c, v in zip(cv, basis) if c)
                 for cv in coeffs]
    return [tuple(v.get(i, 0) for i in range(dim)) for v in basis]
