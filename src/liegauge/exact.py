"""Exact scalar arithmetic and exact linear algebra.

Scalars are rationals or `GaussianRational` (elements of Q(i), stored as
a pair of rational parts).  A rational with denominator 1 is a Python
`int`, any other is a `fractions.Fraction`, and the parts of a
`GaussianRational` follow the same int-first rule.  `as_scalar` owns that
rule, and maps a Gaussian rational on the real axis to its rational part,
so no matrix entry, trace or kernel coordinate this module returns is
one.  Almost every entry of the classical bases and their structure data
is a small integer, and integer arithmetic is several times faster than
Fraction arithmetic.
Division goes through `divide`, which returns an exact Fraction where
`int / int` would return a float.  Everything downstream that must be
exact (structure constants, Killing forms, anomaly matrices, kernel
computations) runs on top of this module; no floats enter here.

A matrix keeps the form it was built from, flat entries or sparse rows (a
`{column: value}` dict of the nonzero entries), and derives the other on
request.  Elimination reads and writes sparse rows, so pivot scaling and
row updates touch only nonzero entries, and kernels and ranks hand their
images over as sparse rows.  Each column is indexed to the rows that hold
it, so a pivot visits only the rows it meets rather than every row.  The
pivot of a column is the first unused row in its index with a nonzero
entry; the reduced row echelon form of a matrix is unique, so
that rule decides the order of the work only, never R or the pivots.
`joint_kernel`, the one kernel routine, takes its operators as sparse
`(row, column, value)` triples, indexes them by column for the same
reason, and hands its kernel vectors back sparse, as `{index: value}`
dicts of the nonzero coordinates.  Results are deterministic and
reproducible across runs and platforms.
"""

from __future__ import annotations

import re
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
    """Coerce an int/Fraction/GaussianRational to an exact scalar: an
    integral Fraction becomes an int, and a Gaussian rational on the real
    axis becomes its rational part."""
    if type(x) is int:
        return x
    if type(x) is GaussianRational:
        return x if x.im else x.re
    return _rational(x)


def divide(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a / b; an integral rational quotient is an int."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_scalar(a / b)


_INTEGER = re.compile(r"-?[0-9]+")


def rational_from_string(s: str) -> Union[int, Fraction]:
    """Parse "p/q" or "p" with arbitrary-precision integers, int-first.

    A plain ASCII integer literal is read by `int`; anything else goes
    through `Fraction`, with its results and exceptions.
    """
    s = s.strip()
    if _INTEGER.fullmatch(s):
        return int(s)
    return _rational(Fraction(s))


def scalar_from_json(v) -> Scalar:
    """Parse a file-format scalar: a "p/q" string, a JSON integer (kept an
    int) or a two-element [re, im] list, normalized by `as_scalar`; a JSON
    boolean is not a number."""
    if isinstance(v, str):
        return rational_from_string(v)
    if type(v) is int:
        return v
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return as_scalar(GaussianRational(rational_from_string(str(v[0])),
                                          rational_from_string(str(v[1]))))
    raise ValueError(f"bad scalar literal: {v!r}")


class Matrix:
    """Immutable matrix over exact scalars, kept as the flat entries of the
    public constructors or as the sparse rows of `_of_rows`."""

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
        already normalized by `as_scalar` (a zero may be the int 0), or the
        list of sparse rows that `_of_rows` hands over."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_e", entries)
        return m

    @classmethod
    def _of_rows(cls, cols: int, rows: list) -> "Matrix":
        """Trusted constructor: a list of one `{column: value}` dict of
        nonzero scalars normalized by `as_scalar` per row, kept as given."""
        return cls._of(len(rows), cols, rows)

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
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------------

    def entries(self) -> tuple:
        """The flat row-major entries; a sparse-built matrix builds them on
        each call."""
        e = self._e
        if type(e) is tuple:
            return e
        return tuple(row.get(k, 0) for row in e for k in range(self.cols))

    def sparse_rows(self) -> list[dict]:
        """The nonzero entries of each row as a `{column: value}` dict; a
        sparse-built matrix hands over its own dicts, to be read only."""
        e = self._e
        if type(e) is not tuple:
            return list(e)
        nc = self.cols
        return [{k: x for k, x in enumerate(e[i * nc:(i + 1) * nc]) if x}
                for i in range(self.rows)]

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(
                f"index ({i}, {j}) outside a {self.rows} x {self.cols} matrix")
        return self.entries()[i * self.cols + j]

    def to_lists(self) -> list:
        e, nc = self.entries(), self.cols
        return [list(e[i * nc:(i + 1) * nc]) for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries(), other.entries())])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries(), other.entries())])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries()])

    def scale(self, c: Scalar) -> "Matrix":
        """c times this matrix.  The products by the int entries 0, 1 and
        -1, which make up the classical bases, are formed once per call,
        so equal entries of a scaled basis element share one object."""
        c = as_scalar(c)
        unit = {0: c * 0, 1: c, -1: -c}
        return Matrix(self.rows, self.cols,
                      [unit[a] if type(a) is int and -1 <= a <= 1 else c * a
                       for a in self.entries()])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries(), other.entries()
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

    def transpose(self) -> "Matrix":
        e = self.entries()
        return Matrix(self.cols, self.rows,
                      [e[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        e = self.entries()
        s = 0
        for i in range(self.rows):
            s = s + e[i * self.cols + i]
        return as_scalar(s)

    def is_zero(self) -> bool:
        return all(not x for x in self.entries())

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and all(a == b for a, b in zip(self.entries(),
                                               other.entries())))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries()))

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(
            " ".join(map(repr, row)) for row in self.to_lists())

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form.

        Returns (R, pivot_columns), R built from sparse rows.  A copy of
        each of `sparse_rows()` is eliminated, so this matrix is unchanged,
        and each column is indexed to the rows that hold it, so a pivot
        visits only the rows it meets and a row update touches only nonzero
        entries.  The index is kept lazily: fill-in adds a row to its
        columns, cancellation leaves a stale entry that is skipped.  Pivot
        choice: scan columns left to right; in each column take the first
        unused row listed in its index with a nonzero entry.  The reduced
        row echelon form of a matrix is unique, so this rule orders the
        work only: R and the pivots are the same for any choice of pivot
        rows.
        """
        nr, nc = self.rows, self.cols
        if not nr:
            return self, []
        rows = [row.copy() for row in self.sparse_rows()]
        holders: list = [[] for _ in range(nc)]
        for i, row in enumerate(rows):
            for k in row:
                holders[k].append(i)
        used = [False] * nr
        order: list[int] = []
        pivots: list[int] = []
        for j in range(nc):
            meets = holders[j]
            holders[j] = None
            sel = None
            for i in meets:
                if not used[i] and j in rows[i]:
                    sel = i
                    break
            if sel is None:
                continue
            prow = rows[sel]
            inv = prow.pop(j)
            if inv != 1:
                prow = {k: divide(x, inv) for k, x in prow.items()}
            pitems = list(prow.items())
            for i in meets:
                if i == sel:
                    continue
                row = rows[i]
                f = row.pop(j, None)
                if f is None:
                    continue
                for k, b in pitems:
                    x = row.get(k)
                    if x is None:
                        row[k] = -f * b
                        holders[k].append(i)
                    else:
                        x = x - f * b
                        if x:
                            row[k] = x
                        else:
                            del row[k]
            prow[j] = 1
            rows[sel] = prow
            used[sel] = True
            order.append(sel)
            pivots.append(j)
            if len(order) == nr:
                break
        reduced = [{k: x if type(x) is int else as_scalar(x)
                    for k, x in rows[i].items()} for i in order]
        reduced += [{} for _ in range(nr - len(order))]
        return Matrix._of_rows(nc, reduced), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        R, pivots = Matrix._of_rows(2 * n, [
            {**row, n + i: 1} for i, row in enumerate(self.sparse_rows())
        ]).rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        e = R.entries()
        return Matrix._of(n, n, tuple(e[2 * n * i + n + j] for i in range(n)
                                      for j in range(n)))


def _columns(op, dim: int) -> list[list]:
    """The nonzero entries of an [(i, j, value)] triple-list operator,
    grouped by input column: column j holds (i, value) pairs, repeated
    triples summed and each value normalized once."""
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


def _free_columns(R: Matrix, pivots: list[int]) -> dict:
    """The kernel of a reduced row echelon form R, read from its sparse
    rows: each free column j, in column order, maps to the nonzero
    (pivot column, -R[r, j]) pairs of the kernel vector that has a 1 at j.
    In pivot row r the entries besides the pivot's 1 all lie in free
    columns."""
    pivot_set = set(pivots)
    free: dict = {j: [] for j in range(R.cols) if j not in pivot_set}
    for pj, row in zip(pivots, R.sparse_rows()):
        for k, x in row.items():
            if k != pj:
                free[k].append((pj, -x))
    return free


def joint_kernel(dim: int, ops: Sequence) -> list[dict]:
    """Intersection of the kernels of several operators on a dim-space.

    Each op is a sparse [(i, j, value)] triple list, rows i < dim.
    Works by iterative restriction: the running kernel basis is refined one
    operator at a time, so early operators with small kernels keep later
    eliminations cheap.  The basis is kept sparse and each operator is
    indexed by column once, so an image costs the nonzeros of the basis
    vector times those of the columns it meets.  The images are the
    columns of one Matrix per operator, built from its sparse rows and
    reduced by one `Matrix.rref`, and the next basis is read from the free
    columns of R, a free column with no entries keeping its basis vector
    as it is.  Returns the basis vectors as they were kept: `{index:
    value}` dicts of the nonzero coordinates, values normalized by
    `as_scalar`.  With one operator the basis is that of the operator's
    right kernel read from its reduced row echelon form: one vector per
    free column, in column order, with a 1 at the free column.
    """
    basis: list[dict] = [{j: 1} for j in range(dim)]
    for op in ops:
        if not basis:
            return []
        cols = _columns(op, dim)
        images: list[dict] = [{} for _ in range(dim)]
        for c, v in enumerate(basis):
            image = _combination((x, cols[j]) for j, x in v.items())
            for i, x in image.items():
                images[i][c] = x
        free = _free_columns(*Matrix._of_rows(len(basis), images).rref())
        del images
        basis = [_combination([(1, basis[j].items())]
                              + [(x, basis[p].items()) for p, x in entries])
                 if entries else basis[j]
                 for j, entries in free.items()]
    return basis
