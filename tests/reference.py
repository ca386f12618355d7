"""Second routes that tests compare command answers against.

None of these runs in a command: each recomputes a value that `liegauge`
computes another way, so a test can check the two against each other.

  quadratic_residual         iota_a(lam_b) + iota_b(lam_a) from freshly
                             built lambda forms, against the suite's row
  quadratic_form_via_words   the anomaly form Q through the trace-word
                             engine, against `anomaly.anomaly_form`
  verify_antisymmetry,       the defining identities of a Lie bracket, on
  verify_jacobi              the structure constants of `liealg`
  trace_form                 Tr(e_a e_b) through matrix products, the
                             multiple of the Killing form on simple algebras
  parity_insert_signs,       the Getzler layer's dx insertion and removal
  parity_slots               signs by popcount and slot parity, against
                             the ones it reads from its wedge-sign table
  ad_matrix_by_columns       Ad(h) expanded one column at a time and
                             transposed, against `LinearAction.ad_matrix`

Below them sit the dense helpers the tests share and no command needs: a
zero matrix, a matrix from its columns, a matrix applied to a vector,
entrywise complex conjugation, a matrix's nonzero triples, a sparse
vector made dense, and the right kernel of any matrix through
`exact.joint_kernel`.
"""

from liegauge.anomaly import GaugeEmbedding
from liegauge.exact import GaussianRational, Matrix, as_scalar, joint_kernel
from liegauge.getzler.action import matmul
from liegauge.liealg import MatrixLieAlgebra
from liegauge.wzw import contract, evaluate, lambda_form


def quadratic_residual(a, b):
    """iota_a(lam_b) + iota_b(lam_a); a pure constant for any labels."""
    return contract(lambda_form(b), a) + contract(lambda_form(a), b)


def quadratic_form_via_words(emb: GaugeEmbedding, a: int, b: int):
    """Entry Q[a, b] recomputed through the symbolic trace-word engine.

    Instantiates the engine's residual constant for iota_a lam_b +
    iota_b lam_a at the embedding's images and returns the resulting
    pi-graded scalar; cross-module oracle for anomaly_form.
    """
    expr = quadratic_residual("a", "b")
    bindings = {
        ("L", "a"): emb.T_L[a], ("R", "a"): emb.T_R[a],
        ("L", "b"): emb.T_L[b], ("R", "b"): emb.T_R[b],
    }
    return evaluate(expr, Matrix.identity(emb.target_size), [], bindings)


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


def trace_form(alg: MatrixLieAlgebra) -> Matrix:
    """T_ab = Tr(e_a e_b) in the defining representation."""
    dim = alg.dim
    return Matrix(dim, dim, [(alg.basis[a] * alg.basis[b]).trace()
                             for a in range(dim) for b in range(dim)])


def parity_insert_signs(m: int) -> tuple:
    """[mask][i]: the sign of dx_i ^ dx_mask, 0 when i is in mask, else
    (-1) to the number of factors of dx_mask below i."""
    return tuple(
        tuple(0 if mask >> i & 1
              else (-1 if (mask & ((1 << i) - 1)).bit_count() % 2 else 1)
              for i in range(m))
        for mask in range(1 << m))


def parity_slots(m: int) -> tuple:
    """[mask]: (i, 1 << i, (-1)^t) for the t-th factor dx_i of dx_mask."""
    return tuple(
        tuple((i, 1 << i, -1 if t % 2 else 1)
              for t, i in enumerate(j for j in range(m) if mask >> j & 1))
        for mask in range(1 << m))


def ad_matrix_by_columns(action, h, hinv) -> tuple:
    """Ad(h) one column at a time: column b is the dual frame times the
    flattened h A_b hinv as a column vector; the columns are then
    transposed into rows."""
    columns = []
    for A in action.basis:
        vec = [(v,) for row in matmul(matmul(h, A), hinv) for v in row]
        columns.append([total for total, in matmul(action._dual, vec)])
    return tuple(zip(*columns))


# -- dense helpers -----------------------------------------------------------


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [0] * (rows * cols))


def from_columns(cols) -> Matrix:
    """The matrix whose columns are the given sequences."""
    c = len(cols)
    r = len(cols[0]) if c else 0
    return Matrix(r, c, [cols[j][i] for i in range(r) for j in range(c)])


def densify(v: dict, dim: int) -> tuple:
    """A `{index: value}` vector as a tuple of length dim."""
    return tuple(v.get(i, 0) for i in range(dim))


def matvec(m: Matrix, v) -> tuple:
    """m times a vector, given as a sequence of m.cols scalars or as an
    `{index: value}` dict; entries normalized by `as_scalar`."""
    if isinstance(v, dict):
        v = densify(v, m.cols)
    e, n = m.entries(), m.cols
    return tuple(as_scalar(sum((e[i * n + t] * x for t, x in enumerate(v)),
                               0)) for i in range(m.rows))


def conjugate(m: Matrix) -> Matrix:
    """The entrywise complex conjugate."""
    return Matrix(m.rows, m.cols, [
        GaussianRational(x.re, -x.im) if type(x) is GaussianRational else x
        for x in m.entries()])


def triples(m: Matrix) -> list:
    """The nonzero entries of m as (row, column, value) triples."""
    return [(i, j, x) for i, row in enumerate(m.sparse_rows())
            for j, x in row.items()]


def kernel(m: Matrix) -> list[tuple]:
    """The right kernel of m as dense tuples, from `joint_kernel` on the
    triples of m's rows taken m.cols at a time (an operator on an n-space
    has rows below n).  The basis does not depend on the blocks: it is the
    one that has a 1 at each free column of the reduced row echelon form
    and 0 at the others, in column order."""
    n, entries = m.cols, triples(m)
    if not n:
        return []
    ops = [[(i - b, j, x) for i, j, x in entries if b <= i < b + n]
           for b in range(0, m.rows, n)]
    return [densify(v, n) for v in joint_kernel(n, ops)]
