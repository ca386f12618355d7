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
"""

from liegauge.anomaly import GaugeEmbedding
from liegauge.exact import Matrix
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
