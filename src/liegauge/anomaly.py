"""Gauge embeddings and the anomaly quadratic form.

A gauging of a two-sided group action is specified at the Lie-algebra level
by a pair of matrix images a -> (T_L(a), T_R(a)) of a common domain algebra.
The obstruction to extending the level three-form equivariantly is the
quadratic form

    Q(a, b) = Tr(T_L(a) T_L(b)) - Tr(T_R(a) T_R(b)),

carried here exactly, with its physical normalization 1/2 * pi^-1 kept as a
symbolic tag so the vanishing test is a statement about rational numbers.

The embedding constructor is deliberately strict: images that fail the
bracket relations are rejected up front with the offending basis pair and
the residual matrix, because every downstream statement assumes linearity
plus the homomorphism property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .conventions import warning
from .exact import Matrix
from .liealg import (
    MatrixLieAlgebra,
    ad_invariance_failure,
    bracket,
    structure_constants,
)
from .wzw import evaluate, quadratic_residual

__all__ = [
    "GaugeEmbedding",
    "AnomalyReport",
    "Verdict",
    "fundamental_vector",
    "anomaly_form",
    "verdict",
    "quadratic_form_via_words",
]


@dataclass(frozen=True)
class GaugeEmbedding:
    """Linear map of a Lie algebra into left/right pairs of N x N matrices.

    T_L and T_R list the images of the domain basis, in order.  Both sides
    must satisfy the domain's bracket relations exactly; when the target
    group is special linear (the default) every image must be traceless.
    """

    domain: MatrixLieAlgebra
    target_size: int
    T_L: tuple[Matrix, ...]
    T_R: tuple[Matrix, ...]
    special_linear_target: bool = True

    def __post_init__(self):
        object.__setattr__(self, "T_L", tuple(self.T_L))
        object.__setattr__(self, "T_R", tuple(self.T_R))
        dim, n = self.domain.dim, self.target_size
        if len(self.T_L) != dim or len(self.T_R) != dim:
            raise ValueError(
                f"need {dim} images per side, got {len(self.T_L)} left "
                f"and {len(self.T_R)} right")
        for side, images in (("left", self.T_L), ("right", self.T_R)):
            for a, t in enumerate(images):
                if t.rows != n or t.cols != n:
                    raise ValueError(
                        f"{side} image {a} is {t.rows}x{t.cols}, "
                        f"target size is {n}")
                if self.special_linear_target and t.trace() != 0:
                    raise ValueError(
                        f"{side} image {a} has nonzero trace "
                        f"{t.trace()} in a special linear target")
        c = structure_constants(self.domain)
        for side, images in (("left", self.T_L), ("right", self.T_R)):
            _check_homomorphism(side, images, c)

    @property
    def dim(self) -> int:
        return self.domain.dim


def _check_homomorphism(side: str, images, c) -> None:
    dim = len(images)
    for a in range(dim):
        for b in range(a + 1, dim):
            expected = Matrix.zero(images[a].rows, images[a].cols)
            for k, x in enumerate(c[a][b]):
                if x:
                    expected = expected + images[k].scale(x)
            residual = bracket(images[a], images[b]) - expected
            if not residual.is_zero():
                raise ValueError(
                    f"{side} images fail the bracket relation for basis "
                    f"pair ({a}, {b}); residual {residual.to_lists()}")


@dataclass(frozen=True)
class AnomalyReport:
    """Exact anomaly data for one embedding.

    The mathematical quadratic form is normalization[0] * pi**normalization[1]
    times the stored matrix Q; the tag never becomes a float.
    """

    Q: Matrix
    anomaly_free: bool
    invariance_checked: bool
    normalization: tuple = (Fraction(1, 2), -1)


@dataclass(frozen=True)
class Verdict:
    """Human- and machine-readable conclusion for one embedding."""

    anomaly_free: bool
    statements: tuple[str, ...]
    warnings: tuple[dict, ...]
    report: AnomalyReport

    def as_dict(self) -> dict:
        return {
            "anomaly_free": self.anomaly_free,
            "statements": list(self.statements),
            "warnings": [dict(w) for w in self.warnings],
        }


def fundamental_vector(emb: GaugeEmbedding, a: int, g0: Matrix) -> Matrix:
    """Value at g0 of the vector field generating gauge direction a.

    The two-sided action g -> exp(-tT_L) g exp(tT_R) linearizes to
    T_L(a) g0 - g0 T_R(a).
    """
    n = emb.target_size
    if g0.rows != n or g0.cols != n:
        raise ValueError(f"base point is {g0.rows}x{g0.cols}, expected {n}x{n}")
    if g0.rank() != n:
        raise ValueError("base point must be invertible")
    return emb.T_L[a] * g0 - g0 * emb.T_R[a]


def anomaly_form(emb: GaugeEmbedding) -> AnomalyReport:
    """Exact anomaly quadratic form with symmetry and invariance checks."""
    dim = emb.dim
    entries = []
    for a in range(dim):
        for b in range(dim):
            q = ((emb.T_L[a] * emb.T_L[b]).trace()
                 - (emb.T_R[a] * emb.T_R[b]).trace())
            entries.append(q)
    Q = Matrix(dim, dim, entries)
    if Q != Q.transpose():
        raise ValueError("anomaly form failed to be symmetric")
    failure = ad_invariance_failure(structure_constants(emb.domain), Q)
    if failure is not None:
        raise ValueError(
            f"anomaly form failed ad-invariance at basis triple {failure}")
    return AnomalyReport(Q=Q, anomaly_free=Q.is_zero(), invariance_checked=True)


def _special_linear_rank(alg: MatrixLieAlgebra):
    """n when the domain is exactly the traceless n x n matrices over the
    rationals, else None.  Recognized structurally, not by name."""
    if alg.scalar != "rational":
        return None
    n = alg.matrix_size
    if alg.dim != n * n - 1:
        return None
    if any(b.trace() != 0 for b in alg.basis):
        return None
    return n


def verdict(emb: GaugeEmbedding) -> Verdict:
    """Interpret the anomaly form.

    Vanishing of Q is always reported as the vanishing of the Cartan-model
    obstruction.  The stronger statement, that an equivariant extension of
    the level form exists if and only if Q = 0, is attached only when the
    domain is a full special linear algebra of rank at least three; for the
    rank-two case the topological side is left open (warning W5), and for
    other domains the equivalence is not claimed at all.
    """
    report = anomaly_form(emb)
    n = _special_linear_rank(emb.domain)
    statements = ["anomaly-free" if report.anomaly_free else "anomalous"]
    warnings = []
    if report.anomaly_free:
        statements.append("Cartan-model obstruction vanishes")
    else:
        statements.append("Cartan-model obstruction is nonzero")
    if n is not None and n >= 3:
        if report.anomaly_free:
            statements.append("equivariant extension exists")
            statements.append("Cartan-model closed lift exists")
        else:
            statements.append("no equivariant extension exists")
    elif n == 2:
        warnings.append(warning("W5"))
    return Verdict(
        anomaly_free=report.anomaly_free,
        statements=tuple(statements),
        warnings=tuple(warnings),
        report=report,
    )


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
