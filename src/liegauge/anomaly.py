"""Gauge embeddings and the anomaly quadratic form.

A gauging of a two-sided group action is specified at the Lie-algebra level
by a pair of matrix images a -> (T_L(a), T_R(a)) of a common domain algebra.
The obstruction to extending the level three-form equivariantly is the
quadratic form

    Q(a, b) = Tr(T_L(a) T_L(b)) - Tr(T_R(a) T_R(b)),

carried here exactly, with its physical normalization 1/2 * pi^-1 kept as a
symbolic tag so the vanishing test is a statement about rational numbers.
Each trace form is `liealg.trace_pairings`, the routine behind the
Killing form too.

The embedding constructor is deliberately strict: images that fail the
bracket relations are rejected up front with the offending basis pair and
the residual matrix, because every downstream statement assumes linearity
plus the homomorphism property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conventions import warning
from .exact import Matrix
from .liealg import (
    MatrixLieAlgebra,
    ad_invariance_failure,
    bracket_entries,
    structure_constants,
    trace_pairings,
)

__all__ = [
    "GaugeEmbedding",
    "AnomalyReport",
    "Verdict",
    "anomaly_form",
    "verdict",
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
        check_image_count(dim, self.T_L, self.T_R)
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


def check_image_count(dim: int, T_L, T_R) -> None:
    """Each side lists one image per domain basis element."""
    if len(T_L) != dim or len(T_R) != dim:
        raise ValueError(
            f"need {dim} images per side, got {len(T_L)} left "
            f"and {len(T_R)} right")


def _check_homomorphism(side: str, images, c) -> None:
    """[T(a), T(b)] = sum_k c[a][b][k] T(k) for every basis pair a < b,
    checked on the bracket's flat entries; the sparse rows and nonzero
    entries of each image are taken once for all pairs."""
    if not images:
        return
    dim, n = len(images), images[0].rows
    rows = [m.sparse_rows() for m in images]
    nonzero = [[(i * n + j, x) for i, row in enumerate(r)
                for j, x in row.items()] for r in rows]
    for a in range(dim):
        for b in range(a + 1, dim):
            residual = bracket_entries(rows[a], rows[b], n)
            for k, x in enumerate(c[a][b]):
                if x:
                    for t, v in nonzero[k]:
                        residual[t] -= x * v
            if any(residual):
                raise ValueError(
                    f"{side} images fail the bracket relation for basis "
                    f"pair ({a}, {b}); residual "
                    f"{Matrix(n, n, residual).to_lists()}")


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


def anomaly_form(emb: GaugeEmbedding) -> AnomalyReport:
    """Exact anomaly quadratic form with an invariance check.

    Q is `trace_pairings` of T_L minus `trace_pairings` of T_R.
    """
    n = emb.target_size
    Q = (trace_pairings([m.entries() for m in emb.T_L], n)
         - trace_pairings([m.entries() for m in emb.T_R], n))
    failure = ad_invariance_failure(structure_constants(emb.domain), Q)
    if failure is not None:
        raise ValueError(
            f"anomaly form failed ad-invariance at basis triple {failure}")
    return AnomalyReport(Q=Q, anomaly_free=Q.is_zero(), invariance_checked=True)


def _special_linear_rank(alg: MatrixLieAlgebra):
    """n when the domain is exactly the traceless n x n matrices over the
    rationals, else None.  Recognized structurally, not by name or by the
    declared scalar field."""
    n = alg.matrix_size
    if (alg.dim != n * n - 1 or not alg.is_real()
            or any(b.trace() != 0 for b in alg.basis)):
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

