"""File formats: exact scalars, matrices, algebras, and embeddings.

Scalars are strings "p/q" or "p" for rationals and two-element lists
["re", "im"] for Gaussian rationals.  A matrix is either a nested list of
rows or a flat row-major list (the flat form needs the size known from
context).  An algebra file is

    {"name": ..., "matrix_size": n, "scalar": "rational"|"gaussian",
     "basis": [matrix, ...]}

and an embedding file is

    {"domain": <algebra object or classical label like "sl3">,
     "target_size": N, "T_L": [matrix, ...], "T_R": [matrix, ...]}

with an optional JSON boolean "special_linear_target" (default true); both
sizes are positive JSON integers, and a JSON boolean is never a number.  Parse
errors raise ValueError with the offending field named, which the CLI maps
to exit code 2.
"""

from __future__ import annotations

import json
import re

from .anomaly import GaugeEmbedding
from .exact import Matrix, scalar_from_json, scalar_to_json
from .liealg import MatrixLieAlgebra, make_classical

__all__ = [
    "matrix_from_json",
    "matrix_to_json",
    "algebra_from_json",
    "algebra_to_json",
    "classical_from_label",
    "domain_from_json",
    "embedding_from_json",
    "embedding_to_json",
    "load_embedding",
]

_CLASSICAL = re.compile(r"^(sl|so|su|gl)\s*\(?\s*(\d+)\s*\)?$")


def matrix_from_json(obj, size: int | None = None, where: str = "matrix"
                     ) -> Matrix:
    """Nested rows, or a flat row-major list when `size` is given.

    With a known size the two shapes are told apart by length alone
    (size rows versus size*size entries), so rational rows of length two
    are never mistaken for Gaussian scalar literals.
    """
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty list")
    try:
        if size is not None:
            if len(obj) == size and all(
                    isinstance(r, list) and len(r) == size for r in obj):
                return Matrix.from_rows(
                    [[scalar_from_json(e) for e in row] for row in obj])
            if len(obj) == size * size:
                return Matrix(size, size,
                              [scalar_from_json(e) for e in obj])
            raise ValueError(
                f"expected {size} rows or {size * size} flat entries, "
                f"got {len(obj)} elements")
        if not all(isinstance(r, list) for r in obj):
            raise ValueError("expected nested rows")
        return Matrix.from_rows(
            [[scalar_from_json(e) for e in row] for row in obj])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: bad scalar entry ({exc})") from None


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(m[i, j]) for j in range(m.cols)]
            for i in range(m.rows)]


def algebra_from_json(obj) -> MatrixLieAlgebra:
    if not isinstance(obj, dict):
        raise ValueError("algebra: expected an object")
    for key in ("name", "matrix_size", "basis"):
        if key not in obj:
            raise ValueError(f"algebra: missing key {key!r}")
    n = obj["matrix_size"]
    if type(n) is not int or n < 1:
        raise ValueError("algebra: matrix_size must be a positive integer")
    scalar = obj.get("scalar", "rational")
    if scalar not in ("rational", "gaussian"):
        raise ValueError(f"algebra: unknown scalar field {scalar!r}")
    basis = [matrix_from_json(b, size=n, where=f"algebra basis[{i}]")
             for i, b in enumerate(obj["basis"])]
    return MatrixLieAlgebra(str(obj["name"]), n, tuple(basis), scalar)


def algebra_to_json(alg: MatrixLieAlgebra) -> dict:
    return {
        "name": alg.name,
        "matrix_size": alg.matrix_size,
        "scalar": alg.scalar,
        "basis": [matrix_to_json(b) for b in alg.basis],
    }


def classical_from_label(label: str) -> MatrixLieAlgebra:
    """Parse labels like "sl3", "so(4)", "su2"."""
    m = _CLASSICAL.match(label.strip().lower())
    if not m:
        raise ValueError(
            f"unknown algebra label {label!r}; expected sl/so/su/gl "
            "followed by a size, e.g. sl3")
    return make_classical(m.group(1), int(m.group(2)))


def domain_from_json(obj) -> MatrixLieAlgebra:
    if isinstance(obj, str):
        return classical_from_label(obj)
    return algebra_from_json(obj)


def embedding_from_json(obj) -> GaugeEmbedding:
    if not isinstance(obj, dict):
        raise ValueError("embedding: expected an object")
    for key in ("domain", "target_size", "T_L", "T_R"):
        if key not in obj:
            raise ValueError(f"embedding: missing key {key!r}")
    domain = domain_from_json(obj["domain"])
    special = obj.get("special_linear_target", True)
    if not isinstance(special, bool):
        raise ValueError(
            "embedding: special_linear_target must be a JSON boolean")
    n = obj["target_size"]
    if type(n) is not int or n < 1:
        raise ValueError("embedding: target_size must be a positive integer")
    sides = {}
    for side in ("T_L", "T_R"):
        raw = obj[side]
        if not isinstance(raw, list):
            raise ValueError(f"embedding: {side} must be a list of matrices")
        sides[side] = tuple(
            matrix_from_json(mat, size=n, where=f"{side}[{i}]")
            for i, mat in enumerate(raw))
    return GaugeEmbedding(
        domain=domain,
        target_size=n,
        T_L=sides["T_L"],
        T_R=sides["T_R"],
        special_linear_target=special,
    )


def embedding_to_json(emb: GaugeEmbedding, domain_label: str | None = None
                      ) -> dict:
    return {
        "domain": domain_label or algebra_to_json(emb.domain),
        "target_size": emb.target_size,
        "T_L": [matrix_to_json(t) for t in emb.T_L],
        "T_R": [matrix_to_json(t) for t in emb.T_R],
        "special_linear_target": emb.special_linear_target,
    }


def load_embedding(path) -> GaugeEmbedding:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return embedding_from_json(obj)
