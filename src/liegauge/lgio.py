"""JSON input: exact scalars, matrices, algebras, and embeddings.

Scalars are strings "p/q" or "p" for rationals and two-element lists
["re", "im"] for Gaussian rationals.  A matrix is either a nested list of
rows or a flat row-major list; its size always comes from the enclosing
object.  An algebra file is

    {"name": ..., "matrix_size": n, "scalar": "rational"|"gaussian",
     "basis": [matrix, ...]}

and an embedding file is

    {"domain": <algebra object or classical label like "sl3">,
     "target_size": N, "T_L": [matrix, ...], "T_R": [matrix, ...]}

with an optional JSON boolean "special_linear_target" (default true); both
sizes are positive JSON integers, and a JSON boolean is never a number.  Parse
errors raise ValueError with the offending field named, which the CLI maps
to exit code 2.  `load_embedding` reads its file once, so a pipe works as
well as a regular file, and parses each distinct string literal in it
once.

`classical` is how a label becomes an algebra: it is built once per process
for each parsed (family, size), so "sl3" and "SL(3)" share one algebra and
its memoized structure data.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import re
from dataclasses import dataclass

from .anomaly import GaugeEmbedding, check_image_count
from .exact import GaussianRational, Matrix, scalar_from_json
from .liealg import MatrixLieAlgebra, classical_dimension, make_classical

__all__ = [
    "matrix_from_json",
    "algebra_from_json",
    "parse_label",
    "classical",
    "LoadedEmbedding",
    "load_embedding",
]

# the size is bare or in both parentheses, never in one of them
_CLASSICAL = re.compile(r"^(sl|so|su|gl)\s*(\d+|\(\s*\d+\s*\))$")


def matrix_from_json(obj, size: int, where: str = "matrix",
                     literals: dict | None = None) -> Matrix:
    """A size x size matrix from nested rows or a flat row-major list.

    The two shapes are told apart by length alone (size rows versus
    size*size entries), so rational rows of length two are never mistaken
    for Gaussian scalar literals.  `literals` maps each string literal
    parsed so far to its scalar; the matrices of one file share one, so
    each distinct literal is parsed once.
    """
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty list")
    if literals is None:
        literals = {}
    try:
        if len(obj) == size and all(
                isinstance(r, list) and len(r) == size for r in obj):
            flat = [e for row in obj for e in row]
        elif len(obj) == size * size:
            flat = obj
        else:
            raise ValueError(
                f"expected {size} rows or {size * size} flat entries, "
                f"got {len(obj)} elements")
        entries = []
        for e in flat:
            if type(e) is str:
                x = literals.get(e)
                if x is None:
                    x = literals[e] = scalar_from_json(e)
            else:
                x = scalar_from_json(e)
            entries.append(x)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: bad scalar entry ({exc})") from None
    # scalar_from_json returns normalized scalars
    return Matrix._of(size, size, tuple(entries))


def algebra_from_json(obj, literals: dict) -> MatrixLieAlgebra:
    """An algebra object, its basis matrices parsed through `literals` as
    by `matrix_from_json`; a "rational" algebra has no non-real entry."""
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
    basis = [matrix_from_json(b, size=n, where=f"algebra basis[{i}]",
                              literals=literals)
             for i, b in enumerate(obj["basis"])]
    if scalar == "rational":
        for i, b in enumerate(basis):
            if any(type(x) is GaussianRational for x in b.entries()):
                raise ValueError(f"algebra basis[{i}]: non-real entry, "
                                 "but scalar is 'rational'")
    return MatrixLieAlgebra(str(obj["name"]), n, tuple(basis), scalar)


def parse_label(label: str) -> tuple[str, int]:
    """The (family, size) of labels like "sl3", "so(4)", "su2"."""
    m = _CLASSICAL.match(label.strip().lower())
    if not m:
        raise ValueError(
            f"unknown algebra label {label!r}; expected sl/so/su/gl "
            "followed by a size, e.g. sl3")
    return m.group(1), int(m.group(2).strip("()"))


@functools.cache
def classical(family: str, n: int) -> MatrixLieAlgebra:
    """The classical algebra of a parsed label, built once per process.

    Only structure data is shared: the algebra and what it memoizes (its
    expansion solver and structure constants), never an answer computed
    from it.  Errors are those of `make_classical` and are not cached.
    """
    return make_classical(family, n)


def _embedding_fields(obj) -> dict:
    """The GaugeEmbedding fields of an embedding object, each checked."""
    if not isinstance(obj, dict):
        raise ValueError("embedding: expected an object")
    for key in ("domain", "target_size", "T_L", "T_R"):
        if key not in obj:
            raise ValueError(f"embedding: missing key {key!r}")
    # one file's matrices parse each distinct string literal once
    literals: dict = {}
    domain = obj["domain"]
    if isinstance(domain, str):
        label = parse_label(domain)
        dim = classical_dimension(*label)
    else:
        domain = algebra_from_json(domain, literals)
        dim = domain.dim
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
            matrix_from_json(mat, size=n, where=f"{side}[{i}]",
                             literals=literals)
            for i, mat in enumerate(raw))
    # a classical domain is built only once its image count is right
    check_image_count(dim, sides["T_L"], sides["T_R"])
    if isinstance(domain, str):
        domain = classical(*label)
    return dict(domain=domain, target_size=n, special_linear_target=special,
                **sides)


@dataclass(frozen=True)
class LoadedEmbedding(GaugeEmbedding):
    """An embedding read from a file, with the SHA-256 of the bytes it was
    parsed from."""

    sha256: str = ""


def load_embedding(path) -> LoadedEmbedding:
    """Read an embedding file once: its bytes are both parsed, as UTF-8
    text with universal newlines, and hashed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return LoadedEmbedding(**_embedding_fields(obj),
                           sha256=hashlib.sha256(raw).hexdigest())
