"""Noncommutative words in a group variable and its differential.

The alphabet has four letters:

  G        the group-valued variable g
  GINV     its inverse g^-1
  DG       the matrix of coordinate differentials dg   (form degree 1)
  C(side, label)   a free constant matrix symbol, tagged L or R

Expressions are finite sums of words with exact rational coefficients, each
carrying an integer power of pi.  Two kinds exist: "matrix" (words multiply
by concatenation) and "trace" (words are read inside a trace, so they are
identified up to graded cyclic rotation).

Normal form:
  * adjacent G.GINV / GINV.G pairs cancel (for traces, also across the
    cyclic wrap, where rotating a degree-0 letter costs no sign);
  * a traced word is replaced by its lexicographically least cyclic
    rotation; rotating w = u.v to v.u multiplies the coefficient by
    (-1)^(deg u * deg v), where deg counts DG letters.  If the least
    rotation is reachable with both signs, the trace is identically zero
    (e.g. the trace of an even power of g^-1 dg);
  * like words merge; zero coefficients drop; terms sort by (pi power,
    letters).  Letter tuples compare in the canonical letter order
    (constants by side and label, then dg, g, g^-1), so a word is its own
    sort key.

Coefficients are int-first: an integral coefficient is an `int`, any other
a `fractions.Fraction`, in every expression the engine builds; a float
coefficient is a TypeError.

Canonicalization happens in one place, `_normalize_terms`, which cancels
and rotates each distinct word once per build; every product of matrix
expressions is normalized there.  The sum of two canonical expressions
skips it and only merges like words.  Terms given with `normalized=True`
(such as raw Leibniz expansions) are kept as given but are not treated as
canonical, so any sum built from them is normalized in full.

The empty word stands for the identity matrix; its trace is the (unbound)
size of the matrices and is only given a number by the pointwise evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

G = ("G",)
GINV = ("GINV",)
DG = ("DG",)


def C(side: str, label) -> tuple:
    """Constant letter, side 'L' or 'R'."""
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    return ("C", side, str(label))


def letter_degree(letter: tuple) -> int:
    return 1 if letter == DG else 0


def word_degree(letters: Sequence[tuple]) -> int:
    return sum(1 for l in letters if l == DG)


def _inverse_pair(a: tuple, b: tuple) -> bool:
    return (a == G and b == GINV) or (a == GINV and b == G)


def _int_first(c):
    """An exact rational coefficient, an int when integral; a float or any
    other non-rational is a TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact rational coefficient: {c!r}")


def _cancel_adjacent(letters, cyclic: bool) -> tuple:
    """Remove G.GINV / GINV.G pairs until none remain, in one stack pass.

    For cyclic words the wrap pairs (last, first) of the reduced word then
    cancel too; bringing the last letter to the front first is a rotation
    of a degree-0 letter, which carries no sign, so no coefficient
    bookkeeping is needed here.  Free reduction is confluent, so the result
    does not depend on the order of cancellation.
    """
    if G not in letters or GINV not in letters:
        return tuple(letters)
    out: list = []
    for letter in letters:
        if out and _inverse_pair(out[-1], letter):
            out.pop()
        else:
            out.append(letter)
    lo, hi = 0, len(out)
    if cyclic:
        while hi - lo >= 2 and _inverse_pair(out[hi - 1], out[lo]):
            lo, hi = lo + 1, hi - 1
    return tuple(out[lo:hi])


def _canonical_rotation(letters: tuple) -> tuple[int, tuple]:
    """Least cyclic rotation with its Koszul sign; sign 0 means the word
    is self-cancelling under the trace."""
    n = len(letters)
    if n == 0:
        return 1, letters
    total = word_degree(letters)
    first = min(letters)     # the least rotation starts with the least letter
    best = None
    best_signs = set()
    prefix_deg = 0
    for r in range(n):
        if r > 0 and letters[r - 1] == DG:
            prefix_deg += 1
        if letters[r] != first:
            continue
        rotated = letters[r:] + letters[:r]
        sign = -1 if (prefix_deg % 2) and ((total - prefix_deg) % 2) else 1
        if best is None or rotated < best:
            best = rotated
            best_signs = {sign}
        elif rotated == best:
            best_signs.add(sign)
    if len(best_signs) == 2:
        return 0, best
    return best_signs.pop(), best


@dataclass(frozen=True)
class Term:
    coeff: int | Fraction  # int-first; see the module docstring
    pi: int              # power of pi carried symbolically
    letters: tuple       # tuple of letter tuples

    def degree(self) -> int:
        return word_degree(self.letters)


class FormExpression:
    """Sum of coefficient-weighted words, of kind 'matrix' or 'trace'."""

    __slots__ = ("kind", "terms", "_canonical")

    def __init__(self, kind: str, terms: Iterable[Term] = (), *,
                 normalized: bool = False):
        if kind not in ("matrix", "trace"):
            raise ValueError("kind must be 'matrix' or 'trace'")
        object.__setattr__(self, "kind", kind)
        tt = tuple(terms)
        if not normalized:
            tt = _normalize_terms(kind, tt)
        object.__setattr__(self, "terms", tt)
        # terms passed as normalized are trusted as given, not as canonical
        object.__setattr__(self, "_canonical", not normalized)

    @classmethod
    def _of(cls, kind: str, terms: tuple, canonical: bool = True
            ) -> "FormExpression":
        """Trusted constructor: `terms` is a tuple already in normal form
        when `canonical`, else a raw term list kept as given."""
        e = object.__new__(cls)
        object.__setattr__(e, "kind", kind)
        object.__setattr__(e, "terms", terms)
        object.__setattr__(e, "_canonical", canonical)
        return e

    def __setattr__(self, name, value):
        raise AttributeError("FormExpression is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def word(letters: Sequence[tuple], coeff=1, pi: int = 0,
             kind: str = "matrix") -> "FormExpression":
        return FormExpression(
            kind, [Term(_int_first(coeff), pi, tuple(letters))])

    @staticmethod
    def zero(kind: str = "matrix") -> "FormExpression":
        return FormExpression(kind, [])

    @staticmethod
    def one(kind: str = "matrix") -> "FormExpression":
        return FormExpression.word((), 1, 0, kind)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {t.degree() for t in self.terms}

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "FormExpression") -> "FormExpression":
        if self.kind != other.kind:
            raise ValueError("cannot add matrix and trace expressions")
        if not (self._canonical and other._canonical):
            return FormExpression(self.kind, self.terms + other.terms)
        # canonical operands: like words merge, nothing is rewritten
        acc = {(t.pi, t.letters): t.coeff for t in self.terms}
        for t in other.terms:
            key = (t.pi, t.letters)
            acc[key] = acc[key] + t.coeff if key in acc else t.coeff
        return FormExpression._of(self.kind, _collect(acc))

    def __sub__(self, other: "FormExpression") -> "FormExpression":
        return self + (-other)

    def __neg__(self) -> "FormExpression":
        return FormExpression._of(
            self.kind,
            tuple(Term(-t.coeff, t.pi, t.letters) for t in self.terms),
            self._canonical)

    def scale(self, coeff, dpi: int = 0) -> "FormExpression":
        c = _int_first(coeff)
        if not c:
            return FormExpression.zero(self.kind)
        # a uniform nonzero rescale (even with a pi shift) preserves normal form
        return FormExpression._of(
            self.kind,
            tuple(Term(_int_first(t.coeff * c), t.pi + dpi, t.letters)
                  for t in self.terms),
            self._canonical)

    def __mul__(self, other: "FormExpression") -> "FormExpression":
        if self.kind == "trace" or other.kind == "trace":
            raise ValueError(
                "traced scalars do not multiply; only matrix words form "
                "products (take .trace() at the end)")
        return FormExpression("matrix", [
            Term(s.coeff * t.coeff, s.pi + t.pi, s.letters + t.letters)
            for s in self.terms for t in other.terms])

    def trace(self) -> "FormExpression":
        if self.kind == "trace":
            return self
        return FormExpression("trace", self.terms)

    def __eq__(self, other):
        return (isinstance(other, FormExpression)
                and self.kind == other.kind and self.terms == other.terms)

    def __hash__(self):
        return hash((self.kind, self.terms))

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"<{self.kind} {self}>"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            parts.append(_format_term(t, self.kind))
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s


def _format_letter(letter: tuple) -> str:
    if letter == G:
        return "g"
    if letter == GINV:
        return "g^-1"
    if letter == DG:
        return "dg"
    return f"T_{letter[1]}({letter[2]})"


def _format_term(t: Term, kind: str) -> str:
    body = " ".join(_format_letter(l) for l in t.letters)
    if kind == "trace":
        body = f"Tr[{body or '1'}]"
    elif not body:
        body = "1"
    pieces = []
    if t.coeff == -1:
        pieces.append("-")
    elif t.coeff != 1:
        pieces.append(f"({t.coeff})")
    if t.pi:
        pieces.append(f"pi^{t.pi}" if t.pi != 1 else "pi")
    lead = "".join(pieces)
    if lead and not lead.endswith("-"):
        lead += "*"
    return lead + body


def _normalize_terms(kind: str, terms: Iterable[Term]) -> tuple[Term, ...]:
    """The normal form of a raw term list.  Each distinct word is cancelled
    and, for traces, rotated once; the table of canonical words is local
    to this call."""
    cyclic = kind == "trace"
    canonical: dict = {}     # raw letters -> (sign, canonical letters)
    acc: dict = {}
    for t in terms:
        if not t.coeff:
            continue
        hit = canonical.get(t.letters)
        if hit is None:
            letters = _cancel_adjacent(t.letters, cyclic)
            hit = _canonical_rotation(letters) if cyclic else (1, letters)
            canonical[t.letters] = hit
        sign, letters = hit
        if not sign:
            continue
        coeff = t.coeff if sign > 0 else -t.coeff
        key = (t.pi, letters)
        acc[key] = acc[key] + coeff if key in acc else coeff
    return _collect(acc)


def _collect(acc: dict) -> tuple[Term, ...]:
    """Terms from a `{(pi, letters): coeff}` table in canonical order, with
    zero coefficients dropped and the rest int-first."""
    return tuple(Term(c if type(c) is int else _int_first(c), pi, letters)
                 for (pi, letters), c in sorted(acc.items()) if c)
