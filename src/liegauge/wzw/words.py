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
  * like words merge; zero coefficients drop; terms sort canonically.

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


_KIND_RANK = {"C": 0, "DG": 1, "G": 2, "GINV": 3}


def _letter_key(letter: tuple):
    if letter[0] == "C":
        return (0, letter[1], letter[2])
    return (_KIND_RANK[letter[0]], "", "")


def _word_key(letters: Sequence[tuple]):
    return tuple(_letter_key(l) for l in letters)


def _cancel_adjacent(letters, cyclic: bool) -> list:
    """Remove G.GINV / GINV.G pairs until none remain, in one stack pass.

    For cyclic words the wrap pairs (last, first) of the reduced word then
    cancel too; bringing the last letter to the front first is a rotation
    of a degree-0 letter, which carries no sign, so no coefficient
    bookkeeping is needed here.  Free reduction is confluent, so the result
    does not depend on the order of cancellation.
    """
    def inverse_pair(a, b):
        return (a == G and b == GINV) or (a == GINV and b == G)

    out: list = []
    for letter in letters:
        if out and inverse_pair(out[-1], letter):
            out.pop()
        else:
            out.append(letter)
    lo, hi = 0, len(out)
    if cyclic:
        while hi - lo >= 2 and inverse_pair(out[hi - 1], out[lo]):
            lo, hi = lo + 1, hi - 1
    return out[lo:hi]


def _canonical_rotation(letters: tuple) -> tuple[int, tuple]:
    """Least cyclic rotation with its Koszul sign; sign 0 means the word
    is self-cancelling under the trace."""
    n = len(letters)
    if n == 0:
        return 1, letters
    # rotations are compared on the word's key tuple, computed once; the
    # letters are rotated only for the winner
    key = _word_key(letters)
    total = word_degree(letters)
    best = None
    best_r = 0
    best_signs = set()
    prefix_deg = 0
    for r in range(n):
        if r > 0 and letters[r - 1] == DG:
            prefix_deg += 1
        rotated = key[r:] + key[:r]
        sign = -1 if (prefix_deg % 2) and ((total - prefix_deg) % 2) else 1
        if best is None or rotated < best:
            best, best_r = rotated, r
            best_signs = {sign}
        elif rotated == best:
            best_signs.add(sign)
    winner = letters[best_r:] + letters[:best_r]
    if len(best_signs) == 2:
        return 0, winner
    return best_signs.pop(), winner


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    pi: int              # power of pi carried symbolically
    letters: tuple       # tuple of letter tuples

    def degree(self) -> int:
        return word_degree(self.letters)


class FormExpression:
    """Sum of coefficient-weighted words, of kind 'matrix' or 'trace'."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: Iterable[Term] = (), *,
                 normalized: bool = False):
        if kind not in ("matrix", "trace"):
            raise ValueError("kind must be 'matrix' or 'trace'")
        object.__setattr__(self, "kind", kind)
        tt = tuple(terms)
        if not normalized:
            tt = _normalize_terms(kind, tt)
        object.__setattr__(self, "terms", tt)

    def __setattr__(self, name, value):
        raise AttributeError("FormExpression is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def word(letters: Sequence[tuple], coeff=1, pi: int = 0,
             kind: str = "matrix") -> "FormExpression":
        return FormExpression(
            kind, [Term(Fraction(coeff), pi, tuple(letters))])

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

    def form_degree(self) -> int:
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous expression, degrees {sorted(degs)}")
        return degs.pop()

    def components(self) -> dict[int, "FormExpression"]:
        """Split by form degree."""
        by_deg: dict[int, list[Term]] = {}
        for t in self.terms:
            by_deg.setdefault(t.degree(), []).append(t)
        return {d: FormExpression(self.kind, ts, normalized=True)
                for d, ts in sorted(by_deg.items())}

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "FormExpression") -> "FormExpression":
        if self.kind != other.kind:
            raise ValueError("cannot add matrix and trace expressions")
        return FormExpression(self.kind, self.terms + other.terms)

    def __sub__(self, other: "FormExpression") -> "FormExpression":
        return self + (-other)

    def __neg__(self) -> "FormExpression":
        return FormExpression(
            self.kind, [Term(-t.coeff, t.pi, t.letters) for t in self.terms],
            normalized=True)

    def scale(self, coeff, dpi: int = 0) -> "FormExpression":
        c = Fraction(coeff)
        if not c:
            return FormExpression.zero(self.kind)
        # a uniform nonzero rescale (even with a pi shift) preserves normal form
        return FormExpression(
            self.kind,
            [Term(t.coeff * c, t.pi + dpi, t.letters) for t in self.terms],
            normalized=True)

    def __mul__(self, other: "FormExpression") -> "FormExpression":
        if self.kind == "trace" or other.kind == "trace":
            raise ValueError(
                "traced scalars do not multiply; only matrix words form "
                "products (take .trace() at the end)")
        out = []
        for s in self.terms:
            for t in other.terms:
                out.append(Term(s.coeff * t.coeff, s.pi + t.pi,
                                s.letters + t.letters))
        return FormExpression("matrix", out)

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
    acc: dict[tuple, Fraction] = {}
    for t in terms:
        if not t.coeff:
            continue
        letters = _cancel_adjacent(t.letters, cyclic=(kind == "trace"))
        coeff = t.coeff
        if kind == "trace":
            sign, letters = _canonical_rotation(tuple(letters))
            if sign == 0:
                continue
            if sign < 0:
                coeff = -coeff
        key = (t.pi, tuple(letters))
        acc[key] = acc[key] + coeff if key in acc else coeff
    out = [Term(c, pi, letters)
           for (pi, letters), c in acc.items() if c]
    out.sort(key=lambda t: (t.pi, _word_key(t.letters), len(t.letters)))
    return tuple(out)
