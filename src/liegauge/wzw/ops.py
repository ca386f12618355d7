"""Graded derivations on group-variable words, and the named forms.

The exterior differential d and the contraction iota_a act as graded
derivations through the letter rules

    d(g)    = dg                iota_a(dg) = T_L(a) g - g T_R(a)
    d(g^-1) = -g^-1 dg g^-1     iota_a     = 0 on g, g^-1, constants
    d(dg)   = 0, d(const) = 0

with the usual Koszul sign (-1)^(degree of the prefix) when a rule fires
past earlier dg letters.  The contraction rule is the tautological pairing
of dg with the vector field whose value at g is T_L(a) g - g T_R(a); all
derived identities inherit their sign conventions from these two rules and
from graded cyclicity of the trace (see CONVENTIONS.md).

Named forms (normalizations carry 1/pi symbolically):

    mu     = g^-1 dg                theta  = dg g^-1
    omega  = (1/12) pi^-1 Tr(mu^3)
    lam(a) = (1/4) pi^-1 Tr(T_L(a) theta + T_R(a) mu)
"""

from __future__ import annotations

from fractions import Fraction

from .words import C, DG, G, GINV, FormExpression, Term, letter_degree

_D_RULES = {
    G: [(1, (DG,))],
    GINV: [(-1, (GINV, DG, GINV))],
}


def _derive(expr: FormExpression, rules, *, normalize: bool = True
            ) -> FormExpression:
    """Apply a degree-changing derivation given by per-letter rules.

    rules maps a letter to a list of (sign, replacement letters); missing
    letters contribute nothing.
    """
    out = []
    for t in expr.terms:
        prefix_deg = 0
        for i, letter in enumerate(t.letters):
            repl = rules.get(letter)
            if repl:
                koszul = -1 if prefix_deg % 2 else 1
                for sign, mid in repl:
                    out.append(Term(
                        t.coeff * (sign * koszul), t.pi,
                        t.letters[:i] + mid + t.letters[i + 1:]))
            prefix_deg += letter_degree(letter)
    # normalize=False keeps the raw Leibniz expansion, which the pointwise
    # evaluator uses to check the rewriting path against an independent oracle
    return FormExpression(expr.kind, out, normalized=not normalize)


def differential(expr: FormExpression, *, normalize: bool = True
                 ) -> FormExpression:
    """Exterior differential; raises total form degree by one."""
    return _derive(expr, _D_RULES, normalize=normalize)


def contract(expr: FormExpression, label, *, normalize: bool = True
             ) -> FormExpression:
    """Contraction with the gauge direction `label` (degree -1 derivation)."""
    rules = {DG: [(1, (C("L", label), G)), (-1, (G, C("R", label)))]}
    return _derive(expr, rules, normalize=normalize)


def cartan(expr: FormExpression, label, *, normalize: bool = True
           ) -> tuple[FormExpression, FormExpression, FormExpression]:
    """Cartan formula L_a = d iota_a + iota_a d, the one place it is
    written: returns (iota_a expr, d expr, L_a expr), so a caller that
    also needs iota_a expr or d expr derives each once."""
    contracted = contract(expr, label, normalize=normalize)
    differentiated = differential(expr, normalize=normalize)
    a = differential(contracted, normalize=normalize)
    b = contract(differentiated, label, normalize=normalize)
    if normalize:
        return contracted, differentiated, a + b
    return contracted, differentiated, FormExpression(
        expr.kind, a.terms + b.terms, normalized=True)


def lie_derivative(expr: FormExpression, label, *, normalize: bool = True
                   ) -> FormExpression:
    """Lie derivative L_a by the Cartan formula (degree 0)."""
    return cartan(expr, label, normalize=normalize)[2]


# -- named forms --------------------------------------------------------------


def mu() -> FormExpression:
    """g^-1 dg as a matrix word."""
    return FormExpression.word((GINV, DG))


def theta() -> FormExpression:
    """dg g^-1 as a matrix word."""
    return FormExpression.word((DG, GINV))


def powers(x: FormExpression, n: int) -> tuple:
    """x^0 .. x^n, each power one product from the previous one."""
    out = [FormExpression.one()]
    for _ in range(n):
        out.append(out[-1] * x)
    return tuple(out)


def wzw_form() -> FormExpression:
    """(1/12) pi^-1 Tr((g^-1 dg)^3)."""
    return powers(mu(), 3)[3].trace().scale(Fraction(1, 12), -1)


def lambda_form(label) -> FormExpression:
    """(1/4) pi^-1 Tr(T_L theta + T_R mu) for the gauge direction `label`."""
    left = FormExpression.word((C("L", label),)) * theta()
    right = FormExpression.word((C("R", label),)) * mu()
    return (left + right).trace().scale(Fraction(1, 4), -1)


def lambda_commutator(b, a) -> FormExpression:
    """lambda of the bracket direction [b, a], with the bracket expanded as
    free constant products: T([b,a]) = T(b) T(a) - T(a) T(b) on each side."""
    out = FormExpression.zero("trace")
    for side, body in (("L", theta()), ("R", mu())):
        cb = FormExpression.word((C(side, b),))
        ca = FormExpression.word((C(side, a),))
        const = cb * ca - ca * cb
        out = out + (const * body).trace()
    return out.scale(Fraction(1, 4), -1)


def quadratic_expected_constant(a, b) -> FormExpression:
    """(1/2) pi^-1 (Tr(T_L(a) T_L(b)) - Tr(T_R(a) T_R(b)))."""
    ll = FormExpression.word((C("L", a), C("L", b)), kind="trace")
    rr = FormExpression.word((C("R", a), C("R", b)), kind="trace")
    return (ll - rr).scale(Fraction(1, 2), -1)
