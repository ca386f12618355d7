"""The identity suite for the symbolic engine.

Every identity is proved mechanically: both sides are built from the letter
rules and the difference must normalize to the zero expression.  Nothing
here is asserted from a table; where common displays of these identities
differ from what graded Leibniz + cyclicity force, the suite reports the
derived orientation and attaches the matching convention warning.

The named forms the identities are stated about (omega, lam_a, lam_b,
the powers of mu and theta, the bracket lambdas and the expected
constants) are fixed inputs, built once per process by `_fixed_forms`.
Every identity is still derived and normalized on each call: each d,
iota and L runs once per call, and rows that need the same derivation
share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..conventions import warning
from .ops import (
    cartan,
    contract,
    differential,
    lambda_commutator,
    lambda_form,
    mu,
    powers,
    quadratic_expected_constant,
    theta,
    wzw_form,
)
from .words import C, G, GINV, FormExpression


@dataclass
class IdentityResult:
    name: str
    ok: bool
    residual: str
    detail: str = ""


@dataclass
class SuiteReport:
    results: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)


def _row(report: SuiteReport, name: str, residual: FormExpression,
         detail: str = ""):
    report.results.append(
        IdentityResult(name, residual.is_zero(), str(residual), detail))


@dataclass(frozen=True)
class _FixedForms:
    """The suite's inputs, none of them derived by a d, iota or L."""

    omega: FormExpression
    lam_a: FormExpression
    lam_b: FormExpression
    mu: tuple                    # mu[k] = (g^-1 dg)^k for k = 0..6
    theta: tuple                 # theta[k] = (dg g^-1)^k for k = 0..6
    lam_ab: FormExpression       # lam_([a,b])
    lam_ba: FormExpression       # lam_([b,a])
    quadratic_constant: FormExpression
    theta_contraction: FormExpression    # T_L(a) - g T_R(a) g^-1


@functools.cache
def _fixed_forms() -> _FixedForms:
    """The suite's fixed inputs, built on first use and shared by every
    later call in the process; expressions are immutable."""
    return _FixedForms(
        omega=wzw_form(),
        lam_a=lambda_form("a"),
        lam_b=lambda_form("b"),
        mu=powers(mu(), 6),
        theta=powers(theta(), 6),
        lam_ab=lambda_commutator("a", "b"),
        lam_ba=lambda_commutator("b", "a"),
        quadratic_constant=quadratic_expected_constant("a", "b"),
        theta_contraction=(FormExpression.word((C("L", "a"),))
                           - FormExpression.word((G, C("R", "a"), GINV))))


def run_identity_suite() -> SuiteReport:
    rep = SuiteReport()
    f = _fixed_forms()
    # each derivation runs once per call; rows below share them
    iota_a_omega, d_omega, lie_a_omega = cartan(f.omega, "a")
    iota_b_lam_a, d_lam_a, lie_b_lam_a = cartan(f.lam_a, "b")
    iota_a_lam_b = contract(f.lam_b, "a")

    _row(rep, "d(omega) = 0", d_omega,
         "cyclic vanishing of Tr[(g^-1 dg)^4]")

    _row(rep, "iota_a(omega) - d(lam_a) = 0", iota_a_omega - d_lam_a)

    _row(rep, "L_a(omega) = 0", lie_a_omega)

    # Equivariance.  The engine derives L_b lam_a = lam_([a,b]); see W3.
    derived = lie_b_lam_a - f.lam_ab
    flipped = lie_b_lam_a - f.lam_ba
    _row(rep, "L_b(lam_a) - lam_([a,b]) = 0", derived,
         detail=("opposite orientation lam_([b,a]) leaves residual "
                 f"{flipped}" if not flipped.is_zero() else ""))
    rep.warnings.append(warning("W3"))

    # Quadratic pairing: all g-dependence cancels, leaving the constant.
    resid = iota_a_lam_b + iota_b_lam_a
    pure = all(l[0] == "C" for t in resid.terms for l in t.letters)
    _row(rep, "iota_a(lam_b) + iota_b(lam_a) = (1/2pi)(Tr LL - Tr RR)",
         resid - f.quadratic_constant,
         detail="" if pure else "residual is not a pure constant")
    if not pure:
        rep.results[-1].ok = False

    # Odd-power differentials, with derived signs (W1).
    for p in (1, 2):
        _row(rep, f"d(mu^{2 * p + 1}) + mu^{2 * p + 2} = 0",
             differential(f.mu[2 * p + 1]) + f.mu[2 * p + 2],
             detail="derived sign: minus")
        _row(rep, f"d(theta^{2 * p + 1}) - theta^{2 * p + 2} = 0",
             differential(f.theta[2 * p + 1]) - f.theta[2 * p + 2],
             detail="derived sign: plus")
    rep.warnings.append(warning("W1"))

    # Contraction of theta (W2): conjugation lands on the right factor.
    _row(rep, "iota_a(theta) = T_L(a) - g T_R(a) g^-1",
         contract(f.theta[1], "a") - f.theta_contraction)
    rep.warnings.append(warning("W2"))

    # Contractions anticommute; a single contraction squares to zero.
    m3 = f.mu[3].trace()
    _row(rep, "(iota_a iota_b + iota_b iota_a) Tr(mu^3) = 0",
         contract(contract(m3, "a"), "b") + contract(contract(m3, "b"), "a"))
    _row(rep, "iota_a(iota_a(omega)) = 0", contract(iota_a_omega, "a"))
    _row(rep, "iota_a(iota_a(lam_b)) = 0", contract(iota_a_lam_b, "a"))

    return rep
