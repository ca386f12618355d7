"""Symbolic calculus of group-variable differential forms.

Words in g, g^-1, dg and tagged constants, with exact coefficients times
powers of pi; graded-cyclic trace normal forms; the exterior differential,
gauge contractions and Lie derivatives as letter-rule derivations; an
independent pointwise evaluator; and the mechanically-proved identity
suite used by the `wzw-verify` command.
"""

from .evaluate import PiValue, evaluate
from .identities import IdentityResult, SuiteReport, run_identity_suite
from .ops import (
    contract,
    differential,
    lambda_commutator,
    lambda_form,
    lie_derivative,
    mu,
    quadratic_expected_constant,
    theta,
    wzw_form,
)
from .words import C, DG, G, GINV, FormExpression, Term

__all__ = [
    "C", "DG", "G", "GINV", "FormExpression", "Term", "PiValue",
    "IdentityResult", "SuiteReport", "contract", "differential", "evaluate",
    "lambda_commutator", "lambda_form", "lie_derivative", "mu",
    "quadratic_expected_constant", "run_identity_suite", "theta", "wzw_form",
]
