"""Equivariant De Rham operators for linear actions on R^m.

Submodules: polyform (the value arithmetic), action (group plumbing and
the exact dual frame), cochains (group cochains and families), operators
(the four differentials and the cup product), checks (the four seeded
checks that `getzler-check` reports).
"""

from .action import FIELD_SIGN, GroupSampler, LinearAction
from .cochains import (
    CochainFamily,
    EquivariantCochain,
    constant_cochain,
    random_cochain,
    random_homogeneous_cochain,
    vanish_factor,
)
from .operators import (
    cup,
    cup_family,
    op_d,
    op_dbar,
    op_ibar,
    op_iota,
    square_residual,
    total_differential,
)
from .polyform import PolyForm

__all__ = [
    "FIELD_SIGN",
    "GroupSampler",
    "LinearAction",
    "CochainFamily",
    "EquivariantCochain",
    "PolyForm",
    "constant_cochain",
    "random_cochain",
    "random_homogeneous_cochain",
    "vanish_factor",
    "cup",
    "cup_family",
    "op_d",
    "op_dbar",
    "op_ibar",
    "op_iota",
    "square_residual",
    "total_differential",
]
