"""Pin BLAS and OpenMP to one thread before any test imports numpy, and
share the `solver_builds` fixture.

The package never imports numpy; tests use it as a reference for the
getzler layer's plain-float arithmetic, on matrices no larger than 3x3,
where extra BLAS threads only add start-up and contention.  Variables
already set in the environment are kept.
"""

import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def solver_builds(monkeypatch) -> list:
    """The basis size of every `ExpansionSolver` built during the test."""
    from liegauge.liealg import ExpansionSolver
    built = []
    init = ExpansionSolver.__init__

    def counting(self, basis):
        built.append(len(basis))
        init(self, basis)

    monkeypatch.setattr(ExpansionSolver, "__init__", counting)
    return built
