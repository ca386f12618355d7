"""Exact and numeric tools for gauged sigma-model anomaly questions.

Subpackages and modules:

  exact       rational/Gaussian-rational scalars, exact matrices with
              sparse-row elimination, and sparse joint kernels
  liealg      classical matrix Lie algebras, structure constants,
              invariant polynomial dimensions
  wzw         noncommutative trace-word engine, gauge identities, and the
              exact pointwise evaluation oracle
  anomaly     obstruction matrices and verdicts for gauge embeddings
  relcoh      relative Chevalley-Eilenberg cohomology of reductive pairs
  series      Poincare series and transgression-style Koszul cancellation
  getzler     numeric equivariant cochain operators with self-checks
  lgio        JSON input for algebras and embeddings
  report      canonical run-report container used by the CLI
  cli         the `liegauge` command-line interface

Sign conventions that differ between common displays are derived, not
assumed; see CONVENTIONS.md at the repository root and the conventions
module for the machine-readable registry.
"""

__version__ = "0.1.0"
