"""Simulator and verifier for a two-photon, four-dimensional
all-versus-nothing test of local realism.

The package computes the exact quantum predictions of the doubly
entangled state (polarization and path singlets), proves by exhaustive
enumeration that no local-realistic value assignment reproduces them,
models the linear-optics measurement devices, and reproduces the
published counting statistics by seeded Monte Carlo simulation.
"""

# eager so every module is in sys.modules: the benchmark's tracer patches
# modules found there (ROADMAP item 1 removes that need)
from . import apparatus, cli, experiment, lhv, observables, qstate, reference, source
