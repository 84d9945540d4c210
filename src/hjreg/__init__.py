"""Finite-difference regularity experiments for coercive Hamilton-Jacobi equations.

The package solves ``du/dt + H(t, x, grad u) = 0`` with a monotone scheme
on uniform boxes and turns interior-regularity statements into checkable
implications: small-mass truncation estimates, one-pass oscillation
improvements driven by an explicit constant chain, and zoom cascades that
measure Holder exponents of solved fields.  The ``experiment`` layer wraps
all of it in declarative scenario configs with deterministic seeding; the
``hjreg`` console script exposes runs, ensembles, and chain inspection.
"""

from .grid import GridSpec
from .hamiltonians import HamiltonianSpec
from .initial_data import make_initial_function
from .solver import SolverError, hopf_lax, snap_dt, solve

__version__ = "0.1.0"
