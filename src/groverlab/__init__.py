"""groverlab: a laboratory for Grover search and its continuous-time
analogues.

The package builds the digital search iterate, two rank-2 Hamiltonians whose
evolutions perform the same search (one matching the iterate step for step),
and a verification engine that measures every identity behind them.  Every
operator involved is a scalar plus a rank-2 part on the (start, target)
plane, so the commands compute on that plane in 2x2 algebra plus O(N)
vectors; the dense N x N builders remain as the independent reference.
"""

from ._version import __version__
from .errors import DegeneratePlaneError, OrthogonalStartError
from .grover import (
    DriverUnitary,
    IterationCount,
    SearchProblem,
    grover_iterate,
    grover_on_plane,
    iteration_count,
    make_driver,
    oracle_inverter,
    run_grover,
    success_trajectory,
    walsh_hadamard,
    zero_inverter,
)
from .hamiltonians import (
    NaiveSearchResult,
    augmented_hamiltonian,
    commutator_hamiltonian,
    fg_evolution_closed_form,
    fg_hamiltonian,
    grover_time,
    h_eigensystem,
    h_evolution_closed_form,
    naive_generator,
    naive_search,
    naive_step,
    plane_projector_complement,
    t0_series,
)
from .linalg import (
    basis_state,
    commutator,
    hermitian_propagator,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    matrix_exponential,
    operator_norm,
    power_limit_approx,
    uniform_state,
)
from .plane import PlaneCoords
from .verification import (
    CHECK_NAMES,
    CheckReport,
    SweepResult,
    norm_gap_vs_prediction,
    run_sweep,
    to_csv,
    to_json,
    verify_corollary,
    verify_fg_arrival,
    verify_theorem_main,
)

__all__ = [
    "__version__",
    "DegeneratePlaneError",
    "OrthogonalStartError",
    "DriverUnitary",
    "IterationCount",
    "SearchProblem",
    "grover_iterate",
    "grover_on_plane",
    "iteration_count",
    "make_driver",
    "oracle_inverter",
    "run_grover",
    "success_trajectory",
    "walsh_hadamard",
    "zero_inverter",
    "NaiveSearchResult",
    "PlaneCoords",
    "augmented_hamiltonian",
    "commutator_hamiltonian",
    "fg_evolution_closed_form",
    "fg_hamiltonian",
    "grover_time",
    "h_eigensystem",
    "h_evolution_closed_form",
    "naive_generator",
    "naive_search",
    "naive_step",
    "plane_projector_complement",
    "t0_series",
    "basis_state",
    "commutator",
    "hermitian_propagator",
    "is_hermitian",
    "is_skew_hermitian",
    "is_unitary",
    "matrix_exponential",
    "operator_norm",
    "power_limit_approx",
    "uniform_state",
    "CHECK_NAMES",
    "CheckReport",
    "SweepResult",
    "norm_gap_vs_prediction",
    "run_sweep",
    "to_csv",
    "to_json",
    "verify_corollary",
    "verify_fg_arrival",
    "verify_theorem_main",
]
