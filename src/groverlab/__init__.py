"""groverlab: a laboratory for Grover search and its continuous-time
analogues.

The package builds the digital search iterate, two rank-2 Hamiltonians whose
evolutions perform the same search (one matching the iterate step for step),
and a verification engine that measures every identity behind them.  Every
operator involved is a scalar plus a rank-2 part on the (start, target)
plane, so the commands compute on that plane in pure-Python 2x2 algebra,
at a cost that does not depend on N; the test suite keeps dense N x N
matrices as the independent reference.

The package root holds the names a reproduction needs: the search instance,
the error types, and the verification sweep with its reports.  Everything
else is imported from its module.
"""

from ._version import __version__
from .errors import DegeneratePlaneError, OrthogonalStartError
from .grover import SearchProblem
from .verification import CHECK_NAMES, CheckReport, SweepResult, run_sweep, to_csv, to_json
