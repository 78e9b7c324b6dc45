"""The numpy-free parts of the run settings: the solver's settings and the number check.

``cli`` builds its field table from these when it is imported, before
any command runs, so this module imports only the standard library.
``solver`` and ``phantom`` use them too (``prosep.solver.SolverConfig``
is this class).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass


def finite_real(x) -> bool:
    """A real number, not a bool, that converts to a finite float.

    ``abs(x) <= max`` is false for NaN, the infinities and integers too
    large for a float, all of which ``json`` reads.
    """
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the Adam descent on Z.

    The iteration cap per restart, the number of restarts from random
    orthonormal starting points, and the seed they are drawn from.  They
    apply only when d > K+1; with d = K+1 ``solver.solve`` runs no descent.
    """

    max_iters: int = 5000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.max_iters, self.restarts) < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
