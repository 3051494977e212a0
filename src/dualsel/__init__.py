"""Ergodic secrecy rate toolkit for dual-user-selection uplink transmission.

An uplink slot serves one of K users while the user with the strongest
base-station channel jams the eavesdropper with a signal the base station
can decode and cancel. This package evaluates the scheme's ergodic secrecy
rate three independent ways — exact closed forms plus one quadrature, a
high-SNR closed form, and reproducible Monte Carlo simulation — and searches
for the served user that maximizes it.

Layout:
    specfun     E1, dilogarithm, adaptive quadrature
    analytic    coefficient tables, CDFs, exact and high-SNR rates
    montecarlo  trial engine with counter-based random streams
    selection   one-dimensional served-user search
    cli         CSV-emitting command line driver
"""

__version__ = "0.1.0"

from . import analytic, montecarlo, selection, specfun
from .analytic import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .selection import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

# Each submodule lists its public names once, in its own __all__.
__all__ = [
    "__version__",
    *analytic.__all__,
    *montecarlo.__all__,
    *selection.__all__,
    *specfun.__all__,
]
