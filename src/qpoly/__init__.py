"""Exact q-analog Bernoulli-type and Cauchy-type polynomial families.

The package computes three families of polynomials in (rho, z) whose
coefficients are rational functions of a formal q, through three mutually
independent routes: weighted Stirling closed forms, truncated exponential
generating functions, and a floating-point Jackson q-integral oracle. The
identities module checks the algebraic relations tying the families
together, exactly.
"""

from . import core, families, identities, jackson, series, stirling, textform
from .core import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .jackson import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .stirling import *  # noqa: F401,F403
from .textform import *  # noqa: F401,F403

__version__ = "0.1.0"

# each submodule's __all__ is the one list of what it exports
__all__ = sorted(name for module in (core, families, identities, jackson,
                                     series, stirling, textform)
                 for name in module.__all__)
