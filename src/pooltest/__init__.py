"""Pooled testing under dilution: closed forms, simulation, and sweeps.

The package evaluates three ways of running a screening program over a
population with prevalence p: testing everyone individually, Dorfman
two-stage pooling, and a retest variant that reads a negative pool up to r
times before releasing it. Pool sensitivity degrades with dilution through
a fitted two-parameter curve, which is what makes the trade-off between
test count and missed positives nontrivial.

The public names are those of the __all__ lists of dilution, evaluate,
pareto and simulate, republished here. The functions evaluate and simulate
take the names of their modules, which importlib.import_module reaches.
"""

__version__ = "0.1.0"

from . import dilution, evaluate, pareto, simulate

__all__ = ["__version__", *dilution.__all__, *evaluate.__all__, *pareto.__all__, *simulate.__all__]

# After __all__ is built: these bind the functions evaluate and simulate over the modules.
from .dilution import *  # noqa: E402, F403
from .evaluate import *  # noqa: E402, F403
from .pareto import *  # noqa: E402, F403
from .simulate import *  # noqa: E402, F403
