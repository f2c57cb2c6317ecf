"""Sparse non-local attention block with a dense reference, analytic
gradients, a finite-difference oracle, a toy trainer and benchmarks.

The package holds the parameter types, the window and the multiply
counter; everything else is imported from its module."""

from .tensor import MultiplyCounter
from .dense import NlParams
from .sparse import GridSpec, SnlParams

__version__ = "0.1.0"
