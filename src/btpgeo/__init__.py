"""Verification engine for Hermitian geometry with parallel Bismut torsion.

Submodules
----------
scalars   exact rational complex numbers and the float/exact scalar kinds
linalg    row reduction, ranks and Takagi factorization of matrix arrays
forms     invariant differential forms with the Lie structure equation
lie       Hermitian Lie algebras: torsion, connections, classification
frames    special and admissible frame normalization of torsion data
charts    coordinate-chart metrics as Wirtinger 2-jets; the flag threefold
goldens   golden-value suites for the built-in examples
cli       command-line interface (classify / verify / wallach / sweep / companion)
"""

from .scalars import EC, ExactComplex
from .forms import CoframeContext, InvariantForm, exterior_d, wedge
from .linalg import TakagiResult, hermitian_rank, takagi_factorize
from .jets import Jet2

__all__ = [
    "EC", "ExactComplex", "CoframeContext", "InvariantForm", "exterior_d",
    "wedge", "TakagiResult", "hermitian_rank", "takagi_factorize",
    "Jet2",
]

__version__ = "0.1.0"
