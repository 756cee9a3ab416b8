"""Exact engine for Z2xZ2-graded special linear Lie superalgebras.

Builds the block-graded matrix algebras gl/sl(m1+1, m2 | n1, n2), their
creation/annihilation generators and the order-p Fock modules, and verifies
every algebraic identity (bracket axioms, triple relations, representation
formulas, adjointness, statistics families, Hamiltonian ladder relations,
exclusion bound) with exact radical arithmetic.
"""

import types

from .algebra import *
from .fock import *
from .grading import *
from .linalg import *
from .radicals import *
from .statistics import *

__version__ = "0.1.0"

# The export list is the modules' ``__all__`` lists, bound by the imports
# above: every public name bound here that is not a submodule.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
