"""Exact engine for Z2xZ2-graded special linear Lie superalgebras.

Builds the block-graded matrix algebras gl/sl(m1+1, m2 | n1, n2), their
creation/annihilation generators and the order-p Fock modules, and verifies
every algebraic identity (bracket axioms, triple relations, representation
formulas, adjointness, statistics families, Hamiltonian ladder relations,
exclusion bound) with exact radical arithmetic.
"""

import types

from .algebra import (
    GeneratorId,
    generator_ids,
    generator_matrix,
    verify_defining_relations,
)
from .fock import (
    BASIS_KINDS,
    FT_CORRECTED,
    FockBasis,
    FTildeVariant,
    SparseOperator,
    closed_form_dimension,
    dimension,
    enumerate_basis,
    ft_variant_discrimination,
    ft_variants,
    ladder_operators,
    operator_matrix,
    order_one_defining_comparison,
    single_quantum_state,
    spanning_rank,
    verify_representation,
)
from .grading import (
    GRADES,
    AlgebraParams,
    Grade,
    GradedMatrix,
    axiom_report,
    graded_bracket,
)
from .linalg import RationalRowSpace
from .radicals import RadicalSum, normalize_radical
from .statistics import (
    FAMILIES,
    HAMILTONIAN_READINGS,
    hamiltonian,
    ladder_residual,
    occupancy_report,
    relation_suite,
    spectrum,
)

__version__ = "0.1.0"

# The export list is the imports above: every public name bound here that is
# not a submodule.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
