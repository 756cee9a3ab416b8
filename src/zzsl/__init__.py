"""Exact engine for Z2xZ2-graded special linear Lie superalgebras.

Builds the block-graded matrix algebras gl/sl(m1+1, m2 | n1, n2), their
creation/annihilation generators and the order-p Fock modules, and verifies
every algebraic identity (bracket axioms, triple relations, representation
formulas, adjointness, statistics families, Hamiltonian ladder relations,
exclusion bound) with exact radical arithmetic.
"""

from .algebra import (
    GeneratorId,
    generator_ids,
    generator_matrix,
    matrix_unit,
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
    EnergyAssignment,
    hamiltonian,
    ladder_residual,
    occupancy_report,
    relation_suite,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "BASIS_KINDS",
    "EnergyAssignment",
    "FAMILIES",
    "FT_CORRECTED",
    "FTildeVariant",
    "FockBasis",
    "GRADES",
    "GeneratorId",
    "Grade",
    "GradedMatrix",
    "HAMILTONIAN_READINGS",
    "RadicalSum",
    "RationalRowSpace",
    "SparseOperator",
    "axiom_report",
    "closed_form_dimension",
    "dimension",
    "enumerate_basis",
    "ft_variant_discrimination",
    "ft_variants",
    "generator_ids",
    "generator_matrix",
    "graded_bracket",
    "hamiltonian",
    "ladder_operators",
    "ladder_residual",
    "matrix_unit",
    "normalize_radical",
    "occupancy_report",
    "operator_matrix",
    "order_one_defining_comparison",
    "relation_suite",
    "single_quantum_state",
    "spanning_rank",
    "spectrum",
    "verify_defining_relations",
    "verify_representation",
]
