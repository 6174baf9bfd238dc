"""Exact discrete residues and rational summability over Q(x).

Factorization-free computation of the discrete residues of rational
functions (the complete obstruction to writing f(x) as g(x+1) - g(x)),
using only gcds, resultants, partial fractions and exact linear algebra.
Includes the parameterized summability space of several functions and the
multiplicative-relation lattices of diagonal difference systems.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    FactorLimitError,
    InexactDivisionError,
    InternalError,
    ParseError,
)
from .polys import (
    ONE,
    ZERO,
    X,
    Poly,
    Rat,
    SquarefreeDecomposition,
    ext_gcd,
    gcd,
    integer_roots,
    is_squarefree,
    lcm,
    resultant,
    resultant_shift,
    squarefree_decomposition,
)
from .ratfun import RatFun, parfrac
from .hermite import hermite_list, hermite_reduction
from .shiftset import ShiftSetResult, dispersion, shift_set
from .reduction import ReductionOutput, ReductionParts, simple_reduction, simple_reduction_multi
from .residues import (
    MultiResidues,
    ResiduePair,
    discrete_residues,
    discrete_residues_coordinated,
    discrete_residues_multi,
    first_residues,
    first_residues_multi,
)
from .summability import is_summable, nullspace, poly_antidifference, vspace
from .galois import (
    RelationLattice,
    exp_log_derivative,
    hermite_normal_form,
    integer_kernel,
    integer_lattice_solutions,
    lattice_contains,
    log_derivative,
    multiplicative_relations,
)
from .testkit import OrbitSpec, build_from_spec, dres_by_definition

__all__ = [
    "DomainError",
    "FactorLimitError",
    "InexactDivisionError",
    "InternalError",
    "ParseError",
    "ONE",
    "ZERO",
    "X",
    "Poly",
    "Rat",
    "SquarefreeDecomposition",
    "ext_gcd",
    "gcd",
    "integer_roots",
    "is_squarefree",
    "lcm",
    "resultant",
    "resultant_shift",
    "squarefree_decomposition",
    "RatFun",
    "parfrac",
    "hermite_list",
    "hermite_reduction",
    "ShiftSetResult",
    "dispersion",
    "shift_set",
    "ReductionOutput",
    "ReductionParts",
    "simple_reduction",
    "simple_reduction_multi",
    "MultiResidues",
    "ResiduePair",
    "discrete_residues",
    "discrete_residues_coordinated",
    "discrete_residues_multi",
    "first_residues",
    "first_residues_multi",
    "is_summable",
    "nullspace",
    "poly_antidifference",
    "vspace",
    "RelationLattice",
    "exp_log_derivative",
    "hermite_normal_form",
    "integer_kernel",
    "integer_lattice_solutions",
    "lattice_contains",
    "log_derivative",
    "multiplicative_relations",
    "OrbitSpec",
    "build_from_spec",
    "dres_by_definition",
]
