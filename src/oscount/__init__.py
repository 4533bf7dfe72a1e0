"""Exact counting of symplectic quotient resolutions.

The number of Q-factorial terminalizations of a symplectic quotient is the
total dimension of the Orlik-Solomon algebra of its singular-locus
hyperplane arrangement divided by the order of the Namikawa Weyl group.
This package computes both factors exactly: arrangement invariants over Q
or a cyclotomic field (intersection lattice, Moebius function,
characteristic/Poincare polynomials, region counts), independent matroid
oracles (broken-circuit bases, finite-field point counts), ADE root data
with the Catalan-type arrangement family, and finite symplectic matrix
group analysis (reflection classes, minimal parabolics, Kleinian labels).
"""

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionLattice,
    build_arrangement,
    characteristic_polynomial,
    cone,
    deletion_restriction,
    essential_rank,
    intersection_lattice,
    poincare_polynomial,
    region_count,
)
from .counting import (
    CatalogEntry,
    CountReport,
    NamikawaWeylData,
    analyze_arrangement,
    catalog,
    count_resolutions,
    namikawa_weyl_from_group,
    wreath_count_closed_form,
)
from .errors import (
    ComputationCapError,
    InvalidInputError,
    MathematicalInconsistencyError,
    OracleDisagreementError,
    OscountError,
    UnsupportedFoldingError,
)
from .fields import (
    FieldDescriptor,
    Scalar,
    cyclotomic_field,
    cyclotomic_polynomial,
    cyclotomic_reduce,
    rational_field,
)
from .groups import (
    MatrixGroup,
    ParabolicClass,
    ReflectionClass,
    kleinian_label,
    minimal_parabolics,
    symplectic_reflections,
    verify_zeta_bijection,
)
from .linalg import ExactMatrix
from .matroid import (
    find_good_primes,
    finite_field_count,
    nbc_betti,
)
from .polynomial import IntegerPolynomial
from .rootdata import (
    CatalanSpec,
    WeylTypeData,
    affine_catalan,
    catalan_arrangement,
    parse_type_label,
    weyl_data,
)

__version__ = "0.1.0"
