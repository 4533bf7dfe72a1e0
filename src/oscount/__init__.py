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

import importlib

# Each public name and the submodule that defines it.  A name is imported on
# first use (PEP 562), so `import oscount` loads no submodule and a command
# loads only the modules it runs.
_SUBMODULE_NAMES = {
    "arrangement": (
        "Arrangement",
        "Flat",
        "Hyperplane",
        "IntersectionLattice",
        "build_arrangement",
        "characteristic_polynomial",
        "cone",
        "deletion_restriction",
        "essential_rank",
        "intersection_lattice",
        "poincare_polynomial",
        "region_count",
    ),
    "counting": (
        "CatalogEntry",
        "CountReport",
        "analyze_arrangement",
        "catalog",
        "count_resolutions",
    ),
    "errors": (
        "ComputationCapError",
        "InvalidInputError",
        "MathematicalInconsistencyError",
        "OracleDisagreementError",
        "OscountError",
        "UnsupportedFoldingError",
    ),
    "fields": (
        "FieldDescriptor",
        "Scalar",
        "cyclotomic_field",
        "cyclotomic_polynomial",
        "rational_field",
    ),
    "groups": (
        "MatrixGroup",
        "NamikawaWeylData",
        "ParabolicClass",
        "ReflectionClass",
        "analyze_group",
        "kleinian_label",
        "minimal_parabolics",
        "namikawa_weyl_from_group",
        "symplectic_reflections",
        "verify_zeta_bijection",
    ),
    "matroid": ("find_good_primes", "finite_field_count", "nbc_betti"),
    "rootdata": (
        "CatalanSpec",
        "WeylTypeData",
        "affine_catalan",
        "catalan_arrangement",
        "parse_type_label",
        "weyl_data",
        "wreath_count_closed_form",
        "wreath_poincare",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
