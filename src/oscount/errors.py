"""Error hierarchy shared by every module, and the default computation caps.

Each class carries the process exit code used by the CLI:
1 invalid input, 2 computation cap exceeded, 3 mathematical/oracle
inconsistency.  The caps live here, beside the error they raise, so that
the CLI reads their defaults without importing the modules that enforce
them.
"""

from __future__ import annotations

DEFAULT_FLAT_CAP = 2_000_000  # flats of the intersection lattice (`arrangement`)
DEFAULT_SUBSET_CAP = 2_000_000  # sets the nbc walk visits (`matroid`)
DEFAULT_GROUP_CAP = 200_000  # group elements enumerated (`groups`)
DEFAULT_FF_CAP = 10**8  # q^l of a finite-field count (`matroid`)


class OscountError(Exception):
    exit_code = 1


class InvalidInputError(OscountError):
    """Malformed or out-of-domain input (bad file, zero normal, mixed fields, ...)."""


class UnsupportedFoldingError(InvalidInputError):
    """A parabolic class whose diagram action cannot be derived and has no
    catalog override."""


class ComputationCapError(OscountError):
    """A configurable resource cap was exceeded; never a silent truncation."""

    exit_code = 2

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


class MathematicalInconsistencyError(OscountError):
    """Two routes that must agree did not, or an integrality guarantee failed."""

    exit_code = 3


class OracleDisagreementError(MathematicalInconsistencyError):
    """An independent oracle contradicted the primary computation."""
