"""Package-wide configuration: version and size cap.

Several operations materialize word-indexed data whose size grows
geometrically: tuple powers hold d**n matrices, the commutant solver
builds a system with up to h**2 unknowns, the model constructors
allocate spaces graded by words or monomials, whose bases are refused
before they are enumerated (their level sizes are added up only until
the sum passes the cap), and the tuple reader fills a COO file's
d x dim x dim stack of entries (at most 2 * cap**2 of them).  Each of them refuses to allocate past a cap.  For the
commutant, a tuple with zero entries is bounded by the largest
connected component of its system.  A tuple without zero entries is
counted in the eigenbasis of a generic Hermitian element, by the same
builder on Sum k_j**2 unknowns for its eigenvalue clusters k_j, or on
one row per pair of eigenvalues when every cluster is a single one, but
the cap still reads h**2 for it: that check comes before the element is
built, and a tuple whose element has one cluster, or whose reduced
count is not certain at the rank tolerance, falls back to the full h**2
system.  The tuple writer
refuses a COO stack that the reader would refuse.  The default cap is
4096 and can be overridden through the DEFECTSEQ_SIZE_CAP environment
variable.
"""

import os

from .errors import ArgumentError

__all__ = ["DEFAULT_SIZE_CAP", "SIZE_CAP_ENV", "VERSION", "size_cap"]

# Keep in sync with pyproject.toml.
VERSION = "0.1.0"

DEFAULT_SIZE_CAP = 4096
SIZE_CAP_ENV = "DEFECTSEQ_SIZE_CAP"


def size_cap():
    """Return the active size cap as a positive integer.

    Reads DEFECTSEQ_SIZE_CAP from the environment on every call so a
    long-running process picks up changes; falls back to
    DEFAULT_SIZE_CAP when the variable is unset.
    """
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ArgumentError(
            f"{SIZE_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ArgumentError(f"{SIZE_CAP_ENV} must be positive, got {cap}")
    return cap
