"""Dense linear algebra with explicit rank tolerances.

Everything computed downstream is a rank, a range, or a lattice relation
between ranges, so this module fixes one thresholding rule and applies
it uniformly: a singular value counts as nonzero iff

    sigma > max(rtol * sigma_max, atol).

The defaults (rtol = 1e-9, atol = 1e-12) are deliberately loose.  The
matrices that arrive here are built from contraction rows and exact
projections, so genuine singular values sit far above the noise floor
and the decision is never close on well-posed inputs.

Real input stays real: ``numerical_rank``, ``require_hermitian`` and
``hermitian_eig`` keep float64 matrices in float64 (so numpy runs the
real LAPACK kernels) and work in complex128 otherwise;
``as_operator_matrix`` always returns complex128.  A square input equal
to its own adjoint, entry for entry, is ranked from the absolute values
of its eigenvalues, which are its singular values (the route of
``np.linalg.matrix_rank(hermitian=True)``); every other input is ranked
from its singular value decomposition.

Subspaces are always carried as matrices with orthonormal columns; the
lattice operations (join, containment, complement) keep that normal
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "DEFAULT_TOL",
    "HERMITIAN_ATOL",
    "ORTHONORMALITY_ATOL",
    "RankTolerance",
    "Subspace",
    "as_operator_matrix",
    "coordinate_subspace",
    "hermitian_eig",
    "hermitize",
    "numerical_rank",
    "orthonormal_range",
    "require_hermitian",
    "subspace_complement",
    "subspace_contains",
    "subspace_equal",
    "subspace_join",
]

# Entrywise deviation allowed between M and its adjoint, relative to
# 1 + max|entry|, before the input is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-10

# Entrywise deviation of basis* basis from the identity tolerated when a
# Subspace is constructed.
ORTHONORMALITY_ATOL = 1e-10


@dataclass(frozen=True)
class RankTolerance:
    """Threshold pair deciding numerical rank.

    ``rtol`` scales with the largest singular value of the matrix at
    hand, ``atol`` is an absolute floor; they combine as
    ``max(rtol * sigma_max, atol)``.
    """

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if not np.isfinite(self.rtol) or self.rtol <= 0.0:
            raise ArgumentError("rtol must be positive and finite")
        if not np.isfinite(self.atol) or self.atol < 0.0:
            raise ArgumentError("atol must be nonnegative and finite")

    def cutoff(self, sigma_max):
        """Singular values at or below this value are treated as zero."""
        return max(self.rtol * float(sigma_max), self.atol)


DEFAULT_TOL = RankTolerance()


def _resolve(tol):
    return DEFAULT_TOL if tol is None else tol


def as_operator_matrix(a, name="matrix"):
    """Coerce ``a`` to a complex128 matrix, rejecting degenerate input.

    The result always has at least one row and one column and only
    finite entries; anything else raises ArgumentError.
    """
    return _checked_matrix(np.asarray(a, dtype=np.complex128), name)


def _as_matrix(a, name="matrix"):
    # Like as_operator_matrix, but real input (bool, integer or float)
    # becomes float64 instead of complex128.
    m = np.asarray(a)
    dtype = np.float64 if m.dtype.kind in "biuf" else np.complex128
    return _checked_matrix(m.astype(dtype, copy=False), name)


def _checked_matrix(m, name):
    if m.ndim != 2:
        raise ArgumentError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ArgumentError(f"{name} must have at least one row and one column")
    if not np.isfinite(m).all():
        raise ArgumentError(f"{name} contains non-finite entries")
    return m


def readonly_copy(a, dtype=np.complex128):
    """A C-contiguous copy of type ``dtype`` with the write flag cleared."""
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, dim)`` where ``dim`` may be
    zero.  ``tol`` records the RankTolerance that produced the basis so
    later lattice operations can reuse it by default.
    """

    ambient_dim: int
    basis: np.ndarray
    tol: RankTolerance = DEFAULT_TOL

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ArgumentError("ambient dimension must be at least 1")
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ArgumentError(
                f"basis must have shape ({self.ambient_dim}, k), got {b.shape}"
            )
        if b.shape[1] > self.ambient_dim:
            raise ArgumentError("basis has more columns than the ambient dimension")
        if b.size and not np.isfinite(b).all():
            raise ArgumentError("basis contains non-finite entries")
        gram = b.conj().T @ b
        if gram.size:
            dev = np.max(np.abs(gram - np.eye(b.shape[1])))
            if dev > ORTHONORMALITY_ATOL:
                raise ArgumentError(
                    f"basis columns are not orthonormal (deviation {dev:.3e})"
                )
        object.__setattr__(self, "basis", readonly_copy(b))

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """The orthogonal projection onto the subspace, as a matrix."""
        return self.basis @ self.basis.conj().T


def coordinate_subspace(ambient_dim, indices, tol=None):
    """Span of the standard basis vectors listed in ``indices``.

    The basis columns are exact 0/1 vectors in the order given, so
    compressions to coordinate subspaces stay exact.
    """
    tol = _resolve(tol)
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ArgumentError("coordinate indices must be distinct")
    basis = np.zeros((ambient_dim, len(indices)), dtype=np.complex128)
    for col, idx in enumerate(indices):
        if not 0 <= idx < ambient_dim:
            raise ArgumentError(f"coordinate index {idx} out of range")
        basis[idx, col] = 1.0
    return Subspace(ambient_dim, basis, tol)


def hermitize(m):
    """The exact Hermitian part (M + M*) / 2."""
    return (m + m.conj().T) / 2.0


def require_hermitian(m, name="matrix"):
    """Validate that ``m`` is square and Hermitian within HERMITIAN_ATOL.

    Returns the input as a float64 matrix when it is real and as a
    complex128 matrix otherwise.  A finite input equal to its adjoint
    entry for entry is accepted without measuring the deviation.
    """
    m = _as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ArgumentError(f"{name} must be square, got shape {m.shape}")
    if np.array_equal(m, m.conj().T):
        return m
    scale = 1.0 + float(np.max(np.abs(m)))
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITIAN_ATOL * scale:
        raise ArgumentError(
            f"{name} deviates from Hermitian by {dev:.3e} (allowed "
            f"{HERMITIAN_ATOL * scale:.3e})"
        )
    return m


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within HERMITIAN_ATOL relative to its
        largest entry.

    Returns
    -------
    w : ndarray
        Real eigenvalues in ascending order.
    q : ndarray
        Unitary matrix of eigenvectors, one per column (real orthogonal
        for real input), satisfying
        ``m ~ q @ diag(w) @ q*`` to within 1e-9 * (1 + ||m||).

    The input is re-symmetrized as (M + M*)/2 before decomposition so
    roundoff asymmetry never leaks into complex eigenvalue parts.
    """
    m = require_hermitian(m)
    w, q = np.linalg.eigh(hermitize(m))
    return w, q


def hermitian_norm(m):
    """Spectral norm of a Hermitian matrix via its eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvalsh(hermitize(m)))))


def numerical_rank(m, tol=None):
    """Number of singular values of ``m`` above the rank cutoff.

    An exactly Hermitian input takes its singular values as the absolute
    values of its eigenvalues; any other input takes them from an SVD.
    """
    tol = _resolve(tol)
    m = _as_matrix(m)
    if m.shape[0] == m.shape[1] and np.array_equal(m, m.conj().T):
        s = np.abs(np.linalg.eigvalsh(m))
    else:
        s = np.linalg.svd(m, compute_uv=False)
    return _count_above(s, tol)


def _count_above(values, tol):
    # The one cutoff rule: how many of ``values`` exceed
    # tol.cutoff(max(values)); an empty array counts zero.
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values > tol.cutoff(np.max(values))))


def orthonormal_range(m, tol=None):
    """Orthonormal basis of the numerical column range of ``m``.

    The columns returned are the left singular vectors whose singular
    value clears the cutoff, so the column count always equals
    ``numerical_rank(m, tol)``.
    """
    tol = _resolve(tol)
    m = as_operator_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = _count_above(s, tol)
    return Subspace(m.shape[0], u[:, :r], tol)


def _require_same_ambient(a, b):
    if not isinstance(a, Subspace) or not isinstance(b, Subspace):
        raise ArgumentError("expected Subspace operands")
    if a.ambient_dim != b.ambient_dim:
        raise ArgumentError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_join(a, b, tol=None):
    """The lattice join span(a + b) as a fresh orthonormal basis."""
    tol = _resolve(tol)
    _require_same_ambient(a, b)
    stacked = np.hstack([a.basis, b.basis])
    if stacked.shape[1] == 0:
        return Subspace(a.ambient_dim, stacked, tol)
    return orthonormal_range(stacked, tol)


def subspace_contains(a, b, tol=None):
    """True iff every basis column of ``b`` lies in ``a``.

    Per column x the test is ``||(I - P_a) x|| <= max(rtol, atol) * (1 + ||x||)``
    where P_a is the orthogonal projection onto ``a``.  The zero
    subspace is contained in everything.
    """
    tol = _resolve(tol)
    _require_same_ambient(a, b)
    if b.dim == 0:
        return True
    coeff = a.basis.conj().T @ b.basis
    resid = b.basis - a.basis @ coeff
    resid_norms = np.linalg.norm(resid, axis=0)
    col_norms = np.linalg.norm(b.basis, axis=0)
    bound = max(tol.rtol, tol.atol) * (1.0 + col_norms)
    return bool(np.all(resid_norms <= bound))


def subspace_equal(a, b, tol=None):
    """Mutual containment with matching dimensions."""
    tol = _resolve(tol)
    _require_same_ambient(a, b)
    if a.dim != b.dim:
        return False
    return subspace_contains(a, b, tol) and subspace_contains(b, a, tol)


def subspace_complement(s, tol=None):
    """Orthonormal basis of the orthogonal complement of ``s``."""
    tol = s.tol if tol is None else tol
    if s.dim == 0:
        return Subspace(s.ambient_dim, np.eye(s.ambient_dim), tol)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient_dim, u[:, s.dim:], tol)
