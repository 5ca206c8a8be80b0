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

One test, ``_real_diagonal``, finds the matrices whose off-diagonal
entries are all zero (either sign) and whose diagonal is real and
finite, in one scan; ``require_hermitian`` (so ``apply_cp_map``) and
``numerical_rank`` accept such a matrix on that scan alone.  The
eigenvalues of an exactly Hermitian matrix that passes it are read off
its diagonal, sorted, in place of an ``eigvalsh`` call.  That is the
value ``eigvalsh`` returns, bit for bit, when LAPACK's
``xSYEVD``/``xHEEVD`` does not rescale the matrix: the largest |entry|
is 0 or lies in [sqrt(safmin/eps), 1/sqrt(safmin/eps)] (about 1e-146
to 1e146), and no diagonal entry is -0.0, whose sign and place among
the zeros LAPACK does not keep.  Any other matrix goes to
``eigvalsh``.  ``numerical_rank``, ``hermitian_norm`` and the
contractivity margin all take their eigenvalues this way.

Subspaces are always carried as matrices with orthonormal columns; the
lattice operations (join, containment, complement) keep that normal
form.
"""

from __future__ import annotations

import math
import numbers
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

# Relative slack on cheap norm bounds (a diagonal entry or a column norm
# below a spectral norm, the Frobenius norm above it) that let a caller
# skip an exact norm.  It dwarfs the rounding of those bounds and the
# backward error of eigvalsh and the SVD, so a test that the bounds
# settle comes out as the exact norms would have it.
_BOUND_SLACK = 1e-8

# Eigenvalues of a Hermitian matrix H that lie within
# _CLUSTER_GAP * max|eigenvalue| of each other, in a chain, form one
# cluster.  Splitting a true multiple eigenvalue loses every subspace
# its eigenvectors do not span, while merging two eigenvalues only
# costs time.  At a relative gap g, an element whose commutator
# residual sits at the rank cutoff rtol * ||T|| has parts between
# clusters of relative size about rtol / g, and eigenvectors carry an
# error of about eps / g; the commutant count checks both against its
# cutoff.  At g = 1e-3 and the default rtol of 1e-9 both stay near 1e-6
# or below and a generic tuple passes; from rtol near 1e-3 on, most
# tuples fall back to the full system.
_CLUSTER_GAP = 1e-3


def _require_integer(value, name, least=None):
    # numpy integers count as integers; True and 2.0 do not.  A value
    # below ``least``, 0 or 1 when given, is refused too.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "at least 1" if least else "nonnegative"
        raise ArgumentError(f"{name} must be {bound}")


def _require_real(value, name, positive=False):
    # Python and numpy floats and integers count as real numbers; True
    # and "1" do not.  A NaN, an infinity, an integer past the float
    # range and a negative value are refused too, and zero when
    # ``positive``.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ArgumentError(f"{name} must be a real number, got {value!r}")
    bound = "positive" if positive else "nonnegative"
    try:
        if math.isfinite(value) and (value > 0 if positive else value >= 0):
            return
    except OverflowError:
        # Such an integer may have more digits than Python prints.
        value = "an integer past the float range"
    raise ArgumentError(f"{name} must be {bound} and finite, got {value}")


@dataclass(frozen=True)
class RankTolerance:
    """Threshold pair deciding numerical rank.

    ``rtol`` scales with the largest singular value of the matrix at
    hand, ``atol`` is an absolute floor; they combine as
    ``max(rtol * sigma_max, atol)``.  Both must be finite real numbers
    (Python or numpy floats or integers, not a bool or a string),
    ``rtol`` positive and ``atol`` nonnegative; anything else raises
    ArgumentError.  The values are kept as given.
    """

    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        _require_real(self.rtol, "rtol", positive=True)
        _require_real(self.atol, "atol")

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
    return _checked_matrix(_coerced(a), name)


def _coerced(a):
    # ``a`` as an array of _as_matrix's type, not yet checked.
    m = np.asarray(a)
    dtype = np.float64 if m.dtype.kind in "biuf" else np.complex128
    return m.astype(dtype, copy=False)


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
    compressions to coordinate subspaces stay exact.  Every index must
    be an integer: numpy integers count, a bool or a float does not.
    """
    tol = _resolve(tol)
    indices = list(indices)
    for idx in indices:
        _require_integer(idx, "coordinate index")
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
    entry for entry is accepted without measuring the deviation, and a
    diagonal one (see ``_real_diagonal``) after one scan.
    """
    return _hermitian(m, name)[0]


def _hermitian(a, name):
    # require_hermitian's matrix and its _real_diagonal, or None when it
    # is not diagonal.
    m, diag, exact = _exactly_hermitian(a, name)
    if exact:
        return m, diag
    if m.shape[0] != m.shape[1]:
        raise ArgumentError(f"{name} must be square, got shape {m.shape}")
    scale = 1.0 + float(np.max(np.abs(m)))
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITIAN_ATOL * scale:
        raise ArgumentError(
            f"{name} deviates from Hermitian by {dev:.3e} (allowed "
            f"{HERMITIAN_ATOL * scale:.3e})"
        )
    return m, None


def _exactly_hermitian(a, name):
    # (m, diag, exact): ``a`` as _as_matrix makes it, its _real_diagonal
    # or None, and whether m equals its adjoint entry for entry.  A
    # diagonal m is accepted on the one scan that finds it; any other m
    # gets _as_matrix's checks and is compared with its adjoint.
    m = _coerced(a)
    diag = _real_diagonal(m)
    if diag is not None:
        return m, diag, True
    m = _checked_matrix(m, name)
    return m, None, (m.shape[0] == m.shape[1]
                     and np.array_equal(m, m.conj().T))


def _real_diagonal(m):
    # The diagonal of a float64 or complex128 array ``m``, as a float64
    # view, when m is a nonempty square matrix whose off-diagonal
    # entries are all zero (either sign) and whose diagonal entries are
    # finite with zero imaginary parts; None otherwise.  Such an m is
    # finite and exactly Hermitian.  One scan of m, which counts the
    # nonzeros of the bool array m != 0 (NaN counts): numpy counts a bool
    # array with vector instructions and a float one entry at a time.
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        return None
    diag = m.diagonal()
    if np.count_nonzero(m != 0) != np.count_nonzero(diag):
        return None
    if m.dtype == np.complex128:
        if diag.imag.any():
            return None
        diag = diag.real
    return diag if np.isfinite(diag).all() else None


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


# LAPACK's xSYEVD and xHEEVD rescale a matrix whose largest |entry|
# lies outside [sqrt(safmin/eps), 1/sqrt(safmin/eps)] (eps is DLAMCH's
# 'Precision', 2**-52), which rounds the eigenvalues of a diagonal.
_EIGVALSH_UNSCALED_MIN = float(np.sqrt(np.finfo(np.float64).tiny
                                       / np.finfo(np.float64).eps))
_EIGVALSH_UNSCALED_MAX = 1.0 / _EIGVALSH_UNSCALED_MIN


def _hermitian_eigvals(m):
    # Ascending eigenvalues of an exactly Hermitian matrix, equal bit
    # for bit to np.linalg.eigvalsh(m): a diagonal matrix inside
    # LAPACK's unscaled range and free of -0.0 on its diagonal gives its
    # sorted diagonal, anything else goes to eigvalsh.
    return _eigvals_given(m, _real_diagonal(m))


def _eigvals_given(m, diag):
    # _hermitian_eigvals(m) for a caller holding diag = _real_diagonal(m).
    if diag is not None:
        top = float(np.max(np.abs(diag)))
        if ((top == 0.0 or _EIGVALSH_UNSCALED_MIN <= top
             <= _EIGVALSH_UNSCALED_MAX)
                and not np.signbit(diag[diag == 0.0]).any()):
            return np.sort(diag)
    return np.linalg.eigvalsh(m)


def hermitian_norm(m):
    """Spectral norm of a Hermitian matrix via its eigenvalues."""
    return float(np.max(np.abs(_hermitian_eigvals(hermitize(m)))))


def numerical_rank(m, tol=None):
    """Number of singular values of ``m`` above the rank cutoff.

    An exactly Hermitian input takes its singular values as the absolute
    values of its eigenvalues; any other input takes them from an SVD.
    """
    tol = _resolve(tol)
    m, diag, exact = _exactly_hermitian(m, "matrix")
    if not exact:
        return _count_above(np.linalg.svd(m, compute_uv=False), tol)
    return _count_above(np.abs(_eigvals_given(m, diag)), tol)


def _count_above(values, tol):
    # The one cutoff rule: how many of ``values`` exceed
    # tol.cutoff(max(values)); an empty array counts zero.
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values > tol.cutoff(np.max(values))))


def _certified_full(a, tol, floor, top=None, formation=0.0):
    # Whether every eigenvalue np.linalg.eigvalsh gives a w x w matrix B
    # exceeds ``floor`` and the cutoff _count_above takes from their
    # moduli, so that it would count w: one Cholesky factorization of
    # a - s I in place of the eigenvalues (Rump, BIT 46, 2006).  B is
    # ``a`` itself by default.  A caller that certifies a B it does not
    # form passes ``top``, a bound U on ||B||_2 and on ||a||_2, and
    # ``formation``, a bound on the sum of two distances from one
    # exactly Hermitian matrix C: how far the eigenvalues of B can lie
    # below C's, in order, and how far ``a``, as Cholesky reads it, lies
    # from C in the 2-norm.  By default
    # U = ||a||_F (1 + _BOUND_SLACK), which bounds ||a||_2.  At
    # eps = 2**-52 five errors add up to at most 5.03 w**2 eps U:
    # eigvalsh's backward error, which moves each eigenvalue by as much
    # (Weyl), about w**2 eps ||B||_2 for a Householder tridiagonal
    # reduction (Higham, Accuracy and Stability of Numerical Algorithms,
    # 19.3); Cholesky's, as a factorization that completes on the
    # computed a - s I proves it positive definite up to E with
    # ||E||_2 <= gamma_{w+1} ||R||_F**2 <= 1.03 w**2 eps U (Demmel 1989;
    # Higham, Thm 10.3; ||R||_F**2 is the trace up to gamma_{w+1}, at
    # most w U); the rounding of the shifted diagonal and of s, 2.5 eps U,
    # since a success implies s < U; and the rounding of ||a||_F,
    # w**2 eps U / 2.  So with delta = 8 w**2 eps U + formation, a
    # success puts every eigvalsh value above max(cutoff(U + delta),
    # floor), where U + delta exceeds their largest modulus, so the
    # cutoff is at least _count_above's.  A non-finite U proves nothing,
    # and neither does a diagonal entry at or below s, whose real part
    # bounds the least eigenvalue of a from above: both decline before
    # any factorization.  The diagonal is shifted in place and written
    # back bit for bit, so a caller that falls back ranks the same
    # matrix.
    w = a.shape[0]
    if top is None:
        top = math.sqrt(np.vdot(a, a).real) * (1.0 + _BOUND_SLACK)
    if not math.isfinite(top):
        return False
    delta = 8.0 * w * w * np.finfo(np.float64).eps * top + formation
    shift = max(tol.cutoff(top + delta), floor) + delta
    diagonal = a.flat[:: w + 1]
    if (diagonal.real <= shift).any():
        return False
    a.flat[:: w + 1] = diagonal - shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    finally:
        a.flat[:: w + 1] = diagonal
    return True


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


def _swept_span(start, ops, rounds=None):
    # The span of ``start`` and its images under words in ``ops``, of
    # length at most ``rounds`` (None: until nothing new appears, which
    # takes at most ambient_dim rounds, each adding a direction), by
    # breadth-first sweeps: each round applies every op to the newest
    # directions alone, whose predecessors' images are already in, and
    # keeps the part orthogonal to the accumulated span, projected out
    # twice to clear the rounding of nearly contained columns.
    h = start.ambient_dim
    accumulated = frontier = start.basis
    for _ in range(h if rounds is None else rounds):
        if frontier.shape[1] == 0 or accumulated.shape[1] == h:
            break
        images = np.hstack([op @ frontier for op in ops])
        for _pass in range(2):
            images = images - accumulated @ (accumulated.conj().T @ images)
        frontier = orthonormal_range(images, start.tol).basis
        if frontier.shape[1] == 0:
            break
        accumulated = np.hstack([accumulated, frontier])
    return Subspace(h, accumulated, start.tol)


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
