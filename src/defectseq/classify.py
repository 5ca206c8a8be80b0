"""Structural verdicts for contractive tuples.

This module answers the qualitative questions about a tuple: is it a
row contraction, do its entries commute, do the cp-map iterates at the
identity die out (purity), does the defect sequence grow as fast as the
dimension count allows (maximality, in the free and in the commuting
sense), and is the tuple irreducible in the sense that nothing but
scalars commutes with all entries and their adjoints.

Maximality is read from the defect ladder of ``defect._ladder``, the one
loop that computes Delta_n: a verdict compares those values with
``geometric_bound`` or ``commuting_bound`` up to its horizon, and an
index past the ladder's stabilization point repeats the last value.
``classify`` runs the ladder once and reads Delta_1 and both maximality
verdicts from that single run.

Irreducibility is read from ``commutant_dimension``, which counts the
Hermitian matrices commuting with every T_i.  The commutant of the
*-closed set {T_i, T_i*} is a *-algebra, so that real dimension is its
complex dimension, and the d constraints [T_i, X] = 0 on a Hermitian X
imply the d adjoint ones.  The real system that remains costs a
quarter of the stacked complex system of all 2d constraints, whose
singular values are exactly sqrt(2) times its own; scaling by sqrt(2)
before the cutoff keeps the rank decision the same.

Purity is decided by fixed-point iteration with a three-way verdict.
The iterates X_k = cp^k(I) decrease in the positive semidefinite order,
so either they fall below the purity threshold (Pure), or they settle
at a nonzero fixed point (NotPure, with the limit reported), or the
iteration budget runs out first (Undecided).  An honest Undecided is
preferred over a spectral shortcut that the rest of the package could
not cross-check.  Each step decides from exact spectral norms, but takes
them (two ``eigvalsh`` calls) only when the O(h**2) bounds
max|A_jj| <= ||A||_2 <= ||A||_F cannot rule out both thresholds; most
steps of a slow iteration end at the bounds, and the verdict is the one
the exact norms give.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import size_cap
from .defect import (
    _ladder,
    _margin_is_contractive,
    commuting_bound,
    contractivity_margin,
    geometric_bound,
    is_contractive,
    require_contractive,
)
from .errors import ArgumentError, ConsistencyError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    RankTolerance,
    _count_above,
    hermitian_norm,
    readonly_copy,
)
from .tuples import apply_cp_map, is_commuting

__all__ = [
    "ClassificationReport",
    "MaximalityVerdict",
    "Purity",
    "PurityVerdict",
    "classify",
    "commutant_dimension",
    "is_commuting",
    "is_contractive",
    "is_irreducible",
    "is_maximal_commuting",
    "is_maximal_noncommutative",
    "maximality_commuting",
    "maximality_noncommutative",
    "purity",
]

DEFAULT_MAX_ITER = 10000
DEFAULT_EPS_PURE = 1e-10
DEFAULT_EPS_CONV = 1e-12


class Purity(enum.Enum):
    """Outcome of the purity iteration."""

    PURE = "Pure"
    NOT_PURE = "NotPure"
    UNDECIDED = "Undecided"


@dataclass(frozen=True, eq=False)
class PurityVerdict:
    """Result of iterating the cp map at the identity.

    ``residual_norm`` is the spectral norm of the last iterate.  For a
    NotPure verdict ``limit`` holds that iterate; it is positive
    semidefinite and one application of the cp map moves it by no more
    than the relative convergence threshold.  Pure and Undecided
    verdicts carry no limit.
    """

    status: Purity
    iterations: int
    residual_norm: float
    limit: np.ndarray | None = None

    def __post_init__(self):
        if (self.status is Purity.NOT_PURE) != (self.limit is not None):
            raise ConsistencyError("limit must accompany exactly the NotPure verdict")


def purity(T, max_iter=DEFAULT_MAX_ITER, eps_pure=DEFAULT_EPS_PURE,
           eps_conv=DEFAULT_EPS_CONV, tol=None):
    """Classify the tuple as Pure, NotPure, or Undecided.

    Iterates X ->  cp(X) from the identity, re-symmetrizing each step.
    Returns Pure once the spectral norm of the iterate drops to
    ``eps_pure``; returns NotPure once one step moves the iterate by no
    more than ``eps_conv`` relative to its current norm while that norm
    is still above the purity threshold; returns Undecided when
    ``max_iter`` steps decide neither.  The step criterion is relative
    on purpose: a slowly decaying pure iterate has small absolute steps
    but its relative step stays near one minus the decay rate, so only
    a genuine fixed point can trigger the NotPure branch.  Requires a
    contractive tuple, which makes the iterates a decreasing chain of
    positive contractions.

    ``eps_pure`` and ``eps_conv`` must be finite and nonnegative (zero is
    allowed); anything else raises ArgumentError.  A step computes the
    two spectral norms only when the diagonal and Frobenius bounds on
    them cannot rule out both tests, and always at step ``max_iter``, so
    the outcome is that of taking them on every step.
    """
    _check_budget(max_iter)
    _check_thresholds(eps_pure, eps_conv)
    tol = DEFAULT_TOL if tol is None else tol
    require_contractive(T, tol)
    return _purity(T, max_iter, eps_pure, eps_conv)


def _check_budget(max_iter):
    if max_iter < 1:
        raise ArgumentError("iteration budget must be at least 1")


def _check_thresholds(eps_pure, eps_conv):
    for name, eps in (("eps_pure", eps_pure), ("eps_conv", eps_conv)):
        if not np.isfinite(eps) or eps < 0.0:
            raise ArgumentError(f"{name} must be nonnegative and finite, got {eps}")


# Relative slack on the cheap norm bounds.  It dwarfs the backward error
# of eigvalsh and the rounding of the Frobenius norm, so a test that the
# bounds rule out could not have passed in floating point either.
_BOUND_SLACK = 1e-8


def _purity(T, max_iter, eps_pure, eps_conv):
    # The iteration of ``purity`` for a tuple already known contractive
    # and thresholds already checked.  For Hermitian A,
    # max|A_jj| <= ||A||_2 <= ||A||_F.  The Pure test cannot pass while
    # max|diag X_k| exceeds eps_pure, nor the NotPure test while
    # max|diag(X_{k-1} - X_k)| exceeds eps_conv ||X_k||_F, each up to the
    # slack.  A step takes the exact norms only when a bound cannot rule
    # its test out, and always at the last step, whose norm an Undecided
    # verdict reports.
    x = np.eye(T.h, dtype=T.dtype)
    below = 1.0 - _BOUND_SLACK
    above = 1.0 + _BOUND_SLACK
    for k in range(1, max_iter + 1):
        nxt = apply_cp_map(T, x)
        diag = nxt.diagonal()
        may_be_pure = np.abs(diag).max() * below <= eps_pure
        may_be_fixed = (np.abs(x.diagonal() - diag).max() * below
                        <= eps_conv * float(np.linalg.norm(nxt)) * above)
        if may_be_pure or may_be_fixed or k == max_iter:
            norm = hermitian_norm(nxt)
            if norm <= eps_pure:
                return PurityVerdict(Purity.PURE, k, norm)
            if may_be_fixed and hermitian_norm(x - nxt) <= eps_conv * norm:
                return PurityVerdict(Purity.NOT_PURE, k, norm,
                                     readonly_copy(nxt))
        x = nxt
    return PurityVerdict(Purity.UNDECIDED, max_iter, norm)


@dataclass(frozen=True)
class MaximalityVerdict:
    """Whether the defect sequence meets its growth bound with equality.

    ``horizon`` is the largest index the finite dimension allows the
    check to be meaningful for (the bound still fits inside h); the
    default horizon is computed from Delta_1 and recorded here.
    ``deltas`` and ``bounds`` list the compared values; on failure
    ``failed_at`` names the first index where they split and the lists
    stop there.
    """

    maximal: bool
    horizon: int
    deltas: tuple
    bounds: tuple
    failed_at: int | None

    def __post_init__(self):
        if len(self.deltas) != len(self.bounds):
            raise ConsistencyError("deltas and bounds must align")
        if self.maximal and self.failed_at is not None:
            raise ConsistencyError("maximal verdict cannot carry a failure index")


def _default_horizon(d, h, delta_1, bound_fn):
    # Largest n with bound(n) <= h; equality past that point is
    # impossible because the defect dimension cannot exceed h.
    if delta_1 == 0:
        return 1
    n = 1
    while bound_fn(d, n + 1, delta_1) <= h:
        n += 1
    return n


def _maximality(deltas, d, h, horizon, bound_fn):
    # ``deltas`` yields Delta_1, Delta_2, ... and may end at the
    # stabilization point; every later index repeats the last value.
    deltas = iter(deltas)
    delta = delta_1 = next(deltas)
    if horizon is None:
        horizon = _default_horizon(d, h, delta_1, bound_fn)
    compared = []
    bounds = []
    failed_at = None
    for n in range(1, horizon + 1):
        if n > 1:
            delta = next(deltas, delta)
        bound = bound_fn(d, n, delta_1)
        compared.append(delta)
        bounds.append(bound)
        if delta != bound:
            failed_at = n
            break
        if delta == h:
            break
    return MaximalityVerdict(
        maximal=failed_at is None,
        horizon=horizon,
        deltas=tuple(compared),
        bounds=tuple(bounds),
        failed_at=failed_at,
    )


def _ladder_maximality(T, horizon, tol, bound_fn):
    if horizon is not None and horizon < 1:
        raise ArgumentError("horizon must be at least 1")
    require_contractive(T, tol)
    return _maximality(_ladder(T, tol), T.d, T.h, horizon, bound_fn)


def maximality_noncommutative(T, horizon=None, tol=None):
    """Does Delta_n hit the geometric bound (1 + d + ... + d**(n-1)) Delta_1?

    Checks equality for n = 1 .. horizon, stopping early once the
    defect dimension reaches the full space or the first mismatch
    appears.  When no horizon is given it defaults to the largest n for
    which the bound still fits inside h, the only range where equality
    is possible at all; a tuple with Delta_1 = 0 is reported maximal
    with horizon 1 since its whole defect sequence is zero.  Returns the
    full verdict record; ``is_maximal_noncommutative`` reduces it to a
    boolean.
    """
    tol = DEFAULT_TOL if tol is None else tol
    return _ladder_maximality(T, horizon, tol, geometric_bound)


def maximality_commuting(T, horizon=None, tol=None):
    """Does Delta_n hit the binomial bound available for commuting tuples?

    Same contract as the free version with the monomial-count bound;
    raises ArgumentError when the tuple does not commute, because the
    bound is meaningless there.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if not is_commuting(T, tol):
        raise ArgumentError("commuting maximality asked of a noncommuting tuple")
    return _ladder_maximality(T, horizon, tol, commuting_bound)


def is_maximal_noncommutative(T, horizon=None, tol=None):
    """Boolean form of ``maximality_noncommutative``."""
    return maximality_noncommutative(T, horizon, tol).maximal


def is_maximal_commuting(T, horizon=None, tol=None):
    """Boolean form of ``maximality_commuting``."""
    return maximality_commuting(T, horizon, tol).maximal


def commutant_dimension(T, tol=None):
    """Dimension of { X : X T_i = T_i X and X T_i* = T_i* X for all i }.

    The commutant of the *-closed set {T_i, T_i*} is a *-algebra, so its
    complex dimension equals the real dimension of its Hermitian part.
    A Hermitian X commutes with T_i* as soon as it commutes with T_i,
    since [T_i*, X] = -[T_i, X]*, so only the d constraints [T_i, X] = 0
    are counted, over the h**2 real coordinates of X = S + iA (S real
    symmetric, A real antisymmetric) in the orthonormal basis with
    weights 1 on the diagonal and 1/sqrt(2) off it.  For a float64
    tuple [T_i, S] is real and [T_i, iA] imaginary, so the system splits
    into a real symmetric and a real antisymmetric block; a complex
    tuple gives one real 2 d h**2 x h**2 block, the real and imaginary
    parts of the system on [S | iA].

    The stacked complex system of all 2d constraints on h**2 complex
    unknowns has exactly sqrt(2) times these singular values, so they
    are scaled by sqrt(2) and cut off once over their union: the count
    applies the rank rule to the same numbers as that system at a
    quarter of its cost.  The identity always commutes, so the result is
    at least 1.  Refuses spaces with h**2 beyond the size cap.
    """
    tol = DEFAULT_TOL if tol is None else tol
    h = T.h
    cap = size_cap()
    if h * h > cap:
        raise SizeCapError(
            f"commutant system needs h^2 = {h * h} unknowns, cap is {cap}"
        )
    eye = np.eye(h, dtype=T.dtype)
    # Row-major vectorization: vec(A X) = kron(A, I) vec(X) and
    # vec(X A) = kron(I, A^T) vec(X).
    system = np.vstack([np.kron(op, eye) - np.kron(eye, op.T)
                        for op in T.ops])
    # Columns of the basis matrices E_jj, (E_jk + E_kj)/sqrt(2) and
    # (E_jk - E_kj)/sqrt(2) for j < k.
    rows, cols = np.triu_indices(h, 1)
    upper = system[:, rows * h + cols]
    lower = system[:, cols * h + rows]
    weight = np.sqrt(0.5)
    sym = np.hstack([system[:, np.arange(h) * (h + 1)],
                     weight * (upper + lower)])
    anti = weight * (upper - lower)
    if T.dtype == np.float64:
        blocks = (sym, anti)
    else:
        # Real and imaginary parts of [sym | i anti].
        blocks = (np.block([[sym.real, -anti.imag], [sym.imag, anti.real]]),)
    s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
    return h * h - _count_above(np.sqrt(2.0) * s, tol)


def is_irreducible(T, tol=None):
    """True when only scalars commute with the tuple and its adjoints."""
    tol = DEFAULT_TOL if tol is None else tol
    return commutant_dimension(T, tol) == 1


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Aggregate structural verdict for one tuple.

    For a non-contractive input only ``contractive``, ``commuting`` and
    ``contractivity_margin`` are filled; every analysis field is None
    because the defect machinery is not defined there.  ``maximal_comm``
    is present exactly when the tuple commutes.  ``contractivity_margin``
    is the smallest eigenvalue of I - cp(I) that decided ``contractive``.
    """

    contractive: bool
    commuting: bool
    purity: PurityVerdict | None
    delta_1: int | None
    maximal_noncomm: MaximalityVerdict | None
    maximal_comm: MaximalityVerdict | None
    commutant_dim: int | None
    irreducible: bool | None
    tol: RankTolerance
    contractivity_margin: float | None = None

    def __post_init__(self):
        if self.contractive and self.commuting and self.maximal_comm is None:
            raise ConsistencyError("commuting tuple classified without its bound")
        if not self.commuting and self.maximal_comm is not None:
            raise ConsistencyError("commuting bound reported for a noncommuting tuple")


def classify(T, tol=None, max_iter=DEFAULT_MAX_ITER,
             eps_pure=DEFAULT_EPS_PURE, eps_conv=DEFAULT_EPS_CONV):
    """Run every structural check and cross-validate the outcome.

    An irreducible tuple with positive first defect cannot have a
    nonzero cp-map fixed point, so a NotPure verdict in that situation
    raises ConsistencyError instead of returning quietly; Undecided is
    not treated as a contradiction.
    """
    _check_thresholds(eps_pure, eps_conv)
    tol = DEFAULT_TOL if tol is None else tol
    margin = contractivity_margin(T)
    contractive = _margin_is_contractive(margin, tol)
    commuting = is_commuting(T, tol)
    if not contractive:
        return ClassificationReport(
            contractive=False,
            commuting=commuting,
            purity=None,
            delta_1=None,
            maximal_noncomm=None,
            maximal_comm=None,
            commutant_dim=None,
            irreducible=None,
            tol=tol,
            contractivity_margin=margin,
        )
    _check_budget(max_iter)
    verdict = _purity(T, max_iter, eps_pure, eps_conv)
    deltas = tuple(_ladder(T, tol))
    delta_1 = deltas[0]
    maximal_noncomm = _maximality(deltas, T.d, T.h, None, geometric_bound)
    maximal_comm = (_maximality(deltas, T.d, T.h, None, commuting_bound)
                    if commuting else None)
    commutant_dim = commutant_dimension(T, tol)
    irreducible = commutant_dim == 1
    if irreducible and delta_1 > 0 and verdict.status is Purity.NOT_PURE:
        raise ConsistencyError(
            "irreducible tuple with positive defect came back NotPure; "
            "this contradicts the purity law for irreducible tuples"
        )
    return ClassificationReport(
        contractive=True,
        commuting=commuting,
        purity=verdict,
        delta_1=delta_1,
        maximal_noncomm=maximal_noncomm,
        maximal_comm=maximal_comm,
        commutant_dim=commutant_dim,
        irreducible=irreducible,
        tol=tol,
        contractivity_margin=margin,
    )
