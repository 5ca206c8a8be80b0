"""Structural verdicts for contractive tuples.

This module answers the qualitative questions about a tuple: is it a
row contraction, do its entries commute, do the cp-map iterates at the
identity die out (purity), does the defect sequence grow as fast as the
dimension count allows (maximality, in the free and in the commuting
sense), and is the tuple irreducible in the sense that nothing but
scalars commutes with all entries and their adjoints.

Maximality is read from the defect ladder of ``defect._ladder``: a
verdict compares its values with ``geometric_bound`` or
``commuting_bound`` up to its horizon, and an index past the ladder's
stabilization point repeats the last value.  The ladder checks
contractivity itself, so the maximality verdicts make no check of their
own.  ``classify`` runs the ladder once and reads Delta_1 and both
maximality verdicts from that single run.  It calls the ladder's one
entry, ``defect._margin_and_deltas``, which returns the contractivity
margin, kept on the tuple, with the values not yet drawn, and ends them
at the stabilization point with ``defect._stabilized``, as ``_ladder``
does.  On a tuple without the weighted-shift pattern the entry builds
D_1 = I - cp(I) once, for the margin and the ladder's first step, so
the cp map is applied once in all, and only the ladder holds D_1, until
its first step.  A tuple accepted only within the contractivity slack
can have a falling ladder; ``classify`` refuses it with
``defect._require_monotone``, the check ``DefectReport`` makes, so
``classify`` and ``defect`` fail on it with one message.  The ladder
runs before the purity loop, so that refusal costs no budget.

Irreducibility is read from ``commutant_dimension``, which counts the
Hermitian matrices commuting with every T_i.  The commutant of the
*-closed set {T_i, T_i*} is a *-algebra, so that real dimension is its
complex dimension, and the d constraints [T_i, X] = 0 on a Hermitian X
imply the d adjoint ones.  The real system that remains costs a
quarter of the stacked complex system of all 2d constraints, whose
singular values are exactly sqrt(2) times its own; scaling by sqrt(2)
before the cutoff keeps the rank decision the same.

One builder makes the system, from the nonzeros of a stack of d
matrices alone, on the Hermitian matrices that are block diagonal over
a contiguous partition of the indices, and splits it into the connected
components of its sparsity graph (the structural first level of the
block triangular form of Pothen and Fan, ACM TOMS 1990); each component
gets its own SVD, batched by block shape.  The system is counted on one
of two routes, chosen by whether the T_i have an exact zero entry.  A
tuple with zeros, such as a weighted shift, takes the structural route:
the builder runs on the T_i with one block, every Hermitian X.  A tuple
without zeros would be one component of h**2 unknowns there, so it
takes the eigenbasis route, the "random element" idea of Murota, Kanno,
Kojima and Kojima (Math. Program. 2010) applied to the *-algebra of
{T_i, T_i*}: every element of the commutant commutes with a seeded
generic Hermitian element H of that algebra, so in H's eigenbasis U it
is block diagonal over H's eigenvalue clusters, and the builder runs on
the S_i = U* T_i U over those clusters, on Sum k_j**2 unknowns for
cluster sizes k_j.  A generic dense tuple has h clusters of one
eigenvalue each; then every row of a pair a < b is a multiple of
e_b - e_a, and one row per pair, w_ab (e_b - e_a), keeps the system's
singular values: the Gram matrix of those rows is a weighted graph
Laplacian (Fiedler, Czech. Math. J. 1973), but the values are taken from
the rows, not from that matrix of normal equations.  The eigenbasis
count is kept only when the full system must give it at the tolerance
at hand: its singular values and cutoff bound the full system's from
one side, and the gap between clusters bounds them from the other.  The
size cap still reads h**2 for a tuple without zeros, checked first: a
tuple whose H has one cluster, or whose count is not certain at the
tolerance, falls back to the structural route, which needs all h**2.
On either route one helper takes the SVDs and the sqrt(2) scaling, and
the one cutoff is taken over the union of all singular values.
An overflowing system, or singular values that overflow, decide
nothing, and either route refuses them with ArgumentError, as the
contractivity margin refuses an I - cp(I) that overflows.
``classify`` counts the commutant before the ladder and the purity
loop, so a tuple past the size cap is refused before the iteration
budget is spent.

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
the exact norms give.  The first 16 steps go one at a time.  After k
steps the loop runs a block of at most k // 8 further steps into one
preallocated array, tests the bounds for the whole block in a few
vectorized calls, and takes the exact norms in step order at the steps
the bounds flag.  The first verdict wins and the block's later iterates
are dropped, so a verdict at step k costs at most k / 8 wasted steps,
and blocks end at the budget, so Undecided wastes none.  The dense cp
step is bound once per run (``tuples._dense_stepper``) and serves the
single steps and every block: its product stacks are allocated once and
a step tests no type or shape, and its operations and their order are
those of a fresh step, so every iterate, and the residual norm an
Undecided verdict reports after 10 000 steps, keeps its bits.  A
weighted shift takes the same step, whose products give the arrays of
the diagonal route bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import size_cap
from .defect import (
    _derive,
    _ladder,
    _margin_and_deltas,
    _margin_is_contractive,
    _require_monotone,
    _stabilized,
    commuting_bound,
    geometric_bound,
    is_contractive,
    require_contractive,
)
from .errors import ArgumentError, ConsistencyError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    RankTolerance,
    _BOUND_SLACK,
    _CLUSTER_GAP,
    _count_above,
    _require_integer,
    _require_real,
    hermitian_norm,
    readonly_copy,
)
from .tuples import _dense_stepper, is_commuting

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

# The purity loop takes this many steps one at a time, then goes in
# blocks of at most _MAX_BLOCK steps and _BLOCK_ENTRIES matrix entries.
_SCALAR_STEPS = 16
_MAX_BLOCK = 64
_BLOCK_ENTRIES = 2 ** 16

# Seed of the coefficients of the generic Hermitian element whose
# eigenbasis counts the commutant of a tuple without zero entries.
_ELEMENT_SEED = 2010


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

    ``max_iter`` must be an integer of at least 1 (numpy integers count,
    a bool or a float does not), and ``eps_pure`` and ``eps_conv`` must
    be finite, nonnegative real numbers (Python or numpy floats or
    integers, zero included; not a bool or a string); anything else
    raises ArgumentError.  The thresholds are read as Python floats, so
    a numpy float32 one is compared in float64.  A step computes the two
    spectral norms only when the diagonal and Frobenius bounds on them
    cannot rule out both tests, and always at step ``max_iter``, so the
    outcome is that of taking them on every step.  After step 16 the
    bounds are tested a block of steps at a time and the exact norms
    taken in step order; the iterates a block computes past the verdict,
    at most k / 8 for a verdict at step k, are dropped.
    """
    _check_budget(max_iter)
    eps_pure, eps_conv = _check_thresholds(eps_pure, eps_conv)
    tol = DEFAULT_TOL if tol is None else tol
    require_contractive(T, tol)
    return _purity(T, max_iter, eps_pure, eps_conv)


def _check_budget(max_iter):
    _require_integer(max_iter, "iteration budget", 1)


def _check_thresholds(eps_pure, eps_conv):
    # Returns both as Python floats, so a numpy float32 threshold does
    # not carry the purity tests into float32 under NumPy 2 promotion.
    _require_real(eps_pure, "eps_pure")
    _require_real(eps_conv, "eps_conv")
    return float(eps_pure), float(eps_conv)


def _purity(T, max_iter, eps_pure, eps_conv):
    # The iteration of ``purity`` for a tuple already known contractive
    # and thresholds already checked.  For Hermitian A,
    # max|A_jj| <= ||A||_2 <= ||A||_F.  The Pure test cannot pass while
    # max|diag X_k| exceeds eps_pure, nor the NotPure test while
    # max|diag(X_{k-1} - X_k)| exceeds eps_conv ||X_k||_F, each up to the
    # slack.  A step takes the exact norms only when a bound cannot rule
    # its test out, and always at the last step, whose norm an Undecided
    # verdict reports.  Each step's output is exactly Hermitian, so the
    # step is taken without re-validating it; a non-finite Frobenius
    # norm raises what the validation would have raised.
    #
    # The first _SCALAR_STEPS steps, where most runs end, go one at a
    # time: a block costs more than it saves on a short run.  Later steps
    # go into slots 1..m of one preallocated array whose slot 0 holds the
    # previous iterate, and the exact tests run in step order at the
    # slots the block's bounds flag.  The step, and the block's slot
    # views, are bound once per run.
    x = np.eye(T.h, dtype=T.dtype)
    step = _dense_stepper(T, T.dtype)
    below = 1.0 - _BOUND_SLACK
    above = 1.0 + _BOUND_SLACK
    for k in range(1, min(max_iter, _SCALAR_STEPS) + 1):
        nxt = step(x)
        frobenius = float(np.linalg.norm(nxt))
        if not math.isfinite(frobenius):
            raise ArgumentError("cp-map argument contains non-finite entries")
        diag = nxt.diagonal()
        may_be_pure = np.abs(diag).max() * below <= eps_pure
        may_be_fixed = (np.abs(x.diagonal() - diag).max() * below
                        <= eps_conv * frobenius * above)
        if may_be_pure or may_be_fixed or k == max_iter:
            verdict = _exact_tests(x, nxt, k, may_be_fixed, eps_pure, eps_conv)
            if verdict.status is not Purity.UNDECIDED or k == max_iter:
                return verdict
        x = nxt
    h = T.h
    most = max(1, min(_MAX_BLOCK, _BLOCK_ENTRIES // (h * h), max_iter - k))
    block = np.empty((most + 1, h, h), dtype=x.dtype)
    block[0] = x
    slots = tuple(block)
    # The block that ends at max_iter returns.
    while True:
        m = max(1, min(_MAX_BLOCK, k // 8, _BLOCK_ENTRIES // (h * h),
                       max_iter - k))
        for j in range(m):
            step(slots[j], slots[j + 1])
        with np.errstate(over="ignore", invalid="ignore"):
            frobenius = np.linalg.norm(block[1:m + 1].reshape(m, -1), axis=1)
            diags = block[:m + 1].diagonal(axis1=1, axis2=2)
            may_be_pure = np.abs(diags[1:]).max(axis=1) * below <= eps_pure
            may_be_fixed = (np.abs(diags[:-1] - diags[1:]).max(axis=1) * below
                            <= eps_conv * frobenius * above)
        flagged = may_be_pure | may_be_fixed
        flagged[-1] |= k + m == max_iter
        finite = np.isfinite(frobenius)
        stop = m if finite.all() else int(np.argmin(finite))
        for j in np.flatnonzero(flagged[:stop]).tolist():
            verdict = _exact_tests(block[j], block[j + 1], k + j + 1,
                                   may_be_fixed[j], eps_pure, eps_conv)
            if verdict.status is not Purity.UNDECIDED or k + j + 1 == max_iter:
                return verdict
        if stop < m:
            raise ArgumentError("cp-map argument contains non-finite entries")
        k += m
        block[0] = block[m]


def _exact_tests(x, nxt, k, may_be_fixed, eps_pure, eps_conv):
    # The exact tests at step k, with X_{k-1} = x and X_k = nxt: Pure,
    # then NotPure where its bound allowed it, Undecided when neither
    # passes.
    norm = hermitian_norm(nxt)
    if norm <= eps_pure:
        return PurityVerdict(Purity.PURE, k, norm)
    if may_be_fixed and hermitian_norm(x - nxt) <= eps_conv * norm:
        return PurityVerdict(Purity.NOT_PURE, k, norm, readonly_copy(nxt))
    return PurityVerdict(Purity.UNDECIDED, k, norm)


@dataclass(frozen=True)
class MaximalityVerdict:
    """Whether the defect sequence meets its growth bound with equality.

    ``horizon`` is the largest index the finite dimension allows the
    check to be meaningful for (the bound still fits inside h); the
    default horizon is computed from Delta_1 and recorded here.
    ``deltas`` and ``bounds`` list the compared values; on failure
    ``failed_at`` names the first index where they split and the lists
    stop there.  ``maximal`` is derived on construction: no index
    failed.
    """

    maximal: bool = field(init=False)
    horizon: int
    deltas: tuple
    bounds: tuple
    failed_at: int | None

    def __post_init__(self):
        if len(self.deltas) != len(self.bounds):
            raise ConsistencyError("deltas and bounds must align")
        _derive(self, maximal=self.failed_at is None)


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
        horizon=horizon,
        deltas=tuple(compared),
        bounds=tuple(bounds),
        failed_at=failed_at,
    )


def _ladder_maximality(T, horizon, tol, bound_fn):
    if horizon is not None:
        _require_integer(horizon, "horizon", 1)
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
    at least 1.

    A tuple with an exact zero entry is counted on the structural route.
    The system is built from the nonzeros of the T_i (at most 2 h nnz
    terms), the unknowns X[p, q] and X[q, p] are grouped into one pair,
    and the rows and pairs fall into the connected components of the
    system's sparsity graph.  Unknowns that no row touches are zero
    columns and count toward the nullity without an SVD; every component
    gets its own SVD, one batched call per block shape, and the singular
    values of all components are cut off together, with sigma_max taken
    over all of them.  The route refuses a tuple whose largest component
    has more real unknowns than the size cap, and, so that it never
    holds more than the d h**2 x h**2 system of a dense tuple at h**2 =
    cap, one with more than d * cap**2 nonzero terms or component blocks
    of more than d * cap**2 entries in all.

    A tuple without a zero entry is one component of h**2 real unknowns
    there, so the size cap is checked on h**2 first, in O(d h**2) and
    before anything is built, and the tuple is then counted in the
    eigenbasis U of H = M + M*, M = sum_i z_i T_i with seeded
    coefficients z_i (real for a float64 tuple).  H lies in the
    *-algebra of {T_i, T_i*}, so every X of the commutant commutes with
    it, and Y = U* X U is block diagonal over the clusters of H's
    eigenvalues (split where two neighbours differ by more than
    ``_CLUSTER_GAP`` times the largest modulus).  The system on such Y,
    [S_i, Y] = 0 for S_i = U* T_i U, has Sum k_j**2 real unknowns, and
    the structural route's builder makes it from the S_i, with X[p, q]
    an unknown only when p and q share a cluster.  Unitary conjugation
    keeps the basis orthonormal, so the sqrt(2) scaling stays.  A
    generic dense tuple has h one-dimensional clusters: Y is a real
    diagonal y, entry (a, b) of [S_i, Y] is S_i[a, b] (y_b - y_a), and
    the system is taken as one row w_ab (e_b - e_a) per pair a < b, w_ab
    the 2-norm of S_i[a, b] and S_i[b, a] over i, which has the same
    Gram matrix as all the rows of the pair and so the same singular
    values.  This system is a restriction of the full one, and its
    sigma_max may be smaller, so its count is returned only when the
    full system's must agree: when its smallest kept singular value
    clears the image of the cutoff at 2 sqrt(2) (Sum ||T_i||_2**2)**0.5,
    an upper bound of the full sigma_max, under the bound that the gap
    between clusters puts on the part of a near-commutant element off
    the blocks.  That holds at the default tolerance for a generic
    tuple; a loose tolerance, or a gap of rounding size, fails it.
    Then, and when H has a single cluster, the structural route counts
    the tuple.

    Raises ArgumentError when H, either route's system or its singular
    values are not finite: entries near the float64 limit overflow
    them, and no count can be read.  A bound of the certificate that
    overflows only hands the tuple to the structural route.
    """
    tol = DEFAULT_TOL if tol is None else tol
    h = T.h
    cap = size_cap()
    if _one_component(T):
        if h * h > cap:
            raise SizeCapError(
                f"commutant system needs h^2 = {h * h} unknowns, cap is {cap}"
            )
        count = _eigenbasis_count(T, tol, cap)
        if count is not None:
            return count
    with np.errstate(over="ignore", invalid="ignore"):
        _, stacks = _structural_system(T._stack, np.array([0, h]), cap)
        s = _scaled_singular_values(stacks)
    return h * h - _count_above(s, tol)


def _scaled_singular_values(stacks):
    # The singular values of a commutant system's blocks ``stacks``, on
    # either route, times sqrt(2), when the blocks and the values are
    # finite.
    s = np.concatenate([
        np.linalg.svd(_finite_system(stack), compute_uv=False).ravel()
        for stack in stacks] or [np.empty(0)])
    return _finite_system(np.sqrt(2.0) * s)


def _finite_system(a):
    # ``a``, a commutant system or its singular values on either route,
    # when it is finite.  An overflowing one decides nothing, so the
    # count is refused, as the contractivity margin is.
    if not np.isfinite(a).all():
        raise ArgumentError(
            "the commutant system is not finite; the tuple's entries are "
            "too large"
        )
    return a


def _one_component(T):
    # With no exact zero entry, row (i, a, b) of the system reaches every
    # unknown in row a and in column b of X, so the whole system is one
    # component of h**2 real unknowns; checking that costs O(d h**2)
    # against the O(d h**3) terms of the system.
    return np.count_nonzero(T._stack) == T._stack.size


def _generic_element(T):
    # The coefficients z, eigenvalues and eigenbasis of H = M + M* for
    # M = sum_i z_i T_i, a generic Hermitian element of the *-algebra of
    # {T_i, T_i*} (z real for a float64 tuple, so H stays real).
    rng = np.random.default_rng(_ELEMENT_SEED)
    z = rng.standard_normal(T.d)
    if T.dtype != np.float64:
        z = z + 1j * rng.standard_normal(T.d)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.tensordot(z, T._stack, axes=1)
        m = _finite_system(m + m.conj().T)
    values, u = np.linalg.eigh(m)
    return z, values, u


def _eigenbasis_count(T, tol, cap):
    # The count on the Hermitian Y = U* X U that are block diagonal over
    # the eigenvalue clusters of the generic element H, in the basis
    # S_i = U* T_i U: the structural system over the clusters, or the
    # pair rows when every cluster is one eigenvalue.  None when H has
    # one cluster, where the eigenbasis saves nothing, or when the count
    # could differ from the full system's.
    z, values, u = _generic_element(T)
    bounds = _cluster_bounds(values)
    if bounds.size == 2:
        return None
    sizes = np.diff(bounds)
    with np.errstate(over="ignore", invalid="ignore"):
        ops = u.conj().T @ T._stack @ u
        if sizes.size == T.h:
            stacks = [_pair_rows(ops)]
        else:
            _, stacks = _structural_system(ops, bounds, cap)
        s = np.sort(_scaled_singular_values(stacks))
    kept = _count_above(s, tol)
    # Keep the count only if the full h**2 system must give it too.  In
    # ascending order, the k-th singular value s_k of the full system is
    # at most this system's t_k (a restriction), and the full cutoff,
    # taken at the full sigma_max, is at least this one; so every value
    # cut here is cut there.  The full sigma_max is at most ``norm``,
    # as ||[T_i, X]||_F <= 2 ||T_i||_2 for ||X||_F = 1.  A unit X with
    # scaled residual s has ||[H, X]||_F <= sqrt(2) |z| s, so its part
    # off the blocks has norm at most slip(s) = (sqrt(2) |z| s +
    # rounding) / gap, with the backward error of eigh as rounding, and
    # dropping that part leaves a residual of at most (s + norm *
    # slip(s)) / sqrt(1 - slip(s)**2).  Were the full nullity larger,
    # its s_k at the first index kept here would lie below
    # tol.cutoff(norm), and t_k below that image of the cutoff (or, with
    # nothing kept, slip would reach 1).  So the counts agree when slip
    # stays below 1 and the smallest kept value clears the image; a
    # loose tolerance or a narrow gap fails that, and the caller counts
    # on the full system.
    # A norm that overflows makes slip infinite, and the full system
    # counts the tuple.
    with np.errstate(over="ignore"):
        norm = 2.0 * np.sqrt(2.0) * np.linalg.norm(
            np.linalg.norm(T._stack, 2, axis=(1, 2)))
    cutoff = tol.cutoff(norm)
    gap = np.min(values[bounds[1:-1]] - values[bounds[1:-1] - 1])
    rounding = 4.0 * T.h * np.finfo(np.float64).eps * max(-values[0],
                                                          values[-1])
    slip = (np.sqrt(2.0) * np.linalg.norm(z) * cutoff + rounding) / gap
    if slip >= 1.0 or (kept and s[-kept] <= (cutoff + norm * slip)
                       / np.sqrt(1.0 - slip * slip)):
        return None
    return int(sizes @ sizes) - kept


def _cluster_bounds(values):
    # Offsets of the clusters of ascending eigenvalues, split where two
    # neighbours differ by more than _CLUSTER_GAP times the largest
    # modulus; the last offset is the count of values.
    gap = _CLUSTER_GAP * max(-values[0], values[-1])
    starts = np.flatnonzero(np.diff(values) > gap) + 1
    return np.concatenate([[0], starts, [values.size]])


def _pair_rows(ops):
    # The system on the real diagonal y of Y when every cluster is one
    # eigenvalue.  Entries (a, b) and (b, a) of [S_i, Y] are
    # S_i[a, b] (y_b - y_a) and S_i[b, a] (y_a - y_b), so every row of a
    # pair a < b is a multiple of e_b - e_a, and the one row
    # w_ab (e_b - e_a), w_ab the 2-norm of all those S_i entries (hypot,
    # so it overflows only where the norm does), has the same Gram
    # matrix, and so the same singular values.
    h = ops.shape[1]
    a, b = np.triu_indices(h, 1)
    w = np.hypot.reduce(np.abs(np.concatenate([ops[:, a, b], ops[:, b, a]])),
                        axis=0)
    rows = np.zeros((a.size, h))
    pair = np.arange(a.size)
    rows[pair, a] = -w
    rows[pair, b] = w
    return rows


def _structural_system(ops, bounds, cap):
    # The real system of ``commutant_dimension`` for the (d, h, h) stack
    # ``ops`` on the Hermitian X that are block diagonal over the
    # contiguous clusters starting at ``bounds`` ([0, h]: every X), in
    # the basis E_jj, (E_jk + E_kj)/sqrt(2) and i (E_jk - E_kj)/sqrt(2)
    # for j < k, built straight from the nonzeros of ``ops`` and split by
    # component.  Returns the real unknowns of each component and one
    # (count, m, n) stack of blocks per block shape; the blocks' singular
    # values together are those of the whole system.
    # Row (i, a, b) of [T_i, X] = 0 is (i*h + a)*h + b and the unknown
    # X[p, q] is p*h + q.  A nonzero T_i[r, c] = t puts +t on X[c, b] in
    # row (i, r, b) for every b in c's cluster, and -t on X[a, r] in row
    # (i, a, c) for every a in r's cluster.
    d, h = ops.shape[:2]
    hh = h * h
    entries = 2 * h * np.count_nonzero(ops)
    if entries > d * cap * cap:
        raise SizeCapError(
            f"commutant system has 2h*nnz = {entries} entries, "
            f"cap is d*cap^2 = {d * cap * cap}"
        )
    i, r, c = np.nonzero(ops)
    t = ops[i, r, c]
    # The start and the size of the cluster of every index.
    sizes = np.diff(bounds)
    start, k = np.repeat(bounds[:-1], sizes), np.repeat(sizes, sizes)
    kc, kr = k[c], k[r]
    b, a = _ranges(start[c], kc), _ranges(start[r], kr)
    rows = np.concatenate([np.repeat((i * h + r) * h, kc) + b,
                           (np.repeat(i * h, kr) + a) * h + np.repeat(c, kr)])
    p = np.concatenate([np.repeat(c, kc), a])
    q = np.concatenate([b, np.repeat(r, kr)])
    vals = np.concatenate([np.repeat(t, kc), np.repeat(-t, kr)])
    # X[p, q] and X[q, p] are one pair, keyed by its upper entry.  A
    # (row, pair) holds at most two terms, so each sum below is exact
    # and equals the entry of kron(T_i, I) - kron(I, T_i^T).
    key = rows * hh + np.minimum(p, q) * h + np.maximum(p, q)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.append(key.size > 0, key[1:] != key[:-1]))
    upper = np.add.reduceat(np.where(p <= q, vals, 0)[order], starts)
    lower = np.add.reduceat(np.where(p > q, vals, 0)[order], starts)
    # An entry that is exactly zero joins nothing.
    keep = (upper != 0) | (lower != 0)
    key, upper, lower = key[starts][keep], upper[keep], lower[keep]
    if key.size == 0:
        return np.zeros(0, dtype=np.int64), []
    row, pair = np.divmod(key, hh)

    # Components of the row-pair graph: every pair of a row is joined to
    # the row's first pair.
    touched = np.zeros(hh, dtype=bool)
    touched[pair] = True
    pairs = np.flatnonzero(touched)
    node = np.searchsorted(pairs, pair)
    new_row = np.append(True, row[1:] != row[:-1])
    first = np.maximum.accumulate(np.where(new_row, np.arange(row.size), 0))
    root = _components(pairs.size, node, node[first])

    # Number the components and lay out each one's columns: the
    # symmetric column of every pair, then the antisymmetric column of
    # every off-diagonal pair.
    is_root = root == np.arange(pairs.size)
    ncomp = int(np.count_nonzero(is_root))
    comp = (np.cumsum(is_root) - 1)[root]
    off = pairs // h != pairs % h
    sym_col, n_pairs = _rank_in_group(comp, ncomp)
    anti_col = np.full(pairs.size, -1)
    anti_col[off], n_off = _rank_in_group(comp[off], ncomp)
    unknowns = n_pairs + n_off
    largest = int(unknowns.max())
    if largest > cap:
        raise SizeCapError(
            f"largest commutant component needs {largest} real unknowns, "
            f"cap is {cap}"
        )
    row_comp = comp[node[new_row]]
    local_row, n_rows = _rank_in_group(row_comp, ncomp)
    held = int(n_rows @ unknowns)
    if held > d * cap * cap:
        raise SizeCapError(
            f"commutant components hold {held} real entries, "
            f"cap is d*cap^2 = {d * cap * cap}"
        )

    # The entries: the diagonal column of a diagonal pair, and
    # sqrt(1/2) (upper +- lower) for an off-diagonal one.
    od = off[node]
    weight = np.sqrt(0.5)
    sym = np.where(od, weight * (upper + lower), upper)
    anti = weight * (upper - lower)
    seg_comp = comp[node]
    seg_row = local_row[np.cumsum(new_row) - 1]
    seg_sym = sym_col[node]
    seg_anti = anti_col[node]
    if ops.dtype == np.float64:
        # A symmetric and an antisymmetric block per component.
        shape_m = np.concatenate([n_rows, n_rows])
        shape_n = np.concatenate([n_pairs, n_off])
        block = np.concatenate([seg_comp, ncomp + seg_comp[od]])
        at_row = np.concatenate([seg_row, seg_row[od]])
        at_col = np.concatenate([seg_sym, seg_anti[od]])
        value = np.concatenate([sym, anti[od]])
    else:
        # Real and imaginary parts of [sym | i anti].
        shape_m = 2 * n_rows
        shape_n = unknowns
        lift = n_rows[seg_comp]
        shift = n_pairs[seg_comp[od]]
        block = np.concatenate([seg_comp, seg_comp, seg_comp[od],
                                seg_comp[od]])
        at_row = np.concatenate([seg_row, seg_row + lift, seg_row[od],
                                 seg_row[od] + lift[od]])
        at_col = np.concatenate([seg_sym, seg_sym, seg_anti[od] + shift,
                                 seg_anti[od] + shift])
        value = np.concatenate([sym.real, sym.imag, -anti[od].imag,
                                anti[od].real])
    return unknowns, _stack_by_shape(shape_m, shape_n, block, at_row, at_col,
                                     value)


def _stack_by_shape(shape_m, shape_n, block, at_row, at_col, value):
    # Write each block into one flat buffer, blocks of one shape next to
    # each other, and view each shape's run as a (count, m, n) stack.
    size = shape_m * shape_n
    by_shape = np.lexsort((shape_n, shape_m))
    by_shape = by_shape[size[by_shape] > 0]
    end = np.cumsum(size[by_shape])
    offset = np.zeros(size.size, dtype=np.int64)
    offset[by_shape] = end - size[by_shape]
    buffer = np.zeros(int(end[-1]) if end.size else 0)
    buffer[offset[block] + at_row * shape_n[block] + at_col] = value
    m, n = shape_m[by_shape], shape_n[by_shape]
    cuts = np.flatnonzero((m[1:] != m[:-1]) | (n[1:] != n[:-1])) + 1
    stacks = []
    for lo, hi in zip(np.append(0, cuts), np.append(cuts, m.size)):
        begin = int(end[lo] - size[by_shape[lo]])
        stacks.append(buffer[begin:int(end[hi - 1])]
                      .reshape(hi - lo, int(m[lo]), int(n[lo])))
    return stacks


def _ranges(starts, counts):
    # start, start + 1, ..., start + count - 1 for every (start, count),
    # one run after another.
    return (np.repeat(starts - (np.cumsum(counts) - counts), counts)
            + np.arange(counts.sum()))


def _rank_in_group(group, count):
    # The rank of each element among the elements of its group, in
    # order, and the size of each of the ``count`` groups.
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=count)
    rank = np.empty(group.size, dtype=np.int64)
    rank[order] = np.arange(group.size) - (np.cumsum(sizes) - sizes)[group[order]]
    return rank, sizes


def _components(n, u, v):
    # A root label for every node of the graph on range(n) with edges
    # (u, v): hook every root to the smallest root an edge joins it to,
    # then jump pointers until each node points at its root, and repeat
    # until no edge joins two roots.  Pointers only ever go down, so the
    # hooks form a forest.
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        joins = pu != pv
        if not joins.any():
            return parent
        np.minimum.at(parent, np.maximum(pu, pv)[joins],
                      np.minimum(pu, pv)[joins])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def is_irreducible(T, tol=None):
    """True when only scalars commute with the tuple and its adjoints."""
    tol = DEFAULT_TOL if tol is None else tol
    return commutant_dimension(T, tol) == 1


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Aggregate structural verdict for one tuple.

    ``contractivity_margin`` is the smallest eigenvalue of I - cp(I),
    and ``contractive`` is derived from it and ``tol`` on construction,
    by the rule of ``is_contractive``.  For a non-contractive input the
    report is built from the margin, ``commuting`` and ``tol`` alone:
    every analysis field is None because the defect machinery is not
    defined there.  ``irreducible`` is derived from ``commutant_dim``
    (only the scalars commute), None with it.  ``maximal_comm`` is
    present exactly when a contractive tuple commutes, which
    construction checks.
    """

    contractive: bool = field(init=False)
    contractivity_margin: float
    commuting: bool
    tol: RankTolerance
    purity: PurityVerdict | None = None
    delta_1: int | None = None
    maximal_noncomm: MaximalityVerdict | None = None
    maximal_comm: MaximalityVerdict | None = None
    commutant_dim: int | None = None
    irreducible: bool | None = field(init=False)

    def __post_init__(self):
        _derive(self, contractive=_margin_is_contractive(
                    self.contractivity_margin, self.tol),
                irreducible=None if self.commutant_dim is None
                else self.commutant_dim == 1)
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

    ``eps_conv`` must also lie below 1: a relative step bound of 1 or
    more lets the NotPure test pass on the first step of a pure tuple,
    so it cannot certify a fixed point, and the cross-check would blame
    the purity law for the threshold.  ArgumentError otherwise.  The
    budget and the thresholds are checked before anything is computed,
    so a bad one is refused on every tuple, contractive or not.
    """
    _check_budget(max_iter)
    eps_pure, eps_conv = _check_thresholds(eps_pure, eps_conv)
    if eps_conv >= 1.0:
        raise ArgumentError(
            f"eps_conv must be below 1 to certify convergence, got {eps_conv}")
    tol = DEFAULT_TOL if tol is None else tol
    # Commutation goes first: entries so large that a commutator
    # overflows are refused as such, even where the margin overflows too.
    commuting = is_commuting(T, tol)
    margin, ladder = _margin_and_deltas(T, tol)
    if not _margin_is_contractive(margin, tol):
        return ClassificationReport(
            contractivity_margin=margin,
            commuting=commuting,
            tol=tol,
        )
    # The commutant count and the ladder go first: they are the steps
    # that may refuse the tuple (the size cap, a falling ladder), and the
    # purity budget should not be spent before that.
    commutant_dim = commutant_dimension(T, tol)
    deltas = tuple(_stabilized(ladder, T.h))
    _require_monotone(deltas)
    verdict = _purity(T, max_iter, eps_pure, eps_conv)
    delta_1 = deltas[0]
    maximal_noncomm = _maximality(deltas, T.d, T.h, None, geometric_bound)
    maximal_comm = (_maximality(deltas, T.d, T.h, None, commuting_bound)
                    if commuting else None)
    if commutant_dim == 1 and delta_1 > 0 and verdict.status is Purity.NOT_PURE:
        raise ConsistencyError(
            "irreducible tuple with positive defect came back NotPure; "
            "this contradicts the purity law for irreducible tuples"
        )
    return ClassificationReport(
        contractivity_margin=margin,
        commuting=commuting,
        tol=tol,
        purity=verdict,
        delta_1=delta_1,
        maximal_noncomm=maximal_noncomm,
        maximal_comm=maximal_comm,
        commutant_dim=commutant_dim,
    )
