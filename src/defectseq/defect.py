"""Defect operators, defect spaces, and the defect sequence.

For a row contraction T (meaning T_1 T_1* + ... + T_d T_d* <= I) the
n-th defect operator is

    D_n = I - cp^n(I),

a positive contraction.  Its range dimension Delta_n is the n-th defect
dimension.  Three structural facts shape the interface:

* the sequence Delta_1, Delta_2, ... never decreases and is bounded by
  the geometric sum (1 + d + ... + d**(n-1)) * Delta_1;
* once two consecutive values agree the sequence is constant forever,
  which licenses early termination;
* the n-th defect space is spanned by the first defect space together
  with its images under all operator words of length below n, which
  gives a second, independent way to build the same space.

One private entry, ``_margin_and_deltas``, returns the contractivity
margin of a tuple together with the generator of Delta_1, Delta_2, ...,
and ``_ladder`` checks that margin and ends the sequence at its
stabilization point (``_stabilized``).  ``defect_sequence``, the
maximality verdicts and ``classify`` all read their values from that
entry.  It has two routes, chosen by the tuple's weighted-shift
pattern:

* a weighted shift iterates X_n = cp^n(I), which stays diagonal, and
  ranks I - X_n: one cp step and one rank decision per value, each a
  scan of its h x h argument that finds it diagonal and O(h) work on
  the diagonal (an O(nnz) step, a sort), and one more scan of X_n to
  build I - X_n from its diagonal;
* any other tuple carries D_n itself.  The word-span description of the
  defect spaces is the identity D_{n+1} = D_1 + cp(D_n), so D_n, of rank
  Delta_n, is held as a thin signed factor G_n diag(+-1) G_n* and
  updated from the d products T_i G_n (low-rank Smith iteration).  The
  factor of a dense D_n, D_1 among them, comes from a range sketch of
  its r eigenvalues above the rounding floor, on a fixed test matrix,
  when r + 10 < h, O(h^2 r), and from an h x h eigh otherwise.  While
  no column drops, the factor of D_n is M_n, the word levels T_w G_1,
  |w| < n, level by level in one column buffer (the factor grows as M
  in the Smith iteration of Penzl 2000): M_{n+1} = [M_n, T_1 F, ...,
  T_d F] for the newest level F, so a step multiplies F alone.  A step
  whose M is narrower than h and whose signature is all +1 is
  certified on the Gram matrix A = M* M, grown by its new rows, which
  has the nonzero eigenvalues of M M* = D_{n+1}: one Cholesky
  factorization of A - s I, with s above the rank cutoff by the
  backward errors of eigvalsh and of Cholesky and by the rounding of A
  and of the QR route it stands in for (``linalg._certified_full``).
  When it succeeds, every eigenvalue that route would give clears the
  cutoff and the floor, so the count is A's width and M stays the
  factor, with no QR and no eigenvalue.  The last word step, whose M
  reaches width h, is certified on the square S of M's first h
  columns, since D_{n+1} = M M* >= S S* for J = +1, and its dense
  D_{n+1} is built only if a later value is asked for.  A signature
  with a -1 takes the eigenvalues of the small R J R* for M = QR, from
  R alone, and keeps M while they all clear the floor.  Every other
  step, a declined certificate among them, is one step kernel,
  ``_step``: the eigenvalues and eigenvectors of R J R*, which
  compress M to Q times the eigenvectors, or, at width h, the dense
  M J M*, which first tries the same certificate; every later step of
  that ladder stacks [G_1, T_1 G_n, ..., T_d G_n] and goes through it
  again.  A maximal ladder, such as a generic dense draw's, multiplies
  each word once and never compresses below h.  D_1 is never
  certified, since its smallest eigenvalue is the contractivity
  margin, reported bit for bit.

Both count the eigenvalues of D_n above the one cutoff of
``numerical_rank``.  ``_ladder`` checks contractivity when it is called,
so ``defect_sequence`` and the maximality verdicts make no check of
their own; ``classify`` reads the margin off the entry to report a tuple
that is not contractive.  D_1 = I - cp(I) is built in one place,
``_first_defect``, which keeps the contractivity margin, its smallest
eigenvalue, on the tuple.  The factored route's first step is that same
matrix, so a ``defect_sequence`` or ``classify`` call on a dense tuple
applies the cp map once, and ``contractivity_margin`` afterwards reads
the kept value.  ``defect_operator`` builds a single D_n from
``cp_iterate``, apart from the ladder, so the verify suites and the
tests can check ladder values against the dense iterate.

``defect_space_via_words`` implements the word-span construction by
Krylov-style accumulation, the sweep ``linalg._swept_span`` that
``models.coinvariant_hull`` also runs, and exists as a cross-check for
``defect_space``; the two must agree on every contractive input and the
test suite holds them to it.  Defect quantities are never computed by
materializing the d**n-entry power tuple; only ``rank_symmetry_check``
builds the power, because its row operator is the object under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .config import size_cap
from .errors import ArgumentError, ConsistencyError, ContractivityError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    RankTolerance,
    _BOUND_SLACK,
    _certified_full,
    _count_above,
    _hermitian_eigvals,
    _real_diagonal,
    _require_integer,
    _swept_span,
    hermitize,
    numerical_rank,
    orthonormal_range,
)
from .tuples import apply_cp_map, cp_iterate, is_commuting, row_operator
from .tuples import _words_past_cap, tuple_power, tuple_product

__all__ = [
    "DefectReport",
    "ProductBoundCheck",
    "RankSymmetryVerdict",
    "commuting_bound",
    "contractivity_margin",
    "defect_dimension",
    "defect_operator",
    "defect_sequence",
    "defect_space",
    "defect_space_via_words",
    "geometric_bound",
    "is_contractive",
    "rank_symmetry_check",
    "require_contractive",
    "verify_product_bounds",
    "word_image_dimension",
]

# A tuple is accepted as a row contraction when the smallest eigenvalue
# of I - cp(I) is no lower than -CONTRACTIVITY_SLACK * rtol.  The slack
# absorbs rounding in models built from exactly contractive data.
CONTRACTIVITY_SLACK = 10.0

# Oversampling of the sketched factor of a dense D_n.
_SKETCH_OVERSAMPLING = 10


def contractivity_margin(T):
    """Smallest eigenvalue of I - cp(I); nonnegative means contractive.

    Raises ArgumentError when I - cp(I) or its eigenvalues overflow,
    because no margin, and so no contractivity verdict, can be read from
    it.  The margin is computed once per tuple object and kept on it; an
    equal tuple built separately computes its own, and an error is
    raised afresh on every call.  The defect ladder of a tuple without
    the weighted-shift pattern keeps the same value, read off its own
    D_1.
    """
    margin = vars(T).get("_contractivity_margin")
    return float(_first_defect(T)[1][0]) if margin is None else margin


def _first_defect(T):
    # D_1 = I - cp(I), exactly Hermitian, and its ascending eigenvalues
    # as numerical_rank takes them: the one place D_1 is built, for the
    # contractivity margin and the first step of the factored ladder.
    # The margin, the smallest eigenvalue, is kept on T the way
    # functools.cached_property keeps _shift_pattern.
    with np.errstate(over="ignore", invalid="ignore"):
        x = apply_cp_map(T, np.eye(T.h, dtype=T.dtype))
    diag = _real_diagonal(x)
    # I - x is finite exactly when x is.
    if diag is None and not np.isfinite(x).all():
        raise ArgumentError(
            "I - cp(I) is not finite; the tuple's entries are too large"
        )
    d_1 = _identity_minus(x, diag)
    values = _hermitian_eigvals(d_1)
    # A finite I - cp(I) near the float64 limit can still overflow in
    # eigvalsh, which then gives no margin either.
    if not np.isfinite(values).all():
        raise ArgumentError(
            "the eigenvalues of I - cp(I) are not finite; the tuple's "
            "entries are too large"
        )
    vars(T)["_contractivity_margin"] = float(values[0])
    return d_1, values


def _identity_minus(x, diag):
    # hermitize(I - x) for an exactly Hermitian x with
    # diag = _real_diagonal(x), bit for bit.  A diagonal x gives the
    # diagonal (a + a) / 2 for a = 1 - diag x, held in x's storage type
    # (a complex inf / 2 has a NaN imaginary part), and zeros of sign
    # +0.0, which is what I - x and hermitize leave off the diagonal; no
    # h x h arithmetic.
    if diag is None:
        return hermitize(np.eye(x.shape[0]) - x)
    a = (1.0 - diag).astype(x.dtype, copy=False)
    return np.diag((a + a) / 2.0)


def _margin_is_contractive(margin, tol):
    return margin >= -CONTRACTIVITY_SLACK * tol.rtol


def _require_margin(margin, tol):
    if not _margin_is_contractive(margin, tol):
        raise ContractivityError(
            f"not a row contraction: I - cp(I) has eigenvalue {margin:.3e}"
        )


def is_contractive(T, tol=None):
    """Whether ``T`` is a row contraction within tolerance."""
    tol = DEFAULT_TOL if tol is None else tol
    return _margin_is_contractive(contractivity_margin(T), tol)


def require_contractive(T, tol=None):
    """Raise ContractivityError unless ``T`` passes ``is_contractive``."""
    tol = DEFAULT_TOL if tol is None else tol
    _require_margin(contractivity_margin(T), tol)


def geometric_bound(d, n, delta_1):
    """(1 + d + ... + d**(n-1)) * delta_1, the general growth bound."""
    _require_integer(d, "operator count", 1)
    _require_integer(n, "bound index", 1)
    return sum(d ** k for k in range(n)) * delta_1


def commuting_bound(d, n, delta_1):
    """Binomial growth bound available when the tuple commutes.

    Sum over k < n of C(k + d - 1, d - 1), times delta_1; this counts
    monomials of degree below n in d variables and is much smaller than
    the geometric bound once n grows.
    """
    _require_integer(d, "operator count", 1)
    _require_integer(n, "bound index", 1)
    return sum(math.comb(k + d - 1, d - 1) for k in range(n)) * delta_1


def defect_operator(T, n, tol=None):
    """The n-th defect operator D_n = I - cp^n(I), exactly Hermitian.

    Requires an integer n >= 1 (numpy integers count, a bool or a float
    does not) and a contractive tuple; the iterate is computed by n
    applications of the cp map.
    """
    _require_integer(n, "defect index", 1)
    tol = DEFAULT_TOL if tol is None else tol
    require_contractive(T, tol)
    return hermitize(np.eye(T.h) - cp_iterate(T, n))


def defect_dimension(T, n, tol=None):
    """Rank of the n-th defect operator."""
    tol = DEFAULT_TOL if tol is None else tol
    return numerical_rank(defect_operator(T, n, tol), tol)


def defect_space(T, n, tol=None):
    """Orthonormal basis of the range of the n-th defect operator."""
    tol = DEFAULT_TOL if tol is None else tol
    return orthonormal_range(defect_operator(T, n, tol), tol)


@dataclass(frozen=True)
class DefectReport:
    """Computed defect sequence of one tuple, with growth-bound flags.

    Built from what the ladder measured: ``d``, ``h``, the computed
    values ``deltas`` = (Delta_1, Delta_2, ...), whether the tuple
    commutes, and ``tol``.  The sequence may be shorter than requested
    when it stabilized or hit the full dimension early.  Every other
    field is derived from those on construction:

    * ``reached_full``: the last value is h;
    * ``stabilized_at``: the first index n with Delta_n equal to
      Delta_{n+1}, read off the end of ``deltas``: its length when the
      space is full (the sequence cannot move past h), one less when the
      last two values agree, None otherwise;
    * ``bounds_noncomm``: ``geometric_bound`` at each index, and
      ``bound_ok_noncomm`` whether each value lies within it;
    * ``bounds_comm`` and ``bound_ok_comm``: the same for
      ``commuting_bound``, None for a noncommuting tuple.

    Construction refuses an empty sequence, a falling one and a value
    above h with ConsistencyError.
    """

    d: int
    h: int
    deltas: tuple
    stabilized_at: int | None = field(init=False)
    reached_full: bool = field(init=False)
    commuting: bool
    bounds_noncomm: tuple = field(init=False)
    bound_ok_noncomm: tuple = field(init=False)
    bounds_comm: tuple | None = field(init=False)
    bound_ok_comm: tuple | None = field(init=False)
    tol: RankTolerance

    def __post_init__(self):
        deltas, n = self.deltas, len(self.deltas)
        if n < 1:
            raise ConsistencyError("defect report with no computed values")
        _require_monotone(deltas)
        if any(delta > self.h for delta in deltas):
            raise ConsistencyError(
                f"defect dimension exceeds the space: {deltas} on h={self.h}"
            )
        full = deltas[-1] == self.h
        stable = n >= 2 and deltas[-1] == deltas[-2]
        _derive(self, reached_full=full,
                stabilized_at=n if full else n - 1 if stable else None)

        def bound_columns(bound_fn):
            bounds = tuple(bound_fn(self.d, k, deltas[0]) for k in range(1, n + 1))
            return bounds, tuple(a <= b for a, b in zip(deltas, bounds))

        noncomm = bound_columns(geometric_bound)
        comm = bound_columns(commuting_bound) if self.commuting else (None, None)
        _derive(self, bounds_noncomm=noncomm[0], bound_ok_noncomm=noncomm[1],
                bounds_comm=comm[0], bound_ok_comm=comm[1])


def _derive(record, **values):
    # Set the derived fields, declared field(init=False), of a frozen
    # record from its __post_init__.
    for name, value in values.items():
        object.__setattr__(record, name, value)


def _require_monotone(deltas):
    """Raise ConsistencyError when the defect values ``deltas`` fall.

    The monotonicity law holds for an exactly contractive tuple; one
    accepted only within the contractivity slack can break it.  The
    ladder yields its values as they come, and every reader of a whole
    ladder, ``DefectReport`` and ``classify``, refuses a falling one
    here, with the one message.
    """
    if any(b < a for a, b in zip(deltas, deltas[1:])):
        raise ConsistencyError(f"defect sequence decreased: {tuple(deltas)}")


def _ladder(T, tol):
    """Delta_1, Delta_2, ... of a contractive tuple until they stabilize.

    Refuses a tuple that is not a row contraction when called, before
    any value, with ContractivityError as ``require_contractive`` does;
    the margin comes from ``_margin_and_deltas``, so a dense tuple reads
    it off the D_1 its ladder starts from.  The values are then yielded
    by ``_stabilized``, the one loop that ends the sequence.  Commutation
    is never tested here.
    """
    margin, deltas = _margin_and_deltas(T, tol)
    _require_margin(margin, tol)
    return _stabilized(deltas, T.h)


def _margin_and_deltas(T, tol):
    # The contractivity margin of T, kept on it, and the generator of
    # Delta_1, Delta_2, ..., with no value drawn yet: the one entry to
    # the ladder and the one choice of its route.  A weighted shift
    # (T._shift_pattern) iterates the diagonal X_n = cp^n(I) and reads
    # the margin kept on the tuple, or computes it once; any other tuple
    # carries D_n as a signed factor, whose generator builds D_1 and
    # yields the margin read off it first, so the cp map is applied once
    # in all and only the generator holds D_1.  Both count the
    # eigenvalues of D_n with the rule of numerical_rank.
    if T._shift_pattern is not None:
        return contractivity_margin(T), _iterate_deltas(T, tol)
    deltas = _factored_deltas(T, tol)
    return next(deltas), deltas


def _stabilized(deltas, h):
    # The values of ``deltas`` up to and including the first n with
    # Delta_n = h (the space is full) or Delta_n = Delta_{n-1}; by the
    # stabilization law every later value repeats the last one yielded.
    # Until then the sequence rises by at least one per step, so it ends
    # within h + 1 steps; that is also the cap, and a ladder that
    # reaches the cap has decreased somewhere.
    previous = None
    for delta in islice(deltas, h + 1):
        yield delta
        if delta in (h, previous):
            return
        previous = delta


def _iterate_deltas(T, tol):
    # The ranks of I - X_n for X_n = cp^n(I), one cp step and one rank
    # decision each.  A weighted shift keeps X_n diagonal, so each of
    # the cp step, I - X_n and the rank tests its h x h argument with one
    # scan, _real_diagonal, and works on the diagonal alone: the cp step
    # is O(nnz) and the rank is read off the sorted diagonal.  X_n is
    # scanned twice, here and as the next cp step's argument, because
    # apply_cp_map validates what it is given.
    x = np.eye(T.h, dtype=T.dtype)
    while True:
        x = apply_cp_map(T, x)
        yield numerical_rank(_identity_minus(x, _real_diagonal(x)), tol)


def _factored_deltas(T, tol):
    # The ranks of D_n, carried as D_n = G_n J_n G_n* with J_n = diag(+-1)
    # through D_{n+1} = D_1 + cp(D_n) = M J M*, where
    # M = [G_1, T_1 G_n, ..., T_d G_n] and J = diag(J_1, J_n, ..., J_n).
    # The signature keeps the negative eigenvalues that a tuple accepted
    # within the contractivity slack gives D_n, so the ladder counts
    # what I - cp^n(I) holds.  Columns are dropped only at the rounding
    # floor h * eps of a matrix of norm about 1, never at the rank
    # cutoff: a defect below the cutoff still adds up over the steps.
    # Before the values, the generator yields the contractivity margin,
    # read off D_1 = _first_defect(T), whose count takes its eigenvalues
    # and whose factor G_1 is sketched from them.  _word_steps takes the
    # steps that follow while M stays the factor, on word levels, and
    # returns the factor (G_n, J_n) of the step after which it stops;
    # every later step stacks M from it (_next_level) and goes through
    # _step, which returns the next factor in turn.
    floor = T.h * np.finfo(np.float64).eps
    d_1, values = _first_defect(T)
    yield float(values[0])
    yield _count_above(np.abs(values), tol)
    g_1, j_1 = _dense_factor(d_1, values, floor)
    # Let D_1 go before the second step's arrays are built.
    d_1 = values = None
    g, j = yield from _word_steps(T, tol, floor, g_1, j_1)
    while True:
        step = _step(_next_level(T, g_1, g),
                     np.concatenate([j_1] + [j] * T.d), tol, floor)
        # Let this factor go before the next one is built.
        g = j = None
        g, j = yield from step


def _step(m, signature, tol, floor):
    # One ladder step that no certificate of _word_steps settles, on M,
    # which it overwrites and lets go, so the caller keeps no reference:
    # yields the count of D = M J M* and, only when resumed, returns D's
    # factor (G, J), with the columns whose eigenvalue lies at the floor
    # dropped.  An M narrower than h takes the eigenvalues and
    # eigenvectors V of R J R* for M = QR, and G = Q V |values|^(1/2); a
    # wider one the dense D, certified full when J is all +1 and
    # _certified_full passes it, and D's eigenvalues for its count or
    # its factor.
    h, w = m.shape
    if w < h:
        q, r = np.linalg.qr(m)
        m = None
        values, v = np.linalg.eigh(_signed_gram(r, signature))
        r = None
        yield _count_above(np.abs(values), tol)
        g, j = _signed_factor(values, v, floor)
        return q @ g, j
    d_n, m = _signed_gram(m, signature), None
    if (signature > 0).all() and _certified_full(d_n, tol, floor):
        yield h
        values = _hermitian_eigvals(d_n)
    else:
        values = _hermitian_eigvals(d_n)
        yield _count_above(np.abs(values), tol)
    return _dense_factor(d_n, values, floor)


def _word_steps(T, tol, floor, g_1, j_1):
    # Steps 2, 3, ... of _factored_deltas while M, kept whole, is the
    # factor: M_n holds the word levels T_w G_1, |w| < n, as columns of
    # one buffer, level by level, each with J_1's signs, so
    # M_{n+1} = [M_n, T_1 F, ..., T_d F] for the newest level F and a
    # step multiplies F alone (_next_level): d h^2 |F| work where the
    # full M = [G_1, T_1 M_n, ..., T_d M_n] takes d h^2 |M_n|.  This is
    # the word-span description of the defect spaces.  Yields each
    # step's count and returns the factor (G, J) of the step after which
    # it stops, built only when the generator is resumed.
    #
    # A step with J_1 all +1 is certified on the Gram matrix A = M* M,
    # grown by its new rows N* M (_extended_gram), whose nonzero
    # eigenvalues are those of M M* = D_{n+1}: with no QR and no R J R*
    # (_certified_words).  The last word step, whose width W reaches h,
    # is certified on the square S of M's first h columns:
    # D = M M* >= S S* for J = +1, and S S* has the eigenvalues of S* S,
    # A grown to order h; D is built only if the generator is resumed.
    # A step the certificate declines goes through _step at once.  A
    # signature with a -1 never builds A: a narrow step takes eigvalsh
    # of R J R* for M = QR, from R alone, and M stays the factor while
    # every value clears the floor; a step that finds one at the floor,
    # or the last word step, goes through _step.
    h = T.h
    m, signature, start = g_1, j_1, 0
    positive = bool((j_1 > 0).all())
    gram = (_extended_gram(np.empty((0, 0), T.dtype), m, 0, m.shape[1])
            if positive else None)
    while True:
        width = m.shape[1]
        m = _next_level(T, m, m[:, start:])
        signature = np.concatenate([signature] + [signature[start:]] * T.d)
        start, w = width, min(m.shape[1], h)
        if positive:
            gram = _extended_gram(gram, m, width, w)
            if not _certified_words(gram, m, tol, floor):
                break
            yield w
        elif w < h:
            values = np.abs(np.linalg.eigvalsh(
                _signed_gram(np.linalg.qr(m, mode="r"), signature)))
            if (values <= floor).any():
                break
            yield _count_above(values, tol)
        else:
            break
        if w == h:
            d_n, m, gram = _signed_gram(m, signature), None, None
            return _dense_factor(d_n, _hermitian_eigvals(d_n), floor)
    step, m, gram = _step(m, signature, tol, floor), None, None
    return (yield from step)


def _certified_words(a, m, tol, floor):
    # _certified_full for a word step of _word_steps: M has W columns,
    # and ``a`` is the Gram matrix of its first w: all of them on a
    # narrow step (w = W < h), the first h on the last word step
    # (w = h <= W).  U is the computed ||M||_F**2 = trace M M* times
    # 1 + _BOUND_SLACK, so U >= ||D||_2.  The route a certificate stands
    # in for, _step, takes the eigenvalues of hermitize(R J R*) for
    # M = QR on a narrow step, by eigh, whose Householder tridiagonal
    # reduction is eigvalsh's, and eigvalsh of hermitize(M J M*) on the
    # last, so with C = M* M
    # (narrow) or S* S (last), exact, and a length-n dot product rounded
    # by at most (n + 2) eps |x| |y| (sqrt(2) gamma_{n+2} for complex
    # data, Higham 3.6), the formation term is, in units of eps U:
    #   h W + 2    the rounding of ||M||_F**2;
    #   h + 2      A against C, entrywise, so in the Frobenius norm;
    #   16.1 h w   (narrow) Householder QR, whose computed R is that of
    #              M + dM with ||dM||_F <= gamma~_{hw} ||M||_F (Higham,
    #              Thm 19.4, taken with c = 16), which moves each
    #              sigma_i(M)**2 by at most 2.001 gamma~_{hw} ||M||_F**2;
    #   w + 2      (narrow) the product R J R*, or
    #   W + 2      (last) the product M J M*, whose least eigenvalue is
    #              at least that of S S*, which has C's eigenvalues;
    #   1          hermitize.
    # So a certificate implies the count, w, that the values would give,
    # and that every value clears the floor.
    h, wide = m.shape
    w = a.shape[0]
    units = h * wide + h + 7.0
    units += 16.1 * h * w + w if w < h else wide
    top = np.vdot(m, m).real * (1.0 + _BOUND_SLACK)
    formation = units * np.finfo(np.float64).eps * top
    return _certified_full(a, tol, floor, top, formation)


def _next_level(T, head, f):
    # [head, T_1 f, ..., T_d f] as one new h x (k + d r) buffer, for the
    # k columns of ``head`` and the r of ``f``; the batched product
    # writes each block T_i f into its columns in place.
    h, k, r = T.h, head.shape[1], f.shape[1]
    m = np.empty((h, k + T.d * r), dtype=T.dtype)
    m[:, :k] = head
    # Splitting the last axis of a slice is a view, so out= reaches m.
    np.matmul(T._stack, f, out=m[:, k:].reshape(h, T.d, r).transpose(1, 0, 2))
    return m


def _extended_gram(gram, m, width, size):
    # The Gram matrix of M's first ``size`` columns from ``gram``, that of
    # its first ``width``: the new rows N* M for N = M[:, width:size] are
    # the one product, and the block above them is their adjoint, so
    # the result is Hermitian off N* N.
    rows = np.conjugate(m[:, width:size]).T @ m[:, :size]
    out = np.empty((size, size), dtype=m.dtype)
    out[:width, :width] = gram
    out[width:] = rows
    out[:width, width:] = np.conjugate(rows[:, :width]).T
    return out


def _signed_gram(m, signature):
    # M J M*, exactly Hermitian, for J = diag(signature).  M is
    # conjugated in place, so that no copy of M* sits next to the copy
    # M J, and the caller lets it go.
    return hermitize(np.matmul(m * signature, np.conjugate(m, out=m).T))


def _dense_factor(d_n, values, floor):
    # _signed_factor of the dense D_n, whose eigenvalues ``values`` are
    # in hand.  When r + p < h, for the r eigenvalues of modulus above
    # ``floor`` and the oversampling p, the range of D_n is found from
    # r + p fixed columns Omega by one step of subspace iteration,
    # Q = orth(D_n orth(D_n Omega)), and the factor is Q times the
    # signed factor of Q* D_n Q, whose eigenvalues are D_n's up to its
    # part below the floor (Halko, Martinsson & Tropp 2011, Algorithms
    # 4.4 and 5.3): O(h^2 (r + p)) in place of an h x h eigh.
    # The QR between the two products keeps eigenvalues far below
    # sqrt(eps) ||D_n||, such as the -4e-9 of a tuple accepted within
    # the slack, which D_n (D_n Omega) would round away.
    h = d_n.shape[0]
    s = np.count_nonzero(np.abs(values) > floor) + _SKETCH_OVERSAMPLING
    if s >= h:
        return _signed_factor(*np.linalg.eigh(d_n), floor)
    # Omega is fixed: cos(sqrt(2) k**2) at the row-major index k of each
    # entry, without the rank 2 of cos(a i + b j), its entries spread
    # over [-1, 1] as a Weyl sequence.  Any Omega whose columns reach the
    # range of D_n keeps the factor, and a fixed one needs no random
    # generator, so a one-shot call never imports numpy.random.
    k = np.arange(h * s, dtype=np.float64)
    q = np.cos(np.sqrt(2.0) * k * k).reshape(h, s)
    for _ in range(2):
        q = np.linalg.qr(d_n @ q)[0]
    g, j = _signed_factor(*np.linalg.eigh(hermitize(q.conj().T @ (d_n @ q))),
                          floor)
    return q @ g, j


def _signed_factor(w, v, floor):
    # (G, J) with v diag(w) v* = G diag(J) G*, up to the eigenvalues of
    # modulus at most ``floor``, which are dropped.
    keep = np.abs(w) > floor
    return v[:, keep] * np.sqrt(np.abs(w[keep])), np.sign(w[keep])


def defect_sequence(T, n_max, tol=None):
    """Compute Delta_1 .. Delta_{n_max} with early termination.

    Stops as soon as two consecutive values agree (the sequence is then
    constant forever) or the full dimension h is reached.  The report is
    built from those values and one ``is_commuting`` call:
    ``DefectReport`` derives the stabilization index and the bound
    flags, which compare each value against the geometric bound, and
    against the binomial bound too when the tuple commutes.  ``n_max``
    must be an integer, as for ``defect_operator``.
    """
    _require_integer(n_max, "n_max", 1)
    tol = DEFAULT_TOL if tol is None else tol
    deltas = tuple(islice(_ladder(T, tol), n_max))
    return DefectReport(
        d=T.d,
        h=T.h,
        deltas=deltas,
        commuting=is_commuting(T, tol),
        tol=tol,
    )


def defect_space_via_words(T, n, tol=None):
    """The n-th defect space built from word images of the first one.

    Accumulates span{ H_1, T_w H_1 : 1 <= |w| <= n - 1 } by n - 1
    breadth first sweeps (``linalg._swept_span``): each round applies
    every T_i to the directions found in the previous round and keeps
    the components orthogonal to what is already present.  Applying the
    entries to the new directions only is enough, because images of the
    old directions were absorbed in an earlier round.  Independent of
    ``defect_space`` and must agree with it on every contractive tuple.
    """
    _require_integer(n, "defect index", 1)
    tol = DEFAULT_TOL if tol is None else tol
    return _swept_span(defect_space(T, 1, tol), T.ops, n - 1)


def word_image_dimension(T, n, tol=None):
    """Dimension of span{ T_w H_1 : |w| = n } for the first defect space H_1.

    Computed by n successive image-and-span rounds, so the d**n words
    are never enumerated.  Returns 0 when the images die out (for
    instance once a nilpotent tuple runs past its index).
    """
    _require_integer(n, "word length", 1)
    tol = DEFAULT_TOL if tol is None else tol
    basis = defect_space(T, 1, tol).basis
    for _ in range(n):
        if basis.shape[1] == 0:
            return 0
        images = np.hstack([op @ basis for op in T.ops])
        basis = orthonormal_range(images, tol).basis
    return basis.shape[1]


@dataclass(frozen=True)
class RankSymmetryVerdict:
    """Rank and kernel data of the length-n row operator R_n = [T_w]_{|w|=n}.

    ``rank_left`` is the rank of I - R_n R_n* on the small space,
    ``rank_right`` the rank of I - R_n* R_n on the d**n-fold copy;
    ``ker_dim`` and ``coker_dim`` are the kernel dimensions of R_n and
    R_n*.  ``equal_ranks`` and ``equal_kernels`` are derived from them
    on construction.  The two equalities stand or fall together, and
    construction enforces that biconditional.
    """

    n: int
    rank_left: int
    rank_right: int
    ker_dim: int
    coker_dim: int
    equal_ranks: bool = field(init=False)
    equal_kernels: bool = field(init=False)

    def __post_init__(self):
        _derive(self, equal_ranks=self.rank_left == self.rank_right,
                equal_kernels=self.ker_dim == self.coker_dim)
        if self.equal_ranks != self.equal_kernels:
            raise ConsistencyError(
                "rank symmetry broke: ranks "
                f"({self.rank_left}, {self.rank_right}), kernels "
                f"({self.ker_dim}, {self.coker_dim})"
            )


def rank_symmetry_check(T, n, tol=None):
    """Rank/kernel symmetry data for the length-n row operator.

    One singular value decomposition of the h x (d**n h) row yields all
    four quantities; the two Gram-difference spectra are read off the
    singular values instead of materializing the large matrix
    I - R_n* R_n, whose extra eigenvalues are exact ones.
    """
    _require_integer(n, "power index", 1)
    tol = DEFAULT_TOL if tol is None else tol
    cap = size_cap()
    count = _words_past_cap(T.d, n, cap)
    if count is not None:
        raise SizeCapError(
            f"rank symmetry check needs {count} words, cap is {cap}"
        )
    row = row_operator(tuple_power(T, n))
    h, cols = row.shape
    s = np.linalg.svd(row, compute_uv=False)
    rank_row = _count_above(s, tol)

    gram_gap = np.abs(1.0 - s * s)
    rank_left = _count_above(gram_gap, tol)
    # I - R*R carries the same gaps plus (cols - h) exact unit eigenvalues.
    right_spectrum = np.concatenate([gram_gap, np.ones(cols - h)])
    rank_right = _count_above(right_spectrum, tol)

    ker_dim = cols - rank_row
    coker_dim = h - rank_row
    return RankSymmetryVerdict(
        n=n,
        rank_left=rank_left,
        rank_right=rank_right,
        ker_dim=ker_dim,
        coker_dim=coker_dim,
    )


@dataclass(frozen=True)
class ProductBoundCheck:
    """Defect dimensions of B, C and BC with the two-sided bound flags.

    The product of an m-tuple B with any C obeys
    Delta_B <= Delta_BC <= Delta_B + m * Delta_C, for m the
    ``factor_count``; ``lower_ok`` and ``upper_ok`` are derived from the
    three dimensions on construction.
    """

    delta_b: int
    delta_c: int
    delta_bc: int
    factor_count: int
    lower_ok: bool = field(init=False)
    upper_ok: bool = field(init=False)

    def __post_init__(self):
        _derive(self, lower_ok=self.delta_b <= self.delta_bc,
                upper_ok=(self.delta_bc
                          <= self.delta_b + self.factor_count * self.delta_c))

    @property
    def ok(self):
        return self.lower_ok and self.upper_ok


def verify_product_bounds(b, c, tol=None):
    """Evaluate the product defect bounds for a concrete pair.

    Both tuples must be contractive on one common space; the product is
    then contractive automatically and its first defect dimension is
    squeezed between Delta_B and Delta_B + m * Delta_C where m is the
    length of B.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if b.h != c.h:
        raise ArgumentError(
            f"product bound check needs a common space, got {b.h} and {c.h}"
        )
    delta_b = defect_dimension(b, 1, tol)
    delta_c = defect_dimension(c, 1, tol)
    delta_bc = defect_dimension(tuple_product(b, c), 1, tol)
    return ProductBoundCheck(
        delta_b=delta_b,
        delta_c=delta_c,
        delta_bc=delta_bc,
        factor_count=b.d,
    )
