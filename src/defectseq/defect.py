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

One private loop, ``_ladder``, yields Delta_1, Delta_2, ... and ends the
sequence at its stabilization point.  ``defect_sequence`` and the
maximality verdicts of ``classify`` all read their values from it.  It
has two routes, chosen by the tuple's weighted-shift pattern:

* a weighted shift iterates X_n = cp^n(I), which stays diagonal, and
  ranks I - X_n: one O(nnz) cp step and one rank decision per value;
* any other tuple carries D_n itself.  The word-span description of the
  defect spaces is the identity D_{n+1} = D_1 + cp(D_n), so D_n, of rank
  Delta_n, is held as a thin signed factor G_n diag(+-1) G_n* and
  updated from the d products T_i G_n (low-rank Smith iteration).

Both count the eigenvalues of D_n above the one cutoff of
``numerical_rank``.  The ladder checks contractivity itself, so its
callers do not.  D_1 = I - cp(I) is built in one place,
``_first_defect``: the contractivity margin is its smallest eigenvalue,
and the factored route's first step is that same matrix, so a
``defect_sequence`` call on a dense tuple applies the cp map once and
reads the margin it keeps off the first step's eigenvalues.
``defect_operator`` builds a single D_n from
``cp_iterate``, apart from the ladder, so the verify suites and the
tests can check ladder values against the dense iterate.

``defect_space_via_words`` implements the word-span construction by
Krylov-style accumulation and exists as a cross-check for
``defect_space``; the two must agree on every contractive input and the
test suite holds them to it.  Defect quantities are never computed by
materializing the d**n-entry power tuple; only ``rank_symmetry_check``
builds the power, because its row operator is the object under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .config import size_cap
from .errors import ArgumentError, ConsistencyError, ContractivityError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    RankTolerance,
    Subspace,
    _count_above,
    _hermitian_eigvals,
    _require_integer,
    hermitize,
    numerical_rank,
    orthonormal_range,
)
from .tuples import apply_cp_map, cp_iterate, is_commuting, row_operator
from .tuples import tuple_power, tuple_product

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


def contractivity_margin(T):
    """Smallest eigenvalue of I - cp(I); nonnegative means contractive.

    Raises ArgumentError when I - cp(I) overflows, because no margin,
    and so no contractivity verdict, can be read from it.  The margin is
    computed once per tuple object and kept on it; an equal tuple built
    separately computes its own, and an error is raised afresh on every
    call.  The defect ladder of a tuple without the weighted-shift
    pattern keeps the same value, read off its own D_1.
    """
    return _kept_margin(T)


def _kept_margin(T):
    margin = vars(T).get("_contractivity_margin")
    if margin is None:
        margin = _contractivity_margin(T)
        # Stored the way functools.cached_property stores _shift_pattern.
        vars(T)["_contractivity_margin"] = margin
    return margin


def _contractivity_margin(T):
    return float(_first_defect(T)[1][0])


def _first_defect(T):
    # D_1 = I - cp(I), exactly Hermitian, and its ascending eigenvalues
    # as numerical_rank takes them: the one place D_1 is built, for the
    # contractivity margin and the first step of the factored ladder.
    with np.errstate(over="ignore", invalid="ignore"):
        d_1 = np.eye(T.h) - apply_cp_map(T, np.eye(T.h, dtype=T.dtype))
    if not np.isfinite(d_1).all():
        raise ArgumentError(
            "I - cp(I) is not finite; the tuple's entries are too large"
        )
    d_1 = hermitize(d_1)
    return d_1, _hermitian_eigvals(d_1)


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
    if d < 1:
        raise ArgumentError("need at least one operator")
    if n < 1:
        raise ArgumentError("bound index must be at least 1")
    return sum(d ** k for k in range(n)) * delta_1


def commuting_bound(d, n, delta_1):
    """Binomial growth bound available when the tuple commutes.

    Sum over k < n of C(k + d - 1, d - 1), times delta_1; this counts
    monomials of degree below n in d variables and is much smaller than
    the geometric bound once n grows.
    """
    if d < 1:
        raise ArgumentError("need at least one operator")
    if n < 1:
        raise ArgumentError("bound index must be at least 1")
    return sum(math.comb(k + d - 1, d - 1) for k in range(n)) * delta_1


def defect_operator(T, n, tol=None):
    """The n-th defect operator D_n = I - cp^n(I), exactly Hermitian.

    Requires an integer n >= 1 (numpy integers count, a bool or a float
    does not) and a contractive tuple; the iterate is computed by n
    applications of the cp map.
    """
    _require_integer(n, "defect index")
    if n < 1:
        raise ArgumentError("defect index must be at least 1")
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

    ``deltas`` holds the computed values Delta_1, Delta_2, ...; the
    sequence may be shorter than requested when it stabilized or hit the
    full dimension early.  ``stabilized_at`` is the first index n with
    Delta_n equal to Delta_{n+1} (reaching the full dimension h also
    stabilizes, since the sequence cannot move past h).  The bound
    tuples mirror ``deltas`` index for index; the commuting pair is None
    for noncommuting tuples.
    """

    d: int
    h: int
    deltas: tuple
    stabilized_at: int | None
    reached_full: bool
    bounds_noncomm: tuple
    bound_ok_noncomm: tuple
    bounds_comm: tuple | None
    bound_ok_comm: tuple | None
    tol: RankTolerance

    def __post_init__(self):
        n = len(self.deltas)
        if n < 1:
            raise ConsistencyError("defect report with no computed values")
        for a, b in zip(self.deltas, self.deltas[1:]):
            if b < a:
                raise ConsistencyError(
                    f"defect sequence decreased: {self.deltas}"
                )
        if any(delta > self.h for delta in self.deltas):
            raise ConsistencyError(
                f"defect dimension exceeds the space: {self.deltas} on h={self.h}"
            )
        if len(self.bounds_noncomm) != n or len(self.bound_ok_noncomm) != n:
            raise ConsistencyError("bound tuples must mirror the defect sequence")
        if (self.bounds_comm is None) != (self.bound_ok_comm is None):
            raise ConsistencyError("commuting bound tuples must come as a pair")
        if self.stabilized_at is not None:
            k = self.stabilized_at
            if not 1 <= k <= n:
                raise ConsistencyError("stabilization index outside the sequence")
            tail = self.deltas[k - 1:]
            if any(v != tail[0] for v in tail):
                raise ConsistencyError(
                    "values recorded past the stabilization point moved"
                )
        if self.reached_full and self.deltas[-1] != self.h:
            raise ConsistencyError("reached_full claimed without Delta = h")


def _ladder(T, tol):
    """Yield Delta_1, Delta_2, ... of a contractive tuple until they stabilize.

    The one loop that ends the sequence.  It ends after the first n with
    Delta_n = h (the space is full) or Delta_n = Delta_{n-1}; by the
    stabilization law every later value repeats the last one yielded.
    Until then the sequence rises by at least one per step, so it ends
    within h + 1 steps; that is also the cap, and a ladder that reaches
    the cap has decreased somewhere.  The values come from one of two
    routes, chosen by ``T._shift_pattern``: a weighted shift iterates
    the diagonal X_n = cp^n(I) (``_iterate_deltas``), any other tuple
    carries D_n as a signed factor (``_factored_deltas``).  Both count
    the eigenvalues of D_n with the rule of ``numerical_rank``.

    The ladder checks contractivity itself, before the first value, and
    raises ContractivityError as ``require_contractive`` does.  A
    weighted shift reads the margin kept on the tuple, or computes it
    once; the factored route reads it off the eigenvalues of its own
    D_1, the matrix the margin is taken from, and keeps it on the tuple.
    Commutation is never tested here.
    """
    if T._shift_pattern is not None:
        _require_margin(_kept_margin(T), tol)
        deltas = _iterate_deltas(T, tol)
    else:
        deltas = _factored_deltas(T, tol)
    previous = None
    for delta in islice(deltas, T.h + 1):
        yield delta
        if delta in (T.h, previous):
            return
        previous = delta


def _iterate_deltas(T, tol):
    # The ranks of I - X_n for X_n = cp^n(I), one cp step and one rank
    # decision each.  A weighted shift keeps X_n diagonal, so a step is
    # O(nnz) and the rank is read off the sorted diagonal.
    eye = np.eye(T.h)
    x = np.eye(T.h, dtype=T.dtype)
    while True:
        x = apply_cp_map(T, x)
        yield numerical_rank(hermitize(eye - x), tol)


def _factored_deltas(T, tol):
    # The ranks of D_n, carried as D_n = G_n J_n G_n* with J_n = diag(+-1)
    # through D_{n+1} = D_1 + cp(D_n) = M J M*, where
    # M = [G_1, T_1 G_n, ..., T_d G_n] and J = diag(J_1, J_n, ..., J_n).
    # The signature keeps the negative eigenvalues that a tuple accepted
    # within the contractivity slack gives D_n, so the ladder counts
    # what I - cp^n(I) holds.  Columns are dropped only at the rounding
    # floor h * eps of a matrix of norm about 1, never at the rank
    # cutoff: a defect below the cutoff still adds up over the steps.
    # A step's factor is built only when the generator is resumed after
    # the step's value, so the last step builds none.  A step holds
    # either the dense D_n (``d_n``) or D_n = Q (V diag(values) V*) Q*.
    floor = T.h * np.finfo(np.float64).eps
    d_n, values = _first_defect(T)
    margin = vars(T)["_contractivity_margin"] = float(values[0])
    _require_margin(margin, tol)
    g_1 = j_1 = None
    while True:
        yield _count_above(np.abs(values), tol)
        if d_n is not None:
            g, j = _signed_factor(*np.linalg.eigh(d_n), floor)
        else:
            g, j = _signed_factor(values, v, floor)
            g = q @ g
        if g_1 is None:
            g_1, j_1 = g, j
        # Let this step's arrays go before the next step's are built.
        d_n = values = q = v = None
        m = _defect_columns(T, g_1, g)
        signature = np.concatenate([j_1] + [j] * T.d)
        g = None
        if m.shape[1] >= T.h:
            # M is conjugated in place, so no copy of M* sits next to the
            # copy of M J.
            d_n = hermitize(np.matmul(m * signature,
                                      np.conjugate(m, out=m).T))
            values = _hermitian_eigvals(d_n)
        else:
            # M = QR, so D_{n+1} = Q (R J R*) Q*: its eigenvalues are
            # those of the small matrix R J R* and h - k zeros.
            q, r = np.linalg.qr(m)
            values, v = np.linalg.eigh(hermitize((r * signature) @ r.conj().T))
        m = r = None


def _signed_factor(w, v, floor):
    # (G, J) with v diag(w) v* = G diag(J) G*, up to the eigenvalues of
    # modulus at most ``floor``, which are dropped.
    keep = np.abs(w) > floor
    return v[:, keep] * np.sqrt(np.abs(w[keep])), np.sign(w[keep])


def _defect_columns(T, g_1, g):
    # M = [G_1, T_1 G, ..., T_d G] as one h x (r_1 + d r) array; the
    # batched product writes each block T_i G into its columns in place.
    h, r_1, r = T.h, g_1.shape[1], g.shape[1]
    m = np.empty((h, r_1 + T.d * r), dtype=T.dtype)
    m[:, :r_1] = g_1
    # Splitting the last axis of a slice is a view, so out= reaches m.
    np.matmul(T._stack, g,
              out=m[:, r_1:].reshape(h, T.d, r).transpose(1, 0, 2))
    return m


def defect_sequence(T, n_max, tol=None):
    """Compute Delta_1 .. Delta_{n_max} with early termination.

    Stops as soon as two consecutive values agree (the sequence is then
    constant forever) or the full dimension h is reached.  Bound flags
    compare each value against the geometric bound, and additionally
    against the binomial bound when the tuple commutes.  ``n_max`` must
    be an integer, as for ``defect_operator``.
    """
    _require_integer(n_max, "n_max")
    if n_max < 1:
        raise ArgumentError("n_max must be at least 1")
    tol = DEFAULT_TOL if tol is None else tol
    deltas = tuple(islice(_ladder(T, tol), n_max))
    n = len(deltas)
    reached_full = deltas[-1] == T.h
    stabilized_at = None
    if reached_full:
        stabilized_at = n
    elif n >= 2 and deltas[-1] == deltas[-2]:
        stabilized_at = n - 1

    def bound_columns(bound_fn):
        bounds = tuple(bound_fn(T.d, k, deltas[0]) for k in range(1, n + 1))
        return bounds, tuple(a <= b for a, b in zip(deltas, bounds))

    bounds_noncomm, bound_ok_noncomm = bound_columns(geometric_bound)
    bounds_comm = bound_ok_comm = None
    if is_commuting(T, tol):
        bounds_comm, bound_ok_comm = bound_columns(commuting_bound)
    return DefectReport(
        d=T.d,
        h=T.h,
        deltas=deltas,
        stabilized_at=stabilized_at,
        reached_full=reached_full,
        bounds_noncomm=bounds_noncomm,
        bound_ok_noncomm=bound_ok_noncomm,
        bounds_comm=bounds_comm,
        bound_ok_comm=bound_ok_comm,
        tol=tol,
    )


def defect_space_via_words(T, n, tol=None):
    """The n-th defect space built from word images of the first one.

    Accumulates span{ H_1, T_w H_1 : 1 <= |w| <= n - 1 } by breadth
    first sweeps: each round applies every T_i to the directions found
    in the previous round and keeps the components orthogonal to what is
    already present.  Applying the entries to the new directions only is
    enough, because images of the old directions were absorbed in an
    earlier round.  Independent of ``defect_space`` and must agree with
    it on every contractive tuple.
    """
    _require_integer(n, "defect index")
    if n < 1:
        raise ArgumentError("defect index must be at least 1")
    tol = DEFAULT_TOL if tol is None else tol
    first = defect_space(T, 1, tol)
    accumulated = first.basis
    frontier = first.basis
    for _ in range(n - 1):
        if frontier.shape[1] == 0 or accumulated.shape[1] == T.h:
            break
        images = np.hstack([op @ frontier for op in T.ops])
        # Project out the accumulated span twice; the second pass clears
        # the rounding left by the first when columns are nearly inside.
        for _pass in range(2):
            images = images - accumulated @ (accumulated.conj().T @ images)
        fresh = orthonormal_range(images, tol) if images.size else None
        if fresh is None or fresh.dim == 0:
            break
        accumulated = np.hstack([accumulated, fresh.basis])
        frontier = fresh.basis
    return Subspace(T.h, accumulated, tol)


def word_image_dimension(T, n, tol=None):
    """Dimension of span{ T_w H_1 : |w| = n } for the first defect space H_1.

    Computed by n successive image-and-span rounds, so the d**n words
    are never enumerated.  Returns 0 when the images die out (for
    instance once a nilpotent tuple runs past its index).
    """
    _require_integer(n, "word length")
    if n < 1:
        raise ArgumentError("word length must be at least 1")
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
    R_n*.  The two equalities stand or fall together, and construction
    enforces that biconditional.
    """

    n: int
    rank_left: int
    rank_right: int
    ker_dim: int
    coker_dim: int
    equal_ranks: bool
    equal_kernels: bool

    def __post_init__(self):
        if self.equal_ranks != (self.rank_left == self.rank_right):
            raise ConsistencyError("equal_ranks flag contradicts the ranks")
        if self.equal_kernels != (self.ker_dim == self.coker_dim):
            raise ConsistencyError("equal_kernels flag contradicts the kernels")
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
    _require_integer(n, "power index")
    if n < 1:
        raise ArgumentError("power index must be at least 1")
    tol = DEFAULT_TOL if tol is None else tol
    cap = size_cap()
    if T.d ** n > cap:
        raise SizeCapError(
            f"rank symmetry check needs {T.d ** n} words, cap is {cap}"
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
        equal_ranks=rank_left == rank_right,
        equal_kernels=ker_dim == coker_dim,
    )


@dataclass(frozen=True)
class ProductBoundCheck:
    """Defect dimensions of B, C and BC with the two-sided bound flags.

    The product of an m-tuple B with any C obeys
    Delta_B <= Delta_BC <= Delta_B + m * Delta_C.
    """

    delta_b: int
    delta_c: int
    delta_bc: int
    factor_count: int
    lower_ok: bool
    upper_ok: bool

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
        lower_ok=delta_b <= delta_bc,
        upper_ok=delta_bc <= delta_b + b.d * delta_c,
    )
