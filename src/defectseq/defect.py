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

One private loop, ``_ladder``, iterates X_n = cp^n(I), ranks I - X_n and
ends the sequence at its stabilization point.  ``defect_sequence`` and
the maximality verdicts of ``classify`` all read their values from it;
``defect_operator`` builds a single D_n from ``cp_iterate``, apart from
the ladder, so the verify suites can check ladder values against it.

``defect_space_via_words`` implements the word-span construction by
Krylov-style accumulation and exists as a cross-check for
``defect_space``; the two must agree on every contractive input and the
test suite holds them to it.  Defect quantities are always computed by
iterating the cp map (d matrix products per step), never by
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
    and so no contractivity verdict, can be read from it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = np.eye(T.h) - apply_cp_map(T, np.eye(T.h, dtype=T.dtype))
    if not np.isfinite(d1).all():
        raise ArgumentError(
            "I - cp(I) is not finite; the tuple's entries are too large"
        )
    return float(np.linalg.eigvalsh(hermitize(d1))[0])


def _margin_is_contractive(margin, tol):
    return margin >= -CONTRACTIVITY_SLACK * tol.rtol


def is_contractive(T, tol=None):
    """Whether ``T`` is a row contraction within tolerance."""
    tol = DEFAULT_TOL if tol is None else tol
    return _margin_is_contractive(contractivity_margin(T), tol)


def require_contractive(T, tol=None):
    """Raise ContractivityError unless ``T`` passes ``is_contractive``."""
    tol = DEFAULT_TOL if tol is None else tol
    margin = contractivity_margin(T)
    if not _margin_is_contractive(margin, tol):
        raise ContractivityError(
            f"not a row contraction: I - cp(I) has eigenvalue {margin:.3e}"
        )


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

    Requires n >= 1 and a contractive tuple; the iterate is computed by
    n applications of the cp map.
    """
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

    The one loop that iterates X_n = cp^n(I) and ranks I - X_n.  It ends
    after the first n with Delta_n = h (the space is full) or
    Delta_n = Delta_{n-1}; by the stabilization law every later value
    repeats the last one yielded.  Until then the sequence rises by at
    least one per step, so it ends within h + 1 steps; that is also the
    cap, and a ladder that reaches the cap has decreased somewhere.
    Callers check contractivity first; commutation is never tested here.
    """
    eye = np.eye(T.h)
    x = np.eye(T.h, dtype=T.dtype)
    previous = None
    for _ in range(T.h + 1):
        x = apply_cp_map(T, x)
        delta = numerical_rank(hermitize(eye - x), tol)
        yield delta
        if delta in (T.h, previous):
            return
        previous = delta


def defect_sequence(T, n_max, tol=None):
    """Compute Delta_1 .. Delta_{n_max} with early termination.

    Stops as soon as two consecutive values agree (the sequence is then
    constant forever) or the full dimension h is reached.  Bound flags
    compare each value against the geometric bound, and additionally
    against the binomial bound when the tuple commutes.
    """
    if n_max < 1:
        raise ArgumentError("n_max must be at least 1")
    tol = DEFAULT_TOL if tol is None else tol
    require_contractive(T, tol)
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


def _count_above(values, tol):
    if values.size == 0:
        return 0
    cutoff = tol.cutoff(float(np.max(values)))
    return int(np.count_nonzero(values > cutoff))


def rank_symmetry_check(T, n, tol=None):
    """Rank/kernel symmetry data for the length-n row operator.

    One singular value decomposition of the h x (d**n h) row yields all
    four quantities; the two Gram-difference spectra are read off the
    singular values instead of materializing the large matrix
    I - R_n* R_n, whose extra eigenvalues are exact ones.
    """
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
