"""Operator tuples and the completely positive map they generate.

An operator tuple is a finite sequence T = (T_1, ..., T_d) of h x h
complex matrices acting on C^h.  A tuple whose entries all have
imaginary part +0.0 is stored as float64 matrices, any other as
complex128; the storage type is ``T.dtype``, and the cp map, its
iterates and word products of a real tuple stay real.  The attached
completely positive map is

    cp(X) = T_1 X T_1* + ... + T_d X T_d*,

and its iterates at the identity drive the defect machinery.  Words over
the alphabet {1, ..., d} label operator products: the word (w_1, ..., w_n)
names T_w1 T_w2 ... T_wn.  The product of an m-tuple B with a k-tuple C
is the mk-tuple of all pairwise products B_i C_j, enumerated with the
first factor's index moving slowest, and the n-th power of a d-tuple
enumerates all d**n words of length n in that same lexicographic order.
The internal ordering is a storage convention, not a mathematical
choice; every quantity derived from these tuples is invariant under
permuting the entries.

The entries are stored once, as one read-only C-contiguous (d, h, h)
array; ``T.ops`` holds its slices, as views.  The dense cp step is two
batched matmuls over that stack and the stack of the adjoints, which
is a transposed view of the entries for float64 and one conjugate copy
for complex128, built on first use.  Numpy makes the same gemm call for
each slice as for the product op @ x @ op.conj().T, and the terms are
summed from +0.0 in tuple order, so the step is that sum of per-entry
products bit for bit.

A float64 tuple in which every row and every column of every entry
holds at most one nonzero (a partial permutation with weights, such as
the Fock creation tuple and the symmetric shift) maps diagonal matrices
to diagonal matrices.  The cp step then computes a diagonal argument's
image from the nonzeros alone, O(nnz) in place of d dense matrix
products, with the rounding of the dense route: the one nonzero term
of each product entry is w * x * w, summed over the entries in tuple
order.  The pattern is found once per tuple, on first use, by testing
for exact zeros, so an entry of 1e-300 counts as a nonzero.  Complex
tuples always take the dense route, because the rounding order of
complex matrix products is not fixed.

``apply_cp_map`` validates its argument and then runs the private step
``_cp_step``.  A loop that feeds the step its own output may call
``_cp_step`` directly, because each output is exactly Hermitian with
the argument's shape and storage type; such a loop keeps the one check
an output can still fail, finiteness.  ``cp_iterate`` and the purity
loop of ``classify`` do so; the purity loop also passes ``out``, a slot
of its block of iterates.  The contractivity margin and the defect
ladder (``defect._ladder``) keep the public name.  Both take
D_1 = I - cp(I) from ``defect._first_defect``, one application of the
map to the identity.  The ladder of a tuple without the weighted-shift
pattern starts from that D_1 and keeps the margin it reads off it, so
it applies the map once in all; its later steps multiply a thin factor
of D_n by the entries themselves, not by the cp map.  The ladder of a
weighted shift makes one call per step.

``is_commuting`` builds the commutators of a tuple with the shift
pattern from its nonzeros: each entry of T_i T_j has at most one nonzero
term, w * w', the one the dense product adds to zeros.  The norm bounds
read those nonzeros; a commutator becomes an h x h array only for the
spectral norm, when the bounds cannot settle it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import size_cap
from .errors import ArgumentError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    _BOUND_SLACK,
    _as_matrix,
    _require_integer,
    readonly_copy,
    require_hermitian,
    Subspace,
)

__all__ = [
    "OperatorTuple",
    "apply_cp_map",
    "compress",
    "cp_iterate",
    "direct_sum",
    "is_commuting",
    "row_operator",
    "tuple_power",
    "tuple_product",
    "validate_word",
    "word_apply",
    "word_index",
    "words_of_length",
]


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """An immutable tuple of square matrices on a common space.

    Parameters
    ----------
    ops : sequence of array_like
        The matrices T_1, ..., T_d; each must be square, of one common
        dimension, with finite entries.
    label : str
        Free-form description used in reports and file metadata.

    The entries are stored as float64 when the imaginary part of every
    entry is +0.0 bit for bit (real input counts), and as complex128
    otherwise; a -0.0 imaginary part keeps the tuple complex, so the
    tuple file written from it is unchanged.  Each entry is converted
    and checked on its own, a bool, integer or float one to float64 and
    any other to complex128, so real input takes no round through
    complex128; a float64 entry of a complex tuple is promoted in the
    stack copy.  The entries are copied once into one read-only
    C-contiguous (d, h, h) array, and ``ops`` holds its slices, the
    read-only h x h views that the cp step, the commutant count and the
    tuple file all read.
    """

    ops: tuple = field()
    label: str = ""

    def __post_init__(self):
        mats = [_as_matrix(op, f"operator {i + 1}")
                for i, op in enumerate(self.ops)]
        if len(mats) < 1:
            raise ArgumentError("an operator tuple needs at least one entry")
        h = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (h, h):
                raise ArgumentError(
                    f"operator {i + 1} has shape {m.shape}, expected ({h}, {h})"
                )
        real = all(m.dtype == np.float64 or _imag_is_plus_zero(m)
                   for m in mats)
        if real:
            mats = [m.real for m in mats]
        stack = readonly_copy(mats, np.float64 if real else np.complex128)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "ops", tuple(stack))

    @property
    def d(self):
        """Number of entries in the tuple."""
        return self._stack.shape[0]

    @property
    def dtype(self):
        """Storage type of the entries: float64 or complex128."""
        return self._stack.dtype

    @property
    def h(self):
        """Dimension of the space the tuple acts on."""
        return self._stack.shape[1]

    @functools.cached_property
    def _shift_pattern(self):
        # (rows, cols, weights) of the nonzeros of all entries, entry by
        # entry in tuple order, when the tuple is float64 and no row or
        # column of any entry holds two exact nonzeros; None otherwise.
        # Computed on first use.
        if self.dtype != np.float64:
            return None
        rows, cols, weights = [], [], []
        for op in self.ops:
            if np.count_nonzero(op) > self.h:
                return None
            r, c = np.nonzero(op)
            # np.nonzero lists rows in ascending order.
            if (np.diff(r) == 0).any() or (np.diff(np.sort(c)) == 0).any():
                return None
            rows.append(r)
            cols.append(c)
            weights.append(op[r, c])
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)

    @functools.cached_property
    def _adjoint_stack(self):
        # T_i* for the dense cp step, built on first use: a transposed
        # view of the stack for float64 (no memory held), and a
        # transposed view of one read-only conjugate copy for complex128.
        # Each slice has the layout of op.conj().T, so the products are
        # the same arrays.
        if self.dtype == np.float64:
            return self._stack.transpose(0, 2, 1)
        conj = self._stack.conj()
        conj.setflags(write=False)
        return conj.transpose(0, 2, 1)

    def op(self, letter):
        """The entry for a 1-based letter, matching word notation."""
        if not 1 <= letter <= self.d:
            raise ArgumentError(f"letter {letter} outside 1..{self.d}")
        return self.ops[letter - 1]

    def relabel(self, label):
        return OperatorTuple(self.ops, label)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"OperatorTuple(d={self.d}, h={self.h}{tag})"


def _imag_is_plus_zero(m):
    # Bitwise test, so a -0.0 imaginary part counts as nonzero.
    return not m.imag.view(np.uint64).any()


def validate_word(word, d):
    """Normalize a word to a tuple of 1-based letters in range."""
    w = tuple(int(c) for c in word)
    for c in w:
        if not 1 <= c <= d:
            raise ArgumentError(f"word letter {c} outside 1..{d}")
    return w


def words_of_length(d, n):
    """All words of length n over {1, ..., d}, lexicographically."""
    _require_integer(n, "word length")
    if n < 0:
        raise ArgumentError("word length must be nonnegative")
    return itertools.product(range(1, d + 1), repeat=n)


def word_index(word, d):
    """Position of a word in the lexicographic enumeration of its length."""
    w = validate_word(word, d)
    idx = 0
    for c in w:
        idx = idx * d + (c - 1)
    return idx


def word_apply(T, word):
    """The operator product named by a word.

    The empty word gives the identity; (w_1, ..., w_n) gives
    T_w1 @ T_w2 @ ... @ T_wn with letters applied left to right in
    matrix order.
    """
    w = validate_word(word, T.d)
    out = np.eye(T.h, dtype=T.dtype)
    for c in w:
        out = out @ T.ops[c - 1]
    return out


def apply_cp_map(T, x):
    """One application of the completely positive map of ``T``.

    ``x`` must be Hermitian of matching dimension; the result is the sum
    of T_i x T_i*, re-symmetrized so roundoff cannot break Hermitian
    structure.  Positivity and the unit interval are preserved for
    contractive tuples: 0 <= x <= I implies 0 <= cp(x) <= I up to
    rounding.  The result is float64 when ``T`` and ``x`` are both real
    and complex128 otherwise.

    A float64 tuple whose entries are weighted partial permutations maps
    a float64 diagonal ``x`` to a diagonal without matrix products; the
    result is the same array, bit for bit.

    This is the validation of ``x`` followed by the private step
    ``_cp_step``, the one cp step of the package: two batched matmuls
    over the stored entries and their adjoints, or the diagonal route
    above.  Only loops that feed the step its own output call
    ``_cp_step`` directly (``cp_iterate`` and the purity loop of
    ``classify``): every output is exactly Hermitian, of the argument's
    shape and storage type, so re-validating it could only fail on
    non-finite entries, and those loops check finiteness themselves.
    D_1 = I - cp(I) calls this function once; for a dense tuple the
    contractivity margin and the first step of the defect ladder read
    that one D_1, so the ladder calls it once in all.  The ladder of a
    weighted shift calls it once more per step, where the O(h**2)
    validation is small against the step.
    """
    x = require_hermitian(x, "cp-map argument")
    if x.shape[0] != T.h:
        raise ArgumentError(
            f"cp-map argument has dimension {x.shape[0]}, tuple acts on {T.h}"
        )
    return _cp_step(T, x)


def _cp_step(T, x, out=None):
    # apply_cp_map without the checks: ``x`` is a float64 or complex128
    # Hermitian matrix of dimension T.h.  The result is written into
    # ``out``, an h x h array of the result's type that does not overlap
    # ``x``, allocated when None, and ``out`` is returned.
    pattern = T._shift_pattern
    if pattern is not None and x.dtype == np.float64:
        diag = x.diagonal()
        if np.count_nonzero(x) == np.count_nonzero(diag):
            rows, cols, weights = pattern
            # bincount adds the terms into each row from 0.0 in index
            # order, which is tuple order, as the dense accumulator does.
            v = np.bincount(rows, (weights * diag[cols]) * weights, T.h)
            # A non-finite term leaves NaN off the diagonal of the dense
            # products, so that case goes the dense way.
            if np.isfinite(v).all():
                # The diagonal of hermitize(diag(v)), overflow included.
                if out is None:
                    return np.diag((v + v) / 2.0)
                out[...] = 0.0
                np.fill_diagonal(out, (v + v) / 2.0)
                return out
    # Batched matmul makes the same gemm call for each slice as
    # op @ x @ op.conj().T does.  The terms are summed from +0.0 in
    # tuple order: 0.0 + t and t + 0.0 are the same bits, so the first
    # term takes the zero in place.
    terms = np.matmul(np.matmul(T._stack, x), T._adjoint_stack)
    acc = terms[0]
    acc += 0.0
    for term in terms[1:]:
        acc += term
    # Allocated only now, so it is not held next to the two stacks of
    # products.
    if out is None:
        out = np.empty_like(acc)
    # hermitize(acc), in its operand order, so a NaN keeps its sign bit.
    np.conjugate(acc.T, out=out)
    np.add(acc, out, out=out)
    out /= 2.0
    return out


def cp_iterate(T, n):
    """The n-th iterate of the cp map at the identity; n = 0 gives I.

    Each step re-symmetrizes, so the result is Hermitian exactly.  For a
    row contraction the sequence is decreasing in the positive
    semidefinite order.  An iterate with non-finite entries is returned
    as it is, but raises ArgumentError when another step would take it
    as its argument, as ``apply_cp_map`` does.  ``n`` must be an
    integer (numpy integers count, a bool or a float does not).
    """
    _require_integer(n, "iteration count")
    if n < 0:
        raise ArgumentError("iteration count must be nonnegative")
    x = np.eye(T.h, dtype=T.dtype)
    for k in range(n):
        if k and not np.isfinite(x).all():
            raise ArgumentError("cp-map argument contains non-finite entries")
        x = _cp_step(T, x)
    return x


def tuple_product(b, c):
    """All pairwise products of an m-tuple and a k-tuple on one space.

    Entry (i - 1) * k + (j - 1) of the result, counting from zero, is
    B_i @ C_j; the first factor's index moves slowest.  The cp map of
    the product is the composition: cp_BC(X) = cp_B(cp_C(X)).
    """
    if b.h != c.h:
        raise ArgumentError(
            f"tuple product needs a common space, got dimensions {b.h} and {c.h}"
        )
    ops = tuple(bi @ cj for bi in b.ops for cj in c.ops)
    label = ""
    if b.label or c.label:
        label = f"({b.label or '?'})*({c.label or '?'})"
    return OperatorTuple(ops, label)


def tuple_power(T, n):
    """The d**n-tuple of all length-n products of entries of ``T``.

    Entries follow the lexicographic word order, so the entry at
    ``word_index(w, d)`` equals ``word_apply(T, w)``.  Refuses to
    materialize more than the configured size cap allows.
    """
    _require_integer(n, "tuple power exponent")
    if n < 1:
        raise ArgumentError("tuple power needs n >= 1")
    count = T.d ** n
    cap = size_cap()
    if count > cap:
        raise SizeCapError(
            f"tuple power would hold {count} matrices, cap is {cap} "
            f"(set DEFECTSEQ_SIZE_CAP to raise it)"
        )
    power = T
    for _ in range(n - 1):
        power = tuple_product(T, power)
    label = f"({T.label})^{n}" if T.label else ""
    return OperatorTuple(power.ops, label)


def row_operator(T):
    """The 1 x d block row [T_1 ... T_d] as an h x (d*h) matrix.

    Its product with its own adjoint reproduces the cp map at the
    identity: row @ row* == apply_cp_map(T, I) exactly.
    """
    return np.hstack(T.ops)


def _block_diag(x, y):
    rows = x.shape[0] + y.shape[0]
    cols = x.shape[1] + y.shape[1]
    out = np.zeros((rows, cols), dtype=np.complex128)
    out[: x.shape[0], : x.shape[1]] = x
    out[x.shape[0]:, x.shape[1]:] = y
    return out


def direct_sum(a, b):
    """Entrywise block-diagonal sum of two tuples with equal length.

    The cp map splits across the summands, so every defect quantity of
    the sum decomposes block by block.
    """
    if a.d != b.d:
        raise ArgumentError(
            f"direct sum needs equal tuple lengths, got {a.d} and {b.d}"
        )
    ops = tuple(_block_diag(x, y) for x, y in zip(a.ops, b.ops))
    label = ""
    if a.label or b.label:
        label = f"({a.label or '?'})(+)({b.label or '?'})"
    return OperatorTuple(ops, label)


def compress(T, m):
    """The compression (P_M T_i |_M) expressed in the basis of ``m``.

    For a co-invariant subspace (each T_i* maps M into M) the adjoint of
    the compression is the restriction of the adjoint, and compressions
    of contractive tuples stay contractive within rounding.  ``m`` must
    be a nonzero Subspace of the tuple's space.
    """
    if not isinstance(m, Subspace):
        raise ArgumentError("compress expects a Subspace")
    if m.ambient_dim != T.h:
        raise ArgumentError(
            f"subspace lives in dimension {m.ambient_dim}, tuple acts on {T.h}"
        )
    if m.dim == 0:
        raise ArgumentError("cannot compress to the zero subspace")
    basis = m.basis
    ops = tuple(basis.conj().T @ op @ basis for op in T.ops)
    label = f"{T.label}|compressed[{m.dim}]" if T.label else ""
    return OperatorTuple(ops, label)


def is_commuting(T, tol=None):
    """Whether all entries commute pairwise.

    The bound scales with the square of the largest entry norm:
    every commutator must satisfy
    ``||T_i T_j - T_j T_i|| <= rtol * (1 + max_i ||T_i||^2)``.
    A 1-tuple commutes trivially.

    Spectral norms are taken only when the bounds
    max column norm <= ||A||_2 <= ||A||_F, widened by a fixed relative
    slack, cannot settle a commutator; the verdict is the one the
    spectral norms give.  A float64 tuple of weighted partial
    permutations gets its commutators as at most 2h entries each, with
    the values of the dense products, and takes both bounds from those;
    a commutator is formed as an h x h array only for a spectral norm.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if T.d == 1:
        return True
    if T._shift_pattern is not None:
        comms = _shift_commutators(T)
        frobs = [float(np.linalg.norm(values)) for _, values in comms]

        def column_max(comm):
            cols, values = comm
            return float(np.sqrt(np.max(
                np.bincount(cols, values * values, T.h))))

        def dense(comm):
            return _dense_commutator(T.h, comm)
    else:
        comms = [T.ops[i] @ T.ops[j] - T.ops[j] @ T.ops[i]
                 for i in range(T.d) for j in range(i + 1, T.d)]
        frobs = [float(np.linalg.norm(comm)) for comm in comms]
        column_max = _max_column_norm

        def dense(comm):
            return comm
    # An overflowing commutator keeps the exact route and what it gives.
    if np.isfinite(frobs).all():
        col_max = max(_max_column_norm(op) for op in T.ops)
        frob_max = max(float(np.linalg.norm(op)) for op in T.ops)
        below = 1.0 - _BOUND_SLACK
        above = 1.0 + _BOUND_SLACK
        # The exact bound lies between these two.
        bound_low = tol.rtol * (1.0 + col_max * col_max) * below
        bound_high = tol.rtol * (1.0 + frob_max * frob_max) * above
        if any(column_max(comm) * below > bound_high for comm in comms):
            return False
        comms = [comm for comm, frob in zip(comms, frobs)
                 if frob * above > bound_low]
        if not comms:
            return True
    max_norm = max(float(np.linalg.norm(op, 2)) for op in T.ops)
    bound = tol.rtol * (1.0 + max_norm * max_norm)
    return all(float(np.linalg.norm(dense(comm), 2)) <= bound
               for comm in comms)


def _shift_commutators(T):
    # The commutators T_i T_j - T_j T_i, i < j, of a tuple with a
    # ``_shift_pattern``, each as (cols, values) of 2h entries, entry k
    # in row k % h.  Row r of T_i holds at most one nonzero w, in column
    # c, so row r of T_i T_j holds at most w * w', with w' the nonzero of
    # row c of T_j: the one nonzero term of the dense sum.  A commutator
    # row so holds a and -b, or a - b where the two meet.  An empty row
    # is read as column 0 and value 0.0, so a missing product is an
    # entry 0.0 and the entries add up to the dense difference, up to
    # the sign of zeros, which no norm sees.  O(d**2 h) in place of
    # O(d**2 h**3).
    d, h = T.d, T.h
    rows, cols, weights = T._shift_pattern
    entry = np.repeat(np.arange(d), np.count_nonzero(T._stack, axis=(1, 2)))
    col = np.zeros((d, h), dtype=np.intp)
    val = np.zeros((d, h))
    col[entry, rows] = cols
    val[entry, rows] = weights

    def product(i, j):
        # Column and value of the entry of each row of T_i T_j.
        mid = col[i]
        return col[j][mid], val[i] * val[j][mid]

    def commutator(i, j):
        ca, a = product(i, j)
        cb, b = product(j, i)
        meet = ca == cb
        return (np.concatenate([ca, cb]),
                np.concatenate([a - np.where(meet, b, 0.0),
                                np.where(meet, 0.0, -b)]))

    # Silent on overflow, as the dense products are.
    with np.errstate(over="ignore"):
        return [commutator(i, j)
                for i in range(d) for j in range(i + 1, d)]


def _dense_commutator(h, comm):
    # The h x h array of one commutator of ``_shift_commutators``.
    cols, values = comm
    out = np.zeros((h, h))
    np.add.at(out, (np.arange(2 * h) % h, cols), values)
    return out


def _max_column_norm(a):
    return float(np.max(np.linalg.norm(a, axis=0)))
