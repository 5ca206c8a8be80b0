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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import size_cap
from .errors import ArgumentError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    as_operator_matrix,
    hermitize,
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

    The entries are stored as read-only float64 matrices when the
    imaginary part of every entry is +0.0 bit for bit (real input
    counts), and as complex128 otherwise; a -0.0 imaginary part keeps
    the tuple complex, so the tuple file written from it is unchanged.
    """

    ops: tuple = field()
    label: str = ""

    def __post_init__(self):
        mats = tuple(as_operator_matrix(op, f"operator {i + 1}")
                     for i, op in enumerate(self.ops))
        if len(mats) < 1:
            raise ArgumentError("an operator tuple needs at least one entry")
        h = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (h, h):
                raise ArgumentError(
                    f"operator {i + 1} has shape {m.shape}, expected ({h}, {h})"
                )
        if all(_imag_is_plus_zero(m) for m in mats):
            mats = tuple(m.real for m in mats)
        object.__setattr__(self, "ops", tuple(
            readonly_copy(m, mats[0].dtype) for m in mats))

    @property
    def d(self):
        """Number of entries in the tuple."""
        return len(self.ops)

    @property
    def dtype(self):
        """Storage type of the entries: float64 or complex128."""
        return self.ops[0].dtype

    @property
    def h(self):
        """Dimension of the space the tuple acts on."""
        return self.ops[0].shape[0]

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
    """
    x = require_hermitian(x, "cp-map argument")
    if x.shape[0] != T.h:
        raise ArgumentError(
            f"cp-map argument has dimension {x.shape[0]}, tuple acts on {T.h}"
        )
    acc = np.zeros((T.h, T.h), dtype=np.promote_types(T.dtype, x.dtype))
    for op in T.ops:
        acc += op @ x @ op.conj().T
    return hermitize(acc)


def cp_iterate(T, n):
    """The n-th iterate of the cp map at the identity; n = 0 gives I.

    Each step re-symmetrizes, so the result is Hermitian exactly.  For a
    row contraction the sequence is decreasing in the positive
    semidefinite order.
    """
    if n < 0:
        raise ArgumentError("iteration count must be nonnegative")
    x = np.eye(T.h, dtype=T.dtype)
    for _ in range(n):
        x = apply_cp_map(T, x)
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


def commutator_norms(T):
    """Spectral norms of all pairwise commutators T_i T_j - T_j T_i."""
    norms = []
    for i in range(T.d):
        for j in range(i + 1, T.d):
            comm = T.ops[i] @ T.ops[j] - T.ops[j] @ T.ops[i]
            norms.append(float(np.linalg.norm(comm, 2)))
    return norms


def is_commuting(T, tol=None):
    """Whether all entries commute pairwise.

    The bound scales with the square of the largest entry norm:
    every commutator must satisfy
    ``||T_i T_j - T_j T_i|| <= rtol * (1 + max_i ||T_i||^2)``.
    A 1-tuple commutes trivially.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if T.d == 1:
        return True
    max_norm = max(float(np.linalg.norm(op, 2)) for op in T.ops)
    bound = tol.rtol * (1.0 + max_norm * max_norm)
    return all(n <= bound for n in commutator_norms(T))
