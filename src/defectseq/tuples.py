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
to diagonal matrices.  ``apply_cp_map`` then computes a diagonal
argument's image from the nonzeros alone, O(nnz) in place of d dense
matrix products, with the rounding of the dense route: the one nonzero
term of each product entry is w * x * w, summed over the entries in
tuple order.  The pattern is found once per tuple, on first use, from the
bool array of exact nonzeros, so an entry of 1e-300 or NaN counts as a
nonzero and -0.0 does not.  Complex tuples always take the dense
route, because the rounding order of complex matrix products is not
fixed.  Whether the argument is diagonal is decided by
``linalg._real_diagonal``, one scan of it, which is also all the
validation ``apply_cp_map`` gives a diagonal argument; a step of a
weighted shift so reads its h x h argument once and writes its h x h
result once.  The identity, the argument of cp(I), is not multiplied
at all on a dense tuple: ``apply_cp_map`` computes sum_i T_i T_i*, the
same bits as the dense route's products by I.

``apply_cp_map`` validates its argument and then runs the diagonal
route on the diagonal its test found, without testing again, or the
dense step ``_dense_step``.  A loop that feeds the step its own output
may skip the validation, because each output is exactly Hermitian with
the argument's shape and storage type; such a loop keeps the one check
an output can still fail, finiteness.  ``cp_iterate`` and the purity
loop of ``classify`` do so, and bind the one dense step,
``_dense_stepper``, once per run for every tuple; the purity loop also
passes ``out``, a slot of its block of iterates.  Bound once, it
allocates both product stacks and the views of the terms, and each call
makes only the two matmuls into them, the in-place sum and the
re-symmetrization, with no type or shape test.  Those are the
operations, in their order, of a fresh ``_dense_step`` call, which
binds it for that call alone, so a loop's iterates have the bits of
fresh calls, signed zeros and NaN signs included.  On a weighted shift
they are also the diagonal route's arrays, so the defect ladder is the
one loop that takes that route.

The contractivity margin and the defect ladder (its one entry,
``defect._margin_and_deltas``) keep the public name.  Both take
D_1 = I - cp(I) from ``defect._first_defect``, one application of the
map to the identity, which keeps the margin on the tuple.  The ladder of
a tuple without the weighted-shift pattern starts from that D_1, so it
applies the map once in all; its later steps multiply a thin factor of
D_n by the entries themselves, not by the cp map.  The ladder of a
weighted shift makes one call per step.

``is_commuting`` takes one route for every tuple, weighted shifts
included: a one-vector probe, then norm bounds on the entry
commutators, then spectral norms where the bounds cannot settle one.
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
    _hermitian,
    _require_integer,
    readonly_copy,
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
        return _partial_permutation(self._stack)

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


def _partial_permutation(stack):
    # The (rows, cols, weights) of ``_shift_pattern`` for a float64
    # (d, h, h) stack, in the order of its nonzeros: entry, then row.
    # A nonzero is an entry other than +-0.0, so NaN and 1e-300 count.
    # They are counted and located on the bool array stack != 0, which
    # numpy scans in bulk; on the float entries it tests them one by one.
    d, h, _ = stack.shape
    nonzero = stack != 0
    if np.count_nonzero(nonzero) > d * h:
        return None
    flat = np.flatnonzero(nonzero)
    # entry * h + row, ascending, and the column of each nonzero.
    line, cols = np.divmod(flat, h)
    if (np.diff(line) == 0).any():
        return None
    if (np.diff(np.sort(line - line % h + cols)) == 0).any():
        return None
    return line % h, cols, stack.reshape(-1)[flat]


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
    _require_integer(n, "word length", 0)
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

    A diagonal ``x`` (off-diagonal entries zero, diagonal real and
    finite) is validated by one scan, ``linalg._real_diagonal``, in
    place of the finiteness and adjoint tests.  A float64 tuple whose
    entries are weighted partial permutations then maps a float64
    diagonal ``x`` to a diagonal from its diagonal alone, O(nnz) after
    that scan, and any other tuple maps the identity of its own storage
    type to sum_i T_i T_i* without the products by I.  Both results are
    the arrays of the dense route, bit for bit.

    Otherwise this is the validation of ``x`` followed by the private
    dense step ``_dense_step``, the one dense cp step of the package:
    two batched matmuls over the stored entries and their adjoints.
    Only loops that feed the step its own output skip this function,
    and bind the dense step once with ``_dense_stepper``
    (``cp_iterate`` and the purity loop of ``classify``): every output
    is exactly Hermitian, of the argument's shape and storage type, so
    re-validating it could only fail on non-finite entries, and those
    loops check finiteness themselves.
    D_1 = I - cp(I) calls this function once; for a dense tuple the
    contractivity margin and the first step of the defect ladder read
    that one D_1, so the ladder calls it once in all.  The ladder of a
    weighted shift calls it once more per step, and each such call
    scans its h x h argument once and writes one h x h result; the
    ladder has scanned that argument once before, to build I - X_n.
    """
    x, diag = _hermitian(x, "cp-map argument")
    if x.shape[0] != T.h:
        raise ArgumentError(
            f"cp-map argument has dimension {x.shape[0]}, tuple acts on {T.h}"
        )
    if diag is not None:
        if T._shift_pattern is not None and x.dtype == np.float64:
            y = _diagonal_step(T, diag)
            if y is not None:
                return y
        elif x.dtype == T.dtype and (diag == 1.0).all():
            return _dense_step(T, None)
    return _dense_step(T, x)


def _diagonal_step(T, diag):
    # The cp step of a tuple with the shift pattern at diag(``diag``),
    # or None when a term is not finite.
    rows, cols, weights = T._shift_pattern
    # bincount adds the terms into each row from 0.0 in index order,
    # which is tuple order, as the dense accumulator does.
    v = np.bincount(rows, (weights * diag[cols]) * weights, T.h)
    # A non-finite term leaves NaN off the diagonal of the dense
    # products, so that case goes the dense way.
    if not np.isfinite(v).all():
        return None
    # The diagonal of hermitize(diag(v)), overflow included.
    return np.diag((v + v) / 2.0)


def _dense_step(T, x):
    # The dense route of one call: hermitize(sum_i T_i x T_i*), by the
    # step of ``_dense_stepper`` bound for this argument.  ``x`` None
    # stands for the identity of T's storage type.
    return _dense_stepper(T, T.dtype if x is None else x.dtype)(x)


def _dense_stepper(T, dtype):
    # The dense route bound once for arguments of ``dtype``: returns
    # step(x, out=None), which writes hermitize(sum_i T_i x T_i*) into
    # ``out``, an h x h array of the result's type that does not overlap
    # ``x``, allocated when None, and returns ``out``.  Both (d, h, h)
    # product stacks and the views of the terms are allocated here, so a
    # step makes two matmuls, d additions and the hermitization, and
    # tests no type or shape.  Batched matmul makes the same gemm call
    # for each slice as op @ x @ op.conj().T does, into these buffers as
    # into fresh ones.
    #
    # ``x`` None stands for the identity of T's storage type (``dtype``
    # must be T.dtype), and the terms are then T_i T_i*: the product
    # T_i I is T_i up to the sign of its zeros, and the second product
    # is the same gemm call on it, so the terms differ at most in the
    # sign of zero sums, which the +0.0 start of the sum clears.  numpy
    # computes a float64 A @ A.T of one buffer with syrk, not gemm, so a
    # real stack is multiplied as a copy; a complex stack's adjoints are
    # a separate conjugate buffer already.
    d, h = T.d, T.h
    dtype = np.result_type(T.dtype, dtype)
    stack, adjoint = T._stack, T._adjoint_stack
    left = np.empty((d, h, h), dtype)
    terms = np.empty_like(left)
    acc, rest = terms[0], tuple(terms[1:])
    acc_t = acc.T
    matmul, add, divide = np.matmul, np.add, np.divide
    # The first factor of the terms at the identity.
    eye_left = left if T.dtype == np.float64 else stack
    # hermitize(acc), in its operand order, so a NaN keeps its sign bit;
    # conj is a copy on float64, so acc is added to acc.T directly.  No
    # input has shown this order on OpenBLAS 0.3: its gemm spreads a NaN
    # of the argument over the whole product with one sign, so no acc
    # held NaNs of opposite signs at (i, j) and (j, i).  The tests pin
    # it with a matmul that writes such a pair.
    if dtype == np.float64:
        def hermitize(out):
            add(acc, acc_t, out)
    else:
        def hermitize(out):
            np.conjugate(acc_t, out)
            add(acc, out, out)

    def step(x, out=None):
        if x is None:
            if eye_left is left:
                np.copyto(left, stack)
            matmul(eye_left, adjoint, terms)
        else:
            matmul(stack, x, left)
            matmul(left, adjoint, terms)
        # The terms are summed from +0.0 in tuple order: 0.0 + t and
        # t + 0.0 are the same bits, so the first term takes the zero in
        # place.  No input has shown this on OpenBLAS 0.3: its gemm
        # with a transposed right factor, the adjoints here, returned no
        # -0.0 even where every product underflowed to -0.0.  The tests
        # pin it with a matmul that does.
        add(acc, 0.0, acc)
        for term in rest:
            add(acc, term, acc)
        if out is None:
            out = np.empty((h, h), dtype)
        hermitize(out)
        divide(out, 2.0, out)
        return out

    return step


def cp_iterate(T, n):
    """The n-th iterate of the cp map at the identity; n = 0 gives I.

    Each step re-symmetrizes, so the result is Hermitian exactly.  For a
    row contraction the sequence is decreasing in the positive
    semidefinite order.  An iterate with non-finite entries is returned
    as it is, but raises ArgumentError when another step would take it
    as its argument, as ``apply_cp_map`` does.  ``n`` must be an
    integer (numpy integers count, a bool or a float does not).
    """
    _require_integer(n, "iteration count", 0)
    x = np.eye(T.h, dtype=T.dtype)
    step = _dense_stepper(T, T.dtype)
    for k in range(n):
        if k and not np.isfinite(x).all():
            raise ArgumentError("cp-map argument contains non-finite entries")
        x = step(x)
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

    The tuple is first probed with one fixed unit vector v:
    ``||T_i (T_j v) - T_j (T_i v)||`` is at most the commutator's
    spectral norm, so when it exceeds the bound, with the largest
    Frobenius norm in place of the spectral one, by more than an
    explicit rounding allowance, the tuple does not commute, and no
    commutator is formed.  Otherwise spectral norms are taken only when
    the bounds max column norm <= ||A||_2 <= ||A||_F, widened by a fixed
    relative slack, cannot settle a commutator; the verdict is the one
    the spectral norms give.  Weighted shifts take the same route.

    A commutator with a non-finite entry, from entries near the float64
    limit whose products overflow, decides nothing and raises
    ArgumentError; a finite commutator whose Frobenius norm overflows
    keeps the spectral route.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if T.d == 1:
        return True
    frob_max = max(float(np.linalg.norm(op)) for op in T.ops)
    below = 1.0 - _BOUND_SLACK
    above = 1.0 + _BOUND_SLACK
    # The exact bound lies below this one.
    bound_high = tol.rtol * (1.0 + frob_max * frob_max) * above
    if _probe_exceeds(T, frob_max, bound_high):
        return False
    comms = _entry_commutators(T)
    if not all(np.isfinite(comm).all() for comm in comms):
        raise ArgumentError("a commutator of the tuple is not finite; "
                            "the tuple's entries are too large")
    frobs = [float(np.linalg.norm(comm)) for comm in comms]
    # A finite commutator whose norm overflows keeps the exact route.
    if np.isfinite(frobs).all():
        col_max = max(_max_column_norm(op) for op in T.ops)
        # The exact bound lies above this one.
        bound_low = tol.rtol * (1.0 + col_max * col_max) * below
        if any(_max_column_norm(comm) * below > bound_high
               for comm in comms):
            return False
        comms = [comm for comm, frob in zip(comms, frobs)
                 if frob * above > bound_low]
        if not comms:
            return True
    max_norm = max(float(np.linalg.norm(op, 2)) for op in T.ops)
    bound = tol.rtol * (1.0 + max_norm * max_norm)
    return all(float(np.linalg.norm(comm, 2)) <= bound for comm in comms)


def _probe_exceeds(T, frob_max, bound):
    # Whether c = T_i (T_j v) - T_j (T_i v), for one fixed unit vector v,
    # shows a commutator C = T_i T_j - T_j T_i of the tuple T above
    # ``bound``, in O(d**2 h**2).  ||C v|| <= ||C||_2 <= 2 F**2, for
    # F = frob_max.  With g = gamma_{h+2} = (h+2) eps / (1 - (h+2) eps)
    # at eps = 2**-52 (Higham, Accuracy and Stability of Numerical
    # Algorithms, 3.5), each term T_i (T_j v) takes two products, each
    # off by up to g F**2, so the computed c is off from C v by up to
    # 4 g F**2 + 2 eps F**2, and its computed norm by 2 g F**2 more; the
    # computed C of the spectral test takes two products and is off from
    # C by up to 2 g F**2 + 2 eps F**2.  Those add up to 8 g F**2 +
    # 4 eps F**2 <= 10 g F**2, so ||c|| above ``bound`` by more than
    # 12 g F**2 puts the computed spectral norm above it too, with
    # 2 g F**2 >= 6 eps F**2 left for the rounding of that norm, a small
    # multiple of eps ||C||_2 <= 2 eps F**2.  A non-finite ||c|| decides
    # nothing, as its entries or their squares overflowed.
    v = _probe_vector(T.h)
    with np.errstate(over="ignore", invalid="ignore"):
        # images[i, :, j] = T_i (T_j v)
        images = np.matmul(T._stack, np.matmul(T._stack, v).T)
        worst = float(np.max(np.linalg.norm(
            images - images.transpose(2, 1, 0), axis=1)))
        n_eps = (T.h + 2) * np.finfo(np.float64).eps
        allowance = 12.0 * n_eps / (1.0 - n_eps) * frob_max * frob_max
        return bool(np.isfinite(worst)) and worst - allowance > bound


def _probe_vector(h):
    # The unit vector of _probe_exceeds on dimension h: cos(sqrt(2) k),
    # k < h, normalized: a fixed vector without a rational period.
    # Any unit vector keeps the probe's verdicts exact; v only decides
    # how often the probe settles a tuple.
    v = np.cos(np.sqrt(2.0) * np.arange(h))
    v /= np.sqrt(v @ v)
    return v


def _entry_commutators(T):
    # The commutators T_i T_j - T_j T_i, i < j, as h x h arrays: the
    # only h x h products is_commuting forms.
    ops = T.ops
    return [ops[i] @ ops[j] - ops[j] @ ops[i]
            for i, j in itertools.combinations(range(T.d), 2)]


def _max_column_norm(a):
    return float(np.max(np.linalg.norm(a, axis=0)))
