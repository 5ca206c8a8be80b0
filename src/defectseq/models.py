"""Model tuples: shifts on truncated Fock spaces, compressions, and
seeded random ensembles.

Two graded spaces carry most of the constructions.

* The truncated full Fock space over C^d with L levels has one basis
  vector per word of length 0..L over {1, ..., d}; basis order is by
  level, then lexicographic within a level, so index 0 is the vacuum.
  The creation tuple sends e_w to e_{iw} and annihilates the top level,
  which keeps the row exactly co-isometric off the vacuum: the first
  defect operator is exactly the vacuum projection.

* The truncated symmetric space keeps one basis vector per exponent
  multi-index alpha with |alpha| <= L, ordered by total degree then
  lexicographically by exponent tuple.  The weighted shift on it raises
  alpha by one in slot i with weight sqrt((alpha_i + 1) / (|alpha| + 1))
  and annihilates the top degree.  That weight formula is rederived
  independently by ``symmetric_shift_via_compression``, which compresses
  the plain creation tuple to the symmetric subspace; the two must agree
  entry by entry and the tests gate the formula on that oracle.

One builder, ``_weighted_shift``, makes both shifts: it writes each
raise with its weight straight into one float64 (d, h, h) stack.  Both
bases are sized before they are enumerated: ``fock_basis`` and
``monomial_basis`` add up their level sizes, d**k words and
C(k + d - 1, k) exponents of degree k, and refuse a space past the size
cap at the first level that passes it, so a space far past the cap is
refused at once instead of exhausting time or memory.

Seeded randomness runs on numpy's PCG64 via ``numpy.random.default_rng``;
a seed may be an int or a tuple of ints (a SeedSequence entropy), which
is how the verification suites derive one independent stream per sample
as (seed, suite_salt, sample_index).  Haar unitaries come from QR of a
complex Gaussian matrix with the R-diagonal phases normalized away.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .config import size_cap
from .errors import ArgumentError, ConsistencyError, SizeCapError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    _require_integer,
    _swept_span,
    coordinate_subspace,
    orthonormal_range,
    subspace_complement,
)
from .tuples import OperatorTuple, compress, direct_sum, validate_word

__all__ = [
    "coinvariant_hull",
    "fock_basis",
    "fock_creation",
    "finite_phi_compression",
    "finite_phi_subspace",
    "haar_unitary",
    "monomial_basis",
    "pure_nonmaximal_example",
    "random_coinvariant_compression",
    "random_coinvariant_subspace",
    "random_contractive",
    "right_creation_compression",
    "right_creation_subspace",
    "scalar_spherical_tuple",
    "spherical_shift_sum",
    "symmetric_fock_shift",
    "symmetric_shift_via_compression",
    "symmetrizer",
]

SYMMETRIZER_MAX_FACTORS = 8


def _require_dimension(space, sizes):
    # Refuses a model space whose levels, of ``sizes`` basis vectors each,
    # add up past the size cap.  The sum stops at the first level that
    # passes it, so no basis vector is enumerated and no count grows far
    # past the cap, however many levels are asked for.
    cap = size_cap()
    for total in itertools.accumulate(sizes):
        if total > cap:
            raise SizeCapError(
                f"{space} needs dimension at least {total}, cap is {cap}")


def fock_basis(d, L):
    """Words of length 0..L over {1, ..., d}, by level then lexicographic."""
    _require_integer(d, "alphabet size d", 1)
    _require_integer(L, "truncation level", 1)
    _require_dimension("truncated Fock space",
                       (d ** k for k in range(L + 1)))
    return [w for k in range(L + 1)
            for w in itertools.product(range(1, d + 1), repeat=k)]


def _weighted_shift(basis, d, raised, weight, label):
    # The d-tuple on span(basis) whose entry i sends the basis vector b
    # to weight(b, i) times the one of raised(b, i), built straight into
    # one float64 (d, h, h) stack.  A raise that leaves the basis is the
    # annihilated top level.
    index = {b: p for p, b in enumerate(basis)}
    h = len(basis)
    stack = np.zeros((d, h, h))
    for i in range(d):
        for p, b in enumerate(basis):
            q = index.get(raised(b, i))
            if q is not None:
                stack[i, q, p] = weight(b, i)
    return OperatorTuple(stack, label)


def fock_creation(d, L):
    """Creation tuple on the truncated full Fock space with L levels.

    V_i maps e_w to e_{iw} for words below the top level and to zero on
    the top level.  The truncation point is the only deviation from the
    untruncated model, and it is chosen so that sum V_i V_i* is exactly
    the identity minus the vacuum projection: every defect operator of
    this tuple is an exact 0/1 projection onto an initial segment of
    levels.
    """
    return _weighted_shift(fock_basis(d, L), d, lambda w, i: (i + 1,) + w,
                           lambda w, i: 1.0,
                           f"fock-creation(d={d}, levels={L})")


def symmetrizer(d, k):
    """The symmetrizing projection on the k-fold tensor power of C^d.

    Averages the k! coordinate-permutation operators; the matrix acts on
    the d**k tensor basis ordered lexicographically by word.  It is an
    exact orthogonal projection with trace equal to the number of
    monomials of degree k in d variables, C(k + d - 1, d - 1).  Factor
    counts above 8 are refused since the permutation sum grows as k!.
    """
    _require_integer(d, "alphabet size d", 1)
    _require_integer(k, "tensor factor count", 1)
    if k > SYMMETRIZER_MAX_FACTORS:
        raise ArgumentError(
            f"symmetrizer limited to {SYMMETRIZER_MAX_FACTORS} factors, got {k}"
        )
    dim = d ** k
    cap = size_cap()
    if dim > cap:
        raise SizeCapError(f"tensor power has dimension {dim}, cap is {cap}")
    words = list(itertools.product(range(1, d + 1), repeat=k))
    index = {w: p for p, w in enumerate(words)}
    weight = 1.0 / math.factorial(k)
    proj = np.zeros((dim, dim), dtype=np.complex128)
    for w, p in index.items():
        for perm in itertools.permutations(range(k)):
            target = tuple(w[perm[j]] for j in range(k))
            proj[index[target], p] += weight
    return proj


def monomial_basis(d, L):
    """Exponent multi-indices with |alpha| <= L, by degree then lexicographic."""
    _require_integer(d, "alphabet size d", 1)
    _require_integer(L, "degree bound", 0)
    _require_dimension("symmetric space",
                       (math.comb(k + d - 1, k) for k in range(L + 1)))
    # One multiset of k slots per exponent of degree k.
    return [alpha for k in range(L + 1) for alpha in sorted(
        tuple(slots.count(i) for i in range(d))
        for slots in itertools.combinations_with_replacement(range(d), k))]


def symmetric_fock_shift(d, L):
    """The weighted shift tuple on the truncated symmetric space.

    On the orthonormal monomial basis indexed by exponents alpha the
    entry S_i raises slot i with weight sqrt((alpha_i + 1)/(|alpha| + 1))
    and annihilates the top degree L.  The weights make the row exactly
    co-isometric off the vacuum, mirroring the full Fock model, and the
    entries commute.  ``symmetric_shift_via_compression`` must reproduce
    these matrices and serves as the independent derivation.
    """
    _require_integer(d, "alphabet size d", 1)
    _require_integer(L, "truncation level", 1)
    return _weighted_shift(
        monomial_basis(d, L), d,
        lambda alpha, i: alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:],
        lambda alpha, i: math.sqrt((alpha[i] + 1) / (sum(alpha) + 1)),
        f"symmetric-shift(d={d}, degree={L})")


def _sorted_word_of_type(alpha):
    # The weakly increasing word whose letter counts are alpha.
    word = []
    for letter, count in enumerate(alpha, start=1):
        word.extend([letter] * count)
    return tuple(word)


def symmetric_shift_via_compression(d, L):
    """The symmetric shift derived by compressing the creation tuple.

    Builds the isometry from the monomial basis into the truncated full
    Fock space level by level: the exponent alpha of degree k maps to
    the normalized symmetrization of any word with letter counts alpha
    (all such words symmetrize to the same vector).  Compressing each
    creation operator by that isometry yields the shift in monomial
    coordinates.  No shift weights appear anywhere in this construction,
    which is what makes it an independent oracle for
    ``symmetric_fock_shift``.
    """
    creation = fock_creation(d, L)
    words = fock_basis(d, L)
    word_index = {w: p for p, w in enumerate(words)}
    basis = monomial_basis(d, L)
    h = creation.h
    iso = np.zeros((h, len(basis)), dtype=np.complex128)
    for col, alpha in enumerate(basis):
        k = sum(alpha)
        if k == 0:
            iso[word_index[()], col] = 1.0
            continue
        seed_word = _sorted_word_of_type(alpha)
        vec = np.zeros(h, dtype=np.complex128)
        proj = symmetrizer(d, k)
        level_words = list(itertools.product(range(1, d + 1), repeat=k))
        level_offset = word_index[level_words[0]]
        sym_col = proj[:, level_words.index(seed_word)]
        vec[level_offset: level_offset + len(level_words)] = sym_col
        iso[:, col] = vec / np.linalg.norm(vec)
    return compress(creation, Subspace(h, iso)).relabel(
        f"symmetric-shift-via-compression(d={d}, degree={L})")


def _verify_adjoint_invariance(T, sub, what):
    # Each T_i* must map the subspace into itself (co-invariance).
    basis = sub.basis
    for op in T.ops:
        image = op.conj().T @ basis
        resid = image - basis @ (basis.conj().T @ image)
        if image.size and float(np.max(np.abs(resid))) > 1e-10:
            raise ConsistencyError(f"{what} failed its co-invariance check")


def right_creation_subspace(d, L, j):
    """Coordinate subspace of words that do not end in letter j.

    The discarded complement (words with final letter j) is invariant
    under every creation operator, since creation prepends letters, so
    the kept span is co-invariant for the creation tuple.
    """
    _require_integer(d, "alphabet size d", 1)
    _require_integer(L, "truncation level")
    if L < 2:
        raise ArgumentError("needs at least two levels to be meaningful")
    _require_integer(j, "letter j")
    if not 1 <= j <= d:
        raise ArgumentError(f"letter j={j} outside 1..{d}")
    words = fock_basis(d, L)
    keep = [p for p, w in enumerate(words) if len(w) == 0 or w[-1] != j]
    return coordinate_subspace(len(words), keep)


def right_creation_compression(d, L, j):
    """Compression of the creation tuple to words not ending in letter j.

    Co-invariance of the subspace is re-verified numerically before
    compressing.  The subspace is spanned by coordinates, so the
    compression stays exact: its first defect operator is exactly the
    vacuum projection, and the second defect space picks up exactly the
    d - 1 surviving first-level directions.
    """
    creation = fock_creation(d, L)
    sub = right_creation_subspace(d, L, j)
    _verify_adjoint_invariance(creation, sub, "right-creation subspace")
    return compress(creation, sub).relabel(
        f"right-creation-compression(d={d}, levels={L}, j={j})")


def _parse_phi(d, L, phi_coeffs):
    support = {}
    for word, coeff in phi_coeffs.items():
        w = validate_word(word, d)
        c = complex(coeff)
        if c == 0:
            continue
        if len(w) == 0:
            raise ArgumentError("phi must have no vacuum component")
        support[w] = support.get(w, 0) + c
    if not support:
        raise ArgumentError("phi must be nonzero")
    norm = math.sqrt(sum(abs(c) ** 2 for c in support.values()))
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm is refused too
        raise ArgumentError(f"phi must be a unit vector, got norm {norm!r}")
    return support


def finite_phi_subspace(d, L, phi_coeffs):
    """Complement of the span of words tensored against a fixed vector.

    ``phi_coeffs`` maps words (tuples of 1-based letters) to complex
    coefficients describing a unit vector phi with no vacuum component.
    The span of { e_w phi : |w| + deg(phi) <= L } is invariant under
    the truncated creation operators, so the returned complement is
    co-invariant.  For phi a single letter this is exactly
    ``right_creation_subspace`` for that letter.  When phi lives
    entirely beyond the truncation level, nothing is removed and the
    complement is the whole space.
    """
    words = fock_basis(d, L)
    index = {w: p for p, w in enumerate(words)}
    h = len(words)
    support = _parse_phi(d, L, phi_coeffs)
    degree = max(len(w) for w in support)

    columns = []
    for k in range(L - degree + 1):
        for w in itertools.product(range(1, d + 1), repeat=k):
            vec = np.zeros(h, dtype=np.complex128)
            for alpha, coeff in support.items():
                vec[index[w + alpha]] = coeff
            columns.append(vec)
    if not columns:
        removed = Subspace(h, np.zeros((h, 0)))
    else:
        removed = orthonormal_range(np.stack(columns, axis=1))
    return subspace_complement(removed)


def finite_phi_compression(d, L, phi_coeffs):
    """Compression of the creation tuple against a finitely supported vector.

    Removes the span handled by ``finite_phi_subspace`` and compresses
    the creation tuple to what is left.  The defect growth of the result
    is something to measure, not something asserted here: for phi with
    mixed-length support the removed span is only invariant up to the
    truncation, so the compression is an experiment.
    """
    creation = fock_creation(d, L)
    out = compress(creation, finite_phi_subspace(d, L, phi_coeffs))
    support = _parse_phi(d, L, phi_coeffs)
    tags = ",".join(
        "".join(map(str, w)) for w in sorted(support, key=lambda w: (len(w), w))
    )
    return out.relabel(
        f"finite-phi-compression(d={d}, levels={L}, support=[{tags}])")


def pure_nonmaximal_example(d, L, r):
    """A pure reducible tuple whose defect growth is slow.

    Acts on the truncated Fock space over C^(d-1) joined with one extra
    coordinate: the first d - 1 entries are the creation operators
    padded by zero on the extra coordinate, and the last entry is zero
    on the Fock part and multiplication by r on the extra coordinate.
    Needs d >= 2 and 0 < r < 1.  The first defect dimension is 2 (the
    vacuum plus the scaled coordinate) while the second is d + 1, far
    below the geometric bound 2(1 + d); purity holds because the Fock
    part is nilpotent and r is strictly inside the disc.
    """
    _require_integer(d, "alphabet size d")
    if d < 2:
        raise ArgumentError("needs d >= 2 so the Fock part is nonempty")
    if not 0.0 < r < 1.0:
        raise ArgumentError(f"r must lie strictly between 0 and 1, got {r}")
    creation = fock_creation(d - 1, L)
    padded = OperatorTuple(creation.ops + (np.zeros_like(creation.ops[0]),))
    corner = np.zeros((d, 1, 1))
    corner[-1] = r
    return direct_sum(padded, OperatorTuple(corner)).relabel(
        f"pure-nonmaximal(d={d}, levels={L}, r={r})")


def scalar_spherical_tuple(lambdas, k):
    """Commuting scalar multiples of the identity forming a spherical row.

    Entry i is lambda_i times the identity on C^k, and the weights must
    satisfy sum |lambda_i|^2 = 1, making the row exactly co-isometric:
    the cp map fixes the identity and every defect operator vanishes.
    """
    weights = [complex(x) for x in lambdas]
    if len(weights) < 1:
        raise ArgumentError("need at least one weight")
    _require_integer(k, "multiplicity k", 1)
    total = sum(abs(x) ** 2 for x in weights)
    if not abs(total - 1.0) <= 1e-12:  # a NaN total is refused too
        raise ArgumentError(
            f"weights must satisfy sum |lambda|^2 = 1, got {total!r}"
        )
    eye = np.eye(k, dtype=np.complex128)
    ops = tuple(x * eye for x in weights)
    tag = ",".join(f"{x.real:g}{x.imag:+g}j" if x.imag else f"{x.real:g}"
                   for x in weights)
    return OperatorTuple(ops, label=f"scalar-spherical([{tag}], k={k})")


def spherical_shift_sum(d, L, lambdas, k):
    """Direct sum of the symmetric shift with a scalar spherical tuple.

    The spherical block contributes nothing to any defect operator, so
    the defect sequence of the sum equals that of the shift alone while
    the purity limit becomes the projection onto the spherical block.
    ``lambdas`` must have length d to match the shift.
    """
    lambdas = tuple(lambdas)
    if len(lambdas) != d:
        raise ArgumentError("need exactly d spherical weights")
    return direct_sum(symmetric_fock_shift(d, L),
                      scalar_spherical_tuple(lambdas, k)).relabel(
        f"spherical-shift-sum(d={d}, degree={L}, k={k})")


def _seeded_rng(seed):
    # numpy.random.default_rng(seed), with its refusal of a negative or
    # non-integer seed (ValueError or TypeError) raised as ArgumentError.
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ArgumentError(
            "seed must be a non-negative integer, a sequence of them or "
            f"a numpy Generator, got {seed!r}"
        ) from None


def haar_unitary(n, rng):
    """A Haar-distributed n x n unitary drawn from ``rng``.

    QR of a standard complex Gaussian matrix with the phases of the R
    diagonal divided out; the phase fix is what makes the distribution
    exactly Haar rather than merely orthonormal.
    """
    _require_integer(n, "unitary dimension", 1)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_contractive(d, h, defect_rank, seed):
    """A seeded random row contraction with exactly known first defect.

    Draws a Haar unitary W on C^h, a Haar isometry U from C^h into the
    d-fold sum, and singular values consisting of h - defect_rank exact
    ones plus defect_rank values uniform in [0.2, 0.9]; the row operator
    W diag(sigma) U* is split into d blocks.  The first defect operator
    then has exactly ``defect_rank`` eigenvalues in [0.19, 0.96], so the
    first defect dimension equals ``defect_rank`` by construction.

    ``seed`` may be an int, a tuple of ints, or anything else
    ``numpy.random.default_rng`` accepts; identical seeds reproduce the
    tuple bit for bit.  A seed it refuses raises ``ArgumentError``.
    """
    _require_integer(d, "alphabet size d", 1)
    _require_integer(h, "space dimension", 1)
    _require_integer(defect_rank, "defect rank")
    if not 0 <= defect_rank <= h:
        raise ArgumentError(
            f"defect rank must lie in 0..{h}, got {defect_rank}"
        )
    rng = _seeded_rng(seed)
    w = haar_unitary(h, rng)
    big = haar_unitary(d * h, rng)
    u = big[:, :h]
    sigma = np.concatenate([
        np.ones(h - defect_rank),
        rng.uniform(0.2, 0.9, size=defect_rank),
    ])
    row = (w * sigma) @ u.conj().T
    ops = tuple(row[:, i * h:(i + 1) * h] for i in range(d))
    return OperatorTuple(
        ops, label=f"random-contractive(d={d}, h={h}, defect={defect_rank})"
    )


def coinvariant_hull(T, vectors, tol=None):
    """Smallest subspace containing ``vectors`` and stable under all T_i*.

    Krylov-style accumulation (``linalg._swept_span``): sweep the
    adjoints over the newest directions and keep the orthogonal
    complements until nothing new appears.  The result is co-invariant
    for ``T`` by construction.
    """
    tol = DEFAULT_TOL if tol is None else tol
    vecs = np.asarray(vectors, dtype=np.complex128)
    if vecs.ndim != 2 or vecs.shape[0] != T.h:
        raise ArgumentError(
            f"generators must form a ({T.h}, k) matrix, got {vecs.shape}"
        )
    if vecs.shape[1] == 0:
        return Subspace(T.h, np.zeros((T.h, 0)), tol)
    return _swept_span(orthonormal_range(vecs, tol),
                       [op.conj().T for op in T.ops])


def random_coinvariant_subspace(d, L, n_generators, seed):
    """A creation tuple together with a random co-invariant subspace.

    Draws ``n_generators`` complex Gaussian vectors on the truncated
    Fock space and closes them under all adjoints of the creation
    operators.  Returns the pair (creation tuple, subspace); the
    subspace is re-verified co-invariant before being handed out.
    """
    _require_integer(n_generators, "generator count", 1)
    creation = fock_creation(d, L)
    rng = _seeded_rng(seed)
    gens = rng.standard_normal((creation.h, n_generators)) \
        + 1j * rng.standard_normal((creation.h, n_generators))
    hull = coinvariant_hull(creation, gens)
    _verify_adjoint_invariance(creation, hull, "random co-invariant subspace")
    return creation, hull


def random_coinvariant_compression(d, L, n_generators, seed):
    """Compression of the creation tuple to a random co-invariant subspace.

    Inherits purity from the creation tuple, which is what the
    verification battery leans on.  Identical seeds reproduce the
    compression exactly.
    """
    creation, hull = random_coinvariant_subspace(d, L, n_generators, seed)
    return compress(creation, hull).relabel(
        f"random-coinvariant-compression(d={d}, levels={L}, "
        f"generators={n_generators})")
