"""Unit tests for the shared linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defectseq.defect import defect_space, defect_space_via_words
from defectseq.errors import ArgumentError
from defectseq.linalg import (
    DEFAULT_TOL,
    RankTolerance,
    Subspace,
    _certified_full,
    _count_above,
    _hermitian_eigvals,
    as_operator_matrix,
    coordinate_subspace,
    hermitian_eig,
    hermitian_norm,
    hermitize,
    numerical_rank,
    orthonormal_range,
    require_hermitian,
    subspace_complement,
    subspace_contains,
    subspace_equal,
    subspace_join,
)
from defectseq.models import coinvariant_hull, fock_creation, random_contractive
from defectseq.tuples import OperatorTuple


def random_subspace(rng, n, k):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return orthonormal_range(g)


class TestRankTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.rtol == 1e-9
        assert DEFAULT_TOL.atol == 1e-12

    def test_cutoff_uses_the_larger_threshold(self):
        tol = RankTolerance(rtol=1e-6, atol=1e-9)
        assert tol.cutoff(1.0) == 1e-6
        assert tol.cutoff(1e-6) == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan")])
    def test_rejects_bad_rtol(self, bad):
        with pytest.raises(ArgumentError):
            RankTolerance(rtol=bad)

    def test_rejects_negative_atol(self):
        with pytest.raises(ArgumentError):
            RankTolerance(atol=-1e-15)

    @pytest.mark.parametrize("bad, match", [
        (True, "rtol must be a real number, got True"),
        ("1e-9", "rtol must be a real number, got '1e-9'"),
        (None, "rtol must be a real number, got None"),
        (10 ** 400, "rtol must be positive and finite, got an integer past "
                    "the float range"),
    ], ids=["bool", "str", "None", "huge-int"])
    def test_rejects_what_is_not_a_finite_real_rtol(self, bad, match):
        with pytest.raises(ArgumentError, match=match):
            RankTolerance(rtol=bad)

    @pytest.mark.parametrize("bad", [False, "0", None, -(10 ** 400)],
                             ids=["bool", "str", "None", "huge-int"])
    def test_rejects_what_is_not_a_finite_real_atol(self, bad):
        with pytest.raises(ArgumentError, match="atol must be"):
            RankTolerance(atol=bad)

    @pytest.mark.parametrize("rtol", [1e-6, np.float32(1e-6), 1, np.int64(1)],
                             ids=repr)
    def test_keeps_the_value_it_is_given(self, rtol):
        tol = RankTolerance(rtol=rtol, atol=0)
        assert tol.rtol is rtol and tol.atol == 0


class TestAsOperatorMatrix:
    def test_coerces_real_input(self):
        m = as_operator_matrix([[1, 0], [0, 1]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)

    def test_rejects_vectors(self):
        with pytest.raises(ArgumentError):
            as_operator_matrix(np.ones(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ArgumentError):
            as_operator_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            as_operator_matrix(np.zeros((0, 2)))


class TestHermitianHelpers:
    def test_hermitize_symmetrizes(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = hermitize(a)
        assert np.allclose(h, h.conj().T)

    def test_require_hermitian_accepts_rounding(self):
        a = np.eye(3) + 1e-14 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        require_hermitian(a)

    def test_require_hermitian_rejects_skew(self):
        with pytest.raises(ArgumentError):
            require_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_require_hermitian_rejects_non_finite(self, bad):
        # Placed symmetrically, so only the finiteness check can object.
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ArgumentError):
            require_hermitian(m)

    def test_require_hermitian_returns_rounding_unchanged(self):
        a = np.eye(3) + 1e-14 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        assert not np.array_equal(a, a.conj().T)
        out = require_hermitian(a)
        assert out.dtype == np.complex128
        assert np.array_equal(out, a)

    def test_require_hermitian_accepts_signed_zero_asymmetry(self):
        m = np.array([[1.0, 0.0], [-0.0, 1.0]])
        out = require_hermitian(m)
        assert np.signbit(out[1, 0]) and not np.signbit(out[0, 1])
        c = np.array([[1.0, complex(0.5, 0.0)], [complex(0.5, 0.0), 1.0]])
        assert np.array_equal(require_hermitian(c), c)

    def test_hermitian_eig_sorted_ascending(self):
        vals, _ = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        assert list(vals) == sorted(vals)


class TestNumericalRank:
    def test_exact_diagonal(self):
        assert numerical_rank(np.diag([1.0, 0.5, 0.0])) == 2

    def test_tiny_values_below_cutoff(self):
        m = np.diag([1.0, 1e-13, 1e-15])
        assert numerical_rank(m) == 1

    def test_scales_with_largest_singular_value(self):
        # 1e-7 is negligible next to 1e6 under rtol 1e-9 * 1e6 = 1e-3.
        m = np.diag([1e6, 1e-7])
        assert numerical_rank(m) == 1
        assert numerical_rank(np.diag([1.0, 1e-7])) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_non_hermitian_square_input_keeps_the_svd(self):
        # A Jordan block has only zero eigenvalues but rank 1.
        assert numerical_rank(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1

    def test_rectangular_input(self):
        assert numerical_rank(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])) == 1


@st.composite
def prescribed_spectra(draw):
    """(eigenvalues, real?, seed) with every |eigenvalue| clear of the cutoff."""
    n = draw(st.integers(min_value=1, max_value=8))
    magnitude = st.one_of(
        st.just(0.0),
        st.floats(min_value=-15.0, max_value=1.0).map(lambda e: 10.0 ** e),
    )
    mags = draw(st.lists(magnitude, min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    lam = np.array(mags) * np.array(signs)
    cutoff = DEFAULT_TOL.cutoff(np.max(np.abs(lam)))
    assume(np.all(np.abs(np.abs(lam) - cutoff) > 1e-3 * cutoff))
    return lam, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


def hermitian_with_spectrum(lam, real, seed):
    rng = np.random.default_rng(seed)
    n = lam.size
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return hermitize(q @ np.diag(lam) @ q.conj().T)


class TestHermitianRankRoute:
    """Exactly Hermitian input is ranked from |eigvalsh|; the SVD is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(prescribed_spectra())
    def test_rank_matches_the_svd_count(self, case):
        lam, real, seed = case
        m = hermitian_with_spectrum(lam, real, seed)
        assert np.array_equal(m, m.conj().T)
        assert m.dtype == (np.float64 if real else np.complex128)
        s = np.linalg.svd(m, compute_uv=False)
        svd_rank = int(np.count_nonzero(s > DEFAULT_TOL.cutoff(s[0])))
        expected = int(np.count_nonzero(
            np.abs(lam) > DEFAULT_TOL.cutoff(np.max(np.abs(lam)))))
        assert numerical_rank(m) == svd_rank == expected

    def test_real_input_stays_real(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert require_hermitian(m).dtype == np.float64
        w, q = hermitian_eig(m)
        assert q.dtype == np.float64
        assert np.allclose(w, [1.0, 3.0])
        assert require_hermitian(m.astype(np.complex128)).dtype == np.complex128


@st.composite
def spectra_near_the_cutoff(draw):
    """(eigenvalues, real?, seed) whose smallest lies near the cutoff."""
    n = draw(st.integers(min_value=1, max_value=12))
    top = draw(st.floats(min_value=1e-3, max_value=1e3))
    rest = draw(st.lists(st.floats(min_value=-9.0, max_value=0.0),
                         min_size=n - 1, max_size=n - 1))
    near = DEFAULT_TOL.cutoff(top) * draw(st.floats(0.999, 30.0))
    lam = np.array([top, *(top * 10.0 ** e for e in rest)])
    lam[-1] = near if n > 1 else top
    if draw(st.booleans()):
        lam[-1] = -lam[-1]
    return lam, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


class TestCertifiedFull:
    """One shifted Cholesky factorization stands in for eigvalsh.

    ``_certified_full(a, tol, floor)`` may say True only when every
    eigvalsh value of ``a`` exceeds ``floor`` and the cutoff that
    ``_count_above`` takes from their moduli, and it leaves the bits of
    ``a`` as they were, whatever it says.
    """

    @settings(max_examples=200, deadline=None)
    @given(spectra_near_the_cutoff(), st.sampled_from([0.0, 1e-14, 1e-9]))
    def test_certified_counts_are_full(self, case, floor):
        lam, real, seed = case
        a = hermitian_with_spectrum(lam, real, seed)
        before = a.copy()
        certified = _certified_full(a, DEFAULT_TOL, floor)
        assert a.tobytes() == before.tobytes()
        values = np.abs(np.linalg.eigvalsh(a))
        if certified:
            assert _count_above(values, DEFAULT_TOL) == a.shape[0]
            assert (values > floor).all()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    def test_clearly_positive_matrices_are_certified(self, n, real):
        rng = np.random.default_rng(n)
        lam = rng.uniform(1e-6, 1.0, n)
        a = hermitian_with_spectrum(lam, real, n)
        assert _certified_full(a, DEFAULT_TOL, n * np.finfo(float).eps)

    def test_floor_above_the_cutoff_declines(self):
        # At rtol 1e-15 and atol 0 the cutoff of diag(1, 1e-13) is 1e-15,
        # which 1e-13 clears, but a floor of 1e-12 does not.
        a = np.diag([1.0, 1e-13])
        tol = RankTolerance(rtol=1e-15, atol=0.0)
        assert _certified_full(a, tol, 0.0)
        assert not _certified_full(a, tol, 1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_norm_declines(self, bad):
        a = np.diag([bad, 1.0])
        before = a.copy()
        assert not _certified_full(a, DEFAULT_TOL, 0.0)
        assert a.tobytes() == before.tobytes()

    def test_empty_matrix_counts_zero(self):
        assert _certified_full(np.zeros((0, 0)), DEFAULT_TOL, 1e-15)

    def test_diagonal_at_the_shift_declines_before_cholesky(self,
                                                           monkeypatch):
        # A diagonal entry at or below the shift bounds an eigenvalue of
        # a - s I from above by a value <= 0: no factorization is tried.
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a.shape) or cholesky(a))
        a = np.array([[1.0, 1e-12], [1e-12, 5e-10]])
        before = a.copy()
        assert not _certified_full(a, DEFAULT_TOL, 0.0)
        assert calls == [] and a.tobytes() == before.tobytes()
        assert _certified_full(np.diag([1.0, 0.5]), DEFAULT_TOL, 0.0)
        assert calls == [(2, 2)]

    def test_bound_and_formation_raise_the_shift(self):
        # diag(1, 3e-9) clears the shift 1e-9 (1 + 1e-14) at U = ||a||_F;
        # U = 10 lifts the cutoff to 1e-8, and a formation term of 5e-9
        # lifts the shift to 6e-9, both above 3e-9.
        a = np.diag([1.0, 3e-9])
        assert _certified_full(a, DEFAULT_TOL, 0.0)
        assert _certified_full(a, DEFAULT_TOL, 0.0, 1.0, 1e-9)
        assert not _certified_full(a, DEFAULT_TOL, 0.0, 10.0)
        assert not _certified_full(a, DEFAULT_TOL, 0.0, 1.0, 5e-9)
        assert not _certified_full(a, DEFAULT_TOL, 0.0, np.inf)


def same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def diagonal_matrices(draw):
    """Exactly Hermitian diagonal matrices at scales 1e-300 ... 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 70))
    scale = 10.0 ** draw(st.integers(-300, 300))
    diag = rng.standard_normal(n) * scale
    if draw(st.booleans()):
        # Entries many orders below the largest, down to subnormals.
        diag *= 10.0 ** rng.integers(-300, 1, n)
    diag[rng.random(n) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    if draw(st.booleans()):
        diag[(diag == 0.0) & (rng.random(n) < 0.5)] = -0.0
    m = np.diag(diag)
    if draw(st.booleans()):
        m[~np.eye(n, dtype=bool) & (rng.random((n, n)) < 0.3)] = -0.0
    if draw(st.booleans()):
        m = m.astype(np.complex128)
        if draw(st.booleans()):
            m[np.diag_indices(n)] = diag + complex(0.0, -0.0)
    return m


class TestHermitianSpectrum:
    """The diagonal shortcut returns what eigvalsh returns, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(diagonal_matrices())
    def test_diagonals_match_eigvalsh(self, m):
        assert np.array_equal(m, m.conj().T)
        assert same_bits(_hermitian_eigvals(m), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("top", [
        1e-147, 1e-146, 2.0 ** -485, np.nextafter(2.0 ** -485, 0.0),
        2.0 ** 485, np.nextafter(2.0 ** 485, np.inf), 1e146, 1e147,
        1e-300, 1e300, 5e-324, np.finfo(np.float64).max])
    def test_the_unscaled_range_edges_match_eigvalsh(self, top):
        for m in (np.diag([top, -0.5 * top, 0.0, top / 3.0]),
                  np.diag([-top, 0.0]), np.diag([top])):
            assert same_bits(_hermitian_eigvals(m), np.linalg.eigvalsh(m))

    def test_zero_matrix_and_non_diagonal_input(self):
        assert same_bits(_hermitian_eigvals(np.zeros((3, 3))),
                         np.linalg.eigvalsh(np.zeros((3, 3))))
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for m in (hermitize(g), hermitize(g.real)):
            assert same_bits(_hermitian_eigvals(m), np.linalg.eigvalsh(m))

    def test_norm_and_rank_read_the_diagonal(self):
        m = np.diag([0.5, -2.0, 0.0, 1e-12])
        assert hermitian_norm(m) == 2.0
        assert numerical_rank(m) == 2


class TestSubspace:
    def test_requires_orthonormal_columns(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ArgumentError):
            Subspace(2, bad)

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(11)
        sub = random_subspace(rng, 6, 2)
        p = sub.projector()
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)

    def test_coordinate_subspace_projector(self):
        sub = coordinate_subspace(4, [1, 3])
        p = sub.projector()
        assert np.allclose(np.diag(p), [0, 1, 0, 1])
        assert sub.dim == 2

    def test_coordinate_subspace_rejects_duplicates(self):
        with pytest.raises(ArgumentError):
            coordinate_subspace(4, [1, 1])

    def test_coordinate_subspace_rejects_a_float_index(self):
        with pytest.raises(ArgumentError,
                           match="coordinate index must be an integer"):
            coordinate_subspace(3, [1.0])

    def test_coordinate_subspace_rejects_a_bool_index(self):
        with pytest.raises(ArgumentError,
                           match="coordinate index must be an integer"):
            coordinate_subspace(3, [True])

    def test_coordinate_subspace_takes_numpy_integers(self):
        sub = coordinate_subspace(3, [np.int64(2), np.int32(0)])
        assert np.array_equal(sub.basis.real, [[0, 1], [0, 0], [1, 0]])

    def test_zero_dimensional_subspace_allowed(self):
        sub = Subspace(3, np.zeros((3, 0)))
        assert sub.dim == 0
        assert np.allclose(sub.projector(), 0)


class TestSubspaceAlgebra:
    def test_join_contains_both(self):
        rng = np.random.default_rng(5)
        a = random_subspace(rng, 8, 2)
        b = random_subspace(rng, 8, 3)
        j = subspace_join(a, b)
        assert subspace_contains(j, a)
        assert subspace_contains(j, b)
        assert j.dim == 5

    def test_join_of_overlapping_spans(self):
        a = coordinate_subspace(5, [0, 1])
        b = coordinate_subspace(5, [1, 2])
        assert subspace_join(a, b).dim == 3

    def test_equal_is_mutual_containment(self):
        rng = np.random.default_rng(7)
        a = random_subspace(rng, 6, 3)
        # Mix the basis by a unitary on the coefficients; the span is unchanged.
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        b = Subspace(6, a.basis @ q)
        assert subspace_equal(a, b)
        assert not subspace_equal(a, random_subspace(rng, 6, 3))

    def test_complement_dimensions_and_orthogonality(self):
        rng = np.random.default_rng(9)
        a = random_subspace(rng, 7, 3)
        c = subspace_complement(a)
        assert c.dim == 4
        assert np.allclose(a.basis.conj().T @ c.basis, 0, atol=1e-12)

    def test_contains_rejects_mismatched_ambient(self):
        a = coordinate_subspace(4, [0])
        b = coordinate_subspace(5, [0])
        with pytest.raises(ArgumentError):
            subspace_contains(a, b)

    def test_orthonormal_range_drops_dependent_columns(self):
        v = np.array([[1.0], [1.0]]) / np.sqrt(2)
        stacked = np.hstack([v, 2 * v, -v])
        assert orthonormal_range(stacked).dim == 1


def old_words_sweep(T, n, tol=DEFAULT_TOL):
    # defect_space_via_words as its own loop wrote it.
    first = defect_space(T, 1, tol)
    accumulated = first.basis
    frontier = first.basis
    for _ in range(n - 1):
        if frontier.shape[1] == 0 or accumulated.shape[1] == T.h:
            break
        images = np.hstack([op @ frontier for op in T.ops])
        for _pass in range(2):
            images = images - accumulated @ (accumulated.conj().T @ images)
        fresh = orthonormal_range(images, tol) if images.size else None
        if fresh is None or fresh.dim == 0:
            break
        accumulated = np.hstack([accumulated, fresh.basis])
        frontier = fresh.basis
    return Subspace(T.h, accumulated, tol)


def old_hull_sweep(T, vectors, tol=DEFAULT_TOL):
    # coinvariant_hull as its own loop wrote it.
    start = orthonormal_range(np.asarray(vectors, dtype=np.complex128), tol)
    accumulated = start.basis
    frontier = start.basis
    while frontier.shape[1] and accumulated.shape[1] < T.h:
        images = np.hstack([op.conj().T @ frontier for op in T.ops])
        for _pass in range(2):
            images = images - accumulated @ (accumulated.conj().T @ images)
        fresh = orthonormal_range(images, tol)
        if fresh.dim == 0:
            break
        accumulated = np.hstack([accumulated, fresh.basis])
        frontier = fresh.basis
    return Subspace(T.h, accumulated, tol)


def same_subspace_bits(a, b):
    # Bases are C-contiguous complex128 copies, so equal bytes and shape
    # mean equal bits, signed zeros included.
    return (a.tol == b.tol and a.basis.shape == b.basis.shape
            and a.basis.tobytes() == b.basis.tobytes())


class TestSweptSpan:
    # defect_space_via_words and coinvariant_hull share one sweep,
    # linalg._swept_span; it must return the bases their own loops did.
    @pytest.mark.parametrize("seed", range(6))
    def test_word_span_keeps_the_bits_of_its_loop(self, seed):
        rng = np.random.default_rng(seed)
        d, h = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        # A real row of norm 0.9, so a strict contraction.
        row = rng.standard_normal((h, d * h))
        row *= 0.9 / np.linalg.norm(row, 2)
        tuples = [random_contractive(d, h, 1, seed), fock_creation(d, 2),
                  OperatorTuple(tuple(np.hsplit(row, d)))]
        tol = RankTolerance(rtol=1e-8, atol=1e-11)
        for T in tuples:
            for n in range(1, h + 2):
                assert same_subspace_bits(defect_space_via_words(T, n, tol),
                                          old_words_sweep(T, n, tol))

    @pytest.mark.parametrize("seed", range(6))
    def test_coinvariant_hull_keeps_the_bits_of_its_loop(self, seed):
        rng = np.random.default_rng(seed)
        T = fock_creation(int(rng.integers(1, 4)), 3)
        for k in (1, 2, 5):
            vectors = (rng.standard_normal((T.h, k))
                       + 1j * rng.standard_normal((T.h, k)))
            for tol in (DEFAULT_TOL, RankTolerance(rtol=1e-6)):
                assert same_subspace_bits(coinvariant_hull(T, vectors, tol),
                                          old_hull_sweep(T, vectors, tol))
