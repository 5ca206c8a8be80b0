"""Unit tests for the shared linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defectseq.errors import ArgumentError
from defectseq.linalg import (
    DEFAULT_TOL,
    RankTolerance,
    Subspace,
    as_operator_matrix,
    coordinate_subspace,
    hermitian_eig,
    hermitize,
    numerical_rank,
    orthonormal_range,
    require_hermitian,
    subspace_complement,
    subspace_contains,
    subspace_equal,
    subspace_join,
)


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
