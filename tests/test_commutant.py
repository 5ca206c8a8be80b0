"""The Hermitian commutant count against the stacked commutant system.

``stacked_commutant_dimension`` is the direct route: all 2d constraints
[T_i, X] = 0 and [T_i*, X] = 0 on the h**2 complex unknowns of X,
stacked into one system whose numerical nullity is the commutant
dimension.  ``commutant_dimension`` counts the Hermitian part of the
commutant instead; the two must agree on every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectseq.classify import commutant_dimension
from defectseq.linalg import DEFAULT_TOL, numerical_rank
from defectseq.models import (
    fock_creation,
    haar_unitary,
    random_contractive,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import OperatorTuple, direct_sum


def stacked_commutant_dimension(T, tol=None):
    """Nullity of the 2d h**2 x h**2 system of [T_i, X] and [T_i*, X]."""
    tol = DEFAULT_TOL if tol is None else tol
    h = T.h
    eye = np.eye(h, dtype=T.dtype)
    blocks = []
    for op in T.ops:
        for a in (op, op.conj().T):
            # Row-major vectorization: vec(A X) = kron(A, I) vec(X) and
            # vec(X A) = kron(I, A^T) vec(X).
            blocks.append(np.kron(a, eye) - np.kron(eye, a.T))
    return h * h - numerical_rank(np.vstack(blocks), tol)


def real_part(T):
    return OperatorTuple(tuple(op.real for op in T.ops))


def conjugate(T, u):
    return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))


def rotate(T, theta=0.7):
    return OperatorTuple(tuple(np.exp(1j * theta) * op for op in T.ops))


def copies(T, m):
    out = T
    for _ in range(m - 1):
        out = direct_sum(out, T)
    return out


@st.composite
def block_sums(draw):
    """Direct sums of seeded random tuples, h <= 8 and d <= 3.

    Block seeds come from a small pool, so equal blocks, and with them
    commutants larger than the scalars, turn up often.
    """
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 8))
    blocks = [random_contractive(d, size, draw(st.integers(0, size)),
                                 draw(st.integers(0, 2)))
              for size in sizes]
    T = blocks[0]
    for block in blocks[1:]:
        T = direct_sum(T, block)
    if draw(st.booleans()):
        T = real_part(T)
    if draw(st.booleans()):
        T = conjugate(T, haar_unitary(T.h, np.random.default_rng(
            draw(st.integers(0, 2 ** 32 - 1)))))
    return T


class TestStackedOracle:
    @settings(max_examples=60, deadline=None)
    @given(block_sums())
    def test_hermitian_count_matches_the_stacked_system(self, T):
        assert commutant_dimension(T) == stacked_commutant_dimension(T)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tuples(self, real, seed):
        T = random_contractive(1 + seed % 3, 2 + 2 * seed, seed % 2, seed)
        if real:
            T = real_part(T)
        assert T.dtype == (np.float64 if real else np.complex128)
        assert commutant_dimension(T) == stacked_commutant_dimension(T)


class TestKnownDimensions:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_copies_of_the_creation_tuple(self, m):
        T = copies(fock_creation(2, 2), m)
        assert T.dtype == np.float64
        assert commutant_dimension(T) == m * m
        assert stacked_commutant_dimension(T) == m * m

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unitary_conjugation_keeps_the_dimension(self, m):
        T = copies(fock_creation(2, 2), m)
        rng = np.random.default_rng(m)
        u = haar_unitary(T.h, rng)
        o, _ = np.linalg.qr(rng.standard_normal((T.h, T.h)))
        complex_conj, real_conj = conjugate(T, u), conjugate(T, o)
        assert complex_conj.dtype == np.complex128
        assert real_conj.dtype == np.float64
        assert commutant_dimension(complex_conj) == m * m
        assert commutant_dimension(real_conj) == m * m
        assert stacked_commutant_dimension(complex_conj) == m * m

    @pytest.mark.parametrize("make", [
        lambda: fock_creation(2, 2),
        lambda: copies(fock_creation(2, 2), 2),
        lambda: symmetric_fock_shift(2, 3),
        lambda: spherical_shift_sum(2, 2, (0.6, 0.8), 2),
    ])
    def test_phase_rotation_agrees_with_real_storage(self, make):
        T = make()
        rotated = rotate(T)
        assert T.dtype == np.float64
        assert rotated.dtype == np.complex128
        assert commutant_dimension(T) == commutant_dimension(rotated)

    @pytest.mark.parametrize("entry", [0.5, 0.3 + 0.4j, 0.0])
    def test_one_dimensional_space(self, entry):
        # h = 1 leaves the antisymmetric block empty.
        T = OperatorTuple((np.array([[entry]]), np.array([[0.25]])))
        assert commutant_dimension(T) == 1

    @pytest.mark.parametrize("imag, dtype", [(0.0, np.float64),
                                             (-0.0, np.complex128)])
    def test_zero_tuple(self, imag, dtype):
        # A -0.0 imaginary part keeps the zero tuple in complex storage.
        z = OperatorTuple((np.full((3, 3), complex(0.0, imag)),) * 2)
        assert z.dtype == dtype
        assert commutant_dimension(z) == 9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spherical_shift_sum(self, k):
        # An irreducible shift plus k copies of one scalar tuple.
        T = spherical_shift_sum(2, 3, (0.6, 0.8), k)
        assert commutant_dimension(T) == 1 + k * k
        assert commutant_dimension(rotate(T)) == 1 + k * k
