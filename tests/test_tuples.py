"""Unit tests for operator tuples, words, and cp-map plumbing."""

import numpy as np
import pytest

from defectseq.errors import ArgumentError, SizeCapError
from defectseq.linalg import Subspace, coordinate_subspace
from defectseq.tuples import (
    OperatorTuple,
    apply_cp_map,
    compress,
    cp_iterate,
    direct_sum,
    is_commuting,
    row_operator,
    tuple_power,
    tuple_product,
    validate_word,
    word_apply,
    word_index,
    words_of_length,
)


def random_tuple(rng, d, h, scale=0.4):
    ops = tuple(
        scale * (rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
        for _ in range(d)
    )
    return OperatorTuple(ops)


class TestOperatorTuple:
    def test_shape_and_counts(self):
        T = OperatorTuple((np.eye(3), np.zeros((3, 3))))
        assert T.d == 2
        assert T.h == 3

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            OperatorTuple(())

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ArgumentError):
            OperatorTuple((np.eye(2), np.eye(3)))

    def test_rejects_non_square(self):
        with pytest.raises(ArgumentError):
            OperatorTuple((np.ones((2, 3)),))

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(ArgumentError):
            OperatorTuple((bad,))

    def test_ops_are_readonly(self):
        T = OperatorTuple((np.eye(2),))
        with pytest.raises(ValueError):
            T.ops[0][0, 0] = 5.0

    def test_one_based_letter_access(self):
        a, b = np.eye(2), 2 * np.eye(2)
        T = OperatorTuple((a, b))
        assert np.array_equal(T.op(2), b)
        with pytest.raises(ArgumentError):
            T.op(0)

    def test_relabel(self):
        T = OperatorTuple((np.eye(2),), label="before")
        assert T.relabel("after").label == "after"


class TestWords:
    def test_validate_word_range(self):
        assert validate_word((1, 2, 1), 2) == (1, 2, 1)
        with pytest.raises(ArgumentError):
            validate_word((1, 3), 2)

    def test_words_of_length_counts(self):
        assert len(list(words_of_length(3, 2))) == 9
        assert list(words_of_length(2, 0)) == [()]

    def test_word_index_is_lexicographic(self):
        words = list(words_of_length(2, 3))
        assert [word_index(w, 2) for w in words] == list(range(8))

    def test_word_apply_matches_manual_product(self):
        rng = np.random.default_rng(0)
        T = random_tuple(rng, 2, 4)
        w = (2, 1, 2)
        manual = T.ops[1] @ T.ops[0] @ T.ops[1]
        assert np.allclose(word_apply(T, w), manual)

    def test_word_apply_empty_word(self):
        T = OperatorTuple((np.zeros((3, 3)),))
        assert np.array_equal(word_apply(T, ()), np.eye(3))


class TestCpMap:
    def test_matches_row_operator_at_identity(self):
        rng = np.random.default_rng(1)
        T = random_tuple(rng, 3, 5)
        row = row_operator(T)
        assert row.shape == (5, 15)
        assert np.allclose(apply_cp_map(T, np.eye(5)), row @ row.conj().T)

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(2)
        T = random_tuple(rng, 2, 4)
        x = np.diag([1.0, 0.5, 0.25, 0.0])
        y = apply_cp_map(T, x)
        assert np.array_equal(y, y.conj().T)

    def test_rejects_non_hermitian_argument(self):
        T = OperatorTuple((np.eye(2),))
        with pytest.raises(ArgumentError):
            apply_cp_map(T, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_dimension_mismatch(self):
        T = OperatorTuple((np.eye(2),))
        with pytest.raises(ArgumentError):
            apply_cp_map(T, np.eye(3))

    def test_cp_iterate_composes(self):
        rng = np.random.default_rng(3)
        T = random_tuple(rng, 2, 4)
        x = cp_iterate(T, 3)
        y = apply_cp_map(T, apply_cp_map(T, apply_cp_map(T, np.eye(4))))
        assert np.allclose(x, y)
        assert np.array_equal(cp_iterate(T, 0), np.eye(4))

    def test_iterates_decrease_for_contractions(self):
        rng = np.random.default_rng(4)
        raw = random_tuple(rng, 2, 5, scale=0.3)
        row_norm = np.linalg.norm(row_operator(raw), 2)
        T = OperatorTuple(tuple(op / row_norm for op in raw.ops))
        prev = cp_iterate(T, 1)
        for n in range(2, 5):
            cur = cp_iterate(T, n)
            gap = np.linalg.eigvalsh(prev - cur)
            assert gap[0] >= -1e-12
            prev = cur


class TestProductsAndPowers:
    def test_product_enumeration_order(self):
        rng = np.random.default_rng(5)
        b = random_tuple(rng, 2, 3)
        c = random_tuple(rng, 3, 3)
        p = tuple_product(b, c)
        assert p.d == 6
        # Entry (i-1)*k + (j-1) must be B_i C_j.
        assert np.allclose(p.ops[1 * 3 + 2], b.ops[1] @ c.ops[2])

    def test_product_cp_map_composes(self):
        rng = np.random.default_rng(6)
        b = random_tuple(rng, 2, 4)
        c = random_tuple(rng, 2, 4)
        p = tuple_product(b, c)
        x = np.diag([1.0, 0.5, 0.25, 0.125])
        assert np.allclose(apply_cp_map(p, x),
                           apply_cp_map(b, apply_cp_map(c, x)))

    def test_product_requires_common_space(self):
        with pytest.raises(ArgumentError):
            tuple_product(OperatorTuple((np.eye(2),)),
                          OperatorTuple((np.eye(3),)))

    def test_identity_product_copies_the_other_factor(self):
        rng = np.random.default_rng(7)
        c = random_tuple(rng, 3, 4)
        one = OperatorTuple((np.eye(4),))
        p = tuple_product(one, c)
        assert p.d == c.d
        for got, want in zip(p.ops, c.ops):
            assert np.allclose(got, want)

    def test_power_entries_follow_word_order(self):
        rng = np.random.default_rng(8)
        T = random_tuple(rng, 2, 3)
        p = tuple_power(T, 3)
        assert p.d == 8
        for w in words_of_length(2, 3):
            assert np.allclose(p.ops[word_index(w, 2)], word_apply(T, w))

    def test_power_respects_size_cap(self, monkeypatch):
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "7")
        T = OperatorTuple((np.eye(2), np.zeros((2, 2))))
        with pytest.raises(SizeCapError):
            tuple_power(T, 3)

    def test_power_needs_positive_exponent(self):
        T = OperatorTuple((np.eye(2),))
        with pytest.raises(ArgumentError):
            tuple_power(T, 0)


class TestDirectSumAndCompress:
    def test_direct_sum_blocks(self):
        a = OperatorTuple((np.eye(2),))
        b = OperatorTuple((3 * np.eye(3),))
        s = direct_sum(a, b)
        assert s.h == 5
        assert np.allclose(s.ops[0][:2, :2], np.eye(2))
        assert np.allclose(s.ops[0][2:, 2:], 3 * np.eye(3))
        assert np.allclose(s.ops[0][:2, 2:], 0)

    def test_direct_sum_requires_equal_lengths(self):
        with pytest.raises(ArgumentError):
            direct_sum(OperatorTuple((np.eye(2),)),
                       OperatorTuple((np.eye(2), np.eye(2))))

    def test_compress_to_coordinates(self):
        T = OperatorTuple((np.arange(16, dtype=float).reshape(4, 4),))
        sub = coordinate_subspace(4, [0, 2])
        c = compress(T, sub)
        assert c.h == 2
        assert np.allclose(c.ops[0], [[0.0, 2.0], [8.0, 10.0]])

    def test_coinvariant_compression_powers_agree(self):
        # For a co-invariant subspace the compression of the power equals
        # the power of the compression; exercised on the nilpotent ladder
        # with the span of the top coordinates, which its adjoint fixes.
        h = 5
        ladder = np.diag(np.ones(h - 1), -1)
        T = OperatorTuple((ladder,))
        sub = coordinate_subspace(h, [0, 1, 2])
        c = compress(T, sub)
        for n in (1, 2, 3):
            big = np.linalg.matrix_power(ladder, n)
            small = np.linalg.matrix_power(c.ops[0], n)
            assert np.allclose(small, big[:3, :3])

    def test_compress_rejects_zero_subspace(self):
        T = OperatorTuple((np.eye(3),))
        with pytest.raises(ArgumentError):
            compress(T, Subspace(3, np.zeros((3, 0))))

    def test_compress_rejects_wrong_ambient(self):
        T = OperatorTuple((np.eye(3),))
        with pytest.raises(ArgumentError):
            compress(T, coordinate_subspace(4, [0]))


class TestCommutation:
    def test_diagonal_tuples_commute(self):
        T = OperatorTuple((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        assert is_commuting(T)

    def test_single_entry_commutes(self):
        assert is_commuting(OperatorTuple((np.ones((2, 2)),)))

    def test_shift_pair_does_not_commute(self):
        up = np.diag(np.ones(2), 1)
        down = up.T
        assert not is_commuting(OperatorTuple((up, down)))


class TestStorageType:
    def test_real_input_is_stored_as_float64(self):
        T = OperatorTuple((np.eye(2), np.array([[0, 1], [0, 0]])))
        assert T.dtype == np.float64
        assert all(op.dtype == np.float64 for op in T.ops)

    def test_complex_input_with_zero_imaginary_parts_is_stored_real(self):
        T = OperatorTuple((np.array([[0.5 + 0j, -1.0 + 0j], [0j, 0j]]),))
        assert T.dtype == np.float64
        assert np.array_equal(T.ops[0], [[0.5, -1.0], [0.0, 0.0]])

    def test_complex_input_is_stored_as_complex128(self):
        T = OperatorTuple((np.eye(2), np.array([[0.0, 0.5j], [0.0, 0.0]])))
        assert T.dtype == np.complex128
        assert all(op.dtype == np.complex128 for op in T.ops)

    def test_negative_zero_imaginary_part_keeps_the_tuple_complex(self):
        m = np.eye(2, dtype=np.complex128)
        m[0, 1] = complex(0.0, -0.0)
        T = OperatorTuple((np.eye(2), m))
        assert T.dtype == np.complex128
        assert np.signbit(T.ops[1][0, 1].imag)

    def test_tuple_payload_keeps_the_negative_zero(self):
        from defectseq.io import tuple_to_payload
        m = np.eye(2, dtype=np.complex128)
        m[1, 0] = complex(0.25, -0.0)
        re, im = tuple_to_payload(OperatorTuple((m,)))["ops"][0][1][0]
        assert (re, im) == (0.25, 0.0)
        assert np.signbit(im)
        real = tuple_to_payload(OperatorTuple((np.eye(2),)))["ops"][0]
        assert real == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        assert not np.signbit(np.array(real)).any()

    def test_real_tuple_kernels_stay_real(self):
        rng = np.random.default_rng(4)
        T = OperatorTuple(tuple(0.4 * rng.standard_normal((3, 3))
                                for _ in range(2)))
        assert cp_iterate(T, 2).dtype == np.float64
        assert apply_cp_map(T, np.eye(3)).dtype == np.float64
        assert word_apply(T, (1, 2)).dtype == np.float64
        assert tuple_power(T, 2).dtype == np.float64

    def test_real_tuple_on_complex_argument_gives_complex(self):
        rng = np.random.default_rng(5)
        T = OperatorTuple(tuple(0.4 * rng.standard_normal((3, 3))
                                for _ in range(2)))
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = g @ g.conj().T
        out = apply_cp_map(T, x)
        assert out.dtype == np.complex128
        want = sum(op @ x @ op.T for op in T.ops)
        assert np.allclose(out, want)
        assert np.abs(out.imag).max() > 0.1

    def test_phase_rotation_has_the_same_cp_map(self):
        rng = np.random.default_rng(6)
        T = OperatorTuple(tuple(0.4 * rng.standard_normal((4, 4))
                                for _ in range(3)))
        R = OperatorTuple(tuple(np.exp(0.7j) * op for op in T.ops))
        assert R.dtype == np.complex128
        assert np.allclose(cp_iterate(R, 3), cp_iterate(T, 3))
