"""Unit tests for operator tuples, words, and cp-map plumbing."""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectseq.tuples as tuples_module
from defectseq.classify import classify
from defectseq.defect import defect_sequence
from defectseq.errors import ArgumentError, SizeCapError
from defectseq.linalg import (
    DEFAULT_TOL,
    RankTolerance,
    Subspace,
    coordinate_subspace,
    hermitize,
)
from defectseq.models import (
    finite_phi_compression,
    fock_creation,
    haar_unitary,
    random_contractive,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import (
    OperatorTuple,
    _dense_step,
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
from tuple_files import DATA, overflowing_pair, v1_payload


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
        # Numpy integers count, and come back as Python ints.
        w = validate_word((np.int64(1), np.int32(2)), 2)
        assert w == (1, 2) and all(type(c) is int for c in w)
        # A float or a bool letter is refused, not truncated.
        for word in ((1.5, 2.9), (1.0,), (True,), (np.float64(2.0),)):
            with pytest.raises(ArgumentError,
                               match="word letter must be an integer"):
                validate_word(word, 3)
        T = fock_creation(2, 2)
        with pytest.raises(ArgumentError, match="word letter"):
            word_apply(T, (1.9,))
        with pytest.raises(ArgumentError, match="word letter"):
            finite_phi_compression(2, 3, {(1.5,): 1.0})

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

    @pytest.mark.parametrize("n", [True, False, np.bool_(True), 2.5, 2.0,
                                   "2", None], ids=repr)
    def test_cp_iterate_needs_an_integer_count(self, n):
        T = OperatorTuple((0.5 * np.eye(2),))
        with pytest.raises(ArgumentError,
                           match="iteration count must be an integer"):
            cp_iterate(T, n)

    @pytest.mark.parametrize("n", [np.int64(2), np.int32(2), np.uint8(2)],
                             ids=repr)
    def test_cp_iterate_accepts_numpy_integers(self, n):
        T = OperatorTuple((0.5 * np.eye(2),))
        assert np.array_equal(cp_iterate(T, n), cp_iterate(T, 2))
        with pytest.raises(ArgumentError,
                           match="iteration count must be nonnegative"):
            cp_iterate(T, np.int64(-1))

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
        with pytest.raises(ArgumentError,
                           match="tuple power exponent must be at least 1"):
            tuple_power(T, 0)

    @pytest.mark.parametrize("n", [True, 1.5], ids=repr)
    def test_power_exponent_must_be_an_integer(self, n):
        T = OperatorTuple((0.5 * np.eye(2),))
        with pytest.raises(ArgumentError,
                           match="tuple power exponent must be an integer"):
            tuple_power(T, n)

    @pytest.mark.parametrize("n", [True, 1.5], ids=repr)
    def test_word_length_must_be_an_integer(self, n):
        with pytest.raises(ArgumentError,
                           match="word length must be an integer"):
            words_of_length(2, n)


class TestDirectSumAndCompress:
    @pytest.mark.parametrize("second, dtype", [
        (np.array([[3.0, 0.0, -1.5], [0.0, 3.0, 0.0], [2.0, 0.0, 3.0]]),
         np.float64),
        (np.array([[3.0, 1j, 0.0], [0.0, -0.5j, 0.0], [0.0, 0.0, 3.0]]),
         np.complex128),
    ], ids=["float64", "complex128"])
    def test_direct_sum_blocks(self, second, dtype):
        first = np.array([[1.0, -0.0], [0.25, 2.0]])
        a = OperatorTuple((first, -first))
        b = OperatorTuple((second, 2 * second))
        s = direct_sum(a, b)
        assert s.h == 5 and s.dtype == dtype
        assert np.signbit(s.ops[0][0, 1].real)
        # The complex128 block-diagonal construction, whose entries the
        # tuple stores as float64 when every imaginary part is +0.0.
        blocks = []
        for x, y in zip(a.ops, b.ops):
            out = np.zeros((5, 5), dtype=np.complex128)
            out[:2, :2] = x
            out[2:, 2:] = y
            blocks.append(out)
        oracle = OperatorTuple(tuple(blocks))
        assert oracle.dtype == dtype
        assert s._stack.tobytes() == oracle._stack.tobytes()

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
        # Version 1: the file the version 1 writer made from the entry
        # complex(0.25, -0.0), and the same layout for a real tuple.
        payload = json.loads((DATA / "v1_complex.json").read_text())
        re, im = payload["ops"][0][0][0]
        assert (re, im) == (0.25, 0.0)
        assert np.signbit(im)
        real = v1_payload(OperatorTuple((np.eye(2),)))["ops"][0]
        assert real == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        assert not np.signbit(np.array(real)).any()

    def test_tuple_payload_keeps_the_negative_zero_v2(self):
        from defectseq.io import tuple_to_payload
        m = np.eye(2, dtype=np.complex128)
        m[1, 0] = complex(0.25, -0.0)
        p = tuple_to_payload(OperatorTuple((m,)))
        assert (p["dtype"], p["encoding"]) == ("complex128", "dense")
        entries = np.frombuffer(base64.b64decode(p["data"]), "<c16")
        assert entries[2] == 0.25
        assert np.signbit(entries[2].imag)
        real = tuple_to_payload(OperatorTuple((np.eye(2),)))
        assert (real["dtype"], real["encoding"]) == ("float64", "dense")
        entries = np.frombuffer(base64.b64decode(real["data"]), "<f8")
        assert entries.tolist() == [1.0, 0.0, 0.0, 1.0]
        assert not np.signbit(entries).any()

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


def reference_cp(T, x):
    # The dense cp step: d matrix products and a re-symmetrization.
    acc = np.zeros((T.h, T.h), dtype=np.promote_types(T.dtype, x.dtype))
    for op in T.ops:
        acc += op @ x @ op.conj().T
    return hermitize(acc)


def same_bits(a, b):
    # Equal values, NaN included, and equal signs, zeros included.
    a_parts, b_parts = np.stack([a.real, a.imag]), np.stack([b.real, b.imag])
    return (a.dtype == b.dtype
            and np.array_equal(a_parts, b_parts, equal_nan=True)
            and np.array_equal(np.signbit(a_parts), np.signbit(b_parts)))


def partial_permutation(rng, h, fill=0.8):
    # Signed weights of mixed magnitude on a random partial permutation,
    # leaving some rows and columns empty.
    m = np.zeros((h, h))
    keep = rng.random(h) < fill
    rows = rng.permutation(h)[keep]
    cols = rng.permutation(h)[keep]
    m[rows, cols] = (rng.choice([-1.0, 1.0], rows.size)
                     * 10.0 ** rng.uniform(-3, 0, rows.size))
    return m


def contractive_shift(rng, d, h, fill=0.8):
    ops = [partial_permutation(rng, h, fill) for _ in range(d)]
    # cp(I) is diagonal, with the row sums of the squared weights.
    top = np.sqrt(max(float(np.max(sum((m * m).sum(axis=1) for m in ops))),
                       1.0))
    return OperatorTuple(tuple(m / top for m in ops))


FLAGSHIPS = (
    fock_creation(2, 4),
    fock_creation(1, 9),
    fock_creation(3, 3),
    symmetric_fock_shift(2, 6),
    symmetric_fock_shift(3, 4),
    spherical_shift_sum(2, 3, (0.6, 0.8), 2),
)


class TestShiftPattern:
    @pytest.mark.parametrize("T", FLAGSHIPS, ids=repr)
    def test_flagships_are_partial_permutations(self, T):
        # The nonzeros of every entry, entry by entry in tuple order.
        rows, cols, weights = T._shift_pattern
        start = 0
        for op in T.ops:
            stop = start + np.count_nonzero(op)
            rebuilt = np.zeros((T.h, T.h))
            rebuilt[rows[start:stop], cols[start:stop]] = weights[start:stop]
            assert np.array_equal(rebuilt, op)
            start = stop
        assert start == rows.size

    def test_pattern_is_computed_on_first_use(self):
        T = fock_creation(2, 3)
        assert "_shift_pattern" not in vars(T)
        apply_cp_map(T, np.eye(T.h))
        assert "_shift_pattern" in vars(T)

    def test_complex_and_dense_tuples_have_none(self):
        T = fock_creation(2, 3)
        rotated = OperatorTuple(tuple(np.exp(0.7j) * op for op in T.ops))
        assert rotated._shift_pattern is None
        assert random_contractive(2, 5, 1, 0)._shift_pattern is None

    @pytest.mark.parametrize("where", ["tiny-entry", "row", "column"])
    def test_near_misses_take_the_dense_route(self, where):
        T = fock_creation(2, 3)
        ops = [np.array(op) for op in T.ops]
        if where == "tiny-entry":
            # 1e-300 is an exact nonzero, the second in column 3.
            ops[0][0, 3] = 1e-300
        elif where == "row":
            # Row 1 of the first entry already maps vacuum -> e_1.
            ops[0][1, 2] = 0.5
        else:
            # Column 0 of the first entry already feeds e_1.
            ops[0][2, 0] = 0.5
            ops[1][2, 0] = 0.0
        near = OperatorTuple(tuple(ops))
        assert near._shift_pattern is None
        x = np.eye(near.h)
        for _ in range(near.h + 1):
            fast, dense = apply_cp_map(near, x), reference_cp(near, x)
            assert same_bits(fast, dense)
            x = fast

    def test_zero_entries_add_nothing_to_the_pattern(self):
        T = OperatorTuple((np.zeros((3, 3)), np.eye(3)))
        rows, cols, weights = T._shift_pattern
        assert np.array_equal(rows, [0, 1, 2]) and np.array_equal(cols, rows)
        assert same_bits(apply_cp_map(T, np.eye(3)), np.eye(3))
        Z = OperatorTuple((np.zeros((3, 3)),))
        assert Z._shift_pattern[0].size == 0
        assert same_bits(apply_cp_map(Z, np.eye(3)), reference_cp(Z, np.eye(3)))


def reference_shift_pattern(stack):
    """The per-entry definition of the shift pattern of a float64 stack.

    The exact nonzeros of each entry as ``np.count_nonzero`` and
    ``np.nonzero`` read them: -0.0 is zero, NaN and 1e-300 are not.
    """
    h = stack.shape[1]
    rows, cols, weights = [], [], []
    for op in stack:
        if np.count_nonzero(op) > h:
            return None
        r, c = np.nonzero(op)
        if (np.diff(r) == 0).any() or (np.diff(np.sort(c)) == 0).any():
            return None
        rows.append(r)
        cols.append(c)
        weights.append(op[r, c])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)


def assert_same_pattern(got, want):
    if want is None:
        assert got is None
        return
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def pattern_stacks(draw):
    """Float64 (d, h, h) stacks of mostly zeros, either sign, with a few
    entries from 1.0, -2.5, 1e-300 and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d, h = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    stack = np.where(rng.random((d, h, h)) < 0.5, 0.0, -0.0)
    if draw(st.booleans()):
        # A weighted partial permutation in every entry.
        for op in stack:
            keep = rng.random(h) < 0.8
            op[rng.permutation(h)[keep], rng.permutation(h)[keep]] = 1.0
    fill = draw(st.sampled_from((0.0, 0.05, 0.2, 1.0)))
    extra = rng.random((d, h, h)) < fill
    stack[extra] = rng.choice([1.0, -2.5, 1e-300, np.nan], extra.sum())
    return stack


class TestPartialPermutation:
    """The shift pattern is read off ``stack != 0`` as the per-entry
    definition reads it."""

    @settings(max_examples=300, deadline=None)
    @given(pattern_stacks())
    def test_matches_the_per_entry_definition(self, stack):
        assert_same_pattern(tuples_module._partial_permutation(stack),
                            reference_shift_pattern(stack))

    @pytest.mark.parametrize("T", FLAGSHIPS, ids=repr)
    def test_flagships(self, T):
        assert_same_pattern(T._shift_pattern, reference_shift_pattern(T._stack))

    @pytest.mark.parametrize("values, shift", [
        ([[-0.0]], True), ([[0.0]], True), ([[np.nan]], True),
        ([[1e-300]], True),
        ([[1.0, -0.0], [-0.0, np.nan]], True),
        ([[1.0, np.nan], [0.0, 0.0]], False),
        ([[1.0, 0.0], [1e-300, 0.0]], False),
        ([[1.0, -0.0], [-0.0, 1.0]], True),
        ([[0.5, 0.5], [0.5, 0.5]], False),
    ])
    def test_signed_zeros_nan_and_tiny_entries(self, values, shift):
        stack = np.array([values])
        got = tuples_module._partial_permutation(stack)
        assert (got is not None) == shift
        assert_same_pattern(got, reference_shift_pattern(stack))

    def test_dense_tuple_and_a_second_entry_row(self):
        dense = random_contractive(2, 5, 1, 0)
        real = np.ascontiguousarray(np.array(dense.ops).real)
        assert tuples_module._partial_permutation(real) is None
        stack = np.array(fock_creation(2, 3).ops)
        # Row 0 of entry 2 is empty, its column 0 maps the vacuum: a
        # second nonzero in a column only.
        assert not stack[1][0].any() and stack[1][:, 0].any()
        stack[1][0, 0] = 0.25
        assert reference_shift_pattern(stack) is None
        assert tuples_module._partial_permutation(stack) is None


@st.composite
def shift_tuples(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(FLAGSHIPS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return contractive_shift(rng, draw(st.integers(1, 3)),
                             draw(st.integers(1, 40)),
                             draw(st.sampled_from((0.3, 0.8, 1.0))))


class TestDiagonalCpRoute:
    @settings(max_examples=80, deadline=None)
    @given(shift_tuples())
    def test_every_iterate_matches_the_dense_step(self, T):
        assert T._shift_pattern is not None
        x = y = np.eye(T.h)
        for _ in range(T.h + 3):
            x, y = apply_cp_map(T, x), reference_cp(T, y)
            assert same_bits(x, y)

    @settings(max_examples=60, deadline=None)
    @given(shift_tuples(), st.integers(0, 2 ** 32 - 1))
    def test_signed_diagonal_arguments_match(self, T, seed):
        rng = np.random.default_rng(seed)
        diag = rng.standard_normal(T.h) * 10.0 ** rng.integers(-320, 307, T.h)
        diag[rng.random(T.h) < 0.3] = 0.0
        diag[rng.random(T.h) < 0.2] = -0.0
        x = np.diag(diag)
        x[~np.eye(T.h, dtype=bool) & (rng.random((T.h, T.h)) < 0.3)] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_cp(T, x)
        assert same_bits(apply_cp_map(T, x), want)

    def test_overflowing_steps_match_the_dense_step(self):
        # 1e200 * 1e200 overflows; the dense products leave inf on the
        # diagonal and NaN off it.  A finite 1.5e308 overflows in the
        # re-symmetrization (x + x) / 2.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        cases = [(1e200 * swap, np.eye(2)), (1e200 * swap, np.diag([1e200, 1.0])),
                 (1e200 * swap, np.diag([1e300, 1e300])),
                 (swap, np.diag([1.5e308, 1.0])), (swap, np.diag([-1.5e308, 0.5]))]
        for ops, x in cases:
            T = OperatorTuple((ops,))
            with np.errstate(over="ignore", invalid="ignore"):
                want = reference_cp(T, x)
                got = apply_cp_map(T, x)
            assert same_bits(got, want)

    def test_non_diagonal_and_complex_arguments_take_the_dense_step(self):
        T = fock_creation(2, 3)
        rng = np.random.default_rng(8)
        g = rng.standard_normal((T.h, T.h))
        for x in (g @ g.T, np.eye(T.h, dtype=np.complex128)):
            assert same_bits(apply_cp_map(T, x), reference_cp(T, x))


def kernel_cases():
    # (tuple, argument) pairs covering every route of the cp step.
    rng = np.random.default_rng(11)
    real = OperatorTuple(tuple(0.4 * rng.standard_normal((5, 5))
                               for _ in range(2)))
    cplx = random_tuple(rng, 3, 5)
    shift = fock_creation(2, 3)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    signed = np.diag([0.5, -0.0, 0.0, -0.25, 1.0] + [0.0] * 10)
    signed[0, 1] = signed[1, 0] = -0.0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return [
        ("real-dense", real, np.eye(5)),
        ("real-dense-full", real, (g + g.conj().T).real),
        ("complex-dense", cplx, np.eye(5)),
        ("complex-dense-full", cplx, g @ g.conj().T),
        ("diagonal", shift, np.diag(np.linspace(1.0, 0.0, 15))),
        ("real-tuple-complex-argument", real, g @ g.conj().T),
        ("shift-complex-argument", shift, np.eye(15, dtype=np.complex128)),
        ("negative-zeros", shift, signed),
        ("negative-zeros-dense", real, np.where(np.eye(5) > 0, 1.0, -0.0)),
        ("overflow-diagonal", OperatorTuple((1e200 * swap,)), np.eye(2)),
        ("overflow-dense", OperatorTuple((1e200 * (swap + np.eye(2)),)),
         np.eye(2)),
        ("overflow-complex", OperatorTuple((1e200j * swap,)), np.eye(2)),
        ("overflow-symmetrize", OperatorTuple((swap,)),
         np.diag([1.5e308, 1.0])),
    ]


KERNEL_CASES = kernel_cases()


class TestCpKernel:
    @pytest.mark.parametrize("T, x", [case[1:] for case in KERNEL_CASES],
                             ids=[case[0] for case in KERNEL_CASES])
    def test_kernel_matches_the_public_step(self, T, x):
        with np.errstate(over="ignore", invalid="ignore"):
            public = apply_cp_map(T, x)
            kernel = _dense_step(T, x)
            dense = reference_cp(T, x)
        assert same_bits(kernel, public)
        assert same_bits(kernel, dense)

    @pytest.mark.parametrize("make", [
        lambda: OperatorTuple(tuple(np.asfortranarray(
            np.random.default_rng(12).standard_normal((4, 4)))
            for _ in range(3))),
        lambda: random_tuple(np.random.default_rng(13), 2, 4),
        lambda: fock_creation(2, 3),
        lambda: OperatorTuple((np.array([[-0.0 + 0.0j]]),)),
    ], ids=["real-fortran", "complex", "shift", "h1-signed-zero"])
    def test_every_op_is_a_readonly_view_of_one_stack(self, make):
        T = make()
        stack = T._stack
        assert stack.shape == (T.d, T.h, T.h)
        assert stack.dtype == T.dtype
        assert stack.flags.c_contiguous and not stack.flags.writeable
        assert stack.base is None
        for i, op in enumerate(T.ops):
            assert op.base is stack
            assert op.flags.c_contiguous and not op.flags.writeable
            assert op.tobytes() == stack[i].tobytes()

    def test_entries_keep_their_bytes_and_are_copied_once(self):
        rng = np.random.default_rng(16)
        entries = [np.asfortranarray(rng.standard_normal((3, 3)))
                   for _ in range(2)]
        entries[0][1, 2] = -0.0
        T = OperatorTuple(entries)
        for entry, op in zip(entries, T.ops):
            assert not np.shares_memory(op, entry)
            assert op.tobytes() == np.ascontiguousarray(entry).tobytes()
        assert same_bits(OperatorTuple(T.ops).ops[1], T.ops[1])

    def test_real_adjoints_share_the_entries_memory(self):
        rng = np.random.default_rng(12)
        T = OperatorTuple(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        cp_iterate(T, 2)
        adjoints = vars(T)["_adjoint_stack"]
        assert adjoints.base is T._stack
        for op, adjoint in zip(T.ops, adjoints):
            assert same_bits(adjoint, op.T)
            assert adjoint.strides == op.T.strides
        cp_iterate(T, 3)
        assert T._adjoint_stack is adjoints

    def test_complex_tuple_builds_one_conjugate_copy_once(self):
        T = random_tuple(np.random.default_rng(13), 2, 4)
        assert "_adjoint_stack" not in vars(T)
        apply_cp_map(T, np.eye(4))
        adjoints = vars(T)["_adjoint_stack"]
        assert adjoints.base is not None
        assert adjoints.base.nbytes == T._stack.nbytes
        assert not np.shares_memory(adjoints, T._stack)
        assert not adjoints.flags.writeable
        for op, adjoint in zip(T.ops, adjoints):
            assert adjoint.strides == op.conj().T.strides
            assert same_bits(adjoint, op.conj().T)
        cp_iterate(T, 3)
        tuples_module._dense_stepper(T, T.dtype)(
            np.eye(4, dtype=T.dtype), np.empty((4, 4), T.dtype))
        assert T._adjoint_stack is adjoints

    def test_shift_tuple_builds_no_adjoints_on_the_diagonal_route(self):
        # The defect ladder of a weighted shift steps its diagonal alone.
        T = fock_creation(2, 3)
        assert defect_sequence(T, T.h + 2).deltas[-1] == T.h
        apply_cp_map(T, np.diag(np.linspace(1.0, 0.0, T.h)))
        assert "_adjoint_stack" not in vars(T)
        apply_cp_map(T, np.ones((T.h, T.h)))
        assert vars(T)["_adjoint_stack"].base is T._stack

    def test_classify_leaves_a_complex_tuple_with_one_conjugate_copy(self):
        # The entries once, in the stack, plus the one conjugate copy of
        # the dense step: the ladder, the purity loop and the commutant
        # count all read those two.
        T = random_contractive(2, 5, 1, 23)
        assert T.dtype == np.complex128
        classify(T)
        buffers = {}
        for value in vars(T).values():
            for a in value if isinstance(value, tuple) else (value,):
                while isinstance(a, np.ndarray) and a.base is not None:
                    a = a.base
                if isinstance(a, np.ndarray):
                    buffers[id(a)] = a.nbytes
        assert sorted(buffers.values()) == [T._stack.nbytes] * 2

    @pytest.mark.parametrize("T", [
        OperatorTuple(tuple(0.4 * np.random.default_rng(14).standard_normal((4, 4))
                            for _ in range(2))),
        random_tuple(np.random.default_rng(15), 2, 4, scale=0.3),
        fock_creation(2, 2),
        random_contractive(2, 6, 1, 3),
    ], ids=["real-dense", "complex-dense", "shift", "random-contractive"])
    def test_cp_iterate_matches_public_steps(self, T):
        x = np.eye(T.h, dtype=T.dtype)
        for n in range(T.h + 3):
            assert same_bits(cp_iterate(T, n), x)
            x = apply_cp_map(T, x)

    def test_overflowing_iterate_is_returned_then_refused(self):
        T = OperatorTuple((1e200 * np.eye(3),))
        with np.errstate(over="ignore", invalid="ignore"):
            first = cp_iterate(T, 1)
            assert same_bits(first, apply_cp_map(T, np.eye(3)))
            assert not np.isfinite(first).all()
            with pytest.raises(ArgumentError) as public:
                apply_cp_map(T, first)
            for n in (2, 3):
                with pytest.raises(ArgumentError) as looped:
                    cp_iterate(T, n)
                assert str(looped.value) == str(public.value)
        assert str(public.value) == "cp-map argument contains non-finite entries"


def reference_is_commuting(T, tol=None):
    # Every spectral norm taken exactly.
    tol = DEFAULT_TOL if tol is None else tol
    if T.d == 1:
        return True
    max_norm = max(float(np.linalg.norm(op, 2)) for op in T.ops)
    bound = tol.rtol * (1.0 + max_norm * max_norm)
    norms = [float(np.linalg.norm(T.ops[i] @ T.ops[j] - T.ops[j] @ T.ops[i], 2))
             for i in range(T.d) for j in range(i + 1, T.d)]
    return all(n <= bound for n in norms)


def commuting_draw(rng, d, h, real):
    # Polynomials in one random matrix commute up to rounding.
    a = rng.standard_normal((h, h))
    if not real:
        a = a + 1j * rng.standard_normal((h, h))
    a /= np.linalg.norm(a, 2)
    ops, power = [], np.eye(h)
    for _ in range(d):
        power = power @ a
        ops.append(rng.uniform(0.2, 1.0) * power)
    return OperatorTuple(tuple(ops))


class TestCommutingBounds:
    @pytest.mark.parametrize("T", FLAGSHIPS, ids=repr)
    def test_flagships_match_the_exact_norms(self, T):
        assert is_commuting(T) == reference_is_commuting(T)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 8),
           st.sampled_from(("random", "real", "commuting", "commuting-real")))
    def test_draws_match_the_exact_norms(self, seed, d, h, kind):
        rng = np.random.default_rng(seed)
        if kind.startswith("commuting"):
            T = commuting_draw(rng, d, h, kind.endswith("real"))
        else:
            T = random_contractive(d, h, min(1, h), seed)
            if kind == "real":
                T = OperatorTuple(tuple(op.real for op in T.ops))
        assert is_commuting(T) == reference_is_commuting(T)

    @pytest.mark.parametrize("seed", range(4))
    def test_commutators_near_the_bound_match(self, seed):
        # Put rtol where the exact test flips, then step across it.
        rng = np.random.default_rng(seed)
        T = OperatorTuple(tuple(0.4 * rng.standard_normal((5, 5))
                                for _ in range(3)))
        max_norm = max(np.linalg.norm(op, 2) for op in T.ops)
        worst = max(np.linalg.norm(T.ops[i] @ T.ops[j] - T.ops[j] @ T.ops[i], 2)
                    for i in range(3) for j in range(i + 1, 3))
        edge = worst / (1.0 + max_norm * max_norm)
        for rtol in (edge * (1 - 1e-6), edge * (1 - 1e-12), edge,
                     np.nextafter(edge, 0), np.nextafter(edge, 1),
                     edge * (1 + 1e-12), edge * (1 + 1e-6)):
            tol = RankTolerance(rtol=float(rtol))
            assert is_commuting(T, tol) == reference_is_commuting(T, tol)

    @pytest.mark.parametrize("seed", range(12))
    def test_single_column_commutators_at_the_bound_match(self, seed):
        # [e_0 e_0^T, c e_0^T] = -c e_0^T has column norm, spectral norm
        # and Frobenius norm all equal, so the bounds are tight and only
        # the slack separates their rounding from the SVD's.
        rng = np.random.default_rng(seed)
        h = 6
        c = 0.3 * rng.standard_normal(h)
        c[0] = 0.0
        proj = np.zeros((h, h))
        proj[0, 0] = 1.0
        col = np.zeros((h, h))
        col[:, 0] = c
        T = OperatorTuple((proj, col))
        edge = np.linalg.norm(-np.outer(c, proj[0]), 2) / 2.0
        for rtol in (edge, np.nextafter(edge, 0), np.nextafter(edge, 1),
                     edge * (1 - 1e-15), edge * (1 + 1e-15)):
            tol = RankTolerance(rtol=float(rtol))
            assert is_commuting(T, tol) == reference_is_commuting(T, tol)

    def test_near_commuting_rounding_matches(self):
        T = symmetric_fock_shift(3, 5)
        assert is_commuting(T) and reference_is_commuting(T)
        perturbed = OperatorTuple((T.ops[0], T.ops[1] + 1e-12 * T.ops[0].T,
                                   T.ops[2]))
        for rtol in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            tol = RankTolerance(rtol=rtol)
            assert (is_commuting(perturbed, tol)
                    == reference_is_commuting(perturbed, tol))


def conjugated_diagonals(rng, d, h, real, scale=1.0):
    # U* diag(x_i) U for one orthogonal or Haar unitary U: a dense tuple
    # that commutes up to rounding.
    if real:
        u, _ = np.linalg.qr(rng.standard_normal((h, h)))
    else:
        u = haar_unitary(h, rng)
    return OperatorTuple(tuple(
        scale * (u.conj().T @ np.diag(rng.uniform(-1.0, 1.0, h)) @ u)
        for _ in range(d)))


def spy_on(monkeypatch, name):
    # Record the result of every call of tuples.<name> from now on.
    results = []
    real = getattr(tuples_module, name)

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(tuples_module, name, recorded)
    return results


def probe_norm(T):
    # max ||T_i (T_j v) - T_j (T_i v)|| over the pairs, for the probe's v.
    v = tuples_module._probe_vector(T.h)
    return max(float(np.linalg.norm(a @ (b @ v) - b @ (a @ v)))
               for a in T.ops for b in T.ops)


class TestCommutatorProbe:
    """A dense tuple's commutators are probed with one vector first.

    The probe may only settle a tuple as noncommuting, and only when the
    spectral norms would; everything else goes on to the bounds and the
    spectral norms, so every verdict equals the exact one.
    """

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("h", [2, 8, 24, 64])
    def test_commuting_dense_tuples(self, monkeypatch, real, d, h):
        T = conjugated_diagonals(np.random.default_rng(h), d, h, real)
        probes = spy_on(monkeypatch, "_probe_exceeds")
        assert is_commuting(T) and reference_is_commuting(T)
        assert probes == [False]

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("h", [2, 5, 24, 64])
    def test_commutators_at_the_bound_match(self, real, h, side):
        # ||C||_2 = bound * (1 +- 1e-6): rtol put next to the exact edge
        # of a conjugated diagonal pair with one entry perturbed.
        rng = np.random.default_rng((h, side + 1))
        a, b = conjugated_diagonals(rng, 2, h, real).ops
        b = b + 1e-4 * rng.standard_normal((h, h))
        T = OperatorTuple((a, b, 0.5 * a))
        max_norm = max(np.linalg.norm(op, 2) for op in T.ops)
        worst = max(np.linalg.norm(x @ y - y @ x, 2)
                    for x in T.ops for y in T.ops)
        edge = worst / (1.0 + max_norm * max_norm)
        tol = RankTolerance(rtol=float(edge / (1.0 + side * 1e-6)))
        assert is_commuting(T, tol) == reference_is_commuting(T, tol)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("h", [8, 24, 64])
    def test_allowance_declines_at_rounding_level_tolerances(
            self, monkeypatch, real, h):
        # At rtol = 1e-15 the bound is at the rounding of the products,
        # and so is a commuting tuple's probe: the allowance declines
        # and the spectral norms decide.  The same holds for an rtol
        # that puts the probe's norm itself just above the bound.
        T = conjugated_diagonals(np.random.default_rng(h), 2, h, real,
                                 scale=1e3)
        frob_max = max(np.linalg.norm(op) for op in T.ops)
        just_above = (probe_norm(T) / (1.0 + frob_max ** 2)
                      / (1.0 + tuples_module._BOUND_SLACK) * (1 - 1e-6))
        for rtol in (1e-15, just_above):
            tol = RankTolerance(rtol=float(rtol))
            probes = spy_on(monkeypatch, "_probe_exceeds")
            assert is_commuting(T, tol) == reference_is_commuting(T, tol)
            assert probes == [False]

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("gammas", [5, 8, 11])
    def test_allowance_covers_every_rounding_of_both_routes(
            self, monkeypatch, real, gammas):
        # The probe's norm put gammas * g F**2 above the bound, g =
        # gamma_{h+2}: the computed c and C together may be off by about
        # 10 g F**2, so the probe must decline there and leave the
        # verdict to the spectral norms.
        h = 24
        rng = np.random.default_rng((h, gammas))
        a, b = conjugated_diagonals(rng, 2, h, real).ops
        T = OperatorTuple((a, b + 1e-6 * rng.standard_normal((h, h))))
        frob_max = max(float(np.linalg.norm(op)) for op in T.ops)
        n_eps = (h + 2) * np.finfo(np.float64).eps
        g = n_eps / (1.0 - n_eps)
        bound_high = probe_norm(T) - gammas * g * frob_max ** 2
        tol = RankTolerance(rtol=float(
            bound_high / (1.0 + frob_max ** 2)
            / (1.0 + tuples_module._BOUND_SLACK)))
        probes = spy_on(monkeypatch, "_probe_exceeds")
        assert is_commuting(T, tol) == reference_is_commuting(T, tol)
        assert probes == [False]

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("h", [8, 24])
    def test_overflowing_probe_norm_decides_nothing(self, monkeypatch, real,
                                                    h):
        # Entries of about 1e100: F**2, the bound and the allowance stay
        # finite, while the squares of c's entries, about 1e200 and up,
        # overflow in its norm.  The commuting tuple must still commute,
        # as the spectral norms say.
        T = conjugated_diagonals(np.random.default_rng(h), 2, h, real,
                                 scale=1e100)
        frob_max = max(float(np.linalg.norm(op)) for op in T.ops)
        assert np.isfinite(frob_max * frob_max)
        with np.errstate(over="ignore"):
            assert np.isinf(probe_norm(T))
        probes = spy_on(monkeypatch, "_probe_exceeds")
        with np.errstate(over="ignore", invalid="ignore"):
            assert is_commuting(T) == reference_is_commuting(T)
            assert reference_is_commuting(T)
        assert probes == [False]

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("which", ["products", "allowance"])
    def test_overflowing_probe_decides_nothing(self, monkeypatch, real,
                                               which):
        # "products": 1e155 entries on h = 8, so c, F**2 and the products
        # overflow, and the commutator is not finite: is_commuting
        # refuses it, where the reference ends in its SVD.  "allowance":
        # F**2 overflows, and with it the allowance and the bound, while
        # the real products stay finite, and both routes give the verdict
        # of an infinite bound; the complex products overflow.
        rng = np.random.default_rng(3)
        if which == "products":
            ops = [1e155 * rng.uniform(0.5, 1.0, (8, 8)) for _ in range(2)]
        else:
            ops = [1e154 * np.array([[1.0, 0.3], [0.3, 1.0]]),
                   1e154 * np.array([[0.3, 1.0], [0.5, 0.3]])]
        if not real:
            ops = [op * np.exp(1j * rng.uniform(0, 2 * np.pi, op.shape))
                   for op in ops]
        T = OperatorTuple(tuple(ops))

        def outcome(commuting):
            try:
                return commuting(T)
            except (np.linalg.LinAlgError, ArgumentError) as exc:
                return type(exc)

        with np.errstate(all="ignore"):
            frob_max = max(float(np.linalg.norm(op)) for op in T.ops)
            bound = 1e-9 * (1.0 + frob_max * frob_max)
            finite = np.isfinite(ops[0] @ ops[1] - ops[1] @ ops[0]).all()
        assert np.isinf(bound)
        assert finite == (which == "allowance" and real)
        with np.errstate(all="raise"):
            # The probe is silent on its own overflow.
            assert not tuples_module._probe_exceeds(T, frob_max, bound)
        probes = spy_on(monkeypatch, "_probe_exceeds")
        with np.errstate(all="ignore"):
            want = outcome(reference_is_commuting) if finite else ArgumentError
            assert outcome(is_commuting) == want
        assert probes == [False]

    def test_single_entry_takes_no_probe(self, monkeypatch):
        probes = spy_on(monkeypatch, "_probe_exceeds")
        for T in (random_contractive(1, 64, 1, 0),
                  OperatorTuple((np.ones((3, 3)),))):
            assert is_commuting(T) and reference_is_commuting(T)
        assert probes == []

    @pytest.mark.parametrize("real", [True, False])
    def test_noncommuting_draw_forms_no_product(self, monkeypatch, real):
        T = random_contractive(2, 64, 1, 7)
        if real:
            T = OperatorTuple(tuple(op.real for op in T.ops))

        def refused(U):
            raise AssertionError("formed an h x h product")

        monkeypatch.setattr(tuples_module, "_entry_commutators", refused)
        assert not is_commuting(T)
        monkeypatch.undo()
        assert not reference_is_commuting(T)


@st.composite
def stacked_step_cases(draw):
    """(tuple, argument) for the cp step.

    Dense real and complex tuples with d 1-4 and h 1-40, d = 1 and h = 1
    drawn often, Hermitian arguments with -0.0 entries, real tuples with
    complex arguments, and shift tuples on diagonal arguments.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.one_of(st.just(1), st.integers(1, 4)))
    h = draw(st.one_of(st.just(1), st.integers(1, 40)))
    kind = draw(st.sampled_from(("real", "real-complex-argument", "complex",
                                 "shift")))
    if kind == "shift":
        T = contractive_shift(rng, d, h, draw(st.sampled_from((0.3, 1.0))))
        x = np.diag(rng.uniform(0.0, 1.0, h))
    else:
        T = random_tuple(rng, d, h, scale=0.5 / np.sqrt(d * h))
        if kind != "complex":
            T = OperatorTuple(tuple(op.real for op in T.ops))
        g = rng.standard_normal((h, h))
        if kind == "real-complex-argument" or draw(st.booleans()):
            g = g + 1j * rng.standard_normal((h, h))
        x = hermitize(g @ g.conj().T)
    zeros = rng.random((h, h)) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    zeros = zeros | zeros.T
    x = np.where(zeros, -0.0, x)
    return T, x


class TestStackedCpStep:
    @settings(max_examples=200, deadline=None)
    @given(stacked_step_cases())
    def test_both_forms_match_the_per_entry_oracle(self, case):
        T, x = case
        want = reference_cp(T, x)
        assert same_bits(_dense_step(T, x), want)
        assert _dense_step(T, x).tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan, dtype=want.dtype)
        got = tuples_module._dense_stepper(T, x.dtype)(x, out)
        assert got is out
        assert same_bits(got, want)
        assert got.tobytes() == want.tobytes()

    def test_block_slots_match_the_oracle_on_every_iterate(self):
        for T in (random_contractive(3, 7, 2, 21), fock_creation(2, 3),
                  OperatorTuple(tuple(op.real for op in
                                      random_contractive(2, 9, 1, 22).ops))):
            x = np.eye(T.h, dtype=T.dtype)
            step = tuples_module._dense_stepper(T, T.dtype)
            block = np.empty((2, T.h, T.h), dtype=T.dtype)
            block[0] = x
            for _ in range(T.h + 3):
                x = reference_cp(T, x)
                step(block[0], block[1])
                assert block[1].tobytes() == x.tobytes()
                block[0] = block[1]


def bound_step_case(kind, d, h):
    """A dense tuple and three Hermitian arguments for the bound step.

    ``kind`` names the storage types and whether the entries and the
    arguments carry exact +0.0 and -0.0 entries.
    """
    rng = np.random.default_rng(1000 * d + h)
    T = random_tuple(rng, d, h, scale=0.5 / np.sqrt(d * h))
    ops = np.array(T.ops)
    if not kind.startswith("complex"):
        ops = ops.real.copy()
    if kind.endswith("signed-zeros"):
        ops[rng.random(ops.shape) < 0.3] = 0.0
        ops[rng.random(ops.shape) < 0.2] = -0.0
    T = OperatorTuple(tuple(ops))
    args = []
    for _ in range(3):
        g = rng.standard_normal((h, h))
        if kind != "real" and kind != "real-signed-zeros":
            g = g + 1j * rng.standard_normal((h, h))
        x = hermitize(g @ g.conj().T)
        if kind.endswith("signed-zeros"):
            zeros = rng.random((h, h)) < 0.3
            x = np.where(zeros | zeros.T, -0.0, x)
        args.append(x)
    return T, args


class TestBoundDenseStep:
    """``_dense_stepper`` binds the dense step once: same bits every call."""

    @pytest.mark.parametrize("h", [1, 2, 8, 24])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", [
        "real", "complex", "real-complex-argument", "real-signed-zeros",
        "complex-signed-zeros"])
    def test_every_call_matches_the_kernel_and_the_oracle(self, kind, d, h):
        T, args = bound_step_case(kind, d, h)
        step = tuples_module._dense_stepper(T, args[0].dtype)
        # Each argument twice, so every call after the first reads
        # buffers an earlier call wrote.
        for x in args + args:
            want = reference_cp(T, x)
            kernel = _dense_step(T, x)
            assert same_bits(kernel, want)
            assert kernel.tobytes() == want.tobytes()
            got = step(x)
            assert same_bits(got, want)
            assert got.tobytes() == want.tobytes()
            out = np.full(want.shape, np.nan, dtype=want.dtype)
            assert step(x, out) is out
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T, x", [case[1:] for case in KERNEL_CASES],
                             ids=[case[0] for case in KERNEL_CASES])
    def test_kernel_cases_keep_their_bits(self, T, x):
        # Overflow cases included: inf and NaN with their signs.
        step = tuples_module._dense_stepper(T, x.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_cp(T, x)
            for _ in range(2):
                assert same_bits(step(x), want)

    @pytest.mark.parametrize("kind", ["real", "complex", "real-signed-zeros",
                                      "complex-signed-zeros"])
    def test_identity_between_steps(self, kind):
        # The identity route reuses the buffers of the argument route.
        T, args = bound_step_case(kind, 3, 8)
        step = tuples_module._dense_stepper(T, T.dtype)
        eye = np.eye(T.h, dtype=T.dtype)
        want_eye = apply_cp_map(T, eye)
        assert same_bits(want_eye, reference_cp(T, eye))
        for x in args:
            assert x.dtype == T.dtype
            assert same_bits(step(None), want_eye)
            assert same_bits(step(x), reference_cp(T, x))
        assert same_bits(step(None), want_eye)

    @pytest.mark.parametrize("identity", [False, True])
    def test_sum_starts_from_plus_zero(self, identity, monkeypatch):
        # The gemm here returns no -0.0 for the step's products (see
        # _dense_stepper), so a matmul that turns every zero it returns
        # into -0.0 stands in for one that does: the terms are summed
        # from +0.0, so the step gives +0.0 where the per-entry sum from
        # +0.0 does, not the -0.0 of the terms.  On a complex tuple the
        # division by 2 of the hermitization clears a -0.0 real part
        # either way, so a real tuple shows the rule.
        T = fock_creation(2, 2)
        real_matmul = np.matmul

        def negative_zero_matmul(a, b, out=None):
            out = real_matmul(a, b, out=out)
            np.copyto(out, -0.0, where=out == 0)
            return out

        monkeypatch.setattr(np, "matmul", negative_zero_matmul)
        x = np.eye(T.h, dtype=T.dtype)
        acc = np.zeros((T.h, T.h), dtype=T.dtype)
        for op in T.ops:
            term = negative_zero_matmul(negative_zero_matmul(op, x),
                                        op.conj().T)
            assert np.signbit(term[term == 0]).any()
            acc = acc + term
        want = hermitize(acc)
        step = tuples_module._dense_stepper(T, T.dtype)
        assert same_bits(step(None if identity else x), want)

    @pytest.mark.parametrize("T", [fock_creation(2, 2),
                                   random_contractive(2, 4, 1, 24)],
                             ids=["real", "complex"])
    def test_hermitization_keeps_its_operand_order(self, T, monkeypatch):
        # A sum of two NaNs keeps the first operand's, so NaNs of
        # opposite signs at (0, 1) and (1, 0) show the order of
        # acc + acc*.  The gemm here spreads a NaN of the argument over
        # the whole product with one sign, so a matmul that writes the
        # pair into every product stands in for one that does not.
        real_matmul = np.matmul

        def nan_pair_matmul(a, b, out=None):
            out = real_matmul(a, b, out=out)
            out[..., 0, 1] = np.nan
            out[..., 1, 0] = -np.nan
            return out

        monkeypatch.setattr(np, "matmul", nan_pair_matmul)
        x = np.eye(T.h, dtype=T.dtype)
        acc = np.zeros((T.h, T.h), dtype=T.dtype)
        for op in T.ops:
            acc = acc + nan_pair_matmul(nan_pair_matmul(op, x), op.conj().T)
        want = hermitize(acc)
        assert np.signbit(want[0, 1].real) != np.signbit(want[1, 0].real)
        step = tuples_module._dense_stepper(T, T.dtype)
        assert same_bits(step(x), want)

    @pytest.mark.parametrize("make", [
        lambda: random_contractive(3, 7, 2, 21),
        lambda: OperatorTuple(tuple(op.real for op in
                                    random_contractive(2, 9, 1, 22).ops)),
        lambda: fock_creation(2, 3),
    ], ids=["complex", "real", "shift"])
    def test_loop_step_matches_the_kernel_on_every_iterate(self, make):
        # Loops bind the dense step for every tuple; the public step
        # takes the diagonal route on a tuple with the shift pattern,
        # with the kernel's bits.
        T = make()
        step = tuples_module._dense_stepper(T, T.dtype)
        x = np.eye(T.h, dtype=T.dtype)
        block = np.empty((2, T.h, T.h), dtype=T.dtype)
        last, slot = block
        last[...] = x
        for _ in range(T.h + 3):
            want = apply_cp_map(T, x)
            assert _dense_step(T, x).tobytes() == want.tobytes()
            assert step(x).tobytes() == want.tobytes()
            assert step(last, slot) is slot
            assert slot.tobytes() == want.tobytes()
            x = want
            last[...] = slot


def dense_commutators(T):
    return [T.ops[i] @ T.ops[j] - T.ops[j] @ T.ops[i]
            for i in range(T.d) for j in range(i + 1, T.d)]


def weighted_shift(weights, h, step=1):
    # sum_k weights[k] e_{k + step} e_k^T on C^h.
    return np.diag(np.asarray(weights, dtype=float), -step)[:h, :h]


class TestShiftCommutators:
    """Weighted shifts take the one route of ``is_commuting``."""

    @settings(max_examples=80, deadline=None)
    @given(shift_tuples(), st.integers(0, 2 ** 32 - 1))
    def test_permuted_and_weighted_shifts_match_the_reference(self, T, seed):
        # Permuted and weighted shifts: conjugate by a random permutation.
        perm = np.random.default_rng(seed).permutation(T.h)
        for U in (T, OperatorTuple(tuple(op[perm][:, perm] for op in T.ops))):
            assert U._shift_pattern is not None
            assert is_commuting(U) == reference_is_commuting(U)

    @pytest.mark.parametrize("T", FLAGSHIPS + (
        symmetric_fock_shift(2, 24), fock_creation(2, 6)), ids=repr)
    def test_flagships_match_the_reference(self, T):
        assert is_commuting(T) == reference_is_commuting(T)

    def test_weighted_pairs(self):
        h = 7
        a = weighted_shift(np.linspace(0.2, 0.8, h - 1), h)
        # Proportional weights commute, and so do a shift and its square.
        commuting = [(a, 0.5 * a), (a, a @ a),
                     (np.diag(np.linspace(-1, 1, h)), np.diag(np.arange(h)))]
        for x, y in commuting:
            T = OperatorTuple((x, y))
            assert T._shift_pattern is not None
            assert is_commuting(T) and reference_is_commuting(T)
        b = weighted_shift(np.linspace(0.8, 0.2, h - 1), h)
        for x, y in ((a, b), (a, a.T), (a, -b)):
            T = OperatorTuple((x, y))
            assert T._shift_pattern is not None
            assert not is_commuting(T) and not reference_is_commuting(T)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_pair_at_the_bound_matches(self, seed):
        # Nearly proportional weights: rtol stepped across the exact edge.
        rng = np.random.default_rng(seed)
        h = 9
        w = rng.uniform(0.3, 0.9, h - 1)
        T = OperatorTuple((weighted_shift(w, h),
                           weighted_shift(w * (1 + 1e-6 * rng.standard_normal(
                               h - 1)), h)))
        assert T._shift_pattern is not None
        max_norm = max(np.linalg.norm(op, 2) for op in T.ops)
        worst = np.linalg.norm(dense_commutators(T)[0], 2)
        edge = worst / (1.0 + max_norm * max_norm)
        for rtol in (edge * (1 - 1e-6), edge, np.nextafter(edge, 0),
                     np.nextafter(edge, 1), edge * (1 + 1e-6)):
            tol = RankTolerance(rtol=float(rtol))
            assert is_commuting(T, tol) == reference_is_commuting(T, tol)

    def test_flagships_settle_before_the_spectral_norms(self, monkeypatch):
        # The Fock tuple is settled by the probe, before any commutator
        # is formed; the symmetric shift commutes, and its commutators
        # are settled by their column and Frobenius bounds.
        formed, spectral = [], []
        entry_commutators = tuples_module._entry_commutators
        norm = np.linalg.norm

        def counted_commutators(T):
            formed.append(T)
            return entry_commutators(T)

        def counted_norm(x, ord=None, **kwargs):
            if ord == 2:
                spectral.append(x.shape)
            return norm(x, ord, **kwargs)

        monkeypatch.setattr(tuples_module, "_entry_commutators",
                            counted_commutators)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        fock = fock_creation(2, 8)
        assert not is_commuting(fock)
        assert formed == [] and spectral == []
        dshift = symmetric_fock_shift(2, 24)
        assert is_commuting(dshift)
        assert formed == [dshift] and spectral == []
        # At the exact edge the spectral norm decides.
        rng = np.random.default_rng(0)
        w = rng.uniform(0.3, 0.9, 8)
        T = OperatorTuple((weighted_shift(w, 9),
                           weighted_shift(w * (1 + 1e-6 * rng.standard_normal(
                               8)), 9)))
        max_norm = max(norm(op, 2) for op in T.ops)
        edge = (norm(dense_commutators(T)[0], 2)
                / (1.0 + max_norm * max_norm))
        tol = RankTolerance(rtol=float(edge))
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "norm", norm)
            want = reference_is_commuting(T, tol)
        assert is_commuting(T, tol) == want
        assert (9, 9) in spectral

    def test_overflowing_commutator_is_refused(self):
        # At 1e200 the products overflow and inf - inf leaves NaN in the
        # commutator: the verdict is refused, as the contractivity
        # margin refuses an I - cp(I) that overflows.
        big = OperatorTuple((1e200 * weighted_shift(np.ones(3), 4),
                             1e200 * weighted_shift(np.ones(2), 4, 2)))
        assert big._shift_pattern is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ArgumentError, match="commutator of the tuple "
                               "is not finite"):
                is_commuting(big)

    def test_overflowing_norms_match_the_reference(self):
        # At 1e154 only the squares of the entry norms overflow; the
        # commutators stay finite and take the spectral route.  The entry
        # norms warn of that overflow; is_commuting gives the reference's
        # verdict without a warning.
        big = OperatorTuple((1e154 * weighted_shift(np.ones(3), 4),
                             1e154 * weighted_shift(np.ones(2), 4, 2)))
        assert big._shift_pattern is not None

        def outcome(fn, *args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = fn(*args)
            return value, [(w.category, str(w.message)) for w in caught]

        got, got_warnings = outcome(is_commuting, big)
        want, want_warnings = outcome(reference_is_commuting, big)
        _, norm_warnings = outcome(
            lambda T: [np.linalg.norm(op) for op in T.ops], big)
        assert got == want
        assert norm_warnings
        assert got_warnings == want_warnings == []

    @pytest.mark.parametrize("h, m", [(16, 3.1e307), (36, 3.1e307),
                                      (64, 3e307)])
    def test_overflowing_pair_warns_nothing(self, h, m):
        # The entry norms overflow at every h, and from h = 36 the
        # products too, where the call refuses the pair; no overflow
        # warns either way.
        T = overflowing_pair(h, m)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = is_commuting(T)
            except ArgumentError as exc:
                got = str(exc)
        assert caught == []
        if h == 16:
            assert isinstance(got, bool)
        else:
            assert got == ("a commutator of the tuple is not finite; "
                           "the tuple's entries are too large")


def scaled_reference_is_commuting(T, tol, k):
    # reference_is_commuting on S = 2**-k T, with the commutators of S,
    # 4**-k times those of T, against rtol * (4**-k + max ||S_i||_2**2):
    # the verdict of T itself, taken where nothing overflows.
    scale = 2.0 ** -k
    ops = [scale * op for op in T.ops]
    max_norm = max(float(np.linalg.norm(op, 2)) for op in ops)
    bound = tol.rtol * (scale * scale + max_norm * max_norm)
    return all(float(np.linalg.norm(ops[i] @ ops[j] - ops[j] @ ops[i], 2))
               <= bound for i in range(T.d) for j in range(i + 1, T.d))


def largest_part_exponent(T):
    # The exponent k of the largest |real or imaginary part| of an entry.
    return int(np.frexp(np.max(np.abs(T._stack.view(np.float64))))[1])


class TestInfiniteBound:
    """Commutators that are finite against a bound that overflows.

    From entry norms near 1.34e154 on, F**2 and so rtol * (1 + F**2)
    overflow while the products T_i T_j can stay finite.  is_commuting
    then scales the entries by 2**-k and the commutators by 4**-k, and
    its verdict must be the one every spectral norm gives on the scaled
    tuple.
    """

    def test_overflowing_pair_does_not_commute(self):
        # The commutator of overflowing_pair(16, 3.1e307) has spectral
        # norm about 1.24e308, a quarter of the largest squared entry
        # norm; the infinite bound used to accept it.
        T = overflowing_pair(16, 3.1e307)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = is_commuting(T)
        assert caught == []
        assert got is False
        assert got == scaled_reference_is_commuting(
            T, DEFAULT_TOL, largest_part_exponent(T))
        assert is_commuting(overflowing_pair(16, 1e300)) is False
        assert is_commuting(OperatorTuple(
            tuple(1e-154 * op for op in T.ops))) is False

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("kind", ["commuting", "random", "above", "below"])
    def test_verdict_of_the_scaled_tuple(self, kind, real):
        # Dense pairs on h = 16 scaled until F**2 is 2**1027: the squares
        # of the spectral norms, about F**2 / 4, overflow too, and the
        # product entries, about F**2 / 64, stay finite.  "above" and
        # "below" put rtol a part in 10**6 above and below the ratio at
        # which the random pair starts to commute.
        rng = np.random.default_rng(16)
        if kind == "commuting":
            T = commuting_draw(rng, 2, 16, real)
        else:
            T = OperatorTuple(tuple(
                rng.standard_normal((16, 16))
                + (0 if real else 1j * rng.standard_normal((16, 16)))
                for _ in range(2)))
        frob = max(float(np.linalg.norm(op)) for op in T.ops)
        T = OperatorTuple(tuple(2.0 ** 513.5 / frob * op for op in T.ops))
        k = largest_part_exponent(T)
        tol = DEFAULT_TOL
        if kind in ("above", "below"):
            ops = [2.0 ** -k * op for op in T.ops]
            ratio = (np.linalg.norm(ops[0] @ ops[1] - ops[1] @ ops[0], 2)
                     / (4.0 ** -k + max(np.linalg.norm(op, 2) ** 2
                                        for op in ops)))
            tol = RankTolerance(rtol=float(ratio) * (
                1.0 + (1e-6 if kind == "above" else -1e-6)))
        with np.errstate(all="ignore"):
            assert np.isinf(max(np.linalg.norm(op, 2) for op in T.ops) ** 2)
            assert all(np.isfinite(op @ other).all()
                       for op in T.ops for other in T.ops)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = is_commuting(T, tol)
        assert caught == []
        assert got == scaled_reference_is_commuting(T, tol, k)
        assert got == (kind in ("commuting", "above"))


def complex_route_entries(ops):
    # How every tuple was stored before real input skipped complex128:
    # convert to complex128, keep the real parts when every imaginary
    # part is +0.0.
    mats = [np.asarray(op, dtype=np.complex128) for op in ops]
    if not any(np.signbit(m.imag).any() or m.imag.any() for m in mats):
        mats = [m.real for m in mats]
    return mats


class TestRealInputStorage:
    @pytest.mark.parametrize("ops", [
        (np.arange(9).reshape(3, 3) - 4,),
        (np.eye(3, dtype=bool), np.ones((3, 3), dtype=bool)),
        (np.array([[0.1, -0.0], [1e-40, 3.5]], dtype=np.float32),),
        (np.array([[-0.0, 1e-300], [-2.5, 5e-324]]),),
        (np.eye(2, dtype=np.uint8), np.array([[0, 1], [-0.0, 0]])),
        ([[1, 2], [3, 4]], [[0.5, -0.0], [0, 1]]),
        (np.eye(2), np.array([[1, 0j], [-0.0, 1]])),
        (np.eye(2), np.array([[1, complex(0.0, -0.0)], [0, 1]])),
        (np.array([[1, 2]], dtype=np.int64).T @ np.array([[1, 1]]),
         np.array([[0.0, 1j], [0, 0]])),
    ], ids=["int", "bool", "float32", "float64-signed-zeros", "uint8-mixed",
            "lists", "mixed-plus-zero-imag", "mixed-minus-zero-imag",
            "int-and-complex"])
    def test_same_dtype_and_bytes_as_the_complex_route(self, ops):
        T = OperatorTuple(ops)
        want = complex_route_entries(ops)
        assert T.dtype == want[0].dtype
        for op, m in zip(T.ops, want):
            assert op.dtype == m.dtype
            assert op.tobytes() == np.ascontiguousarray(m).tobytes()
            assert not op.flags.writeable and op.flags.c_contiguous

    def test_real_input_keeps_the_checks_and_messages(self):
        cases = [
            ((np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])),
             "operator 2 contains non-finite entries"),
            ((np.array([[np.inf]], dtype=np.float32),),
             "operator 1 contains non-finite entries"),
            ((np.ones(3, dtype=int),),
             "operator 1 must be 2-dimensional, got shape (3,)"),
            ((np.zeros((0, 0)),),
             "operator 1 must have at least one row and one column"),
            ((np.eye(2), np.eye(3, dtype=int)),
             "operator 2 has shape (3, 3), expected (2, 2)"),
            ((np.ones((2, 3)),),
             "operator 1 has shape (2, 3), expected (2, 2)"),
            ((), "an operator tuple needs at least one entry"),
            # The first bad entry is reported, real or complex.
            ((np.array([[np.nan]]), np.array([[np.nan + 1j]])),
             "operator 1 contains non-finite entries"),
        ]
        for ops, message in cases:
            with pytest.raises(ArgumentError) as err:
                OperatorTuple(ops)
            assert str(err.value) == message
