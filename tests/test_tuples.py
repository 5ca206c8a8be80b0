"""Unit tests for operator tuples, words, and cp-map plumbing."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectseq.tuples as tuples_module
from defectseq.errors import ArgumentError, SizeCapError
from defectseq.linalg import (
    DEFAULT_TOL,
    RankTolerance,
    Subspace,
    coordinate_subspace,
    hermitize,
)
from defectseq.models import (
    fock_creation,
    random_contractive,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import (
    OperatorTuple,
    _cp_step,
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
from tuple_files import DATA, v1_payload


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
        with pytest.raises(ArgumentError):
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
        cp_iterate(T, 1)
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
            kernel = _cp_step(T, x)
            dense = reference_cp(T, x)
        assert same_bits(kernel, public)
        assert same_bits(kernel, dense)

    def test_real_adjoints_are_views_computed_once(self):
        rng = np.random.default_rng(12)
        T = OperatorTuple(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        assert "_adjoints" not in vars(T)
        cp_iterate(T, 2)
        adjoints = vars(T)["_adjoints"]
        for op, adjoint in zip(T.ops, adjoints):
            assert adjoint.base is op
            assert np.array_equal(adjoint, op.T)
        cp_iterate(T, 3)
        assert T._adjoints is adjoints

    def test_complex_adjoints_are_one_readonly_copy(self):
        T = random_tuple(np.random.default_rng(13), 2, 4)
        assert "_adjoints" not in vars(T)
        apply_cp_map(T, np.eye(4))
        adjoints = T._adjoints
        for op, adjoint in zip(T.ops, adjoints):
            assert not np.shares_memory(adjoint, op)
            assert not adjoint.flags.writeable
            assert adjoint.strides == op.conj().T.strides
            assert same_bits(adjoint, op.conj().T)
        apply_cp_map(T, np.eye(4))
        assert T._adjoints is adjoints

    def test_shift_tuple_builds_adjoints_only_for_the_dense_route(self):
        T = fock_creation(2, 3)
        cp_iterate(T, T.h + 2)
        assert "_adjoints" not in vars(T)
        apply_cp_map(T, np.ones((T.h, T.h)))
        assert "_adjoints" in vars(T)

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


@st.composite
def stacked_step_cases(draw):
    """(tuple, argument) for the ``out`` form of the cp step.

    Dense real and complex tuples with d 1-4 and h 1-40, Hermitian
    arguments with -0.0 entries, and shift tuples on diagonal arguments.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("real", "complex", "shift")))
    if kind == "shift":
        T = contractive_shift(rng, d, h, draw(st.sampled_from((0.3, 1.0))))
        x = np.diag(rng.uniform(0.0, 1.0, h))
    else:
        T = random_tuple(rng, d, h, scale=0.5 / np.sqrt(d * h))
        if kind == "real":
            T = OperatorTuple(tuple(op.real for op in T.ops))
        g = rng.standard_normal((h, h))
        if draw(st.booleans()):
            g = g + 1j * rng.standard_normal((h, h))
        x = hermitize(g @ g.conj().T)
    zeros = rng.random((h, h)) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    zeros = zeros | zeros.T
    x = np.where(zeros, -0.0, x)
    return T, x


class TestStackedCpStep:
    @settings(max_examples=150, deadline=None)
    @given(stacked_step_cases())
    def test_out_form_matches_the_plain_step(self, case):
        T, x = case
        want = _cp_step(T, x)
        out = np.full(want.shape, np.nan, dtype=want.dtype)
        got = _cp_step(T, x, out)
        assert got is out
        assert same_bits(got, want)
        assert got.tobytes() == want.tobytes()

    def test_out_form_matches_the_plain_step_on_every_iterate(self):
        for T in (random_contractive(3, 7, 2, 21), fock_creation(2, 3),
                  OperatorTuple(tuple(op.real for op in
                                      random_contractive(2, 9, 1, 22).ops))):
            x = np.eye(T.h, dtype=T.dtype)
            block = np.empty((2, T.h, T.h), dtype=T.dtype)
            block[0] = x
            for _ in range(T.h + 3):
                x = _cp_step(T, x)
                _cp_step(T, block[0], block[1])
                assert block[1].tobytes() == x.tobytes()
                block[0] = block[1]

    def test_stacks_are_built_only_for_the_out_form(self):
        # The ladder, apply_cp_map and cp_iterate keep the per-entry
        # products and hold no stacked copy of the entries.
        for T in (random_contractive(2, 5, 1, 23),
                  OperatorTuple(tuple(np.random.default_rng(24)
                                      .standard_normal((5, 5))
                                      for _ in range(2)))):
            cp_iterate(T, 3)
            apply_cp_map(T, np.eye(5))
            assert "_stacked" not in vars(T)
            _cp_step(T, np.eye(5, dtype=T.dtype), np.empty((5, 5), T.dtype))
            ops, adjoints = vars(T)["_stacked"]
            assert not ops.flags.writeable and not adjoints.flags.writeable
            for op, stacked, adjoint, cached in zip(T.ops, ops, adjoints,
                                                    T._adjoints):
                assert same_bits(stacked, op)
                assert same_bits(adjoint, cached)
                assert adjoint.strides == cached.strides


def dense_commutators(T):
    return [T.ops[i] @ T.ops[j] - T.ops[j] @ T.ops[i]
            for i in range(T.d) for j in range(i + 1, T.d)]


def weighted_shift(weights, h, step=1):
    # sum_k weights[k] e_{k + step} e_k^T on C^h.
    return np.diag(np.asarray(weights, dtype=float), -step)[:h, :h]


class TestShiftCommutators:
    """``is_commuting`` builds a shift tuple's commutators from nonzeros."""

    @settings(max_examples=80, deadline=None)
    @given(shift_tuples(), st.integers(0, 2 ** 32 - 1))
    def test_commutators_equal_the_dense_products(self, T, seed):
        # Permuted and weighted shifts: conjugate by a random permutation.
        perm = np.random.default_rng(seed).permutation(T.h)
        for U in (T, OperatorTuple(tuple(op[perm][:, perm] for op in T.ops))):
            assert U._shift_pattern is not None
            if U.d == 1:
                continue
            got = tuples_module._shift_commutators(U)
            want = dense_commutators(U)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert is_commuting(U) == reference_is_commuting(U)

    @pytest.mark.parametrize("T", FLAGSHIPS + (
        symmetric_fock_shift(2, 24), fock_creation(2, 6)), ids=repr)
    def test_flagships_take_the_shift_route(self, T, monkeypatch):
        calls = []
        real = tuples_module._shift_commutators

        def counted(U):
            calls.append(U)
            return real(U)

        monkeypatch.setattr(tuples_module, "_shift_commutators", counted)
        assert is_commuting(T) == reference_is_commuting(T)
        assert len(calls) == (T.d > 1)

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

    def test_overflowing_products_are_silent_and_match(self):
        big = OperatorTuple((1e200 * weighted_shift(np.ones(3), 4),
                             1e200 * weighted_shift(np.ones(2), 4, 2)))
        assert big._shift_pattern is not None
        # inf - inf in the subtraction warns on both routes.
        with np.errstate(over="raise", invalid="ignore"):
            got = tuples_module._shift_commutators(big)
        with np.errstate(over="ignore", invalid="ignore"):
            want = dense_commutators(big)
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(got, want))


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
