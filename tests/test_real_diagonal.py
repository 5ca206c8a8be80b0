"""The one exact-diagonal test and the routes that read it.

``linalg._real_diagonal`` lets ``require_hermitian``, ``apply_cp_map``
and ``numerical_rank`` accept a diagonal matrix after one scan, and the
defect ladder of a weighted shift build I - X_n from the diagonal.  Each
of them must behave exactly as the full validation and the dense
arithmetic do; the oracle here is the same call with the test switched
off, which runs the full route.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectseq.defect import defect_operator, defect_sequence
from defectseq.errors import ArgumentError
from defectseq.linalg import (
    hermitian_norm,
    hermitize,
    numerical_rank,
    require_hermitian,
)
from defectseq.models import fock_creation
from defectseq.tuples import OperatorTuple, apply_cp_map

linalg_module = importlib.import_module("defectseq.linalg")
tuples_module = importlib.import_module("defectseq.tuples")
defect_module = importlib.import_module("defectseq.defect")


def same_bits(a, b):
    # Equal values, NaN included, and equal signs, zeros included.
    a, b = np.asarray(a), np.asarray(b)
    a_parts, b_parts = np.stack([a.real, a.imag]), np.stack([b.real, b.imag])
    return (a.dtype == b.dtype
            and np.array_equal(a_parts, b_parts, equal_nan=True)
            and np.array_equal(np.signbit(a_parts), np.signbit(b_parts)))


def outcome(fn, *args):
    # A call's value, or its error and message.
    try:
        with np.errstate(all="ignore"):
            return "value", fn(*args)
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def full_route_outcome(monkeypatch, fn, *args):
    # The call with the diagonal test switched off everywhere it is read.
    with monkeypatch.context() as patch:
        for module in (linalg_module, defect_module):
            patch.setattr(module, "_real_diagonal", lambda m: None)
        return outcome(fn, *args)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert same_bits(got[1], want[1])


def with_off_diagonal(diag, value, dtype=np.float64):
    m = np.diag(np.asarray(diag, dtype=dtype))
    m[0, -1] = value
    return m


def signed_zeros_off(diag):
    m = np.full((len(diag), len(diag)), -0.0)
    np.fill_diagonal(m, diag)
    return m


# Diagonal matrices and near misses, with what the full route makes of
# them: -0.0, NaN and inf off the diagonal, non-finite and complex
# diagonals, views that are not C-contiguous, bool and integer input,
# 1 x 1 matrices, diagonals outside LAPACK's unscaled range, and shapes
# that are not square matrices.
_big = np.diag(np.arange(1.0, 9.0))
DIAGONAL_CASES = {
    "plain": np.diag([0.25, 1.0, 0.0, 0.5]),
    "minus-zero-off": with_off_diagonal([0.25, 1.0, 0.5], -0.0),
    "minus-zero-everywhere": signed_zeros_off([0.5, -0.0, 1.0]),
    "nan-off": with_off_diagonal([0.25, 1.0, 0.5], np.nan),
    "inf-off": with_off_diagonal([0.25, 1.0, 0.5], np.inf),
    "minus-inf-off": with_off_diagonal([0.25, 1.0, 0.5], -np.inf),
    "nan-on": np.diag([0.25, np.nan, 0.5]),
    "inf-on": np.diag([np.inf, 1.0]),
    "complex-real": np.diag([0.25, 1.0, 0.5]).astype(np.complex128),
    "complex-minus-zero-imag": np.diag(
        np.array([0.25, 1.0, 0.5]) + complex(0.0, -0.0)),
    "complex-tiny-imag": np.diag([0.25 + 1e-20j, 1.0, 0.5]),
    "complex-tiny-off": with_off_diagonal([0.25, 1.0, 0.5], 1e-20j,
                                          np.complex128),
    "complex-nan-imag": np.diag([0.25 + complex(0.0, np.nan), 1.0]),
    "fortran": np.asfortranarray(np.diag([0.25, 1.0, 0.0, 0.5])),
    "transposed": with_off_diagonal([0.25, 1.0, 0.5], -0.0).T,
    "strided": _big[::2, ::2],
    "strided-off": _big[:4, 1:5],
    "bool": np.eye(3, dtype=bool),
    "bool-off": np.array([[True, True], [False, True]]),
    "int": np.diag([2, 0, -1]),
    "uint8": np.diag(np.array([3, 1], dtype=np.uint8)),
    "1x1": np.array([[0.5]]),
    "1x1-zero": np.array([[-0.0]]),
    "1x1-nan": np.array([[np.nan]]),
    "1x1-complex": np.array([[0.5 + 1e-20j]]),
    "tiny": np.diag([1e-200, 0.0, -3e-201]),
    "huge": np.diag([1e200, 1.0, -2e199]),
    "huge-minus-zero": np.diag([1e200, -0.0, 0.0]),
    "minus-zero-diagonal": np.diag([0.5, -0.0, 0.0]),
    "zero": np.zeros((3, 3)),
    "subnormal": np.diag([5e-324, 0.0]),
    "max": np.diag([np.finfo(np.float64).max, 1.0]),
    "non-square": np.zeros((2, 3)),
    "row": np.zeros((1, 3)),
    "vector": np.ones(3),
    "empty": np.zeros((0, 0)),
    "stack": np.zeros((2, 2, 2)),
    "hermitian-dense": np.array([[1.0, 0.5], [0.5, 1.0]]),
    "near-hermitian": np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]]),
    "not-hermitian": np.array([[1.0, 0.5], [0.0, 1.0]]),
}


def shift_tuple(h):
    # A weighted cyclic shift: the diagonal cp step applies.
    return OperatorTuple((0.5 * np.roll(np.eye(h), 1, axis=0),))


def dense_tuple(h, complex_entries):
    rng = np.random.default_rng(h)
    op = rng.standard_normal((h, h))
    if complex_entries:
        op = op + 1j * rng.standard_normal((h, h))
    return OperatorTuple((op / (2.0 * np.linalg.norm(op, 2)),))


def tuples_for(m):
    h = m.shape[0] if m.ndim == 2 and m.shape[0] else 2
    return (shift_tuple(h), dense_tuple(h, False), dense_tuple(h, True))


class TestDiagonalInputs:
    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_require_hermitian(self, name, monkeypatch):
        m = DIAGONAL_CASES[name]
        for call in (lambda a: require_hermitian(a),
                     lambda a: require_hermitian(a, "cp-map argument")):
            assert_same_outcome(outcome(call, m),
                                full_route_outcome(monkeypatch, call, m))

    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_apply_cp_map(self, name, monkeypatch):
        m = DIAGONAL_CASES[name]
        for T in tuples_for(m):
            assert_same_outcome(
                outcome(apply_cp_map, T, m),
                full_route_outcome(monkeypatch, apply_cp_map, T, m))

    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_numerical_rank(self, name, monkeypatch):
        m = DIAGONAL_CASES[name]
        assert_same_outcome(outcome(numerical_rank, m),
                            full_route_outcome(monkeypatch, numerical_rank, m))

    @pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
    def test_hermitian_norm(self, name, monkeypatch):
        m = DIAGONAL_CASES[name]
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            return
        assert_same_outcome(outcome(hermitian_norm, m),
                            full_route_outcome(monkeypatch, hermitian_norm, m))

    def test_the_full_route_ranks_with_eigvalsh(self, monkeypatch):
        # With the test off, a diagonal goes to eigvalsh, so the outcomes
        # above compare the sorted diagonal with LAPACK's eigenvalues.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        m = DIAGONAL_CASES["plain"]
        assert numerical_rank(m) == 3
        assert calls == []
        assert full_route_outcome(monkeypatch, numerical_rank, m) == (
            "value", 3)
        assert calls == [(4, 4)]

    def test_errors_name_the_argument(self):
        T = shift_tuple(3)
        for name, message in (("nan-off", "contains non-finite entries"),
                              ("inf-on", "contains non-finite entries"),
                              ("non-square", "must be square")):
            with pytest.raises(ArgumentError,
                               match=f"cp-map argument {message}"):
                apply_cp_map(T, DIAGONAL_CASES[name])
        with pytest.raises(ArgumentError,
                           match="dimension 4, tuple acts on 3"):
            apply_cp_map(T, np.eye(4))


class TestIdentityStep:
    """apply_cp_map(T, I) is sum_i T_i T_i*, the bits of the dense step."""

    @pytest.mark.parametrize("h", [1, 2, 8, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["real", "complex", "real-zeros",
                                      "complex-zeros"])
    def test_identity_matches_the_dense_step(self, kind, d, h):
        rng = np.random.default_rng(100 * d + h)
        ops = rng.standard_normal((d, h, h))
        if kind.startswith("complex"):
            ops = ops + 1j * rng.standard_normal((d, h, h))
        if kind.endswith("zeros"):
            # Signed zeros where the dense step sums zero products.
            ops[rng.random((d, h, h)) < 0.3] = 0.0
            ops[rng.random((d, h, h)) < 0.2] = -0.0
        T = OperatorTuple(tuple(ops / np.sqrt(2.0 * d * h)))
        for eye in (np.eye(h), np.eye(h, dtype=np.complex128)):
            assert same_bits(apply_cp_map(T, eye),
                             tuples_module._dense_step(T, eye))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_identity_skips_the_product_by_i(self, complex_entries,
                                             monkeypatch):
        # The dense step gets None for the identity of the tuple's own
        # storage type, and any other argument as it is.
        T = dense_tuple(8, complex_entries)
        assert T._shift_pattern is None
        eye = np.eye(8, dtype=T.dtype)
        other = np.eye(8, dtype=np.complex128 if T.dtype == np.float64
                       else np.float64)
        dense_step = tuples_module._dense_step
        arguments = []

        def recording(T, x):
            arguments.append(x)
            return dense_step(T, x)

        monkeypatch.setattr(tuples_module, "_dense_step", recording)
        for x in (eye, other, 0.5 * eye):
            apply_cp_map(T, x)
        assert arguments[0] is None
        assert [x is None for x in arguments[1:]] == [False, False]


@st.composite
def weighted_shifts(draw):
    """Contractive real tuples of weighted partial permutations, h <= 64."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 3))
    h = draw(st.integers(1, 64))
    fill = draw(st.sampled_from((0.3, 0.8, 1.0)))
    ops = []
    for _ in range(d):
        m = np.zeros((h, h))
        keep = rng.random(h) < fill
        m[rng.permutation(h)[keep], rng.permutation(h)[keep]] = (
            rng.choice([-1.0, 1.0], keep.sum())
            * 10.0 ** rng.uniform(-3.0, 0.0, keep.sum()))
        ops.append(m)
    # cp(I) is diagonal, with the row sums of the squared weights.
    top = np.sqrt(max(float(np.max(sum((m * m).sum(axis=1) for m in ops))),
                       1.0))
    return OperatorTuple(tuple(m / top for m in ops))


class TestShiftLadder:
    @settings(max_examples=40, deadline=None)
    @given(weighted_shifts())
    def test_ladder_ranks_the_defect_operators(self, T):
        assert T._shift_pattern is not None
        deltas = defect_sequence(T, T.h + 1).deltas
        for n, delta in enumerate(deltas, start=1):
            assert delta == numerical_rank(defect_operator(T, n))

    def test_fock_ladder_never_hermitizes(self, monkeypatch):
        T = OperatorTuple(fock_creation(2, 8).ops)
        assert "_contractivity_margin" not in vars(T)
        calls = []

        def counting(m):
            calls.append(m.shape)
            return hermitize(m)

        for module in (linalg_module, defect_module):
            monkeypatch.setattr(module, "hermitize", counting)
        deltas = defect_sequence(T, 200).deltas
        assert deltas == tuple(2 ** n - 1 for n in range(1, 10))
        assert calls == []

    def test_identity_minus_matches_hermitize(self):
        # hermitize(I - X) of a diagonal X, in X's storage type.
        for diag in ([0.25, 1.0, 0.0, 1.5], [1.0], [-1.5e308, 0.5],
                     [1e-300, -0.0, 2.0]):
            for dtype in (np.float64, np.complex128):
                x = np.diag(np.asarray(diag, dtype=dtype))
                x[0, -1] = x[-1, 0] = -0.0
                with np.errstate(over="ignore", invalid="ignore"):
                    want = hermitize(np.eye(len(diag)) - x)
                    got = defect_module._identity_minus(
                        x, linalg_module._real_diagonal(x))
                assert same_bits(got, want)
