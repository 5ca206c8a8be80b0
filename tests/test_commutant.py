"""The Hermitian commutant count against the stacked commutant system.

``stacked_commutant_dimension`` is the direct route: all 2d constraints
[T_i, X] = 0 and [T_i*, X] = 0 on the h**2 complex unknowns of X,
stacked into one system whose numerical nullity is the commutant
dimension.  ``commutant_dimension`` counts the Hermitian part of the
commutant instead; the two must agree on every input.  It has two
routes.  A tuple with exact zero entries takes the structural route:
the system is built from the nonzeros of the T_i and gets one SVD per
connected component.  A tuple without zeros takes the eigenbasis
route: in the eigenbasis of a generic Hermitian element of the
*-algebra, the commutant is block diagonal over the element's
eigenvalue clusters.  Both are checked against the same oracle.
"""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectseq.classify import (
    _cluster_bounds,
    _eigenbasis_system,
    _generic_element,
    _one_component,
    _structural_system,
    commutant_dimension,
)
from defectseq.config import size_cap
from defectseq.errors import ArgumentError
from defectseq.linalg import (
    _CLUSTER_GAP,
    DEFAULT_TOL,
    RankTolerance,
    numerical_rank,
)
from defectseq.models import (
    fock_creation,
    haar_unitary,
    pure_nonmaximal_example,
    random_contractive,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import OperatorTuple, direct_sum

# The package's name ``classify`` is the function.
classify_module = importlib.import_module("defectseq.classify")


def stacked_system(T):
    """The 2d h**2 x h**2 system of [T_i, X] = 0 and [T_i*, X] = 0."""
    eye = np.eye(T.h, dtype=T.dtype)
    blocks = []
    for op in T.ops:
        for a in (op, op.conj().T):
            # Row-major vectorization: vec(A X) = kron(A, I) vec(X) and
            # vec(X A) = kron(I, A^T) vec(X).
            blocks.append(np.kron(a, eye) - np.kron(eye, a.T))
    return np.vstack(blocks)


def stacked_commutant_dimension(T, tol=None):
    """Nullity of ``stacked_system``."""
    tol = DEFAULT_TOL if tol is None else tol
    return T.h ** 2 - numerical_rank(stacked_system(T), tol)


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

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_classify_workload_draws(self, real, seed):
        # The dense draws of the classify benchmark, one component each.
        T = random_contractive(3, 24, 2, (seed, 1))
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


def component_unknowns(T):
    """Real unknowns per component on the structural route."""
    return _structural_system(T, size_cap())[0]


def permuted(T, seed):
    perm = np.random.default_rng(seed).permutation(T.h)
    return OperatorTuple(tuple(op[np.ix_(perm, perm)] for op in T.ops))


SHIFTS = {
    **{f"fock-2-{L}": (lambda L=L: fock_creation(2, L)) for L in range(1, 5)},
    "fock-3-2": lambda: fock_creation(3, 2),
    **{f"dshift-2-{L}": (lambda L=L: symmetric_fock_shift(2, L))
       for L in range(1, 7)},
    **{f"dshift-3-{L}": (lambda L=L: symmetric_fock_shift(3, L))
       for L in range(1, 4)},
}


class TestStructuralRoute:
    @pytest.mark.parametrize("name", SHIFTS)
    def test_weighted_shifts_split_and_match_the_oracle(self, name):
        T = SHIFTS[name]()
        unknowns = component_unknowns(T)
        if T.h > 1:
            assert unknowns.max() < T.h ** 2
        assert commutant_dimension(T) == stacked_commutant_dimension(T) == 1

    @pytest.mark.parametrize("name", ["fock-2-3", "fock-3-2", "dshift-2-4",
                                      "dshift-3-2"])
    @pytest.mark.parametrize("seed", range(2))
    def test_permutation_conjugates(self, name, seed):
        T = permuted(SHIFTS[name](), seed)
        component_unknowns(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T) == 1

    @pytest.mark.parametrize("name", ["fock-2-3", "fock-3-2", "dshift-2-4",
                                      "dshift-3-2"])
    def test_phase_rotations(self, name):
        T = rotate(SHIFTS[name]())
        assert T.dtype == np.complex128
        component_unknowns(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_spherical_shift_sum(self, k):
        T = spherical_shift_sum(2, 3, (0.6, 0.8), k)
        component_unknowns(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T)
        assert commutant_dimension(T) == 1 + k * k

    @pytest.mark.parametrize("args", [(2, 4, 0.5), (3, 3, 0.5)])
    def test_pure_nonmaximal_example(self, args):
        T = pure_nonmaximal_example(*args)
        component_unknowns(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("real", [True, False])
    def test_shift_plus_a_dense_block(self, seed, real):
        dense = random_contractive(2, 4, 1, seed)
        if real:
            dense = real_part(dense)
        T = direct_sum(fock_creation(2, 2), dense)
        component_unknowns(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T)

    @pytest.mark.parametrize("values", [
        ((0.1, 0.2, 0.1, 0.3, 0.2),),
        ((0.5, 0.5, 0.5), (0.1, 0.2, 0.1)),
        ((0.3, -0.3, 0.3, 0.0), (0.2, 0.2, 0.2, 0.4), (0.0, 0.0, 0.0, 0.1)),
    ])
    def test_diagonal_tuples_split_into_single_pairs(self, values):
        T = OperatorTuple(tuple(np.diag(v) for v in values))
        # Only pairs {a, b} with distinct joint eigenvalues enter the
        # system, each on its own.
        assert set(component_unknowns(T).tolist()) <= {2}
        _, multiplicity = np.unique(np.array(values).T, axis=0,
                                    return_counts=True)
        expected = int((multiplicity ** 2).sum())
        assert commutant_dimension(T) == stacked_commutant_dimension(T)
        assert commutant_dimension(T) == expected

    @pytest.mark.parametrize("h", [2, 3, 6])
    @pytest.mark.parametrize("d", [1, 2])
    def test_identity_tuple(self, h, d):
        T = OperatorTuple((np.eye(h),) * d)
        # Every entry of [I, X] cancels exactly, so nothing is left.
        assert component_unknowns(T).size == 0
        assert commutant_dimension(T) == h * h

    @pytest.mark.parametrize("imag, dtype", [(0.0, np.float64),
                                             (-0.0, np.complex128)])
    @pytest.mark.parametrize("h", [1, 3])
    def test_zero_tuple_has_an_empty_system(self, imag, dtype, h):
        z = OperatorTuple((np.full((h, h), complex(0.0, imag)),) * 2)
        assert z.dtype == dtype
        assert component_unknowns(z).size == 0
        assert _structural_system(z, size_cap())[1] == []
        assert commutant_dimension(z) == h * h

    @pytest.mark.parametrize("entries", [(0.0, 0.25), (0.3 + 0.4j, 0.0),
                                         (0.0, 0.0)])
    def test_one_dimensional_space(self, entries):
        T = OperatorTuple(tuple(np.array([[e]]) for e in entries))
        component_unknowns(T)
        assert commutant_dimension(T) == 1

    @pytest.mark.parametrize("make", [
        lambda: fock_creation(2, 3),
        lambda: rotate(symmetric_fock_shift(2, 3)),
        lambda: direct_sum(fock_creation(2, 2), random_contractive(2, 3, 1, 0)),
        lambda: OperatorTuple((np.diag([0.1, 0.5, 0.2]),)),
        lambda: random_contractive(2, 4, 1, 0),
        lambda: real_part(random_contractive(2, 4, 1, 0)),
    ])
    def test_blocks_carry_the_stacked_singular_values(self, make):
        # Not just the count: sqrt(2) times the nonzero singular values of
        # the blocks are those of the stacked system.
        T = make()
        blocks = np.sqrt(2.0) * np.sort(np.concatenate(
            [np.linalg.svd(stack, compute_uv=False).ravel()
             for stack in _structural_system(T, size_cap())[1]]))
        stacked = np.sort(np.linalg.svd(stacked_system(T), compute_uv=False))
        floor = 1e-12 * stacked[-1]
        blocks, stacked = blocks[blocks > floor], stacked[stacked > floor]
        np.testing.assert_allclose(blocks, stacked, rtol=1e-12)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("h", [2, 5])
    def test_dense_tuples_are_one_component(self, real, h):
        T = random_contractive(2, h, 1, 0)
        if real:
            T = real_part(T)
        assert _one_component(T)
        assert component_unknowns(T).tolist() == [h * h]
        assert commutant_dimension(T) == stacked_commutant_dimension(T)


@st.composite
def sparse_tuples(draw):
    """Seeded random matrices under random zero masks, h <= 8, d <= 3."""
    d = draw(st.integers(1, 3))
    h = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    real = draw(st.booleans())
    integer = draw(st.booleans())
    ops = []
    for _ in range(d):
        op = rng.standard_normal((h, h))
        if not real:
            op = op + 1j * rng.standard_normal((h, h))
        if integer:
            # Small integers give cancellations and repeated values.
            op = np.round(2 * op)
        ops.append(op * (rng.random((h, h)) < density))
    return OperatorTuple(tuple(ops))


class TestSparseOracle:
    @settings(max_examples=150, deadline=None)
    @given(sparse_tuples())
    def test_structural_count_matches_the_stacked_system(self, T):
        assert commutant_dimension(T) == stacked_commutant_dimension(T)


def diagonal_count(values, tol):
    # The system of (diag(t),) pairs X[a, b] with X[b, a] for a < b;
    # after the sqrt(2) scale each pair has the singular value
    # sqrt(2)|t_a - t_b| twice, once symmetric and once antisymmetric.
    t = np.asarray(values)
    gaps = np.abs(t[:, None] - t[None, :])[np.triu_indices(t.size, 1)]
    sigma = np.sqrt(2.0) * gaps
    cutoff = tol.cutoff(sigma.max())
    return t.size ** 2 - 2 * int(np.count_nonzero(sigma > cutoff))


class TestNearCutoff:
    """A gap one part in 10**6 from the cutoff of a different component.

    The largest singular value sits in the component {0, 2}, the gap in
    {0, 1}.  A cutoff taken per component would keep the small gap on
    either side; only the cutoff over the union drops it below.
    """

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("rtol", [1e-9, 1e-6])
    @pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)],
                             ids=["real", "complex"])
    def test_one_gap_at_the_global_cutoff(self, side, scale, rtol, phase):
        tol = RankTolerance(rtol=rtol, atol=0.0)
        gap = scale * rtol * (1.0 + side * 1e-6)
        values = (0.0, gap, scale)
        T = OperatorTuple((phase * np.diag(values),))
        expected = diagonal_count(values, tol)
        assert expected == (3 if side > 0 else 5)
        component_unknowns(T)
        assert commutant_dimension(T, tol) == expected
        assert stacked_commutant_dimension(T, tol) == expected

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_atol_decides_a_tuple_of_tiny_gaps(self, side):
        # sqrt(2) * gap sits at atol, far above rtol * sigma_max.
        tol = RankTolerance(rtol=1e-9, atol=1e-12)
        gap = 1e-12 * (1.0 + side * 1e-6) / np.sqrt(2.0)
        values = (0.0, gap, 3.0 * gap)
        T = OperatorTuple((np.diag(values),))
        expected = diagonal_count(values, tol)
        assert expected == (3 if side > 0 else 5)
        assert commutant_dimension(T, tol) == expected
        assert stacked_commutant_dimension(T, tol) == expected


def orthogonal_conjugate(T, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((T.h, T.h)))
    return conjugate(T, q)


def haar_conjugate(T, seed):
    return conjugate(T, haar_unitary(T.h, np.random.default_rng(seed)))


def svd_widths(monkeypatch):
    """Record the column count of every SVD taken from here on."""
    widths = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return widths


def cluster_sizes(T):
    """Cluster sizes of the eigenbasis route, None for one cluster."""
    sizes = np.diff(_cluster_bounds(_generic_element(T)[1])).tolist()
    return None if len(sizes) == 1 else sizes


@st.composite
def dense_tuples(draw, max_h=24):
    """Seeded random draws without zero entries, d <= 3 and h <= max_h."""
    d = draw(st.integers(1, 3))
    h = draw(st.integers(1, max_h))
    T = random_contractive(d, h, draw(st.integers(0, h)),
                           draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        T = real_part(T)
    return T


A = random_contractive(2, 4, 1, 1)
B = random_contractive(2, 4, 1, 2)
SUMS = {
    "A+B": (lambda: direct_sum(A, B), 2),
    "A+A": (lambda: direct_sum(A, A), 4),
    "A+A+B": (lambda: direct_sum(direct_sum(A, A), B), 5),
    "A+A+A": (lambda: copies(A, 3), 9),
    "A+B+A+B": (lambda: copies(direct_sum(A, B), 2), 8),
}


class TestEigenbasisRoute:
    # One stacked oracle at h = 24 takes about half a second.
    @settings(max_examples=40, deadline=None)
    @given(dense_tuples())
    def test_dense_draws_match_the_stacked_system(self, T):
        assert _one_component(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T)

    @pytest.mark.parametrize("name", SUMS)
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("seed", range(2))
    def test_conjugated_direct_sums(self, name, real, seed):
        make, expected = SUMS[name]
        T = make()
        if real:
            T = orthogonal_conjugate(real_part(T), seed)
        else:
            T = haar_conjugate(T, seed)
        assert _one_component(T)
        assert commutant_dimension(T) == stacked_commutant_dimension(T)
        assert commutant_dimension(T) == expected

    @pytest.mark.parametrize("real", [True, False])
    def test_equal_summands_share_their_clusters(self, monkeypatch, real):
        # Each eigenvalue of H on A + A is double; a split pair would
        # force the commutant's 2 x 2 blocks to be diagonal in an
        # arbitrary basis, and the count would need the full system.
        T = direct_sum(A, A)
        T = orthogonal_conjugate(real_part(T), 3) if real else haar_conjugate(T, 3)
        assert cluster_sizes(T) == [2] * 4
        widths = svd_widths(monkeypatch)
        assert commutant_dimension(T) == 4
        assert widths == [4 * 2 ** 2]

    def test_a_split_cluster_goes_to_the_full_system(self, monkeypatch):
        # With no gap the double eigenvalues of H on A + A split, and the
        # block-diagonal count alone misses commutant elements; the gap
        # that split them is rounding, so the full system counts.
        T = haar_conjugate(direct_sum(A, A), 3)
        monkeypatch.setattr(classify_module, "_CLUSTER_GAP", 0.0)
        assert cluster_sizes(T) == [1] * 8
        _, values, u = _generic_element(T)
        unknowns, system = _eigenbasis_system(T, u, _cluster_bounds(values))
        assert unknowns - numerical_rank(system) < 4
        widths = svd_widths(monkeypatch)
        assert commutant_dimension(T) == 4
        assert widths[-1] == 8 ** 2

    @pytest.mark.parametrize("make", [
        lambda: fock_creation(2, 3),
        lambda: symmetric_fock_shift(2, 5),
        lambda: fock_creation(1, 6),
    ])
    @pytest.mark.parametrize("real", [True, False])
    def test_conjugated_flagships_are_irreducible(self, make, real):
        T = make()
        T = orthogonal_conjugate(T, 5) if real else haar_conjugate(T, 5)
        assert _one_component(T)
        assert cluster_sizes(T) is not None
        assert commutant_dimension(T) == stacked_commutant_dimension(T) == 1

    @pytest.mark.parametrize("real", [True, False])
    def test_conjugated_spherical_sum(self, real):
        T = spherical_shift_sum(2, 5, (2 ** -0.5, 2 ** -0.5), 3)
        T = orthogonal_conjugate(T, 7) if real else haar_conjugate(T, 7)
        assert _one_component(T)
        assert commutant_dimension(T) == 10

    @pytest.mark.parametrize("entries", [(0.5,), (0.3 + 0.4j, 0.25),
                                         (-0.2, 0.1, 0.7)])
    def test_one_dimensional_space(self, entries):
        # h = 1: one cluster, so no row and nothing to gain; the count
        # is the identity alone.
        T = OperatorTuple(tuple(np.array([[e]]) for e in entries))
        assert _one_component(T)
        assert cluster_sizes(T) is None
        assert commutant_dimension(T) == 1

    def test_one_cluster_falls_back_to_the_full_system(self):
        # T + T^T = I: the real element is a multiple of the identity.
        n = np.array([[0.0, 0.3, -0.2], [-0.3, 0.0, 0.1], [0.2, -0.1, 0.0]])
        T = orthogonal_conjugate(OperatorTuple((0.5 * np.eye(3) + n,)), 0)
        assert _one_component(T)
        assert cluster_sizes(T) is None
        assert commutant_dimension(T) == stacked_commutant_dimension(T)

    @pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvalues_at_the_cluster_gap(self, side, seed):
        # d = 1 and real: H is a multiple of T + T^T = 2 Q D Q^T, so two
        # entries of D a relative gap of _CLUSTER_GAP (1 -+ 1%) apart are
        # one cluster or two.  The antisymmetric part joins every pair.
        rng = np.random.default_rng(seed)
        h = 6
        values = np.linspace(-0.4, 0.4, h)
        values[3] = values[2] + _CLUSTER_GAP * 0.4 * (1.0 + side * 0.01)
        n = rng.standard_normal((h, h))
        T = orthogonal_conjugate(
            OperatorTuple((np.diag(values) + 0.1 * (n - n.T),)), seed)
        assert _one_component(T)
        sizes = cluster_sizes(T)
        assert sizes == ([1, 1, 2, 1, 1] if side < 0 else [1] * h)
        assert commutant_dimension(T) == stacked_commutant_dimension(T) == 1

    @pytest.mark.parametrize("real", [True, False])
    def test_no_svd_over_h_squared_unknowns(self, monkeypatch, real):
        # The classify benchmark's dense draw: its h one-dimensional
        # clusters have h unknowns, and no SVD has h**2 columns.
        T = random_contractive(3, 24, 2, (0, 1))
        if real:
            T = real_part(T)
        assert cluster_sizes(T) == [1] * 24
        widths = svd_widths(monkeypatch)
        assert commutant_dimension(T) == 1
        assert 24 ** 2 not in widths


def near_equal_sum(delta, seed):
    """A Haar conjugate of A + (A + delta E), E a fixed unit perturbation."""
    e = np.random.default_rng(11).standard_normal((2, 4, 4))
    e /= np.linalg.norm(e)
    shifted = OperatorTuple(tuple(op + delta * p for op, p in zip(A.ops, e)))
    return haar_conjugate(direct_sum(A, shifted), seed)


class TestEigenbasisTolerance:
    """The eigenbasis count is the full system's at every tolerance.

    A loose rtol counts X as commutant whose parts between clusters are
    far from zero, and the block-diagonal system has its own, smaller
    sigma_max; either would move a count that the block-diagonal
    system alone decides.
    """

    @pytest.mark.parametrize("rtol", [1e-9, 1e-6, 1e-3, 1e-1])
    @pytest.mark.parametrize("delta", [1e-2, 1e-4])
    @pytest.mark.parametrize("seed", range(2))
    def test_near_equal_sums(self, rtol, delta, seed):
        T = near_equal_sum(delta, seed)
        tol = RankTolerance(rtol=rtol, atol=0.0)
        assert _one_component(T)
        assert commutant_dimension(T, tol) == stacked_commutant_dimension(T, tol)

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("real", [True, False])
    def test_conjugated_gap_at_the_global_cutoff(self, side, scale, real):
        # TestNearCutoff's tuple in a dense basis: H merges the two
        # nearby entries, and the block-diagonal system's sigma_max is
        # the small gap itself.
        tol = RankTolerance(rtol=1e-6, atol=0.0)
        gap = scale * tol.rtol * (1.0 + side * 1e-6)
        values = (0.0, gap, scale)
        T = OperatorTuple((np.diag(values),))
        T = orthogonal_conjugate(T, 4) if real else haar_conjugate(rotate(T), 4)
        expected = diagonal_count(values, tol)
        assert _one_component(T)
        assert commutant_dimension(T, tol) == expected
        assert stacked_commutant_dimension(T, tol) == expected

    @settings(max_examples=40, deadline=None)
    @given(dense_tuples(max_h=12), st.floats(-12.0, -0.5))
    def test_dense_draws_at_any_rtol(self, T, exponent):
        tol = RankTolerance(rtol=10.0 ** exponent, atol=0.0)
        assert commutant_dimension(T, tol) == stacked_commutant_dimension(T, tol)


class TestOverflow:
    """An overflowing commutant system is refused, not counted."""

    @staticmethod
    def scaled(T, factor):
        return OperatorTuple(tuple(factor * op for op in T.ops))

    @pytest.mark.parametrize("factor", [1e308, 1.5e308])
    def test_eigenbasis_route(self, factor):
        T = self.scaled(random_contractive(2, 4, 1, 0), factor)
        assert _one_component(T)
        with pytest.raises(ArgumentError, match="commutant system is not finite"):
            commutant_dimension(T)

    def test_structural_route(self):
        T = self.scaled(fock_creation(2, 2), 1.5e308)
        assert not _one_component(T)
        with pytest.raises(ArgumentError, match="commutant system is not finite"):
            commutant_dimension(T)

    @pytest.mark.parametrize("T", [random_contractive(2, 4, 1, 0),
                                   fock_creation(2, 2)],
                             ids=["eigenbasis", "structural"])
    def test_large_finite_systems_keep_their_count(self, T):
        # At 1e300 the eigenbasis route's norm bound overflows, so the
        # full system counts the tuple, quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert commutant_dimension(self.scaled(T, 1e300)) == 1

