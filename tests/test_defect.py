"""Unit tests for the defect engine: operators, sequences, bounds."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from defectseq.defect import (
    RankSymmetryVerdict,
    commuting_bound,
    contractivity_margin,
    defect_dimension,
    defect_operator,
    defect_sequence,
    defect_space,
    defect_space_via_words,
    geometric_bound,
    is_contractive,
    rank_symmetry_check,
    require_contractive,
    verify_product_bounds,
    word_image_dimension,
)
from defectseq.errors import ArgumentError, ConsistencyError, ContractivityError
from defectseq.linalg import RankTolerance, subspace_equal
from defectseq.classify import purity
from defectseq.models import (
    fock_creation,
    pure_nonmaximal_example,
    random_contractive,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import OperatorTuple


def damped_random(rng, d, h, scale=0.4):
    ops = tuple(
        scale * (rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
        for _ in range(d)
    )
    return OperatorTuple(ops)


def unitary_tuple(rng, h):
    q, r = np.linalg.qr(rng.standard_normal((h, h))
                        + 1j * rng.standard_normal((h, h)))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return OperatorTuple((q,))


def orthogonal_matrix(h, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((h, h)))
    return q


def orthogonal_conjugate(T, seed):
    # Q T_i Q^T for a seeded real orthogonal Q: the same cp map up to
    # rounding, with dense entries.
    q = orthogonal_matrix(T.h, seed)
    return OperatorTuple(tuple(q @ op @ q.T for op in T.ops))


def shift_draw(seed, d, h):
    # A contractive real tuple of signed-weight partial permutations with
    # empty rows and columns.
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(d):
        m = np.zeros((h, h))
        keep = rng.random(h) < 0.8
        m[rng.permutation(h)[keep], rng.permutation(h)[keep]] = (
            rng.choice([-1.0, 1.0], keep.sum()) * rng.uniform(0.2, 1.0, keep.sum()))
        ops.append(m)
    top = np.sqrt(max(float(np.max(sum((m * m).sum(axis=1) for m in ops))),
                       1.0))
    return OperatorTuple(tuple(m / top for m in ops))


class TestBounds:
    def test_geometric_values(self):
        assert [geometric_bound(2, n, 1) for n in (1, 2, 3, 4)] == [1, 3, 7, 15]
        assert [geometric_bound(3, n, 2) for n in (1, 2, 3)] == [2, 8, 26]
        assert geometric_bound(1, 5, 4) == 20

    def test_commuting_values(self):
        assert [commuting_bound(2, n, 1) for n in (1, 2, 3, 4)] == [1, 3, 6, 10]
        assert [commuting_bound(3, n, 1) for n in (1, 2, 3)] == [1, 4, 10]
        assert commuting_bound(1, 4, 2) == 8

    def test_commuting_never_exceeds_geometric(self):
        for d in (1, 2, 3):
            for n in range(1, 7):
                assert commuting_bound(d, n, 3) <= geometric_bound(d, n, 3)

    def test_rejects_bad_indices(self):
        with pytest.raises(ArgumentError):
            geometric_bound(2, 0, 1)
        with pytest.raises(ArgumentError):
            commuting_bound(0, 2, 1)


class TestContractivity:
    def test_margin_of_an_isometry_column(self):
        v = fock_creation(2, 2)
        assert contractivity_margin(v) >= -1e-12
        assert is_contractive(v)

    def test_inflated_tuple_rejected(self):
        T = OperatorTuple((1.1 * np.eye(3),))
        assert not is_contractive(T)
        with pytest.raises(ContractivityError):
            require_contractive(T)

    def test_tiny_overshoot_tolerated(self):
        # Exactly contractive data plus rounding on the order of 1e-9
        # must still pass; the slack absorbs scaled model arithmetic.
        T = OperatorTuple(((1.0 + 1e-10) * np.eye(2),))
        assert is_contractive(T)


def same_float(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


class TestMarginCache:
    def counting_shims(self, monkeypatch):
        # How often the margin is computed, and every cp step the defect
        # module takes through the public name (margin and ladder).
        import defectseq.defect as defect
        calls = {"margin": 0, "apply_cp_map": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(defect, "_contractivity_margin",
                            counting("margin", defect._contractivity_margin))
        monkeypatch.setattr(defect, "apply_cp_map",
                            counting("apply_cp_map", defect.apply_cp_map))
        return calls

    def test_one_margin_per_tuple_object(self, monkeypatch):
        calls = self.counting_shims(monkeypatch)
        T = fock_creation(2, 3)
        assert is_contractive(T)
        require_contractive(T)
        assert defect_sequence(T, 5).deltas == (1, 3, 7, 15)
        assert purity(T, max_iter=50).iterations == 4
        assert [defect_dimension(T, n) for n in (1, 2, 3)] == [1, 3, 7]
        assert contractivity_margin(T) == 0.0
        # One cp(I) for the margin, four ladder steps.
        assert calls == {"margin": 1, "apply_cp_map": 5}

    def test_an_equal_tuple_computes_its_own(self, monkeypatch):
        calls = self.counting_shims(monkeypatch)
        T = fock_creation(2, 3)
        margin = contractivity_margin(T)
        for twin in (fock_creation(2, 3), OperatorTuple(T.ops), T.relabel("x")):
            assert same_float(contractivity_margin(twin), margin)
        assert calls == {"margin": 4, "apply_cp_map": 4}

    @pytest.mark.parametrize("T", [
        fock_creation(2, 3),
        orthogonal_conjugate(fock_creation(2, 3), 0),
        random_contractive(3, 6, 2, 0),
        OperatorTuple((1.1 * np.eye(3),)),
        damped_random(np.random.default_rng(5), 2, 5, scale=0.3),
    ], ids=["shift", "dense-shift", "random", "inflated", "complex"])
    def test_cached_margin_is_a_fresh_computation(self, T):
        import defectseq.defect as defect
        first = contractivity_margin(T)
        assert "_contractivity_margin" in vars(T)
        for _ in range(2):
            assert same_float(contractivity_margin(T), first)
        assert same_float(defect._contractivity_margin(T), first)
        assert same_float(contractivity_margin(OperatorTuple(T.ops)), first)

    def test_overflowing_tuple_raises_on_every_call(self, monkeypatch):
        calls = self.counting_shims(monkeypatch)
        T = OperatorTuple((1e200 * np.eye(2),))
        for check in (contractivity_margin, is_contractive,
                      require_contractive, contractivity_margin):
            with pytest.raises(ArgumentError, match="not finite"):
                check(T)
        assert "_contractivity_margin" not in vars(T)
        assert calls == {"margin": 4, "apply_cp_map": 4}


def dense_entries(h, seed):
    # A dense real orthogonal and a dense complex unitary matrix.
    return (orthogonal_matrix(h, seed),
            unitary_tuple(np.random.default_rng(seed), h).ops[0])


class TestLadderOwnsTheContractivityCheck:
    @pytest.mark.parametrize("T", [
        *(OperatorTuple((0.6 * q, 0.7 * q.conj().T))
          for q in dense_entries(4, 1)),
        random_contractive(3, 6, 2, 0),
        damped_random(np.random.default_rng(5), 2, 5, scale=0.1),
    ], ids=["real", "complex", "random", "damped"])
    def test_ladder_keeps_the_margin_it_reads(self, T, monkeypatch):
        # A fresh tuple without the weighted-shift pattern runs its
        # ladder before any margin call.  The ladder reads the margin off
        # its own D_1 and keeps it, so no margin is computed on the side,
        # and the kept value is an equal tuple's fresh margin bit for bit.
        import defectseq.defect as defect
        assert T._shift_pattern is None
        assert "_contractivity_margin" not in vars(T)
        fresh = defect._contractivity_margin(OperatorTuple(T.ops))
        calls = []

        def counting(T):
            calls.append(T)
            return fresh

        monkeypatch.setattr(defect, "_contractivity_margin", counting)
        defect_sequence(T, 3)
        assert same_float(contractivity_margin(T), fresh)
        assert calls == []

    @pytest.mark.parametrize("entry", [*dense_entries(3, 2), np.eye(3)],
                             ids=["real", "complex", "shift"])
    def test_noncontractive_tuple_refused_by_every_ladder_caller(self, entry):
        from defectseq.classify import (maximality_commuting,
                                        maximality_noncommutative)
        margin = contractivity_margin(OperatorTuple((1.2 * entry,)))
        message = ("not a row contraction: I - cp(I) has eigenvalue "
                   f"{margin:.3e}")
        for call in (lambda T: defect_sequence(T, 3),
                     maximality_noncommutative,
                     lambda T: maximality_noncommutative(T, 2),
                     maximality_commuting):
            with pytest.raises(ContractivityError) as err:
                call(OperatorTuple((1.2 * entry,)))
            assert str(err.value) == message
        # An argument error comes before the ladder runs.
        for maximality in (maximality_noncommutative, maximality_commuting):
            with pytest.raises(ArgumentError,
                               match="horizon must be at least 1"):
                maximality(OperatorTuple((1.2 * entry,)), 0)

    def test_overflowing_dense_tuple_is_an_argument_error(self):
        from defectseq.classify import (maximality_commuting,
                                        maximality_noncommutative)
        entry = 1e200 * dense_entries(3, 2)[1]
        for call in (lambda T: defect_sequence(T, 3),
                     maximality_noncommutative, maximality_commuting):
            T = OperatorTuple((entry,))
            assert T._shift_pattern is None
            with pytest.raises(ArgumentError,
                               match=r"I - cp\(I\) is not finite"):
                call(T)
            assert "_contractivity_margin" not in vars(T)


class TestDefectOperator:
    def test_fock_first_defect_is_vacuum_projection(self):
        v = fock_creation(2, 3)
        d1 = defect_operator(v, 1)
        want = np.zeros((15, 15), dtype=np.complex128)
        want[0, 0] = 1.0
        assert np.array_equal(d1, want)

    def test_defect_dimension_counts_rank(self):
        v = fock_creation(2, 3)
        assert [defect_dimension(v, n) for n in (1, 2, 3, 4)] == [1, 3, 7, 15]

    def test_zero_tuple_defect_is_identity(self):
        z = OperatorTuple((np.zeros((4, 4)),))
        assert np.array_equal(defect_operator(z, 1), np.eye(4))
        assert defect_dimension(z, 3) == 4

    def test_unitary_has_no_defect(self):
        rng = np.random.default_rng(0)
        u = unitary_tuple(rng, 5)
        assert defect_dimension(u, 1) == 0
        assert defect_dimension(u, 3) == 0

    def test_rejects_nonpositive_index(self):
        v = fock_creation(2, 2)
        with pytest.raises(ArgumentError):
            defect_operator(v, 0)

    @pytest.mark.parametrize("fn", [defect_operator, defect_dimension,
                                    defect_space])
    @pytest.mark.parametrize("n", [True, False, np.bool_(True), 2.5, 1.0,
                                   "1", None], ids=repr)
    def test_index_must_be_an_integer(self, fn, n):
        T = OperatorTuple((0.5 * np.eye(2),))
        with pytest.raises(ArgumentError,
                           match="defect index must be an integer"):
            fn(T, n)

    @pytest.mark.parametrize("n", [np.int64(2), np.int32(2), np.uint8(2)],
                             ids=repr)
    def test_numpy_integer_indices_are_accepted(self, n):
        v = fock_creation(2, 3)
        assert np.array_equal(defect_operator(v, n), defect_operator(v, 2))
        assert defect_dimension(v, n) == 3
        assert defect_space(v, n).dim == 3
        with pytest.raises(ArgumentError,
                           match="defect index must be at least 1"):
            defect_operator(v, n - n)


class TestCountArguments:
    """Counts must be integers: numpy integers count, bools and floats
    do not."""

    @pytest.mark.parametrize("n", [True, 1.5], ids=repr)
    @pytest.mark.parametrize("fn, name", [
        (defect_space_via_words, "defect index"),
        (word_image_dimension, "word length"),
        (rank_symmetry_check, "power index"),
    ], ids=["defect_space_via_words", "word_image_dimension",
            "rank_symmetry_check"])
    def test_count_must_be_an_integer(self, fn, name, n):
        T = OperatorTuple((0.5 * np.eye(2),))
        with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
            fn(T, n)

    @pytest.mark.parametrize("fn", [defect_space_via_words,
                                    word_image_dimension,
                                    rank_symmetry_check])
    def test_numpy_integer_count_is_accepted(self, fn):
        T = OperatorTuple((0.5 * np.eye(2),))
        fn(T, np.int64(2))


class TestDefectSequence:
    @pytest.mark.parametrize("n_max", [True, False, np.bool_(True), 2.5,
                                       3.0, "3", None], ids=repr)
    def test_n_max_must_be_an_integer(self, n_max):
        T = OperatorTuple((0.5 * np.eye(2),))
        with pytest.raises(ArgumentError, match="n_max must be an integer"):
            defect_sequence(T, n_max)

    @pytest.mark.parametrize("n_max", [np.int64(2), np.int32(2),
                                       np.uint8(2)], ids=repr)
    def test_numpy_integer_n_max_is_accepted(self, n_max):
        v = fock_creation(2, 3)
        assert defect_sequence(v, n_max).deltas == (1, 3)
        with pytest.raises(ArgumentError, match="n_max must be at least 1"):
            defect_sequence(v, n_max - n_max)

    def test_fock_ladder_and_early_full_stop(self):
        v = fock_creation(2, 3)
        rep = defect_sequence(v, 10)
        assert rep.deltas == (1, 3, 7, 15)
        assert rep.reached_full
        assert rep.stabilized_at == 4
        assert rep.bounds_noncomm == (1, 3, 7, 15)
        assert all(rep.bound_ok_noncomm)
        assert rep.bounds_comm is None

    def test_zero_tuple_stops_immediately(self):
        z = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
        rep = defect_sequence(z, 5)
        assert rep.deltas == (3,)
        assert rep.reached_full

    def test_unitary_stabilizes_at_zero(self):
        rng = np.random.default_rng(1)
        rep = defect_sequence(unitary_tuple(rng, 4), 6)
        assert rep.deltas == (0, 0)
        assert rep.stabilized_at == 1
        assert not rep.reached_full

    def test_no_stabilization_within_budget(self):
        v = fock_creation(2, 3)
        rep = defect_sequence(v, 2)
        assert rep.deltas == (1, 3)
        assert rep.stabilized_at is None

    def test_commuting_bounds_present_for_commuting_tuples(self):
        from defectseq.models import symmetric_fock_shift
        s = symmetric_fock_shift(2, 3)
        rep = defect_sequence(s, 5)
        assert rep.deltas == (1, 3, 6, 10)
        assert rep.bounds_comm == (1, 3, 6, 10)
        assert all(rep.bound_ok_comm)

    def test_requires_contractive_input(self):
        T = OperatorTuple((1.2 * np.eye(2),))
        with pytest.raises(ContractivityError):
            defect_sequence(T, 3)

    def test_one_cp_step_and_one_rank_decision_per_ladder_step(self, monkeypatch):
        # The contractivity check applies the cp map once; the ladder
        # 1, 3, 7, 15 then takes four steps of one cp map and one rank
        # decision each, through the module's own bindings.
        import defectseq.defect as defect
        calls = {"apply_cp_map": 0, "numerical_rank": 0}

        def counting(name):
            original = getattr(defect, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(defect, name, counting(name))
        rep = defect.defect_sequence(fock_creation(2, 3), 5)
        assert rep.deltas == (1, 3, 7, 15)
        assert calls == {"apply_cp_map": 5, "numerical_rank": 4}

    def test_factored_route_makes_its_own_calls(self, monkeypatch):
        # A fixed real orthogonal conjugate of fock_creation(2, 3) takes
        # the factored route: D_1 applies the cp map once and takes the
        # eigenvalues of I - cp(I), which also give the contractivity
        # margin, and no later step applies the map.  Steps 2 and 3 (M
        # of width 3 and 7) rank R J R* after a QR; step 4 (width
        # 15 = h) takes the eigenvalues of the dense M J M*.  Each step
        # is one rank count, and the last step builds no factor.
        import defectseq.defect as defect
        T = orthogonal_conjugate(fock_creation(2, 3), 0)
        assert T._shift_pattern is None
        assert fock_creation(2, 3)._shift_pattern is not None
        calls = {name: 0 for name in (
            "apply_cp_map", "numerical_rank", "_count_above",
            "_hermitian_eigvals", "_signed_factor")}

        def counting(name):
            original = getattr(defect, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(defect, name, counting(name))
        rep = defect.defect_sequence(T, 5)
        assert rep.deltas == (1, 3, 7, 15)
        assert calls == {"apply_cp_map": 1, "numerical_rank": 0,
                         "_count_above": 4, "_hermitian_eigvals": 2,
                         "_signed_factor": 3}

    def test_benchmark_tracer_self_test_passes(self, monkeypatch):
        # The benchmark marks its runs incorrect when this fixture fails:
        # the same ladder traced through every module binding, which
        # must all be restored afterwards.
        import defectseq.cli  # noqa: F401  (the tracer patches every module)
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer = importlib.import_module("tracer")
        passed, observed = tracer.self_test()
        assert passed, observed


class TestDefectSpaces:
    def test_word_construction_matches_direct_on_models(self):
        v = fock_creation(2, 3)
        for n in (1, 2, 3, 4):
            assert subspace_equal(defect_space(v, n),
                                  defect_space_via_words(v, n))

    def test_word_construction_matches_direct_on_random(self):
        for i in range(12):
            rng = np.random.default_rng((100, i))
            T = random_contractive(int(rng.integers(1, 4)),
                                   int(rng.integers(2, 7)),
                                   int(rng.integers(1, 3)), rng)
            for n in (1, 2, 3):
                assert subspace_equal(defect_space(T, n),
                                      defect_space_via_words(T, n))

    def test_word_image_dimension_on_the_creation_tuple(self):
        v = fock_creation(2, 3)
        # Images of the vacuum line under length-n words span level n.
        assert word_image_dimension(v, 1) == 2
        assert word_image_dimension(v, 2) == 4
        assert word_image_dimension(v, 3) == 8
        assert word_image_dimension(v, 4) == 0

    def test_word_image_dimension_nilpotent_single(self):
        ladder = OperatorTuple((np.diag(np.ones(3), -1),))
        assert word_image_dimension(ladder, 1) == 1
        assert word_image_dimension(ladder, 4) == 0


class TestRankSymmetry:
    def test_square_case_has_equal_ranks(self):
        rng = np.random.default_rng(2)
        T = damped_random(rng, 1, 5)
        v = rank_symmetry_check(T, 2)
        assert v.equal_ranks and v.equal_kernels
        assert v.rank_left == v.rank_right

    def test_wide_case_counts_exact_ones(self):
        v = fock_creation(2, 3)
        chk = rank_symmetry_check(v, 1)
        assert chk.rank_left == 1
        assert chk.rank_right == 1 + (2 - 1) * 15
        assert not chk.equal_ranks and not chk.equal_kernels
        assert chk.ker_dim - chk.coker_dim == (2 - 1) * 15

    def test_left_rank_matches_defect_dimension(self):
        for i in range(8):
            rng = np.random.default_rng((200, i))
            T = random_contractive(2, int(rng.integers(2, 7)),
                                   int(rng.integers(0, 3)), rng)
            for n in (1, 2):
                assert rank_symmetry_check(T, n).rank_left \
                    == defect_dimension(T, n)

    def test_verdict_construction_rejects_broken_symmetry(self):
        with pytest.raises(ConsistencyError):
            RankSymmetryVerdict(n=1, rank_left=2, rank_right=2,
                                ker_dim=1, coker_dim=0,
                                equal_ranks=True, equal_kernels=False)


class TestProductBounds:
    def test_identity_left_factor(self):
        c = random_contractive(2, 4, 1, 3)
        one = OperatorTuple((np.eye(4),))
        chk = verify_product_bounds(one, c)
        assert chk.ok
        assert chk.delta_b == 0
        assert chk.delta_bc == chk.delta_c

    def test_random_pairs(self):
        for i in range(15):
            rng = np.random.default_rng((300, i))
            h = int(rng.integers(2, 7))
            b = random_contractive(int(rng.integers(1, 3)), h,
                                   int(rng.integers(0, 3)), rng)
            c = random_contractive(int(rng.integers(1, 3)), h,
                                   int(rng.integers(0, 3)), rng)
            chk = verify_product_bounds(b, c)
            assert chk.ok
            assert chk.factor_count == b.d

    def test_tolerance_override_threads_through(self):
        v = fock_creation(2, 2)
        loose = RankTolerance(rtol=1e-3, atol=1e-6)
        assert defect_dimension(v, 1, loose) == 1


SHIFT_ROUTE_CASES = {
    "fock-2-4": lambda: fock_creation(2, 4),
    "fock-1-12": lambda: fock_creation(1, 12),
    "dshift-2-6": lambda: symmetric_fock_shift(2, 6),
    "dshift-3-3": lambda: symmetric_fock_shift(3, 3),
    "spherical-sum": lambda: spherical_shift_sum(2, 3, (0.6, 0.8), 2),
    "pure-nonmax": lambda: pure_nonmaximal_example(3, 3, 0.5),
    **{f"draw-{seed}": (lambda seed=seed: shift_draw(seed, 1 + seed % 3,
                                                     4 + 5 * seed))
       for seed in range(6)},
}


class TestShiftRoute:
    """The diagonal route against the dense one on the same tuples."""

    @pytest.mark.parametrize("name", sorted(SHIFT_ROUTE_CASES))
    def test_dense_routes_give_the_same_results(self, name):
        T = SHIFT_ROUTE_CASES[name]()
        assert T._shift_pattern is not None
        fast_ladder = defect_sequence(T, T.h + 1)
        fast_purity = purity(T, max_iter=500)
        rotated = OperatorTuple(tuple(np.exp(0.7j) * op for op in T.ops))
        # Each dense tuple with the basis change that carries T to it.
        q = orthogonal_matrix(T.h, 1)
        for dense, basis in ((orthogonal_conjugate(T, 1), q),
                             (rotated, np.eye(T.h))):
            assert dense._shift_pattern is None
            assert defect_sequence(dense, T.h + 1) == fast_ladder
            assert contractivity_margin(dense) == pytest.approx(
                contractivity_margin(T), abs=1e-12)
            verdict = purity(dense, max_iter=500)
            assert verdict.status is fast_purity.status
            assert verdict.iterations == fast_purity.iterations
            assert verdict.residual_norm == pytest.approx(
                fast_purity.residual_norm, rel=1e-9, abs=1e-12)
            if verdict.limit is not None:
                assert np.allclose(verdict.limit,
                                   basis @ fast_purity.limit @ basis.T,
                                   atol=1e-9)

    @pytest.mark.parametrize("where", ["tiny-entry", "row", "column"])
    def test_near_misses_keep_the_ladder(self, where):
        T = fock_creation(2, 3)
        ops = [np.array(op) for op in T.ops]
        empty_col = int(np.flatnonzero(~ops[0].any(axis=0))[0])
        empty_row = int(np.flatnonzero(~ops[0].any(axis=1))[0])
        full_row, full_col = (int(i) for i in np.argwhere(ops[0])[0])
        if where == "tiny-entry":
            ops[0][full_row, empty_col] = 1e-300
        elif where == "row":
            ops[0][full_row, empty_col] = 0.5
        else:
            ops[0][empty_row, full_col] = 0.5
        scale = max(np.linalg.norm(np.hstack(ops), 2), 1.0)
        near = OperatorTuple(tuple(op / scale for op in ops))
        assert near._shift_pattern is None
        dense = orthogonal_conjugate(near, 2)
        assert defect_sequence(near, near.h + 1) == defect_sequence(
            dense, near.h + 1)
