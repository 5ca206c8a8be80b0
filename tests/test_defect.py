"""Unit tests for the defect engine: operators, sequences, bounds."""

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
from defectseq.models import fock_creation, random_contractive
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


class TestDefectSequence:
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
