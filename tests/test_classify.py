"""Tests for purity iteration, maximality checks, and full classification."""

import numpy as np
import pytest

from defectseq.classify import (
    ClassificationReport,
    MaximalityVerdict,
    Purity,
    PurityVerdict,
    classify,
    commutant_dimension,
    is_irreducible,
    is_maximal_commuting,
    is_maximal_noncommutative,
    maximality_commuting,
    maximality_noncommutative,
    purity,
)
from defectseq.defect import defect_dimension
from defectseq.errors import ArgumentError, ConsistencyError, ContractivityError
from defectseq.models import (
    fock_creation,
    pure_nonmaximal_example,
    random_coinvariant_compression,
    random_contractive,
    right_creation_compression,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import OperatorTuple, direct_sum


class TestPurity:
    def test_zero_tuple_is_pure_in_one_step(self):
        z = OperatorTuple((np.zeros((3, 3)),))
        v = purity(z)
        assert v.status is Purity.PURE
        assert v.iterations == 1
        assert v.residual_norm == 0.0
        assert v.limit is None

    def test_unitary_is_not_pure_with_identity_limit(self):
        u = OperatorTuple((np.eye(4),))
        v = purity(u)
        assert v.status is Purity.NOT_PURE
        assert v.iterations == 1
        assert np.allclose(v.limit, np.eye(4))

    def test_strict_scalar_contraction_converges_to_zero(self):
        s = OperatorTuple((np.sqrt(0.995) * np.eye(2),))
        v = purity(s)
        assert v.status is Purity.PURE
        assert 1000 < v.iterations < 10000

    def test_slow_scalar_needs_a_larger_budget(self):
        s = OperatorTuple((np.sqrt(0.999) * np.eye(2),))
        assert purity(s).status is Purity.UNDECIDED
        assert purity(s, max_iter=25000).status is Purity.PURE

    def test_rejects_empty_budget(self):
        z = OperatorTuple((np.zeros((2, 2)),))
        with pytest.raises(ArgumentError):
            purity(z, max_iter=0)

    def test_verdict_invariants(self):
        with pytest.raises(ConsistencyError):
            PurityVerdict(status=Purity.PURE, iterations=3,
                          residual_norm=0.0, limit=np.eye(2))
        with pytest.raises(ConsistencyError):
            PurityVerdict(status=Purity.NOT_PURE, iterations=3,
                          residual_norm=0.5, limit=None)


class TestMaximality:
    def test_creation_tuple_is_maximal(self):
        v = maximality_noncommutative(fock_creation(2, 3))
        assert v.maximal
        assert v.horizon == 4
        assert v.deltas == (1, 3, 7, 15)
        assert v.bounds == (1, 3, 7, 15)
        assert v.failed_at is None

    def test_compressed_right_shift_fails_at_step_two(self):
        v = maximality_noncommutative(right_creation_compression(2, 3, 2))
        assert not v.maximal
        assert v.failed_at == 2
        assert v.deltas == (1, 2)
        assert v.bounds == (1, 3)

    def test_pure_nonmaximal_example_fails(self):
        T = pure_nonmaximal_example(2, 4, 0.5)
        assert purity(T).status is Purity.PURE
        assert not is_maximal_noncommutative(T)

    def test_horizon_override(self):
        v = maximality_noncommutative(fock_creation(2, 2), horizon=2)
        assert v.horizon == 2
        assert v.deltas == (1, 3)

    def test_zero_first_defect_is_trivially_maximal(self):
        v = maximality_noncommutative(OperatorTuple((np.eye(3),)))
        assert v.maximal
        assert v.deltas == (0,)

    def test_commuting_variant_on_symmetric_shift(self):
        s = symmetric_fock_shift(2, 3)
        v = maximality_commuting(s)
        assert v.maximal
        assert v.deltas == (1, 3, 6, 10)
        assert is_maximal_commuting(s)
        assert not is_maximal_noncommutative(s)

    def test_commuting_variant_rejects_free_tuples(self):
        with pytest.raises(ArgumentError):
            maximality_commuting(fock_creation(2, 2))

    def test_horizon_past_stabilization_repeats_the_last_value(self):
        v = maximality_noncommutative(OperatorTuple((np.eye(3),)), horizon=4)
        assert v.maximal
        assert v.horizon == 4
        assert v.deltas == (0, 0, 0, 0)
        assert v.bounds == (0, 0, 0, 0)

    def test_horizon_past_a_full_ladder_stops_at_full(self):
        v = maximality_noncommutative(fock_creation(2, 2), horizon=5)
        assert v.maximal
        assert v.horizon == 5
        assert v.deltas == (1, 3, 7)
        assert v.bounds == (1, 3, 7)

    def test_horizon_is_checked_before_contractivity(self):
        big = OperatorTuple((1.5 * np.eye(2),))
        with pytest.raises(ContractivityError):
            maximality_noncommutative(big, horizon=1)
        with pytest.raises(ArgumentError):
            maximality_noncommutative(big, horizon=0)
        with pytest.raises(ArgumentError):
            maximality_commuting(big, horizon=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_classify_reads_the_standalone_verdicts(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        r = float(rng.uniform(0.3, 0.8))
        weights = rng.standard_normal(2)
        draws = (
            random_contractive(d, int(rng.integers(2, 7)),
                               int(rng.integers(0, 3)), rng),
            random_coinvariant_compression(d, 2, int(rng.integers(1, 3)), rng),
            pure_nonmaximal_example(d, 2, r),
            spherical_shift_sum(2, 3, weights / np.linalg.norm(weights),
                                int(rng.integers(1, 3))),
        )
        for T in draws:
            rep = classify(T)
            assert rep.delta_1 == defect_dimension(T, 1)
            assert rep.maximal_noncomm == maximality_noncommutative(T)
            if rep.commuting:
                assert rep.maximal_comm == maximality_commuting(T)
            else:
                assert rep.maximal_comm is None


class TestCommutantAndIrreducibility:
    def test_creation_tuple_has_trivial_commutant(self):
        assert commutant_dimension(fock_creation(2, 2)) == 1
        assert is_irreducible(fock_creation(2, 2))

    def test_zero_tuple_commutant_is_everything(self):
        z = OperatorTuple((np.zeros((3, 3)),))
        assert commutant_dimension(z) == 9
        assert not is_irreducible(z)

    def test_doubled_tuple_commutant_grows(self):
        ff = direct_sum(fock_creation(2, 1), fock_creation(2, 1))
        assert commutant_dimension(ff) == 4
        assert not is_irreducible(ff)


class TestClassify:
    def test_full_report_for_the_creation_tuple(self):
        rep = classify(fock_creation(2, 2))
        assert rep.contractive
        assert not rep.commuting
        assert rep.purity.status is Purity.PURE
        assert rep.delta_1 == 1
        assert rep.maximal_noncomm.maximal
        assert rep.maximal_comm is None
        assert rep.commutant_dim == 1
        assert rep.irreducible

    def test_full_report_for_the_symmetric_shift(self):
        rep = classify(symmetric_fock_shift(2, 3))
        assert rep.commuting
        assert rep.maximal_comm is not None
        assert rep.maximal_comm.maximal
        # At degree 3 the space is big enough for the free-growth check
        # to see the shortfall (6 < 7 at the third step).
        assert not rep.maximal_noncomm.maximal

    def test_commuting_sum_with_projection_limit(self):
        rep = classify(spherical_shift_sum(2, 2, (0.6, 0.8), 1))
        assert rep.commuting
        assert rep.purity.status is Purity.NOT_PURE
        lim = rep.purity.limit
        assert np.linalg.norm(lim @ lim - lim, 2) < 1e-8

    def test_noncontractive_input_reports_without_analysis(self):
        rep = classify(OperatorTuple((1.5 * np.eye(2),)))
        assert not rep.contractive
        assert rep.purity is None
        assert rep.delta_1 is None
        assert rep.maximal_noncomm is None
        assert rep.maximal_comm is None
        assert rep.commutant_dim is None
        assert rep.irreducible is None

    def test_report_invariants(self):
        pure = PurityVerdict(status=Purity.PURE, iterations=1,
                             residual_norm=0.0, limit=None)
        max_free = MaximalityVerdict(maximal=True, horizon=1, deltas=(1,),
                                     bounds=(1,), failed_at=None)
        base = dict(contractive=True, purity=pure, delta_1=1,
                    maximal_noncomm=max_free, commutant_dim=1,
                    irreducible=True, tol=None)
        with pytest.raises(ConsistencyError):
            ClassificationReport(commuting=True, maximal_comm=None, **base)
        with pytest.raises(ConsistencyError):
            ClassificationReport(commuting=False, maximal_comm=max_free,
                                 **base)
