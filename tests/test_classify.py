"""Tests for purity iteration, maximality checks, and full classification."""

import importlib

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
from defectseq.defect import (
    contractivity_margin,
    defect_dimension,
    defect_sequence,
)
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


class TestSingleContractivityCheck:
    def test_classify_computes_the_margin_once(self, monkeypatch):
        # The package re-exports the function ``classify`` under the
        # submodule's name, so the modules come from importlib.
        classify_module = importlib.import_module("defectseq.classify")
        defect_module = importlib.import_module("defectseq.defect")
        original = defect_module.contractivity_margin
        calls = []

        def counting(T):
            calls.append(T)
            return original(T)

        for module in (classify_module, defect_module):
            monkeypatch.setattr(module, "contractivity_margin", counting)
        T = spherical_shift_sum(2, 2, (0.6, 0.8), 1)
        rep = classify(T)
        assert len(calls) == 1
        assert rep.contractivity_margin == original(T)

    def test_noncontractive_report_carries_the_margin(self):
        T = OperatorTuple((1.5 * np.eye(2),))
        rep = classify(T)
        assert not rep.contractive
        assert rep.contractivity_margin == contractivity_margin(T) < 0


def real_row_contraction(d, h, defect_rank, seed):
    """A real row contraction with first defect dimension ``defect_rank``."""
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((h, h)))
    big, _ = np.linalg.qr(rng.standard_normal((d * h, d * h)))
    sigma = np.concatenate([np.ones(h - defect_rank),
                            rng.uniform(0.2, 0.9, size=defect_rank)])
    row = (w * sigma) @ big[:, :h].T
    return OperatorTuple(tuple(row[:, i * h:(i + 1) * h] for i in range(d)))


PHASE_ORACLE_CASES = {
    "fock": lambda: fock_creation(2, 2),
    "dshift": lambda: symmetric_fock_shift(2, 3),
    "pure-nonmax": lambda: pure_nonmaximal_example(3, 2, 0.5),
    "spherical-sum": lambda: spherical_shift_sum(2, 3, (0.6, 0.8), 2),
    "real-random-0": lambda: real_row_contraction(2, 6, 1, 0),
    "real-random-1": lambda: real_row_contraction(3, 5, 2, 1),
    "real-random-2": lambda: real_row_contraction(2, 7, 3, 2),
    "real-random-3": lambda: real_row_contraction(1, 4, 2, 3),
}


def _verdict_data(v):
    if v is None:
        return None
    return (v.maximal, v.horizon, v.deltas, v.bounds, v.failed_at)


def _integers(T):
    rep = classify(T)
    return {
        "deltas": defect_sequence(T, T.h + 1).deltas,
        "contractive": rep.contractive,
        "commuting": rep.commuting,
        "purity": (rep.purity.status, rep.purity.iterations),
        "delta_1": rep.delta_1,
        "maximal_noncomm": _verdict_data(rep.maximal_noncomm),
        "maximal_comm": _verdict_data(rep.maximal_comm),
        "commutant_dim": rep.commutant_dim,
        "irreducible": rep.irreducible,
    }


class TestPhaseOracle:
    """e^{i theta} T has the cp map and commutant of T but complex storage.

    The complex route is the oracle for the real one: every integer the
    package reports must agree between the two.
    """

    @pytest.mark.parametrize("name", sorted(PHASE_ORACLE_CASES))
    def test_real_and_complex_routes_agree(self, name):
        T = PHASE_ORACLE_CASES[name]()
        rotated = OperatorTuple(tuple(np.exp(0.7j) * op for op in T.ops))
        assert T.dtype == np.float64
        assert rotated.dtype == np.complex128
        assert _integers(T) == _integers(rotated)
        assert purity(T).iterations == purity(rotated).iterations
