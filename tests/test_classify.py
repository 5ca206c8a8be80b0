"""Tests for purity iteration, maximality checks, and full classification."""

import importlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectseq.classify import (
    DEFAULT_EPS_CONV,
    DEFAULT_EPS_PURE,
    DEFAULT_MAX_ITER,
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
from defectseq.errors import (
    ArgumentError,
    ConsistencyError,
    ContractivityError,
    SizeCapError,
)
from defectseq.linalg import hermitian_norm, readonly_copy
from defectseq.models import (
    fock_creation,
    pure_nonmaximal_example,
    random_coinvariant_compression,
    random_contractive,
    right_creation_compression,
    spherical_shift_sum,
    symmetric_fock_shift,
)
from defectseq.tuples import OperatorTuple, apply_cp_map, direct_sum


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

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, False, np.bool_(True),
                                        "5", None, -1, 0, np.int64(0)],
                             ids=repr)
    @pytest.mark.parametrize("scale", [0.5, 1.4],
                             ids=["contractive", "noncontractive"])
    def test_rejects_a_budget_that_is_not_a_positive_integer(self, budget,
                                                              scale):
        T = OperatorTuple((scale * np.eye(2),))
        with pytest.raises(ArgumentError, match="iteration budget"):
            purity(T, max_iter=budget)
        with pytest.raises(ArgumentError, match="iteration budget"):
            classify(T, max_iter=budget)

    @pytest.mark.parametrize("budget", [np.int64(3), np.int32(3), np.uint8(3)],
                             ids=repr)
    def test_numpy_integer_budgets_are_accepted(self, budget):
        s = OperatorTuple((np.sqrt(0.5) * np.eye(2),))
        v = purity(s, max_iter=budget)
        assert v.status is Purity.UNDECIDED and v.iterations == 3
        assert classify(s, max_iter=budget).purity.iterations == 3

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

    @pytest.mark.parametrize("horizon", [True, 1.5], ids=repr)
    @pytest.mark.parametrize("fn", [maximality_noncommutative,
                                    maximality_commuting])
    def test_horizon_must_be_an_integer(self, fn, horizon):
        T = OperatorTuple((0.5 * np.eye(2),))
        with pytest.raises(ArgumentError, match="horizon must be an integer"):
            fn(T, horizon=horizon)

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


def reference_purity(T, max_iter=DEFAULT_MAX_ITER, eps_pure=DEFAULT_EPS_PURE,
                     eps_conv=DEFAULT_EPS_CONV):
    """The purity iteration with both exact spectral norms on every step.

    ``purity`` takes them only when its cheap bounds cannot rule a test
    out; the verdict, the iteration count, the residual norm and the
    limit must come out the same bit for bit.
    """
    x = np.eye(T.h, dtype=T.dtype)
    norm = 1.0
    for k in range(1, max_iter + 1):
        nxt = apply_cp_map(T, x)
        norm = hermitian_norm(nxt)
        if norm <= eps_pure:
            return PurityVerdict(Purity.PURE, k, norm)
        step = hermitian_norm(x - nxt)
        if step <= eps_conv * norm:
            return PurityVerdict(Purity.NOT_PURE, k, norm, readonly_copy(nxt))
        x = nxt
    return PurityVerdict(Purity.UNDECIDED, max_iter, norm)


def exact_steps(T, n):
    """(||X_k||, ||X_{k-1} - X_k||) for k = 1 .. n, as the oracle takes them."""
    x = np.eye(T.h, dtype=T.dtype)
    out = []
    for _ in range(n):
        nxt = apply_cp_map(T, x)
        out.append((hermitian_norm(nxt), hermitian_norm(x - nxt)))
        x = nxt
    return out


def scaled(T, c):
    return OperatorTuple(tuple(c * op for op in T.ops))


def assert_same_verdict(got, want):
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.residual_norm == want.residual_norm
    if want.limit is None:
        assert got.limit is None
    else:
        assert got.limit.dtype == want.limit.dtype
        assert np.array_equal(got.limit, want.limit)


@st.composite
def purity_cases(draw):
    """(tuple, budget, eps_pure, eps_conv) reaching all three verdicts.

    Damped row coisometries decay too slowly for the budget (Undecided),
    random draws and co-invariant compressions die out (Pure), and
    spherical sums settle at a projection (NotPure).  Each tuple comes in
    its own storage or rotated by e^{0.7i} into complex storage.
    """
    kind = draw(st.sampled_from(
        ("random", "real-random", "damped", "coinvariant", "spherical",
         "pure-nonmax")))
    d = draw(st.integers(1, 3))
    h = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "random":
        T = random_contractive(d, h, draw(st.integers(0, h)), seed)
    elif kind == "real-random":
        T = real_row_contraction(d, h, draw(st.integers(0, h)), seed)
    elif kind == "damped":
        T = scaled(random_contractive(d, h, 0, seed),
                   draw(st.floats(0.99, 0.9999)))
    elif kind == "coinvariant":
        T = random_coinvariant_compression(max(d, 2), 2,
                                           draw(st.integers(1, 2)), seed)
    elif kind == "spherical":
        w = np.random.default_rng(seed).standard_normal(2)
        T = spherical_shift_sum(2, draw(st.integers(1, 3)),
                                w / np.linalg.norm(w), draw(st.integers(1, 3)))
    else:
        T = pure_nonmaximal_example(max(d, 2), 2, draw(st.floats(0.1, 0.9)))
    if draw(st.booleans()):
        T = scaled(T, np.exp(0.7j))
    budget = draw(st.integers(1, 300))
    eps_pure = draw(st.sampled_from((DEFAULT_EPS_PURE, 0.0, 1e-6, 1e-3)))
    eps_conv = draw(st.sampled_from((DEFAULT_EPS_CONV, 0.0, 1e-8, 1e-4)))
    return T, budget, eps_pure, eps_conv


class TestBoundsFirstPurity:
    """``purity`` skips the exact norms a cheap bound rules out.

    ``reference_purity`` is the oracle; no skipped test may change the
    outcome.
    """

    @settings(max_examples=120, deadline=None)
    @given(purity_cases())
    def test_matches_the_exact_loop(self, case):
        T, budget, eps_pure, eps_conv = case
        assert_same_verdict(purity(T, budget, eps_pure, eps_conv),
                            reference_purity(T, budget, eps_pure, eps_conv))

    @pytest.mark.parametrize("make", [
        lambda: OperatorTuple((np.sqrt(0.9) * np.eye(3),)),
        lambda: random_contractive(2, 4, 2, 5),
        lambda: scaled(random_contractive(2, 4, 0, 6), 0.95),
    ], ids=["scalar", "random", "damped"])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_purity_threshold_at_an_iterate_norm(self, make, k):
        # The scalar tuple has max|diag X_k| = ||X_k||: the lower bound is
        # as tight as it gets, so only the slack keeps the exact test.
        T = make()
        norm = exact_steps(T, k)[-1][0]
        assert norm > 0.0
        for eps in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, 1.0)):
            want = reference_purity(T, 40, eps, DEFAULT_EPS_CONV)
            assert_same_verdict(purity(T, 40, eps, DEFAULT_EPS_CONV), want)
            assert want.status is Purity.PURE
            assert (want.iterations > k) == (eps < norm)

    @pytest.mark.parametrize("make", [
        lambda: OperatorTuple((np.sqrt(0.9) * np.eye(3),)),
        lambda: spherical_shift_sum(2, 3, (0.6, 0.8), 2),
        lambda: scaled(random_contractive(2, 4, 0, 6), 0.95),
    ], ids=["scalar", "spherical", "damped"])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_convergence_threshold_at_a_step_ratio(self, make, k):
        T = make()
        norm, step = exact_steps(T, k)[-1]
        ratio = step / norm
        verdicts = []
        for eps in (np.nextafter(ratio, 0.0), ratio, np.nextafter(ratio, 1.0)):
            want = reference_purity(T, 40, 0.0, eps)
            assert_same_verdict(purity(T, 40, 0.0, eps), want)
            verdicts.append((want.status, want.iterations))
        # The threshold is met by step k at the latest, so the verdicts
        # straddle the boundary being tested.
        assert any(status is Purity.NOT_PURE and it <= k
                   for status, it in verdicts)

    @pytest.mark.parametrize("scale", [1e200, 1e100])
    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_loop_refuses_a_non_finite_iterate(self, scale, dense):
        # The loop does not re-validate its iterates; an overflow raises
        # what validating the next argument raises.  No contractive tuple
        # gets here, so the private loop is called directly.
        classify_module = importlib.import_module("defectseq.classify")
        base = np.ones((2, 2)) if dense else np.eye(2)
        T = OperatorTuple((scale * base,))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArgumentError) as looped:
                classify_module._purity(T, 3, DEFAULT_EPS_PURE,
                                        DEFAULT_EPS_CONV)
            with pytest.raises(ArgumentError) as public:
                reference_purity(T, 3)
        assert str(looped.value) == str(public.value)

    def test_damped_tuple_takes_the_exact_norm_at_most_twice(self, monkeypatch):
        # The loop steps through the private kernel; the public name is
        # called once, by the contractivity margin in ``defect``.
        classify_module = importlib.import_module("defectseq.classify")
        defect_module = importlib.import_module("defectseq.defect")
        tuples_module = importlib.import_module("defectseq.tuples")
        counts = {"norm": 0, "cp": 0, "public": 0, "margin": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(classify_module, "hermitian_norm",
                            counted("norm", hermitian_norm))
        monkeypatch.setattr(classify_module, "_cp_step",
                            counted("cp", tuples_module._cp_step))
        # classify imports no apply_cp_map; a binding added there would
        # be counted too.
        for module in (classify_module, tuples_module):
            monkeypatch.setattr(module, "apply_cp_map",
                                counted("public", apply_cp_map), raising=False)
        monkeypatch.setattr(defect_module, "apply_cp_map",
                            counted("margin", apply_cp_map))
        T = scaled(random_contractive(2, 8, 0, 0), 0.999)
        v = purity(T)
        assert v.status is Purity.UNDECIDED
        assert v.iterations == DEFAULT_MAX_ITER
        assert counts["cp"] == DEFAULT_MAX_ITER
        assert 1 <= counts["norm"] <= 2
        assert counts["public"] == 0
        assert counts["margin"] == 1


def workload_tuples(seed=0):
    """The five tuples of the benchmark's ``classify`` batch."""
    row = random_contractive(2, 8, 0, (seed, 2))
    return {
        "fock-2-4": fock_creation(2, 4),
        "dshift-2-6": symmetric_fock_shift(2, 6),
        "spherical-sum": spherical_shift_sum(2, 5, (2 ** -0.5, 2 ** -0.5), 3),
        "random-3-24": random_contractive(3, 24, 2, (seed, 1)),
        "damped-2-8": scaled(row, 0.999),
    }


WORKLOAD_TUPLES = workload_tuples()


def block_slots(h, max_iter):
    """The (first, last) step of every block the purity loop runs."""
    classify_module = importlib.import_module("defectseq.classify")
    k = classify_module._SCALAR_STEPS
    slots = []
    while k < max_iter:
        m = max(1, min(classify_module._MAX_BLOCK, k // 8,
                       classify_module._BLOCK_ENTRIES // (h * h), max_iter - k))
        slots.append((k + 1, k + m))
        k += m
    return slots


def counting_cp_steps(monkeypatch):
    """Count the purity loop's cp steps; returns the running count."""
    classify_module = importlib.import_module("defectseq.classify")
    tuples_module = importlib.import_module("defectseq.tuples")
    calls = []

    def counted(*args):
        calls.append(len(args))
        return tuples_module._cp_step(*args)

    monkeypatch.setattr(classify_module, "_cp_step", counted)
    return calls


class TestBlockedPurity:
    """After its first steps the purity loop runs in blocks.

    Iterates past a verdict are computed and dropped; ``reference_purity``
    is the oracle, so no verdict may move.
    """

    @pytest.mark.parametrize("name", sorted(WORKLOAD_TUPLES))
    def test_workload_tuples_match_the_exact_loop(self, name):
        T = WORKLOAD_TUPLES[name]
        got = purity(T)
        assert_same_verdict(got, reference_purity(T))
        if name == "damped-2-8":
            assert got.status is Purity.UNDECIDED
            assert got.iterations == DEFAULT_MAX_ITER

    @pytest.mark.parametrize("budget", [1, 15, 16, 17, 24, 63, 64, 65, 300])
    @pytest.mark.parametrize("make", [
        lambda: scaled(random_contractive(2, 8, 0, 4), 0.99),
        lambda: scaled(random_contractive(3, 5, 0, 5), 0.97 * np.exp(0.7j)),
        lambda: random_contractive(2, 6, 1, 6),
        lambda: spherical_shift_sum(2, 4, (0.6, 0.8), 2),
        lambda: OperatorTuple((np.diag([1.0, np.sqrt(0.95)]),)),
    ], ids=["damped-real", "damped-complex", "random", "spherical",
            "diagonal"])
    def test_budgets_around_the_block_edges(self, make, budget):
        T = make()
        for eps_pure, eps_conv in ((DEFAULT_EPS_PURE, DEFAULT_EPS_CONV),
                                   (1e-3, 1e-4), (0.0, 0.0)):
            assert_same_verdict(purity(T, budget, eps_pure, eps_conv),
                                reference_purity(T, budget, eps_pure, eps_conv))

    def test_undecided_runs_no_speculative_step(self, monkeypatch):
        calls = counting_cp_steps(monkeypatch)
        T = WORKLOAD_TUPLES["damped-2-8"]
        for budget in (15, 16, 17, 65, 300):
            calls.clear()
            assert purity(T, budget).status is Purity.UNDECIDED
            assert len(calls) == budget

    @pytest.mark.parametrize("slot", ["first", "last"])
    @pytest.mark.parametrize("block", [0, 4, -1])
    @pytest.mark.parametrize("test", ["pure", "fixed"])
    @pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)], ids=["real", "complex"])
    def test_verdict_on_a_block_edge(self, monkeypatch, phase, test, block,
                                     slot):
        # X_k = diag(1, c**k) for the diagonal tuple: the step
        # ||X_{k-1} - X_k|| = c**(k-1) (1 - c) falls with k while the norm
        # stays 1, so eps_conv at step K's ratio gives NotPure at K.  The
        # scalar tuple's norm c**k falls, so eps_pure at step K's norm
        # gives Pure at K.  The real tuples take the diagonal route, their
        # rotations the dense products.
        budget = 700
        if test == "pure":
            T = OperatorTuple((phase * np.sqrt(0.99) * np.eye(3),))
        else:
            T = OperatorTuple((phase * np.diag([1.0, np.sqrt(0.99)]),))
        first, last = block_slots(T.h, budget)[block]
        assert last - first + 1 >= 2
        K = first if slot == "first" else last
        norm, step = exact_steps(T, K)[-1]
        eps_pure, eps_conv = (norm, 0.0) if test == "pure" else (0.0, step / norm)
        want = reference_purity(T, budget, eps_pure, eps_conv)
        assert want.iterations == K
        assert want.status is (Purity.PURE if test == "pure" else Purity.NOT_PURE)
        calls = counting_cp_steps(monkeypatch)
        got = purity(T, budget, eps_pure, eps_conv)
        assert_same_verdict(got, want)
        # The block runs to its end; the steps after K are dropped.
        assert len(calls) == last
        # Blocked steps write into the block through the ``out`` argument.
        assert calls.count(3) == last - 16
        assert got.limit is None or not got.limit.flags.writeable

    @pytest.mark.parametrize("name", sorted(WORKLOAD_TUPLES))
    def test_iterations_are_python_integers(self, name):
        cli = importlib.import_module("defectseq.cli")
        io = importlib.import_module("defectseq.io")
        v = purity(WORKLOAD_TUPLES[name], 300)
        assert type(v.iterations) is int
        payload = json.loads(io.report_json(cli._purity_payload(v)))
        assert payload["iterations"] == v.iterations

    def test_speculative_steps_stay_within_an_eighth(self):
        # The blocks after step k hold at most k // 8 steps, so a verdict
        # at step K costs at most K / 8 steps it did not need.
        for h in (1, 8, 24, 64, 300):
            for first, last in block_slots(h, 10 ** 5):
                assert (last - first) <= (first - 1) / 8
                assert (last - first + 1) * h * h <= max(2 ** 16, h * h)

    def test_non_finite_block_iterate_is_refused(self):
        # Past the scalar steps the finiteness check runs per block; the
        # error is the one the step-by-step loop raises.
        classify_module = importlib.import_module("defectseq.classify")
        T = OperatorTuple((2.0 * np.eye(2),))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArgumentError,
                               match="cp-map argument contains non-finite"):
                classify_module._purity(T, 600, 0.0, 0.0)


BAD_THRESHOLDS = [
    {"eps_pure": np.inf}, {"eps_pure": np.nan}, {"eps_pure": -1.0},
    {"eps_conv": np.inf}, {"eps_conv": np.nan}, {"eps_conv": -1e-12},
    # Not a real number, or an integer past the float range.
    *({name: bad} for name in ("eps_pure", "eps_conv")
      for bad in (True, False, np.bool_(True), "1", None, 1e-10j, [1e-10],
                  10 ** 400)),
]


class TestPurityThresholds:
    @pytest.mark.parametrize("bad", BAD_THRESHOLDS)
    def test_purity_rejects_bad_thresholds(self, bad):
        with pytest.raises(ArgumentError):
            purity(fock_creation(2, 2), **bad)

    @pytest.mark.parametrize("bad", BAD_THRESHOLDS)
    def test_classify_rejects_them_before_the_contractivity_check(self, bad):
        with pytest.raises(ArgumentError):
            classify(fock_creation(2, 2), **bad)
        with pytest.raises(ArgumentError):
            classify(OperatorTuple((1.5 * np.eye(2),)), **bad)

    @pytest.mark.filterwarnings("error")
    def test_huge_thresholds_match_the_oracle_without_warnings(self):
        T = random_contractive(2, 4, 1, 7)
        for eps_pure, eps_conv in ((0.0, 1e308), (1e308, 1e308)):
            assert_same_verdict(purity(T, 5, eps_pure, eps_conv),
                                reference_purity(T, 5, eps_pure, eps_conv))

    @pytest.mark.parametrize("eps_conv", [1.0, 2.0, 1e308])
    def test_classify_needs_eps_conv_below_one(self, eps_conv):
        # A relative step bound of 1 passes the NotPure test on the first
        # step of the pure creation tuple; purity() still reports that.
        assert purity(fock_creation(2, 2),
                      eps_conv=eps_conv).status is Purity.NOT_PURE
        with pytest.raises(ArgumentError, match="eps_conv"):
            classify(fock_creation(2, 2), eps_conv=eps_conv)
        with pytest.raises(ArgumentError, match="eps_conv"):
            classify(OperatorTuple((1.5 * np.eye(2),)), eps_conv=eps_conv)
        below = np.nextafter(1.0, 0.0)
        assert classify(fock_creation(2, 2), eps_conv=below).irreducible

    @pytest.mark.parametrize("eps", [1e-10, 0, np.float64(1e-10),
                                     np.float32(1e-10), np.int64(0)],
                             ids=repr)
    def test_python_and_numpy_numbers_are_accepted(self, eps):
        T = spherical_shift_sum(2, 2, (0.6, 0.8), 1)
        for kw in ({"eps_pure": eps}, {"eps_conv": eps}):
            args = {"eps_pure": DEFAULT_EPS_PURE,
                    "eps_conv": DEFAULT_EPS_CONV, **kw}
            want = reference_purity(T, 200, **args)
            assert_same_verdict(purity(T, 200, **args), want)
            assert_same_verdict(classify(T, max_iter=200, **args).purity,
                                want)

    def test_zero_thresholds_are_valid(self):
        assert purity(fock_creation(2, 2), eps_pure=0.0,
                      eps_conv=0.0).status is Purity.PURE
        T = spherical_shift_sum(2, 2, (0.6, 0.8), 1)
        rep = classify(T, max_iter=200, eps_pure=0.0, eps_conv=0.0)
        assert_same_verdict(rep.purity, reference_purity(T, 200, 0.0, 0.0))


class TestCommutantSizeCap:
    """The cap on the commutant system, and where classify meets it."""

    def test_dense_tuple_past_the_cap_is_refused(self, monkeypatch):
        T = random_contractive(2, 4, 1, 0)
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "15")
        with pytest.raises(SizeCapError, match=r"h\^2 = 16 unknowns, cap is 15"):
            commutant_dimension(T)
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "16")
        assert commutant_dimension(T) == 1

    def test_cap_applies_to_the_largest_component(self, monkeypatch):
        # fock_creation(2, 2) has h^2 = 49 unknowns, in components of at
        # most 7; zero entries lift d and with it the entry guard d*cap^2.
        T = OperatorTuple(fock_creation(2, 2).ops + (np.zeros((7, 7)),) * 8)
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "7")
        assert commutant_dimension(T) == 1
        assert classify(T).irreducible
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "6")
        with pytest.raises(SizeCapError,
                           match="component needs 7 real unknowns, cap is 6"):
            commutant_dimension(T)

    def test_cap_counts_real_unknowns_not_pairs(self, monkeypatch):
        # Each off-diagonal pair {a, b} of a diagonal tuple is one
        # component with a symmetric and an antisymmetric unknown.
        T = OperatorTuple((np.diag([0.1, 0.2]),) + (np.zeros((2, 2)),) * 7)
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "2")
        assert commutant_dimension(T) == 2
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "1")
        with pytest.raises(SizeCapError,
                           match="component needs 2 real unknowns, cap is 1"):
            commutant_dimension(T)

    def test_component_blocks_stay_within_the_dense_budget(self, monkeypatch):
        # At cap 31 every component of fock_creation(2, 4) fits, but
        # together their blocks would hold more than d*cap^2 entries.
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "31")
        with pytest.raises(SizeCapError, match="cap is d\\*cap\\^2 = 1922"):
            commutant_dimension(fock_creation(2, 4))

    def test_entry_guard_refuses_before_allocating(self, monkeypatch):
        # One nilpotent shift on C^400: 2h*nnz = 319200 entries, over
        # d*cap^2 = 250000, refused without building the system.
        T = OperatorTuple((np.eye(400, k=-1),))
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "500")
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError,
                               match="2h\\*nnz = 319200 entries"):
                commutant_dimension(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 319200

    @pytest.mark.parametrize("real", [True, False])
    def test_dense_tuple_past_the_cap_is_refused_before_building(
            self, monkeypatch, real):
        # A tuple without zeros is one component of h^2 = 4225 unknowns;
        # its system would hold 2h*nnz = 1098500 terms.  The refusal
        # costs less than one entry of the tuple.
        T = random_contractive(2, 65, 1, 0)
        if real:
            T = OperatorTuple(tuple(op.real for op in T.ops))
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "4096")
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError,
                               match=r"h\^2 = 4225 unknowns, cap is 4096"):
                commutant_dimension(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T.ops[0].nbytes

    def test_classify_counts_the_commutant_before_the_purity_loop(
            self, monkeypatch):
        classify_module = importlib.import_module("defectseq.classify")
        defect_module = importlib.import_module("defectseq.defect")
        tuples_module = importlib.import_module("defectseq.tuples")
        calls = []

        def counting(fn):
            def wrapper(T, x):
                calls.append(x)
                return fn(T, x)
            return wrapper

        # The purity loop steps through the private kernel, the margin
        # through the public name.
        monkeypatch.setattr(defect_module, "apply_cp_map",
                            counting(apply_cp_map))
        monkeypatch.setattr(classify_module, "_cp_step",
                            counting(tuples_module._cp_step))
        # The damped tuple of the benchmark spends the whole purity budget.
        T = scaled(random_contractive(2, 8, 0, 3), 0.999)
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "63")
        with pytest.raises(SizeCapError, match="h\\^2 = 64"):
            classify(T)
        # The one call is the contractivity margin's cp(I).
        assert len(calls) == 1

    def test_noncontractive_input_past_the_cap_still_reports(self, monkeypatch):
        monkeypatch.setenv("DEFECTSEQ_SIZE_CAP", "63")
        rep = classify(scaled(random_contractive(2, 8, 0, 3), 1.5))
        assert not rep.contractive
        assert rep.commutant_dim is None

    def test_irreducible_notpure_still_raises(self, monkeypatch):
        # The cross-check reads the purity verdict, which now comes after
        # the commutant count.
        classify_module = importlib.import_module("defectseq.classify")

        def fixed_point(T, *args):
            limit = readonly_copy(np.eye(T.h, dtype=T.dtype))
            return PurityVerdict(Purity.NOT_PURE, 1, 1.0, limit)

        monkeypatch.setattr(classify_module, "_purity", fixed_point)
        with pytest.raises(ConsistencyError, match="irreducible"):
            classify(fock_creation(2, 2))
