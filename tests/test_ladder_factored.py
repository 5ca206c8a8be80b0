"""The factored defect ladder against the dense oracle.

A tuple without the weighted-shift pattern gets its defect ladder from
D_{n+1} = D_1 + cp(D_n), carried as a signed factor.  Every value must
equal ``numerical_rank(defect_operator(T, n))``, which ranks
I - cp^n(I) built by n dense cp steps, up to the point where the ladder
stops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectseq.defect as defect_module
from defectseq.defect import (
    _ladder,
    defect_operator,
    defect_sequence,
    is_contractive,
    require_contractive,
)
from defectseq.linalg import DEFAULT_TOL, RankTolerance, numerical_rank
from defectseq.models import fock_creation, random_contractive
from defectseq.tuples import OperatorTuple, direct_sum

KINDS = ("complex", "real", "coisometry", "direct-sum", "scaled",
         "nilpotent", "inflated")


def oracle_ladder(T, tol=None):
    # numerical_rank(D_n) for n = 1, 2, ..., ended by the ladder's rule:
    # after the first value equal to h or to its predecessor.
    tol = DEFAULT_TOL if tol is None else tol
    values = []
    for n in range(1, T.h + 2):
        values.append(numerical_rank(defect_operator(T, n, tol), tol))
        if values[-1] == T.h or values[-2:-1] == values[-1:]:
            break
    return values


def ladder(T, tol=None):
    # The ladder of a dense tuple comes from the factored route; a real
    # draw with h = 1 is a weighted shift and takes the diagonal one.
    tol = DEFAULT_TOL if tol is None else tol
    require_contractive(T, tol)
    return list(_ladder(T, tol))


def orthogonal(rng, h):
    q, r = np.linalg.qr(rng.standard_normal((h, h)))
    return q * np.sign(np.diagonal(r))


def real_contractive(rng, d, h, defect_rank):
    # The construction of models.random_contractive with real orthogonal
    # factors: I - cp(I) has exactly defect_rank eigenvalues in
    # [0.19, 0.96] and h - defect_rank zeros, up to rounding.
    sigma = np.concatenate([np.ones(h - defect_rank),
                            rng.uniform(0.2, 0.9, defect_rank)])
    row = (orthogonal(rng, h) * sigma) @ orthogonal(rng, d * h)[:, :h].T
    return OperatorTuple(tuple(row[:, i * h:(i + 1) * h] for i in range(d)))


def draw_tuple(seed, d, h, kind):
    """A dense contractive tuple of one of ``KINDS``."""
    rng = np.random.default_rng(seed)
    complex_entries = rng.random() < 0.5

    def base(dim, rank):
        if complex_entries:
            return random_contractive(d, dim, rank, rng.integers(2 ** 32))
        return real_contractive(rng, d, dim, rank)

    if kind == "complex":
        return random_contractive(d, h, int(rng.integers(0, h + 1)),
                                  rng.integers(2 ** 32))
    if kind == "real":
        return real_contractive(rng, d, h, int(rng.integers(0, h + 1)))
    if kind == "coisometry":
        # Delta_1 = 0, so every Delta_n is 0.
        return base(h, 0)
    if kind == "direct-sum":
        # The coisometric summand carries no defect: the ladder
        # stabilizes at most at the first summand's dimension.
        h1 = max(1, h // 2)
        return direct_sum(base(h1, int(rng.integers(1, h1 + 1))),
                          base(max(1, h - h1), 0))
    if kind == "scaled":
        T = base(h, int(rng.integers(0, h + 1)))
        factor = rng.choice([0.9, 0.999, 1.0 - 1e-6])
        return OperatorTuple(tuple(factor * op for op in T.ops))
    if kind == "nilpotent":
        # Strictly upper triangular entries: slow ladders.
        ops = [np.triu(rng.standard_normal((h, h)), 1) for _ in range(d)]
        if complex_entries:
            ops = [op * np.exp(1j * rng.uniform(0, 2 * np.pi)) for op in ops]
        top = max(float(np.linalg.norm(np.hstack(ops), 2)), 1.0)
        return OperatorTuple(tuple(op / top * rng.uniform(0.5, 1.0)
                                   for op in ops))
    if kind == "inflated":
        # A coisometry times 1 + 2e-9, accepted within the contractivity
        # slack: D_n has negative eigenvalues of about -4n e-9.
        T = base(h, int(rng.integers(0, h + 1)))
        return OperatorTuple(tuple((1.0 + 2e-9) * op for op in T.ops))
    raise ValueError(kind)


def sub_atol_defect(seed):
    # An orthogonal conjugate of diag(sqrt(1 - 6e-13), 1): D_1 has the
    # eigenvalue 6e-13, below atol = 1e-12, and D_2 has about 1.2e-12.
    q = orthogonal(np.random.default_rng(seed), 2)
    return OperatorTuple((q @ np.diag([np.sqrt(1.0 - 6e-13), 1.0]) @ q.T,))


def slack_tuple(seed):
    # Q diag(1 + 3e-9, 1, 0.5) Q^T, contractive within the 10 rtol slack:
    # D_n has one negative eigenvalue of about -6n e-9 above the cutoff.
    q = orthogonal(np.random.default_rng(seed), 3)
    return OperatorTuple((q @ np.diag([1.0 + 3e-9, 1.0, 0.5]) @ q.T,))


class TestOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_draws(self, seed):
        rng = np.random.default_rng(seed)
        T = draw_tuple(seed, int(rng.integers(1, 4)), int(rng.integers(1, 13)),
                       KINDS[seed % len(KINDS)])
        assert ladder(T) == oracle_ladder(T)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 12),
           st.sampled_from(KINDS))
    def test_hypothesis_draws(self, seed, d, h, kind):
        T = draw_tuple(seed, d, h, kind)
        assert ladder(T) == oracle_ladder(T)

    @pytest.mark.parametrize("kind", ["coisometry", "direct-sum"])
    def test_kinds_that_stay_below_h(self, kind):
        for seed in range(10):
            T = draw_tuple(seed, 2, 8, kind)
            deltas = ladder(T)
            assert deltas == oracle_ladder(T)
            assert deltas[-1] < T.h
            if kind == "coisometry":
                assert deltas == [0, 0]

    def test_other_tolerances(self):
        for seed in range(10):
            T = draw_tuple(seed, 2, 7, KINDS[seed % len(KINDS)])
            for tol in (RankTolerance(rtol=1e-6, atol=1e-9),
                        RankTolerance(rtol=1e-12, atol=0.0)):
                if not is_contractive(T, tol):
                    continue
                assert ladder(T, tol) == oracle_ladder(T, tol)


class TestEdgeFamilies:
    @pytest.mark.parametrize("seed", range(5))
    def test_defect_below_atol_adds_up(self, seed):
        # Cutting the factor at the rank cutoff would drop D_1 and give
        # [0, 0]; the rounding floor keeps it.
        T = sub_atol_defect(seed)
        assert ladder(T) == oracle_ladder(T) == [0, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_negative_eigenvalues_keep_their_sign(self, seed):
        # An unsigned factor adds the negative part of D_1 with the wrong
        # sign and the ladder comes out decreasing.
        T = slack_tuple(seed)
        assert ladder(T) == oracle_ladder(T) == [2, 2]
        pair = direct_sum(T, T)
        assert ladder(pair) == oracle_ladder(pair) == [4, 4]

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_and_positive_parts_cancel(self, seed):
        # T = [[a, b, 0], [0, 0, 0], [0, 0, 1]] with a^2 (1 + eps) = 1 and
        # b^2 = eps (1 + a^2), conjugated: D_1 = diag(-eps, 1, 0), and cp
        # carries the 1 onto the first axis with weight b^2, where it
        # cancels -eps in D_2.  A factor that kept |eps| would count 2.
        # The tuple is contractive only within the slack, and its ladder
        # falls, so defect_sequence refuses it on either route.
        eps = 4e-9
        a = np.sqrt(1.0 / (1.0 + eps))
        b = np.sqrt(eps * (1.0 + a * a))
        q = orthogonal(np.random.default_rng(seed), 3)
        T = OperatorTuple((q @ np.array([[a, b, 0.0], [0.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0]]) @ q.T,))
        assert ladder(T) == oracle_ladder(T) == [2, 1, 2, 2]

    @pytest.mark.parametrize("s", range(3))
    def test_dense_random_ladder(self, s):
        T = random_contractive(2, 300, 1, (s, 0))
        assert defect_sequence(T, 200).deltas == (
            1, 3, 7, 15, 31, 63, 127, 255, 300)


class TestRoutes:
    def test_route_follows_the_shift_pattern(self, monkeypatch):
        routes = []
        for name in ("_iterate_deltas", "_factored_deltas"):
            original = getattr(defect_module, name)

            def counted(T, tol, *first, name=name, original=original):
                routes.append(name)
                return original(T, tol, *first)

            monkeypatch.setattr(defect_module, name, counted)
        shift = fock_creation(2, 3)
        rotated = OperatorTuple(tuple(np.exp(0.5j) * op for op in shift.ops))
        for T, route in ((shift, "_iterate_deltas"),
                         (rotated, "_factored_deltas")):
            routes.clear()
            assert defect_sequence(T, 5).deltas == (1, 3, 7, 15)
            assert routes == [route]
