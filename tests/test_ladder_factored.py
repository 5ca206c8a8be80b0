"""The factored defect ladder against the dense oracle.

A tuple without the weighted-shift pattern gets its defect ladder from
D_{n+1} = D_1 + cp(D_n), carried as a signed factor.  Every value must
equal ``numerical_rank(defect_operator(T, n))``, which ranks
I - cp^n(I) built by n dense cp steps, up to the point where the ladder
stops.
"""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectseq.defect as defect_module
from defectseq.cli import main
from defectseq.defect import (
    _SKETCH_OVERSAMPLING,
    _dense_factor,
    _first_defect,
    _ladder,
    _signed_factor,
    contractivity_margin,
    defect_dimension,
    defect_operator,
    defect_sequence,
    is_contractive,
    require_contractive,
)
from defectseq.errors import ConsistencyError
from defectseq.io import write_tuple
from defectseq.linalg import (
    DEFAULT_TOL,
    RankTolerance,
    hermitize,
    numerical_rank,
)
from defectseq.models import (
    fock_creation,
    haar_unitary,
    random_contractive,
    symmetric_fock_shift,
)
from defectseq.tuples import OperatorTuple, apply_cp_map, direct_sum, is_commuting

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


def falling_core():
    # [[a, b, 0], [0, 0, 0], [0, 0, 1]] with a^2 (1 + eps) = 1 and
    # b^2 = eps (1 + a^2): D_1 = diag(-eps, 1, 0), and cp carries the 1
    # onto the first axis with weight b^2, where it cancels -eps in D_2.
    eps = 4e-9
    a = np.sqrt(1.0 / (1.0 + eps))
    b = np.sqrt(eps * (1.0 + a * a))
    return np.array([[a, b, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def embedded_falling_tuple(seed, h, real):
    # The falling core plus an orthogonal summand of no defect,
    # conjugated by an orthogonal (real) or a Haar unitary matrix: D_1
    # has the eigenvalues -4e-9 and 1 and h - 2 zeros, up to rounding.
    rng = np.random.default_rng(seed)
    T = direct_sum(OperatorTuple((falling_core(),)),
                   OperatorTuple((orthogonal(rng, h - 3),)))
    u = orthogonal(rng, h) if real else haar_unitary(h, rng)
    return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))


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
        q = orthogonal(np.random.default_rng(seed), 3)
        T = OperatorTuple((q @ falling_core() @ q.T,))
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


def stepped_oracle_ladder(T, tol=None):
    # oracle_ladder with X_n = cp^n(I) carried from step to step by the
    # public cp map, in place of n fresh steps per value: the bits of
    # defect_operator(T, n) (TestSketchedFactor checks this), at the cost
    # of one dense step per value, so long ladders at h = 128 stay cheap.
    tol = DEFAULT_TOL if tol is None else tol
    values = []
    x = np.eye(T.h, dtype=T.dtype)
    for _ in range(T.h + 1):
        x = apply_cp_map(T, x)
        values.append(numerical_rank(hermitize(np.eye(T.h) - x), tol))
        if values[-1] == T.h or values[-2:-1] == values[-1:]:
            break
    return values


def factor_error(d_n, g, j):
    return float(np.linalg.norm(d_n - (g * j) @ g.conj().T, 2))


def eigh_sizes(monkeypatch):
    # Record the order of every np.linalg.eigh call from now on.
    sizes = []
    original = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return sizes


SKETCH_CASES = [(kind, d, rank, h) for kind in ("real", "complex")
                for d in (1, 2, 3) for rank in (1, 2, 3, 5)
                for h in (24, 64, 128)]


class TestSketchedFactor:
    """A dense D_n with r + p < h gets its factor from a sketch.

    ``_dense_factor`` takes one step of subspace iteration on r + p
    seeded columns and a Rayleigh-Ritz step in place of an h x h eigh;
    the factor must be as good as the eigh factor up to the rounding
    floor, and the ladder must not move.
    """

    @pytest.mark.parametrize("kind, d, rank, h", SKETCH_CASES)
    def test_factor_error_and_ladder(self, kind, d, rank, h):
        seed = (d, rank, h)
        if kind == "real":
            T = real_contractive(np.random.default_rng(seed), d, h, rank)
        else:
            T = random_contractive(d, h, rank, seed)
        d_1, values = _first_defect(T)
        floor = h * np.finfo(np.float64).eps
        g, j = _dense_factor(d_1, values, floor)
        g_eigh, j_eigh = _signed_factor(*np.linalg.eigh(d_1), floor)
        assert g.shape == (h, rank) and (j == 1.0).all()
        assert (factor_error(d_1, g, j)
                <= factor_error(d_1, g_eigh, j_eigh) + 2.0 * floor)
        assert ladder(T) == stepped_oracle_ladder(T)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stepped_oracle_has_the_bits_of_defect_operator(self, kind):
        rng = np.random.default_rng(5)
        T = (real_contractive(rng, 2, 24, 2) if kind == "real"
             else random_contractive(2, 24, 2, 5))
        x = np.eye(T.h, dtype=T.dtype)
        for n in range(1, 5):
            x = apply_cp_map(T, x)
            assert np.array_equal(hermitize(np.eye(T.h) - x),
                                  defect_operator(T, n))

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("h", [16, 24])
    def test_falling_tuple_keeps_its_negative_eigenvalue(self, monkeypatch,
                                                         tmp_path, capsys,
                                                         real, h):
        T = embedded_falling_tuple(h, h, real)
        d_1, values = _first_defect(T)
        floor = h * np.finfo(np.float64).eps
        sizes = eigh_sizes(monkeypatch)
        g, j = _dense_factor(d_1, values, floor)
        assert h not in sizes
        assert sorted(j) == [-1.0, 1.0]
        weights = np.sum(np.abs(g) ** 2, axis=0) * j
        assert np.allclose(sorted(weights), [-4e-9, 1.0], rtol=1e-6, atol=0)
        assert factor_error(d_1, g, j) <= 2.0 * floor
        assert ladder(T) == oracle_ladder(T) == [2, 1, 2, 2]
        with pytest.raises(ConsistencyError,
                           match=r"decreased: \(2, 1, 2, 2\)"):
            defect_sequence(T, 200)
        path = tmp_path / "slack.json"
        write_tuple(T, path)
        assert main(["defect", str(path), "--n-max", "200"]) == 1
        assert capsys.readouterr().err == (
            "analysis failed: defect sequence decreased: (2, 1, 2, 2)\n")

    @pytest.mark.parametrize("h, calls", [(12, 1), (13, 1), (14, 0),
                                          (64, 0)])
    def test_eigh_of_order_h_only_when_the_sketch_is_not_thinner(
            self, monkeypatch, h, calls):
        # Delta_1 = 3, so r + p = 13: an h x h eigh for h <= 13 and none
        # above.  The second value needs the factor of D_1 and no other.
        rank = 3
        assert rank + _SKETCH_OVERSAMPLING == 13
        T = random_contractive(2, h, rank, h)
        sizes = eigh_sizes(monkeypatch)
        assert list(islice(_ladder(T, DEFAULT_TOL), 2)) == [3, 9]
        assert sizes.count(h) == calls
        assert all(size <= h for size in sizes)


def dimension_oracle(T, n):
    # defect_dimension(T, k) for k = 1..n: each a fresh dense D_k from k
    # cp steps, apart from the factored ladder.
    return tuple(defect_dimension(T, k) for k in range(1, n + 1))


def qr_modes(monkeypatch):
    # Record the mode of every np.linalg.qr call from now on.
    modes = []
    original = np.linalg.qr

    def recorded(a, mode="reduced"):
        modes.append(mode)
        return original(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return modes


def conjugate(T, seed, real):
    # u* T_i u for a seeded real orthogonal or Haar unitary u.
    rng = np.random.default_rng(seed)
    u = orthogonal(rng, T.h) if real else haar_unitary(T.h, rng)
    return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))


def signed_draw(d, h, rank, seed, real):
    # The construction of random_contractive with one singular value
    # 1 + 2e-9: D_1 has one eigenvalue of about -4e-9, above the cutoff,
    # so the factor of D_1 carries a -1 in its signature, and the tuple
    # is contractive only within the slack.
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([[1.0 + 2e-9], np.ones(h - rank - 1),
                            rng.uniform(0.2, 0.9, rank)])
    if real:
        w, u = orthogonal(rng, h), orthogonal(rng, d * h)[:, :h]
    else:
        w, u = haar_unitary(h, rng), haar_unitary(d * h, rng)[:, :h]
    row = (w * sigma) @ u.conj().T
    return OperatorTuple(tuple(row[:, i * h:(i + 1) * h] for i in range(d)))


class TestFactorKeptWhole:
    """A step whose M = [G_1, T_1 G_n, ..., T_d G_n] keeps every column.

    Such a step takes only the eigenvalues of R J R* from M = QR and
    carries M itself as the next factor; the first step that drops a
    column takes Q and the eigenvectors, and so does every later step of
    that ladder.  Each ladder must equal ``defect_dimension``, a fresh
    dense D_n per value, and stop where that sequence first repeats or
    reaches h.
    """

    def check(self, T, deltas):
        assert deltas == dimension_oracle(T, len(deltas))
        assert deltas[-1] == T.h or deltas[-1] == deltas[-2]

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("h, rank", [(16, 1), (16, 3), (64, 1), (64, 3)])
    def test_long_single_entry_ladders(self, monkeypatch, h, rank, real):
        # Delta_n = min(n rank, h): every step up to the dense last one
        # keeps M, so the only eigh is of D_1's sketched factor.
        if real:
            T = real_contractive(np.random.default_rng((h, rank)), 1, h, rank)
        else:
            T = random_contractive(1, h, rank, (h, rank))
        sizes = eigh_sizes(monkeypatch)
        deltas = defect_sequence(T, h + 1).deltas
        assert sizes == [rank + _SKETCH_OVERSAMPLING]
        assert deltas == tuple(range(rank, h, rank)) + (h,)
        self.check(T, deltas)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_long_conjugated_shift(self, monkeypatch, real):
        # fock_creation(1, 63) on h = 64 has the ladder 1, 2, ..., 64; a
        # dense conjugate takes the factored route, and its M, 64 columns
        # at the last narrow step, is never compressed.
        T = conjugate(fock_creation(1, 63), 3, real)
        assert T._shift_pattern is None
        sizes = eigh_sizes(monkeypatch)
        deltas = defect_sequence(T, 100).deltas
        assert sizes == [1 + _SKETCH_OVERSAMPLING]
        assert deltas == tuple(range(1, 65))
        self.check(T, deltas)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("k", [4, 6])
    def test_commuting_ladder_compresses_from_its_first_drop(
            self, monkeypatch, k, real):
        # The symmetric shift's ladder 1, 3, 6, 10, ... grows by less
        # than M's width from step 3 on: step 2 keeps M, step 3 drops a
        # column after its values-only check, and later steps go to the
        # compressing path at once.
        T = conjugate(symmetric_fock_shift(2, k), k, real)
        assert is_commuting(T)
        modes = qr_modes(monkeypatch)
        rep = defect_sequence(T, 100)
        assert rep.deltas == tuple(math.comb(n + 1, 2)
                                   for n in range(1, k + 2))
        assert all(rep.bound_ok_comm)
        # Two QRs of D_1's sketch, then steps 2 and 3 test R alone.
        assert modes[:5] == ["reduced", "reduced", "r", "r", "reduced"]
        assert "r" not in modes[5:]
        self.check(T, rep.deltas)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_first_defect(self, d, real):
        # Delta_1 = 0: the factors are empty, and the step from an empty
        # M keeps it, with no eigenvalue to test.
        if real:
            T = real_contractive(np.random.default_rng(d), d, 8, 0)
        else:
            T = random_contractive(d, 8, 0, d)
        deltas = defect_sequence(T, 10).deltas
        assert deltas == (0, 0)
        self.check(T, deltas)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("d, h, rank", [(1, 16, 1), (2, 24, 2),
                                            (3, 32, 1)])
    def test_negative_signature_is_carried_in_m(self, monkeypatch, d, h,
                                                rank, real):
        # M's signature repeats J_1, which holds the -1 of D_1's
        # eigenvalue near -4e-9; no narrow step drops a column, so the
        # only eigh of an order below h is D_1's factor.
        T = signed_draw(d, h, rank, (d, h, rank), real)
        margin = contractivity_margin(T)
        assert -5e-9 < margin < -3e-9
        sizes = eigh_sizes(monkeypatch)
        deltas = defect_sequence(T, h + 1).deltas
        assert [size for size in sizes if size < h] == [
            rank + 1 + _SKETCH_OVERSAMPLING]
        self.check(T, deltas)


def certificates(monkeypatch):
    # Record every defect._certified_full call from now on: the verdicts,
    # and a copy of each matrix it was given.
    verdicts, matrices = [], []
    original = defect_module._certified_full

    def recorded(a, tol, floor):
        matrices.append(a.copy())
        verdicts.append(original(a, tol, floor))
        return verdicts[-1]

    monkeypatch.setattr(defect_module, "_certified_full", recorded)
    return verdicts, matrices


def between_cutoff_and_shift(seed, h, real, offset=3e-14):
    # U diag(0, t, ..., t) U* with e (2 - e) = 1e-9 + offset for
    # e = 1 - t**2: D_1 has the eigenvalue 1 and h - 1 copies of
    # e < 1e-9, under the cutoff, so Delta_1 = 1, and D_2, the dense
    # M J M* of the second step, has the eigenvalue 1 and h - 1 copies of
    # 1e-9 + offset, which eigvalsh counts.  The certificate's shift lies
    # 8 h**2 eps ||D_2||_F (1.1e-13 at h = 8) above the cutoff.
    lam = 1e-9 + offset
    e = lam / (1.0 + np.sqrt(1.0 - lam))
    diag = np.diag(np.concatenate([[0.0], np.full(h - 1, np.sqrt(1.0 - e))]))
    rng = np.random.default_rng(seed)
    u = orthogonal(rng, h) if real else haar_unitary(h, rng)
    return OperatorTuple((u @ diag @ u.conj().T,))


class TestCertifiedSteps:
    """Steps whose count one shifted Cholesky factorization certifies.

    A step whose signature is all +1 takes Cholesky of A - s I for its
    R J R* or its dense M J M* (``linalg._certified_full``) and, when it
    succeeds, the width of A as its count, in place of eigvalsh; any
    other step, and any step whose factorization fails, takes the
    eigenvalues.  Every ladder must equal ``defect_dimension``, a fresh
    dense D_n per value.
    """

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("d, h, rank", [(1, 16, 2), (2, 24, 1),
                                            (2, 64, 3), (3, 40, 1),
                                            (3, 64, 2)])
    def test_maximal_draws_certify_every_step(self, monkeypatch, d, h,
                                              rank, real):
        # Delta_{n+1} = min(Delta_1 + d Delta_n, h), the bound of a
        # maximal tuple, at every step after the first.
        if real:
            T = real_contractive(np.random.default_rng((d, h, rank)), d, h,
                                 rank)
        else:
            T = random_contractive(d, h, rank, (d, h, rank))
        verdicts, _ = certificates(monkeypatch)
        deltas = defect_sequence(T, h + 1).deltas
        assert deltas == dimension_oracle(T, len(deltas))
        assert deltas[0] == rank and deltas[-1] == h
        assert all(b == min(rank + d * a, h)
                   for a, b in zip(deltas, deltas[1:]))
        assert verdicts == [True] * (len(deltas) - 1)

    def test_seeded_draws_against_the_dense_oracle(self, monkeypatch):
        # d = 1..3, h up to 64, every kind of draw_tuple, maximal or not;
        # the certificate both succeeds and declines among them.
        verdicts, _ = certificates(monkeypatch)
        for seed in range(28):
            rng = np.random.default_rng((28, seed))
            T = draw_tuple(seed, 1 + seed % 3,
                           int(rng.choice([5, 16, 33, 64])),
                           KINDS[seed % len(KINDS)])
            deltas = ladder(T)
            assert tuple(deltas) == dimension_oracle(T, len(deltas)), seed
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvalue_between_cutoff_and_shift_falls_back(
            self, monkeypatch, seed, real):
        # eigvalsh counts the h - 1 eigenvalues 1e-9 + 3e-14 of D_2, and
        # the certificate, whose shift lies above them, must decline.
        T = between_cutoff_and_shift(seed, 8, real)
        verdicts, matrices = certificates(monkeypatch)
        assert ladder(T) == oracle_ladder(T) == [1, 8]
        assert verdicts == [False]
        values = np.linalg.eigvalsh(matrices[0])
        cutoff = DEFAULT_TOL.cutoff(np.max(np.abs(values)))
        assert (cutoff < values[:-1]).all()
        assert (values[:-1] < cutoff + 1e-13).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_signature_never_reaches_the_certificate(
            self, monkeypatch, seed):
        # The slack family (2, 1, 2, 2) and M carrying D_1's -1: every
        # step's signature holds a -1.
        verdicts, _ = certificates(monkeypatch)
        q = orthogonal(np.random.default_rng(seed), 3)
        T = OperatorTuple((q @ falling_core() @ q.T,))
        assert ladder(T) == oracle_ladder(T) == [2, 1, 2, 2]
        for real in (True, False):
            T = signed_draw(2, 24, 2, (seed, 24), real)
            deltas = defect_sequence(T, 25).deltas
            assert deltas == dimension_oracle(T, len(deltas))
        assert verdicts == []

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_generator_resumed_past_a_certified_wide_step(self, monkeypatch,
                                                          real):
        # _stabilized stops at Delta = h, but the generator, resumed,
        # takes the certified step's eigenvalues for its factor and goes
        # on as it does with every certificate declined.
        if real:
            T = real_contractive(np.random.default_rng(7), 2, 16, 3)
        else:
            T = random_contractive(2, 16, 3, 7)

        def values():
            return list(islice(defect_module._factored_deltas(T, DEFAULT_TOL),
                               7))

        with monkeypatch.context() as patch:
            patch.setattr(defect_module, "_certified_full",
                          lambda a, tol, floor: False)
            declined = values()
        verdicts, matrices = certificates(monkeypatch)
        assert values() == declined
        assert declined[1:] == [3, 9, 16, 16, 16, 16]
        assert verdicts == [True] * 5
        assert [a.shape[0] for a in matrices] == [9, 16, 16, 16, 16]


class TestSignedGram:
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("rows, cols", [(7, 3), (15, 15), (64, 130),
                                            (300, 255)])
    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_bits_of_the_product_with_a_copy_of_m_star(self, rows, cols,
                                                       signs, real):
        # M is conjugated in place for M*, and M J is the one copy: the
        # gemm of (M J) and a copy of M*, bit for bit.  A product of one
        # float64 buffer with its own transpose goes to syrk, whose bits
        # differ, so the positive signature still takes the copy M J.
        rng = np.random.default_rng((rows, cols))
        m = rng.standard_normal((rows, cols))
        if not real:
            m = m + 1j * rng.standard_normal((rows, cols))
        signature = np.ones(cols)
        if signs == "mixed":
            signature[::3] = -1.0
        want = hermitize((m * signature) @ m.conj().T.copy())
        got = defect_module._signed_gram(m.copy(), signature)
        assert got.tobytes() == want.tobytes()
