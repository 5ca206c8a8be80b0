"""The factored defect ladder against the dense oracle.

A tuple without the weighted-shift pattern gets its defect ladder from
D_{n+1} = D_1 + cp(D_n), carried as a signed factor.  Every value must
equal ``numerical_rank(defect_operator(T, n))``, which ranks
I - cp^n(I) built by n dense cp steps, up to the point where the ladder
stops.
"""

import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

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
    _count_above,
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

ROOT = Path(__file__).resolve().parent.parent
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


def test_one_shot_defect_never_imports_numpy_random(tmp_path):
    # The sketch of a dense D_1 (Delta_1 + 10 < h) takes a fixed test
    # matrix, so a fresh process that runs ``defect`` on a dense tuple
    # never loads numpy.random.
    T = random_contractive(2, 40, 1, 3)
    assert T._shift_pattern is None
    path = tmp_path / "dense.json"
    write_tuple(T, path)
    code = ("import sys\n"
            "from defectseq.cli import main\n"
            "before = 'numpy.random' in sys.modules\n"
            f"code = main(['defect', {str(path)!r}, '--n-max', '50'])\n"
            "print(before, code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False 0 False"


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

    Such a step carries M itself as the next factor: with signature +1
    when the Gram certificate passes it, with a -1 when the eigenvalues
    of R J R* from M = QR, taken from R alone, all clear the floor.  A
    declined certificate, or a value at the floor, sends the step to Q
    and the eigenvectors, and so does every later step of that ladder.
    Each ladder must equal ``defect_dimension``, a fresh dense D_n per
    value, and stop where that sequence first repeats or reaches h.
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
        # than M's width from step 3 on: step 2 keeps M on the Gram
        # certificate, the certificate declines step 3, which compresses
        # at once, and later steps stack [G_1, T_1 G_n, ..., T_d G_n].
        T = conjugate(symmetric_fock_shift(2, k), k, real)
        assert is_commuting(T)
        modes = qr_modes(monkeypatch)
        verdicts, _ = certificates(monkeypatch)
        rep = defect_sequence(T, 100)
        assert rep.deltas == tuple(math.comb(n + 1, 2)
                                   for n in range(1, k + 2))
        assert all(rep.bound_ok_comm)
        # Two QRs of D_1's sketch, then step 3 takes Q and R at once.
        assert modes[:3] == ["reduced", "reduced", "reduced"]
        assert "r" not in modes
        assert verdicts[:2] == [True, False]
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

    def recorded(a, tol, floor, *bound):
        matrices.append(a.copy())
        verdicts.append(original(a, tol, floor, *bound))
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

    A word step whose signature is all +1 takes Cholesky of A - s I for
    the Gram matrix A = M* M of its word levels, or of the square S of
    M's first h columns at the last word step
    (``linalg._certified_full``), and, when it succeeds, the width of A
    as its count, in place of QR and eigvalsh; a later step does the
    same for its R J R* or its dense M J M*.  Any other step, and any
    step whose factorization fails, takes the eigenvalues.  Every ladder
    must equal ``defect_dimension``, a fresh dense D_n per value.
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
        # both certificates, whose shifts lie above them, must decline:
        # that of the last word step, on G_1* G_1 (D_1's eigenvalues),
        # and that of the dense D_2 it falls back to.
        T = between_cutoff_and_shift(seed, 8, real)
        verdicts, matrices = certificates(monkeypatch)
        assert ladder(T) == oracle_ladder(T) == [1, 8]
        assert verdicts == [False, False]
        assert [a.shape for a in matrices] == [(8, 8), (8, 8)]
        values = np.linalg.eigvalsh(matrices[1])
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
                          lambda *args: False)
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


def mix(T, u):
    # T'_i = sum_j u_ij T_j: for a unitary u, sum_i T'_i X T'_i* equals
    # sum_j T_j X T_j*, so T' has T's cp map and every D_n of T.
    return OperatorTuple(tuple(sum(u[i, j] * T.ops[j] for j in range(T.d))
                               for i in range(T.d)))


def mixing_matrix(d, seed, real):
    rng = np.random.default_rng(seed)
    return orthogonal(rng, d) if real else haar_unitary(d, rng)


class TestMixing:
    """Mixing a tuple by a unitary d x d matrix keeps every D_n.

    So the ladder must not move, although a mixed weighted shift has no
    shift pattern and goes down the factored route.
    """

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("build", [lambda: fock_creation(2, 5),
                                       lambda: symmetric_fock_shift(2, 6)],
                             ids=["fock-2-5", "dshift-2-6"])
    def test_mixed_weighted_shifts(self, build, seed, real):
        T = build()
        mixed = mix(T, mixing_matrix(2, seed, real))
        assert T._shift_pattern is not None
        assert mixed._shift_pattern is None
        assert (defect_sequence(mixed, 100).deltas
                == defect_sequence(T, 100).deltas)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_dense_draws(self, seed, real):
        rng = np.random.default_rng((90, seed))
        d, h = int(rng.integers(2, 4)), int(rng.choice([6, 17, 40]))
        T = draw_tuple(seed, d, h, KINDS[seed % len(KINDS)])
        mixed = mix(T, mixing_matrix(T.d, (91, seed), real))
        assert ladder(mixed) == ladder(T)


class TestWordLevels:
    """The factored ladder's word steps: M_{n+1} = [M_n, T_1 F, ..., T_d F].

    Each step multiplies only the newest word level F; a narrow step with
    signature +1 is certified on the Gram matrix M* M, the last word
    step, whose width reaches h, on the square of M's first h columns.
    A declined certificate compresses at once, through the one step of
    the later ladder (QR and eigh, or the dense M J M*); a signature
    with a -1 takes eigvalsh of R J R* from R alone, and compresses
    only at the floor.  Every ladder must equal ``defect_dimension``, a
    fresh dense D_n per value.
    """

    def test_random_300_multiplies_only_the_newest_level(self, monkeypatch):
        # The benchmark's lead ladder: one cp map, the QRs and the eigh
        # of D_1's sketch, D_1's eigvalsh, and after that only the
        # products T_i F of the levels F of 1, 2, 4, ..., 128 columns
        # (apart from the cp map's own stack of products) and one
        # Cholesky a step; the dense D of the certified last step, which
        # only a resumed generator builds, is never formed.
        T = random_contractive(2, 300, 1, (0, 0))
        calls = {"apply_cp_map": 0, "_signed_gram": 0}

        def counting(name):
            original = getattr(defect_module, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(defect_module, name, counting(name))
        orders = {name: [] for name in ("qr", "eigvalsh", "eigh")}

        def recorder(name):
            original = getattr(np.linalg, name)

            def recorded(a, *args, **kwargs):
                orders[name].append(a.shape[-1])
                return original(a, *args, **kwargs)

            return recorded

        for name in orders:
            monkeypatch.setattr(np.linalg, name, recorder(name))
        levels = []
        matmul = np.matmul

        def recorded_matmul(a, b, *args, **kwargs):
            if a is T._stack and b.ndim == 2:
                levels.append(b.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded_matmul)
        verdicts, matrices = certificates(monkeypatch)
        assert list(_ladder(T, DEFAULT_TOL)) == [
            1, 3, 7, 15, 31, 63, 127, 255, 300]
        assert calls == {"apply_cp_map": 1, "_signed_gram": 0}
        assert orders == {"qr": [11, 11], "eigvalsh": [300], "eigh": [11]}
        assert levels == [1, 2, 4, 8, 16, 32, 64, 128]
        assert verdicts == [True] * 8
        assert [a.shape[0] for a in matrices] == [
            3, 7, 15, 31, 63, 127, 255, 300]

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_last_word_step_crosses_h_mid_level(self, monkeypatch, real):
        # Levels of 2, 6, 18, 54 and 162 columns: the last word step
        # certifies the 80 columns of M_4 and the first 20 of its new
        # level, and a resumed generator builds D_5 from all 242 and
        # goes on with dense steps.
        if real:
            T = real_contractive(np.random.default_rng(100), 3, 100, 2)
        else:
            T = random_contractive(3, 100, 2, 100)
        verdicts, matrices = certificates(monkeypatch)
        values = list(islice(defect_module._factored_deltas(T, DEFAULT_TOL),
                             8))[1:]
        assert values == [2, 8, 26, 80, 100, 100, 100]
        assert tuple(values) == dimension_oracle(T, 7)
        if real:
            # The square's least eigenvalue, 4e-10 of its trace, lies
            # under the shift: the step falls back to the dense D_5,
            # which is certified.
            assert verdicts == [True, True, True, False, True, True, True]
        else:
            assert verdicts == [True] * 6
        assert all(a.shape[0] == 100 for a in matrices[3:])

    @pytest.mark.parametrize("seed", range(6))
    def test_forced_declines_mid_way(self, monkeypatch, seed):
        # A certificate declined at one step sends that step to the
        # route it stands in for, QR and eigvalsh on the buffer, or the
        # dense M J M* at the last word step, and the ladder goes on.
        rng = np.random.default_rng((101, seed))
        d = 1 + seed % 3
        h = int(rng.choice([16, 33, 48]))
        T = (real_contractive(rng, d, h, 1 + seed % 2) if seed % 2
             else random_contractive(d, h, 1 + seed % 2, (101, seed)))
        want = ladder(T)
        original = defect_module._certified_full
        for declined in range(len(want) - 1):
            seen = []

            def declining(a, *args, declined=declined):
                seen.append(a.shape[0])
                return len(seen) - 1 != declined and original(a, *args)

            monkeypatch.setattr(defect_module, "_certified_full", declining)
            assert ladder(T) == want
        assert tuple(want) == dimension_oracle(T, len(want))

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_declined_positive_step_compresses_at_once(self, monkeypatch,
                                                       real):
        # A declined certificate on a narrow step with signature +1
        # takes one reduced QR of M and the eigh of R J R*, with no
        # mode="r" QR to test R alone first; the steps after it do the
        # same on [G_1, T_1 G_n, T_2 G_n].
        if real:
            T = real_contractive(np.random.default_rng(103), 2, 24, 1)
        else:
            T = random_contractive(2, 24, 1, 103)
        monkeypatch.setattr(defect_module, "_certified_full",
                            lambda *args: False)
        deltas = defect_module._factored_deltas(T, DEFAULT_TOL)
        assert list(islice(deltas, 2))[1:] == [1]
        modes = qr_modes(monkeypatch)
        sizes = eigh_sizes(monkeypatch)
        # D_1's sketch, two QRs and one eigh of order 11, then step 2.
        assert next(deltas) == 3
        assert modes == ["reduced"] * 3
        assert sizes == [1 + _SKETCH_OVERSAMPLING, 3]
        assert list(islice(deltas, 3)) == [7, 15, 24]
        assert "r" not in modes
        assert dimension_oracle(T, 5) == (1, 3, 7, 15, 24)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("d, h, rank", [(1, 16, 1), (2, 24, 2),
                                            (3, 40, 1)])
    def test_mixed_signature_builds_no_gram(self, monkeypatch, d, h, rank,
                                            real):
        # A tuple accepted within the slack: J_1 holds a -1, every level
        # repeats it, and no step builds a Gram matrix or certifies.
        T = signed_draw(d, h, rank, (102, d, h), real)
        built = []
        extended = defect_module._extended_gram
        monkeypatch.setattr(defect_module, "_extended_gram",
                            lambda *args: built.append(1) or extended(*args))
        verdicts, _ = certificates(monkeypatch)
        deltas = defect_sequence(T, h + 1).deltas
        assert deltas == dimension_oracle(T, len(deltas))
        assert built == [] and verdicts == []

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("h", [64, 127])
    def test_single_entry_ladders(self, h, real):
        # d = 1 adds one column a step: h steps, each certified on a Gram
        # matrix one order larger.  At h = 127 the whole ladder is held
        # to the stepped oracle, which has defect_operator's bits, and
        # three values to defect_dimension.
        for T in (conjugate(fock_creation(1, h - 1), h, real),
                  real_contractive(np.random.default_rng(h), 1, h, 1)
                  if real else random_contractive(1, h, 1, h)):
            deltas = defect_sequence(T, h + 1).deltas
            assert deltas == tuple(range(1, h + 1))
            if h == 64:
                assert deltas == dimension_oracle(T, h)
            else:
                assert list(deltas) == stepped_oracle_ladder(T)
                for n in (h // 2, h - 1, h):
                    assert deltas[n - 1] == defect_dimension(T, n)


@st.composite
def word_steps_near_the_cutoff(draw):
    """(M, w) whose Gram certificate has a value near the cutoff.

    M is h x W: on a narrow step (w = W < h) its w singular values, on a
    last word step (w = h <= W) those of its first h columns, are the
    largest t and others down to 1e-9 t, with the square of one of them
    near the cutoff rtol t**2 of today's route; a last word step's other
    columns, along its first singular vector and of norm up to 10 t in
    all, can lift that cutoff.
    """
    h = draw(st.integers(2, 24))
    square = draw(st.booleans())
    w = h if square else draw(st.integers(1, h - 1))
    top = draw(st.floats(1e-3, 1e3))
    exps = draw(st.lists(st.floats(-4.5, 0.0), min_size=w - 1,
                         max_size=w - 1))
    sigma = np.array([top] + [top * 10.0 ** e for e in exps])
    sigma[-1] = np.sqrt(DEFAULT_TOL.cutoff(top * top)
                        * draw(st.floats(0.999, 30.0)))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def orthonormal(rows, cols):
        g = rng.standard_normal((rows, cols))
        if not real:
            g = g + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(g)[0]

    u = orthonormal(h, w)
    m = (u * sigma) @ orthonormal(w, w).conj().T
    if square:
        # Columns along the first one's direction lift the largest
        # eigenvalue of D = M M*, and so its cutoff, and leave its least.
        extra = draw(st.integers(0, h))
        scale = top * 10.0 ** draw(st.floats(-3.0, 1.0))
        coeffs = rng.standard_normal(extra)
        rest = u[:, :1] * (scale / max(np.linalg.norm(coeffs), 1.0) * coeffs)
        m = np.hstack([m, rest])
    return np.ascontiguousarray(m), w


class TestWordCertificate:
    """``_certified_words`` implies the count of the route it stands in for.

    A narrow step stands in for eigvalsh of R J R* from M = QR, a last
    word step for eigvalsh of the dense M J M*; a certificate on the
    Gram matrix of M's first w columns must mean that route counts w and
    finds every value above the floor.
    """

    @settings(max_examples=300, deadline=None)
    @given(word_steps_near_the_cutoff())
    def test_certificate_implies_the_full_count(self, case):
        m, w = case
        h = m.shape[0]
        floor = h * np.finfo(np.float64).eps
        gram = defect_module._extended_gram(np.empty((0, 0), m.dtype), m, 0,
                                            w)
        certified = defect_module._certified_words(gram, m, DEFAULT_TOL,
                                                   floor)
        signature = np.ones(m.shape[1])
        if w < h:
            values = np.linalg.eigvalsh(defect_module._signed_gram(
                np.linalg.qr(m, mode="r"), signature))
        else:
            values = np.linalg.eigvalsh(
                defect_module._signed_gram(m.copy(), signature))
        if certified:
            assert _count_above(np.abs(values), DEFAULT_TOL) == w
            assert (np.abs(values) > floor).all()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_grown_gram_has_the_bits_of_its_rows(self, real):
        # The Gram matrix grown level by level holds, in each row block,
        # the product of that block's columns with all before them.
        rng = np.random.default_rng(7)
        m = rng.standard_normal((12, 9))
        if not real:
            m = m + 1j * rng.standard_normal((12, 9))
        gram = np.empty((0, 0), m.dtype)
        for width, size in ((0, 1), (1, 3), (3, 9)):
            gram = defect_module._extended_gram(gram, m, width, size)
        assert np.allclose(gram, m.conj().T @ m, rtol=0, atol=1e-13)
        want = np.conjugate(m[:, 3:9]).T @ m
        assert gram[3:].tobytes() == want.tobytes()
        assert np.array_equal(gram[:3, 3:], gram[3:, :3].conj().T)
