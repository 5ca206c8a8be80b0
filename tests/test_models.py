"""Tests for the model gallery: shifts, compressions, random ensembles."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defectseq.classify import Purity, commutant_dimension, purity
from defectseq.defect import defect_dimension, defect_sequence, is_contractive
from defectseq.errors import ArgumentError
from defectseq.linalg import subspace_equal
from defectseq.models import (
    coinvariant_hull,
    finite_phi_compression,
    finite_phi_subspace,
    fock_basis,
    fock_creation,
    haar_unitary,
    monomial_basis,
    pure_nonmaximal_example,
    random_coinvariant_compression,
    random_coinvariant_subspace,
    random_contractive,
    right_creation_compression,
    right_creation_subspace,
    scalar_spherical_tuple,
    spherical_shift_sum,
    symmetric_fock_shift,
    symmetric_shift_via_compression,
    symmetrizer,
)
from defectseq.io import read_tuple
from defectseq.tuples import OperatorTuple

ROOT = Path(__file__).resolve().parent.parent


def permutation_operator(d, perm):
    """Matrix permuting the tensor factors of (C^d)^{otimes k}."""
    k = len(perm)
    n = d ** k
    P = np.zeros((n, n))
    for idx in range(n):
        digits = []
        rem = idx
        for _ in range(k):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        moved = [digits[perm[pos]] for pos in range(k)]
        out = 0
        for g in moved:
            out = out * d + g
        P[out, idx] = 1.0
    return P


class TestFockModel:
    def test_basis_enumerates_words_by_length(self):
        words = fock_basis(2, 2)
        assert words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        assert len(fock_basis(3, 3)) == 1 + 3 + 9 + 27

    def test_row_sums_to_complement_of_vacuum(self):
        v = fock_creation(2, 2)
        total = sum(op @ op.conj().T for op in v.ops)
        expected = np.eye(7)
        expected[0, 0] = 0.0
        assert np.array_equal(total, expected)

    def test_defect_ladder_doubles(self):
        rep = defect_sequence(fock_creation(2, 3), 6)
        assert rep.deltas == (1, 3, 7, 15)

    def test_irreducible_with_trivial_commutant(self):
        assert commutant_dimension(fock_creation(2, 2)) == 1


class TestSymmetricShift:
    def test_monomial_count(self):
        assert len(monomial_basis(2, 3)) == math.comb(5, 2)
        assert len(monomial_basis(3, 2)) == math.comb(5, 3)

    def test_shift_commutes(self):
        s = symmetric_fock_shift(2, 3)
        a, b = s.ops
        assert np.allclose(a @ b, b @ a, atol=1e-13)

    def test_first_defect_is_the_constant_monomial(self):
        s = symmetric_fock_shift(2, 3)
        from defectseq.defect import defect_operator
        d1 = defect_operator(s, 1)
        want = np.zeros_like(d1)
        want[0, 0] = 1.0
        assert np.allclose(d1, want, atol=1e-12)

    def test_binomial_ladder(self):
        assert defect_sequence(symmetric_fock_shift(2, 3), 6).deltas \
            == (1, 3, 6, 10)
        assert defect_sequence(symmetric_fock_shift(3, 3), 6).deltas \
            == (1, 4, 10, 20)

    @pytest.mark.parametrize("d,L", [(2, 3), (3, 2)])
    def test_direct_build_matches_compression(self, d, L):
        direct = symmetric_fock_shift(d, L)
        compressed = symmetric_shift_via_compression(d, L)
        dev = max(np.abs(x - y).max()
                  for x, y in zip(direct.ops, compressed.ops))
        assert dev <= 1e-10


def run_bounded(code):
    # ``code`` in a fresh process held to 1 GiB of address space and 60 s,
    # so a size check that enumerates before it counts fails the test
    # instead of hanging it or exhausting the machine's memory.
    prelude = ("import resource\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=60)


class TestSizedBases:
    """The Fock and monomial bases are sized in closed form before they
    are enumerated, so a space past the size cap is refused at once."""

    def test_many_variables_within_the_cap(self, tmp_path):
        path = tmp_path / "dshift.json"
        done = run_bounded(
            "import sys\n"
            "from defectseq.cli import main\n"
            "sys.exit(main(['model', 'dshift', '--d', '20', '--degree', '2',"
            f" '-o', {str(path)!r}]))\n")
        assert done.returncode == 0, done.stderr
        T = read_tuple(path)
        assert (T.d, T.h) == (20, 231)

    @pytest.mark.parametrize("argv", [
        ["dshift", "--d", "12", "--degree", "8"],
        ["fock", "--d", "2", "--levels", "30"],
        # Its dimension has over 4300 digits, past what Python converts
        # to a string.
        ["fock", "--d", "2", "--levels", "100000"],
    ], ids=" ".join)
    def test_past_the_cap_exits_2_at_once(self, argv, tmp_path):
        done = run_bounded(
            "import sys\n"
            "from defectseq.cli import main\n"
            f"sys.exit(main(['model', *{argv!r},"
            f" '-o', {str(tmp_path / 'out.json')!r}]))\n")
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "needs dimension" in lines[0]

    @pytest.mark.parametrize("call", [
        "right_creation_subspace(2, 18, 1)",
        "finite_phi_subspace(2, 18, {(1,): 1.0})",
    ])
    def test_word_subspaces_past_the_cap(self, call):
        done = run_bounded(
            "from defectseq import models\n"
            "from defectseq.errors import SizeCapError\n"
            "try:\n"
            f"    models.{call}\n"
            "except SizeCapError as exc:\n"
            "    print('SizeCapError', exc)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(
            "SizeCapError truncated Fock space needs dimension"), done.stdout

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5])
    def test_monomial_basis_matches_the_filtered_product(self, d, L):
        # Every exponent tuple with entries up to k, filtered to degree k.
        oracle = []
        for k in range(L + 1):
            oracle.extend(sorted(
                alpha for alpha in itertools.product(range(k + 1), repeat=d)
                if sum(alpha) == k))
        assert monomial_basis(d, L) == oracle


class TestSymmetrizer:
    def test_projection_with_binomial_trace(self):
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            S = symmetrizer(d, k)
            assert np.allclose(S @ S, S, atol=1e-13)
            assert np.allclose(S, S.conj().T, atol=1e-13)
            assert np.trace(S).real == pytest.approx(
                math.comb(k + d - 1, d - 1), abs=1e-10)

    def test_absorbs_factor_permutations(self):
        S = symmetrizer(2, 3)
        for perm in [(1, 0, 2), (2, 0, 1), (0, 2, 1)]:
            P = permutation_operator(2, perm)
            assert np.allclose(S @ P, S, atol=1e-12)
            assert np.allclose(P @ S, S, atol=1e-12)

    def test_fixes_elementary_tensor_powers(self):
        S = symmetrizer(2, 3)
        x = np.array([0.6, 0.8])
        v = np.kron(np.kron(x, x), x)
        assert np.allclose(S @ v, v, atol=1e-12)


class TestWordCompressions:
    def test_right_shift_subspace_dimension(self):
        # Removing T_w-shifted copies of each level below L - j leaves
        # the rest of the word basis.
        assert right_creation_subspace(2, 2, 1).dim == 4
        assert right_creation_subspace(2, 3, 2).dim == 8

    def test_right_shift_defect_start(self):
        for d in (2, 3):
            T = right_creation_compression(d, 3, d)
            rep = defect_sequence(T, 2)
            assert rep.deltas == (1, d)

    def test_single_letter_phi_matches_right_shift(self):
        sub_phi = finite_phi_subspace(2, 3, {(2,): 1.0})
        sub_rj = right_creation_subspace(2, 3, 2)
        assert subspace_equal(sub_phi, sub_rj)
        t_phi = finite_phi_compression(2, 3, {(2,): 1.0})
        t_rj = right_creation_compression(2, 3, 2)
        assert defect_sequence(t_phi, 3).deltas \
            == defect_sequence(t_rj, 3).deltas

    def test_phi_beyond_truncation_changes_nothing(self):
        full = fock_creation(2, 2)
        T = finite_phi_compression(2, 2, {(1, 2, 1): 1.0})
        assert max(np.abs(x - y).max()
                   for x, y in zip(full.ops, T.ops)) == 0.0

    def test_phi_validation(self):
        with pytest.raises(ArgumentError):
            finite_phi_compression(2, 3, {})
        with pytest.raises(ArgumentError):
            finite_phi_compression(2, 3, {(1,): 0.5})
        with pytest.raises(ArgumentError):
            finite_phi_compression(2, 3, {(): 1.0})
        with pytest.raises(ArgumentError):
            finite_phi_compression(2, 3, {(1,): 0.6, (3,): 0.8})

    def test_nan_norm_is_not_a_unit_vector(self):
        with pytest.raises(ArgumentError,
                           match="phi must be a unit vector, got norm nan"):
            finite_phi_compression(2, 3, {(1,): complex("nan")})

    def test_balanced_two_letter_phi_keeps_doubling(self):
        w = 1.0 / math.sqrt(2.0)
        T = finite_phi_compression(2, 3, {(1,): w, (2,): w})
        assert defect_sequence(T, 4).deltas == (1, 2, 4, 8)


class TestPureNonmaximal:
    def test_start_of_the_ladder(self):
        T = pure_nonmaximal_example(2, 4, 0.5)
        rep = defect_sequence(T, 2)
        assert rep.deltas == (2, 3)

    def test_is_pure(self):
        T = pure_nonmaximal_example(2, 4, 0.5)
        assert purity(T).status is Purity.PURE

    def test_validation(self):
        with pytest.raises(ArgumentError):
            pure_nonmaximal_example(1, 3, 0.5)
        with pytest.raises(ArgumentError):
            pure_nonmaximal_example(2, 3, 1.0)


class TestSphericalModels:
    def test_scalar_tuple_values(self):
        s = scalar_spherical_tuple((0.6, 0.8), 2)
        assert s.d == 2 and s.h == 2
        assert np.array_equal(s.ops[0], 0.6 * np.eye(2))
        assert np.array_equal(s.ops[1], 0.8 * np.eye(2))

    def test_scalar_tuple_validation(self):
        with pytest.raises(ArgumentError):
            scalar_spherical_tuple((0.5, 0.5), 1)
        with pytest.raises(ArgumentError):
            scalar_spherical_tuple((), 1)

    def test_nan_weight_is_refused(self):
        with pytest.raises(ArgumentError, match=r"sum \|lambda\|\^2 = 1, got nan"):
            scalar_spherical_tuple((float("nan"), 0.0), 1)

    def test_sum_requires_matching_lengths(self):
        with pytest.raises(ArgumentError):
            spherical_shift_sum(2, 2, (0.6,), 1)

    def test_sum_takes_the_weights_from_a_generator(self):
        A = spherical_shift_sum(2, 3, (x for x in (0.6, 0.8)), 1)
        B = spherical_shift_sum(2, 3, (0.6, 0.8), 1)
        assert A._stack.tobytes() == B._stack.tobytes()

    def test_sum_defects_match_the_shift_summand(self):
        w = 1.0 / math.sqrt(2.0)
        A = spherical_shift_sum(2, 3, (w, w), 2)
        S = symmetric_fock_shift(2, 3)
        for n in (1, 2, 3):
            assert defect_dimension(A, n) == defect_dimension(S, n)


class TestRandomEnsembles:
    def test_haar_unitary_properties(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(6, rng)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
        again = haar_unitary(6, np.random.default_rng(5))
        assert np.array_equal(u, again)

    def test_random_contractive_hits_requested_rank(self):
        for seed in range(10):
            rank = seed % 4
            T = random_contractive(2, 6, rank, seed)
            assert is_contractive(T)
            assert defect_dimension(T, 1) == rank

    def test_random_contractive_accepts_generator_or_seed(self):
        a = random_contractive(2, 5, 2, 11)
        b = random_contractive(2, 5, 2, np.random.default_rng(11))
        assert all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops))

    def test_random_contractive_accepts_a_seed_tuple(self):
        a = random_contractive(2, 5, 2, (0, 3, 1))
        b = random_contractive(2, 5, 2, np.random.default_rng((0, 3, 1)))
        assert all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops))

    @pytest.mark.parametrize("build, args", [
        (random_contractive, (2, 3, 1)),
        (random_coinvariant_compression, (2, 2, 1)),
        (random_coinvariant_subspace, (2, 2, 1)),
    ])
    @pytest.mark.parametrize("seed", [-1, 1.5, "7", (0, -1)])
    def test_refused_seed_is_an_argument_error(self, build, args, seed):
        with pytest.raises(ArgumentError, match="seed must be"):
            build(*args, seed)

    def test_coinvariant_hull_of_the_vacuum_is_one_dimensional(self):
        v = fock_creation(2, 2)
        vac = np.eye(7)[:, :1]
        hull = coinvariant_hull(v, vac)
        assert hull.dim == 1

    def test_coinvariant_hull_is_adjoint_stable(self):
        rng = np.random.default_rng(8)
        v = fock_creation(2, 3)
        seedvec = rng.standard_normal((15, 2))
        hull = coinvariant_hull(v, seedvec)
        proj = hull.projector()
        for op in v.ops:
            image = op.conj().T @ hull.basis
            assert np.linalg.norm(image - proj @ image) < 1e-10

    def test_random_coinvariant_compression_is_contractive_and_pure(self):
        for seed in range(6):
            T = random_coinvariant_compression(2, 2, 2, seed)
            assert is_contractive(T)
            assert purity(T).status is Purity.PURE

    def test_random_coinvariant_subspace_determinism(self):
        _, a = random_coinvariant_subspace(2, 2, 2, 3)
        _, b = random_coinvariant_subspace(2, 2, 2, 3)
        assert np.array_equal(a.basis, b.basis)


class TestIntegerArguments:
    """Sizes, counts and letters must be integers: numpy integers count,
    a bool or a float does not, and values below the least allowed are
    refused with the messages the builders have always given."""

    @pytest.mark.parametrize("build, args, message", [
        (fock_creation, (2.5, 3), "alphabet size d must be an integer"),
        (fock_creation, (True, 3), "alphabet size d must be an integer"),
        (fock_creation, (2, 3.0), "truncation level must be an integer"),
        (fock_creation, (0, 3), "alphabet size d must be at least 1"),
        (fock_creation, (2, 0), "truncation level must be at least 1"),
        (fock_basis, (2, False), "truncation level must be an integer"),
        (symmetric_fock_shift, (2.0, 3), "alphabet size d must be an integer"),
        (symmetric_shift_via_compression, (2, 1.5),
         "truncation level must be an integer"),
        (symmetrizer, (2, 2.0), "tensor factor count must be an integer"),
        (symmetrizer, (2, 0), "tensor factor count must be at least 1"),
        (monomial_basis, (2, 1.0), "degree bound must be an integer"),
        (monomial_basis, (2, -1), "degree bound must be nonnegative"),
        (right_creation_compression, (2, 3, 1.0), "letter j must be an integer"),
        (right_creation_subspace, (2, 3.0, 1), "truncation level must be an integer"),
        (finite_phi_subspace, (2.0, 3, {(1,): 1.0}),
         "alphabet size d must be an integer"),
        (pure_nonmaximal_example, (3.0, 2, 0.5),
         "alphabet size d must be an integer"),
        (scalar_spherical_tuple, ((1.0,), 1.0),
         "multiplicity k must be an integer"),
        (scalar_spherical_tuple, ((1.0,), 0), "multiplicity k must be at least 1"),
        (haar_unitary, (2.0, np.random.default_rng(0)),
         "unitary dimension must be an integer"),
        (random_contractive, (2, 4, 1.5, 0), "defect rank must be an integer"),
        (random_contractive, (2, 4.0, 1, 0), "space dimension must be an integer"),
        (random_contractive, (2, 0, 0, 0), "space dimension must be at least 1"),
        (random_coinvariant_subspace, (2, 3, 1.5, 0),
         "generator count must be an integer"),
        (random_coinvariant_subspace, (2, 3, 0, 0),
         "generator count must be at least 1"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_refused_with_argument_error(self, build, args, message):
        with pytest.raises(ArgumentError, match=message):
            build(*args)

    def test_numpy_integers_count(self):
        T = fock_creation(np.int64(2), np.int32(2))
        assert T.label == "fock-creation(d=2, levels=2)"
        assert np.array_equal(T.ops[1], fock_creation(2, 2).ops[1])
