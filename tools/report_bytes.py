"""Write the outputs whose bytes a change must keep, for one source tree.

Usage:

    python3 tools/report_bytes.py [--tree DIR] [--seed N] [--reverse] OUT_DIR

Imports ``defectseq`` from DIR/src and the benchmark's tuple builders
from DIR/perfbench/workloads.py (DIR defaults to the tree holding this
script), then writes into OUT_DIR:

* ``inputs/<workload>-<label>.json``: the ``ladder`` and ``classify``
  workloads' tuples at workload seed N (default 0), as tuple files;
* ``defect-<workload>-<label>.json``: ``defect --n-max 200 --report`` on
  every one of those tuples;
* ``classify-<label>.json``: ``classify --report`` on the ``classify``
  workload's tuples;
* ``inputs/dense-<label>.json``, ``classify-dense-<label>.json`` and
  ``defect-dense-<label>.json``: ``classify --report`` and ``defect
  --n-max 200 --report`` on tuples without zero entries, h <= 24, whose
  commutant is counted in the eigenbasis of a generic Hermitian element
  and whose cp map at the identity is sum_i T_i T_i*: unitary and
  orthogonal conjugates of direct sums with equal and with distinct
  summands, of three weighted shifts and of a spherical sum, and random
  draws, real and complex (see ``dense_builders``);
* ``inputs/cap-dense-<label>.json``, ``classify-cap-dense-<label>.json``
  and ``defect-cap-dense-<label>.json``: both calls on tuples without
  zero entries whose h**2 sits at or just under the default size cap:
  unitary and orthogonal conjugates of ``fock_creation(2, 4)`` (h = 31)
  and ``fock_creation(2, 5)`` (h = 63), whose generic element has
  eigenvalue clusters of up to 11 and more, and real and complex dense
  draws with h = 64 (see ``cap_dense_builders``);
* ``inputs/large-dense-<label>.json`` and
  ``defect-large-dense-<label>.json``: ``defect --n-max 200 --report`` on
  dense tuples with h = 8..300 whose first defect has a small rank: a
  unitary conjugate of ``fock_creation(2, 5)``, real and complex draws
  with Delta_1 in {1, 3}, a real draw with d = 2, h = 300 and
  Delta_1 = 1, two long single-entry ladders (a complex draw with
  h = 64 and an orthogonal conjugate of ``fock_creation(1, 127)``), a
  tuple accepted only within the contractivity slack, whose ladder
  falls, conjugated 1-tuples whose D_2 has eigenvalues between the
  rank cutoff and the shift of the ladder's Cholesky certificate, and
  two long ladders of draws accepted only within the contractivity
  slack, whose D_1 has an eigenvalue of about -4e-9 (see
  ``large_dense_builders``);
* ``inputs/words-<label>.json``, ``defect-words-<label>.json`` and
  ``classify-words-<label>.json``: ``defect --n-max 200 --report`` on
  tuples whose ladder runs on word levels, and ``classify --report`` on
  the first: ``fock_creation(2, 5)`` mixed by a Haar unitary 2 x 2
  matrix, which keeps every D_n and removes the shift pattern, and a
  complex draw with d = 3, h = 100 and Delta_1 = 2, whose last word step
  reaches h in the middle of a level (see ``word_builders``);
* ``inputs/near-cutoff-<label>.json``, ``classify-near-cutoff-<label>.json``
  and ``defect-near-cutoff-<label>.json``: both calls, with ``--rtol R
  --atol 0``, on the 1-tuples diag(0, g, s) with a gap g one part in
  10**6 above or below the cutoff R * s, real and complex (see
  ``near_cutoff_builders``);
* ``inputs/purity-<label>.json`` and ``classify-purity-<label>-<budget>.json``:
  ``classify --report`` at the default iteration budget and at
  ``--max-iter`` 17 and 200, on 0.999 times real and complex row
  coisometries, d = 1..3, h in {1, 3, 8, 24}, whose purity loop runs to
  its budget, and on a NotPure spherical sum with k = 2 and a unitary
  conjugate of it (see ``purity_builders``);
* ``inputs/slow-shift-<label>.json``,
  ``classify-slow-shift-<label>-<budget>.json`` and
  ``defect-slow-shift-<label>.json``: ``classify --report`` at the same
  three budgets and ``defect --n-max 200 --report`` on slow weighted
  shifts, h in {3, 8, 24}, whose purity loop runs past its first 16
  steps into its blocks (see ``slow_shift_builders``);
* ``verify-<S>.json``: ``verify --suite all --samples 40 --seed S
  --report`` for S = 0..3;
* ``verify-rtol-<R>.json``: ``verify --suite all --samples 10 --seed 0
  --rtol R --report`` for R = 0.1 and 0.5, loose enough that some suites
  fail, so the reports pin first-failure records with and without a
  seed triple;
* ``model-<label>.json``: the tuple file of ``model -o`` for every
  model kind, with its defaulted flags left out and given, and for calls
  that a missing required flag, a malformed ``--phi`` or ``--lambdas``,
  a value the builder refuses or an unknown kind stops, which write none
  (see ``model_calls``);
* ``<name>.out`` and ``<name>.err`` next to each report and model tuple
  file: the call's stdout and exit code, and its stderr (error messages,
  usage errors and any Python warning);
* ``demo-<script>.out``: each script in DIR/demos run in a fresh
  process, its stdout and exit code.

The CLI runs with OUT_DIR as its working directory and relative paths,
so two trees write the same bytes wherever their OUT_DIRs lie.  Compare
two runs file by file:

    python3 tools/report_bytes.py --tree ../base out-base
    python3 tools/report_bytes.py out-head
    diff -r out-base out-head

No file differs when the change keeps every report, tuple file and
demo output.  Every tuple file is written before the first CLI call;
``--reverse`` then makes the calls in reverse order, so a second run of
one tree with it shows any output that depends on state an earlier
in-process call left behind:

    python3 tools/report_bytes.py --reverse out-head-reversed
    diff -r out-head out-head-reversed

The BLAS thread count is pinned to 1 before numpy loads, as in the
benchmark.
"""

import argparse
import contextlib
import io as textio
import os
import subprocess
import sys
import types
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

VERIFY_SEEDS = range(4)
VERIFY_LOOSE_RTOLS = ("0.1", "0.5")
N_MAX = "200"
PURITY_BUDGETS = ("default", "17", "200")


def _call(main, name, argv):
    # One in-process CLI call: the report (the tuple file of ``model``)
    # goes to <name>.json, stdout and the exit code, also that of a usage
    # error, to <name>.out, stderr to <name>.err.
    flag = "-o" if argv[0] == "model" else "--report"
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + [flag, f"{name}.json"])
        except SystemExit as exc:
            code = exc.code
    Path(f"{name}.out").write_text(f"{out.getvalue()}exit {code}\n",
                                   encoding="utf-8")
    Path(f"{name}.err").write_text(err.getvalue(), encoding="utf-8")


def _budget_calls(name, path):
    # ``classify`` on ``path`` at each of PURITY_BUDGETS, as
    # (<name>-<budget>, argv) pairs.
    calls = []
    for budget in PURITY_BUDGETS:
        argv = ["classify", path]
        if budget != "default":
            argv += ["--max-iter", budget]
        calls.append((f"{name}-{budget}", argv))
    return calls


def dense_builders(models, OperatorTuple, direct_sum):
    """Label -> builder() of the dense classify fixtures, h <= 24.

    Built only from functions every tree of the package has, with fixed
    seeds, so two trees read the same tuple files.
    """
    import numpy as np

    def conjugate(T, seed, real):
        rng = np.random.default_rng(seed)
        if real:
            u, _ = np.linalg.qr(rng.standard_normal((T.h, T.h)))
        else:
            u = models.haar_unitary(T.h, rng)
        return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))

    def real_draw(d, h, seed):
        # 0.9 times a real row operator of norm 1: a strict contraction.
        row = np.random.default_rng(seed).standard_normal((h, d * h))
        row *= 0.9 / np.linalg.norm(row, 2)
        return OperatorTuple(tuple(row[:, i * h:(i + 1) * h]
                                   for i in range(d)))

    def summands(real):
        if real:
            return real_draw(2, 4, 1), real_draw(2, 4, 2)
        return (models.random_contractive(2, 4, 1, 1),
                models.random_contractive(2, 4, 1, 2))

    def sums(real):
        a, b = summands(real)
        return {"a+b": direct_sum(a, b), "a+a": direct_sum(a, a),
                "a+a+b": direct_sum(direct_sum(a, a), b)}

    flagships = {
        "fock-2-3": lambda: models.fock_creation(2, 3),
        "dshift-2-5": lambda: models.symmetric_fock_shift(2, 5),
        "fock-1-6": lambda: models.fock_creation(1, 6),
        "spherical-sum": lambda: models.spherical_shift_sum(
            2, 5, (2 ** -0.5, 2 ** -0.5), 3),
    }
    builders = {}
    for real, kind in ((False, "complex"), (True, "real")):
        for i, name in enumerate(("a+b", "a+a", "a+a+b")):
            builders[f"{name}-{kind}"] = (
                lambda name=name, real=real, i=i:
                conjugate(sums(real)[name], 10 + i, real))
        for i, (name, build) in enumerate(flagships.items()):
            builders[f"{name}-{kind}"] = (
                lambda build=build, real=real, i=i:
                conjugate(build(), 20 + i, real))
        for h in (6, 12, 18, 24):
            builders[f"random-3-{h}-{kind}"] = (
                (lambda h=h: real_draw(3, h, 30 + h)) if real else
                (lambda h=h: models.random_contractive(3, h, 2, (30, h))))
    return builders


def cap_dense_builders(models, OperatorTuple):
    """Label -> builder() of the dense fixtures at the size cap, h <= 64.

    Orthogonal (real) and unitary (complex) conjugates of
    ``fock_creation(2, 4)`` and ``fock_creation(2, 5)``, and 0.9 times a
    real row operator of norm 1 and ``random_contractive(2, 64, 1, .)``.
    """
    import numpy as np

    def conjugate(T, seed, real):
        rng = np.random.default_rng(seed)
        if real:
            u, _ = np.linalg.qr(rng.standard_normal((T.h, T.h)))
        else:
            u = models.haar_unitary(T.h, rng)
        return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))

    def real_draw(d, h, seed):
        row = np.random.default_rng(seed).standard_normal((h, d * h))
        row *= 0.9 / np.linalg.norm(row, 2)
        return OperatorTuple(tuple(row[:, i * h:(i + 1) * h]
                                   for i in range(d)))

    builders = {}
    for real, kind in ((False, "complex"), (True, "real")):
        for levels in (4, 5):
            builders[f"fock-2-{levels}-{kind}"] = (
                lambda levels=levels, real=real: conjugate(
                    models.fock_creation(2, levels), 90 + levels, real))
    builders["random-2-64-complex"] = (
        lambda: models.random_contractive(2, 64, 1, 91))
    builders["random-2-64-real"] = lambda: real_draw(2, 64, 92)
    return builders


def large_dense_builders(models, OperatorTuple, direct_sum):
    """Label -> builder() of the large dense defect fixtures, h = 8..300.

    Tuples without zero entries whose D_1 has rank 1..3, far below h:
    a unitary conjugate of ``fock_creation(2, 5)`` (h = 63, ladder
    1, 3, ..., 63), real and complex draws with Delta_1 in {1, 3}, a
    real draw with d = 2, h = 300 and Delta_1 = 1 (the real twin of the
    ``ladder`` workload's ``random_contractive(2, 300, 1)``, whose
    steps are all certified by a Cholesky factorization, up to R J R*
    of order 255 and the dense last step), a complex draw with d = 1,
    h = 64 and Delta_1 = 1 and an orthogonal conjugate of
    ``fock_creation(1, 127)`` (ladders 1, 2, ..., h of 64 and 128 steps,
    whose factor grows by one column a step), a conjugated 1-tuple
    accepted only within the contractivity slack, whose D_1 has the
    eigenvalues -4e-9 and 1 and whose ladder falls (2, 1, 2, 2), on
    h = 16 (orthogonal) and h = 20 (unitary), and U diag(0, t, ..., t)
    U* on h = 8, orthogonal and unitary, whose D_2 has seven eigenvalues
    1e-9 + 3e-14, which eigvalsh counts, between the cutoff and the
    certificate's shift, so that step falls back to eigvalsh, and two
    draws with one singular value 1 + 2e-9 and Delta_1 = 1 + 1, a real
    one with d = 1, h = 64 and a complex one with d = 2, h = 128, whose
    word levels all carry D_1's -1 (ladders of 27 and 8 steps).
    """
    import numpy as np

    def orthogonal(rng, h):
        return np.linalg.qr(rng.standard_normal((h, h)))[0]

    def conjugate(T, u):
        return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))

    def real_draw(d, h, rank, seed):
        # I - cp(I) has rank eigenvalues in [0.19, 0.96] and h - rank
        # zeros, up to rounding.
        rng = np.random.default_rng(seed)
        sigma = np.concatenate([np.ones(h - rank),
                                rng.uniform(0.2, 0.9, rank)])
        row = ((orthogonal(rng, h) * sigma)
               @ orthogonal(rng, d * h)[:, :h].T)
        return OperatorTuple(tuple(row[:, i * h:(i + 1) * h]
                                   for i in range(d)))

    def slack(h, real):
        # [[a, b, 0], [0, 0, 0], [0, 0, 1]] with a^2 (1 + eps) = 1 and
        # b^2 = eps (1 + a^2), plus an orthogonal summand of no defect.
        eps = 4e-9
        a = np.sqrt(1.0 / (1.0 + eps))
        b = np.sqrt(eps * (1.0 + a * a))
        rng = np.random.default_rng((70, h))
        core = OperatorTuple((np.array([[a, b, 0.0], [0.0, 0.0, 0.0],
                                        [0.0, 0.0, 1.0]]),))
        T = direct_sum(core, OperatorTuple((orthogonal(rng, h - 3),)))
        u = orthogonal(rng, h) if real else models.haar_unitary(h, rng)
        return conjugate(T, u)

    builders = {"fock-2-5-conjugate": lambda: conjugate(
        models.fock_creation(2, 5),
        models.haar_unitary(63, np.random.default_rng(60)))}
    for d, h in ((2, 48), (3, 64), (2, 128)):
        for rank in (1, 3):
            builders[f"random-{d}-{h}-{rank}-real"] = (
                lambda d=d, h=h, rank=rank:
                real_draw(d, h, rank, (61, d, h, rank)))
            builders[f"random-{d}-{h}-{rank}-complex"] = (
                lambda d=d, h=h, rank=rank: models.random_contractive(
                    d, h, rank, (62, d, h, rank)))
    builders["random-1-64-1-complex"] = lambda: models.random_contractive(
        1, 64, 1, (62, 1, 64, 1))
    builders["fock-1-127-orthogonal"] = lambda: conjugate(
        models.fock_creation(1, 127),
        orthogonal(np.random.default_rng(63), 128))
    def between_cutoff_and_shift(real):
        # e (2 - e) = 1e-9 + 3e-14 for e = 1 - t**2.
        lam = 1e-9 + 3e-14
        e = lam / (1.0 + np.sqrt(1.0 - lam))
        diag = np.diag([0.0] + [np.sqrt(1.0 - e)] * 7)
        rng = np.random.default_rng(64)
        u = orthogonal(rng, 8) if real else models.haar_unitary(8, rng)
        return OperatorTuple((u @ diag @ u.conj().T,))

    def signed_draw(d, h, rank, seed, real):
        # real_draw and random_contractive with one singular value
        # 1 + 2e-9: D_1 has an eigenvalue of about -4e-9, above the
        # cutoff, so the factor of D_1 carries a -1 in its signature.
        rng = np.random.default_rng(seed)
        sigma = np.concatenate([[1.0 + 2e-9], np.ones(h - rank - 1),
                                rng.uniform(0.2, 0.9, rank)])
        if real:
            w, u = orthogonal(rng, h), orthogonal(rng, d * h)[:, :h]
        else:
            w = models.haar_unitary(h, rng)
            u = models.haar_unitary(d * h, rng)[:, :h]
        row = (w * sigma) @ u.conj().T
        return OperatorTuple(tuple(row[:, i * h:(i + 1) * h]
                                   for i in range(d)))

    builders["slack-16-real"] = lambda: slack(16, True)
    builders["slack-20-complex"] = lambda: slack(20, False)
    builders["random-2-300-1-real"] = lambda: real_draw(2, 300, 1,
                                                        (61, 2, 300, 1))
    builders["between-cutoff-and-shift-real"] = (
        lambda: between_cutoff_and_shift(True))
    builders["between-cutoff-and-shift-complex"] = (
        lambda: between_cutoff_and_shift(False))
    builders["signed-1-64-1-real"] = lambda: signed_draw(
        1, 64, 1, (65, 1, 64, 1), True)
    builders["signed-2-128-1-complex"] = lambda: signed_draw(
        2, 128, 1, (65, 2, 128, 1), False)
    return builders


def word_builders(models, OperatorTuple):
    """Label -> (classify?, builder()) of the word-level ladder fixtures.

    ``fock_creation(2, 5)`` with T'_i = sum_j u_ij T_j for a Haar unitary
    u, which has the same cp map, and ``random_contractive(3, 100, 2)``,
    whose word levels of 2, 6, 18, 54 and 162 columns reach h = 100 at
    the fifth step, 20 columns into the last level.
    """
    import numpy as np

    def mixed(T, seed):
        u = models.haar_unitary(T.d, np.random.default_rng(seed))
        return OperatorTuple(tuple(
            sum(u[i, j] * T.ops[j] for j in range(T.d))
            for i in range(T.d)))

    return {
        "fock-2-5-mixed": (True, lambda: mixed(models.fock_creation(2, 5),
                                               80)),
        "random-3-100-2-complex": (False, lambda: models.random_contractive(
            3, 100, 2, (81, 3, 100, 2))),
    }


def purity_builders(models, OperatorTuple):
    """Label -> builder() of the purity fixtures.

    Damped row coisometries: 0.999 times a row operator with orthonormal
    rows, so cp^n(I) = 0.998001^n I stays above the purity threshold for
    the default budget; real ones from a seeded QR, complex ones from
    ``random_contractive`` with no defect.  The spherical sum with k = 2
    settles at a rank-2 projection (NotPure), as does its unitary
    conjugate, which has no zero entries.
    """
    import numpy as np

    def damped(T):
        return OperatorTuple(tuple(0.999 * op for op in T.ops))

    def real_coisometry(d, h, seed):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (d * h, h)))
        row = q.T
        return OperatorTuple(tuple(row[:, i * h:(i + 1) * h]
                                   for i in range(d)))

    def spherical():
        return models.spherical_shift_sum(2, 4, (0.6, 0.8), 2)

    def spherical_conjugate():
        T = spherical()
        u = models.haar_unitary(T.h, np.random.default_rng(40))
        return OperatorTuple(tuple(u.conj().T @ op @ u for op in T.ops))

    builders = {}
    for d in (1, 2, 3):
        for h in (1, 3, 8, 24):
            builders[f"damped-{d}-{h}-real"] = (
                lambda d=d, h=h: damped(real_coisometry(d, h, (50, d, h))))
            builders[f"damped-{d}-{h}-complex"] = (
                lambda d=d, h=h: damped(models.random_contractive(
                    d, h, 0, (50, d, h))))
    builders["spherical-sum-k2"] = spherical
    builders["spherical-sum-k2-conjugate"] = spherical_conjugate
    return builders


def slow_shift_builders(OperatorTuple):
    """Label -> builder() of the slow weighted-shift fixtures.

    With P the cyclic shift e_k -> e_(k+1 mod h): 0.999 P, whose iterates
    0.998001^n I stay above the purity threshold, and the pair
    (0.7 P diag(linspace(0.5, 0.9, h)), 0.69 P^2), whose iterates decay
    slowly; h in {3, 8, 24}.
    """
    import numpy as np

    def cyclic(h, power=1):
        return np.roll(np.eye(h), power, axis=0)

    builders = {}
    for h in (3, 8, 24):
        builders[f"cyclic-{h}"] = (
            lambda h=h: OperatorTuple((0.999 * cyclic(h),)))
        builders[f"cyclic-pair-{h}"] = (
            lambda h=h: OperatorTuple((
                0.7 * cyclic(h) @ np.diag(np.linspace(0.5, 0.9, h)),
                0.69 * cyclic(h, 2))))
    return builders


def near_cutoff_builders(OperatorTuple):
    """Label -> (rtol, builder()) of the diagonal near-cutoff fixtures.

    The tuples (phase * diag(0, g, s),) with g = s * rtol * (1 +- 1e-6):
    the commutant gap sits next to the cutoff taken over the union of
    its components; the real ones take the diagonal cp step.
    """
    import numpy as np

    builders = {}
    for kind, phase in (("real", 1.0), ("complex", np.exp(0.7j))):
        for rtol in (1e-9, 1e-6):
            for scale in (1e-3, 1.0, 1e3):
                for side, where in ((-1, "below"), (1, "above")):
                    values = (0.0, scale * rtol * (1.0 + side * 1e-6), scale)
                    builders[f"{kind}-r{rtol:g}-s{scale:g}-{where}"] = (
                        rtol, lambda phase=phase, values=values:
                        OperatorTuple((phase * np.diag(values),)))
    return builders


def model_calls():
    """Label -> argv of the ``model`` calls, small sizes.

    Every kind with only its required flags and with every flag it reads
    given; a flag the kind does not read; each kind's required flags
    missing in turn, first to last; malformed ``--phi`` and ``--lambdas``
    text; values the builders refuse; an unknown kind.
    """
    half = "0.7071067811865476"
    return {
        "fock-2-3": ["fock", "--d", "2", "--levels", "3"],
        "fock-1-5": ["fock", "--d", "1", "--levels", "5"],
        "fock-2-2-unread-flags": ["fock", "--d", "2", "--levels", "2",
                                  "--seed", "5", "--r", "0.25"],
        "dshift-2-4": ["dshift", "--d", "2", "--degree", "4"],
        "dshift-3-2": ["dshift", "--d", "3", "--degree", "2"],
        "rj-2-3-1": ["rj", "--d", "2", "--levels", "3", "--j", "1"],
        "rj-3-2-3": ["rj", "--d", "3", "--levels", "2", "--j", "3"],
        "phi-2-3": ["phi", "--d", "2", "--levels", "3",
                    "--phi", f"1={half},2={half}"],
        "phi-2-3-dotted": ["phi", "--d", "2", "--levels", "3",
                           "--phi", " 1.2=0.6, 21 = 0.8j ,"],
        "phi-2-2-repeated": ["phi", "--d", "2", "--levels", "2",
                             "--phi", "12=0.3,12=0.3,2=0.8"],
        "pure-nonmax-3-2": ["pure-nonmax", "--d", "3", "--levels", "2"],
        "pure-nonmax-3-2-r": ["pure-nonmax", "--d", "3", "--levels", "2",
                              "--r", "0.25"],
        "spherical-sum-2-3": ["spherical-sum", "--d", "2", "--degree", "3",
                              "--lambdas", "0.6,0.8"],
        "spherical-sum-2-3-k": ["spherical-sum", "--d", "2", "--degree", "3",
                                "--lambdas", "0.6j, 0.8,", "--k", "2"],
        "random-2-5-2": ["random", "--d", "2", "--dim", "5",
                         "--defect-rank", "2"],
        "random-2-5-2-seed": ["random", "--d", "2", "--dim", "5",
                              "--defect-rank", "2", "--seed", "7"],
        "random-coinv-2-3": ["random-coinv", "--d", "2", "--levels", "3"],
        "random-coinv-2-3-given": ["random-coinv", "--d", "2", "--levels",
                                   "3", "--generators", "1", "--seed", "3"],
        "missing-fock-levels": ["fock", "--d", "2"],
        "missing-fock-d": ["fock", "--levels", "2"],
        "missing-dshift-degree": ["dshift", "--d", "2"],
        "missing-rj-j": ["rj", "--d", "2", "--levels", "3"],
        "missing-phi-all": ["phi"],
        "missing-phi-phi": ["phi", "--d", "2", "--levels", "3"],
        "missing-pure-nonmax-d": ["pure-nonmax", "--levels", "2"],
        "missing-spherical-sum-degree": ["spherical-sum", "--d", "2",
                                         "--lambdas", "1,0"],
        "missing-spherical-sum-lambdas": ["spherical-sum", "--d", "2",
                                          "--degree", "2"],
        "missing-random-defect-rank": ["random", "--d", "2", "--dim", "4"],
        "missing-random-coinv-levels": ["random-coinv", "--d", "2"],
        "bad-phi-no-equals": ["phi", "--d", "2", "--levels", "3",
                              "--phi", "1:0.6,2=0.8"],
        "bad-phi-word": ["phi", "--d", "2", "--levels", "3",
                         "--phi", "x=1"],
        "bad-phi-coeff": ["phi", "--d", "2", "--levels", "3",
                          "--phi", "1=abc"],
        "bad-phi-empty": ["phi", "--d", "2", "--levels", "3",
                          "--phi", " , "],
        "bad-phi-empty-word": ["phi", "--d", "2", "--levels", "3",
                               "--phi", "=1"],
        "bad-lambdas-number": ["spherical-sum", "--d", "2", "--degree", "2",
                               "--lambdas", "0.6,abc"],
        "bad-lambdas-empty": ["spherical-sum", "--d", "2", "--degree", "2",
                              "--lambdas", ","],
        "refused-phi-norm": ["phi", "--d", "2", "--levels", "3",
                             "--phi", "1=0.5"],
        "refused-phi-letter": ["phi", "--d", "2", "--levels", "3",
                               "--phi", "3=1"],
        "refused-rj-letter": ["rj", "--d", "2", "--levels", "3", "--j", "3"],
        "refused-lambdas-norm": ["spherical-sum", "--d", "2", "--degree",
                                 "2", "--lambdas", "0.6,0.6"],
        "refused-lambdas-count": ["spherical-sum", "--d", "3", "--degree",
                                  "2", "--lambdas", "0.6,0.8"],
        "refused-fock-d": ["fock", "--d", "0", "--levels", "2"],
        "refused-random-rank": ["random", "--d", "2", "--dim", "3",
                                "--defect-rank", "4"],
        "refused-pure-nonmax-r": ["pure-nonmax", "--d", "2", "--levels",
                                  "2", "--r", "1"],
        "unknown-kind": ["nosuch", "--d", "2"],
    }


def write_outputs(tree, out_dir, seed, reverse=False):
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from defectseq import cli, io, models
    from defectseq.tuples import OperatorTuple, direct_sum

    pkg = types.SimpleNamespace(models=models, OperatorTuple=OperatorTuple)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    Path("inputs").mkdir(exist_ok=True)
    # Every tuple file is written first, then the CLI calls run in one
    # process, in order or reversed.
    calls = []
    for workload in ("ladder", "classify"):
        for label, build in workloads.tuple_builders(workload, seed).items():
            path = f"inputs/{workload}-{label}.json"
            io.write_tuple(build(pkg), path)
            calls.append((f"defect-{workload}-{label}",
                          ["defect", path, "--n-max", N_MAX]))
            if workload == "classify":
                calls.append((f"classify-{label}", ["classify", path]))
    for label, build in dense_builders(models, OperatorTuple,
                                       direct_sum).items():
        path = f"inputs/dense-{label}.json"
        io.write_tuple(build(), path)
        calls.append((f"classify-dense-{label}", ["classify", path]))
        calls.append((f"defect-dense-{label}",
                      ["defect", path, "--n-max", N_MAX]))
    for label, build in cap_dense_builders(models, OperatorTuple).items():
        path = f"inputs/cap-dense-{label}.json"
        io.write_tuple(build(), path)
        calls.append((f"classify-cap-dense-{label}", ["classify", path]))
        calls.append((f"defect-cap-dense-{label}",
                      ["defect", path, "--n-max", N_MAX]))
    for label, build in large_dense_builders(models, OperatorTuple,
                                             direct_sum).items():
        path = f"inputs/large-dense-{label}.json"
        io.write_tuple(build(), path)
        calls.append((f"defect-large-dense-{label}",
                      ["defect", path, "--n-max", N_MAX]))
    for label, (classify, build) in word_builders(models,
                                                  OperatorTuple).items():
        path = f"inputs/words-{label}.json"
        io.write_tuple(build(), path)
        calls.append((f"defect-words-{label}",
                      ["defect", path, "--n-max", N_MAX]))
        if classify:
            calls.append((f"classify-words-{label}", ["classify", path]))
    for label, (rtol, build) in near_cutoff_builders(OperatorTuple).items():
        path = f"inputs/near-cutoff-{label}.json"
        io.write_tuple(build(), path)
        tolerance = ["--rtol", repr(rtol), "--atol", "0"]
        calls.append((f"classify-near-cutoff-{label}",
                      ["classify", path] + tolerance))
        calls.append((f"defect-near-cutoff-{label}",
                      ["defect", path, "--n-max", N_MAX] + tolerance))
    for label, build in purity_builders(models, OperatorTuple).items():
        path = f"inputs/purity-{label}.json"
        io.write_tuple(build(), path)
        calls += _budget_calls(f"classify-purity-{label}", path)
    for label, build in slow_shift_builders(OperatorTuple).items():
        path = f"inputs/slow-shift-{label}.json"
        io.write_tuple(build(), path)
        calls += _budget_calls(f"classify-slow-shift-{label}", path)
        calls.append((f"defect-slow-shift-{label}",
                      ["defect", path, "--n-max", N_MAX]))
    for label, argv in model_calls().items():
        calls.append((f"model-{label}", ["model"] + argv))
    for s in VERIFY_SEEDS:
        calls.append((f"verify-{s}",
                      ["verify", "--suite", "all", "--samples", "40",
                       "--seed", str(s)]))
    for rtol in VERIFY_LOOSE_RTOLS:
        calls.append((f"verify-rtol-{rtol}",
                      ["verify", "--suite", "all", "--samples", "10",
                       "--seed", "0", "--rtol", rtol]))
    for name, argv in reversed(calls) if reverse else calls:
        _call(cli.main, name, argv)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for script in sorted((tree / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=600)
        Path(f"demo-{script.stem}.out").write_text(
            f"{done.stdout}exit {done.returncode}\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="source tree to run (default: this one)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed of the random tuples")
    parser.add_argument("--reverse", action="store_true",
                        help="make the CLI calls in reverse order")
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    write_outputs(args.tree.resolve(), args.out_dir.resolve(), args.seed,
                  args.reverse)
    return 0


if __name__ == "__main__":
    sys.exit(main())
