"""Named property suites behind the ``verify`` command.

Each suite re-checks one structural law of defect sequences on exact
fixtures, seeded random ensembles, or both, and reports pass/fail
counts plus the first failing configuration.  The suite names are short
stable tokens forming the command-line vocabulary.  The registry maps
each token to three parts: a plain-words description of what it checks,
its fixture checks ``f(rec, tol)`` and its one-sample checks
``f(rec, i, key, rng, tol)``, either of the last two possibly None.

``run_suite`` runs the fixtures first and then draws every sample
itself.  Reproducibility contract: sample number i of the suite with
salt s under master seed q draws every random quantity from
``numpy.random.default_rng((q, s, i))``, where s is the position of the
suite in ``SUITE_NAMES``.  The generator is numpy's PCG64 seeded through
SeedSequence, so one integer seed fans out into independent, platform-
stable streams, and any failure can be replayed from the (q, s, i)
triple recorded in the report.  A ``ConsistencyError`` raised inside one
sample fails that sample only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import models
from .classify import (
    Purity,
    classify,
    commutant_dimension,
    is_maximal_commuting,
    is_maximal_noncommutative,
    purity,
)
from .defect import (
    defect_dimension,
    defect_operator,
    defect_sequence,
    defect_space,
    defect_space_via_words,
    geometric_bound,
    is_contractive,
    rank_symmetry_check,
    verify_product_bounds,
    word_image_dimension,
)
from .errors import ArgumentError, ConsistencyError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    _require_integer,
    coordinate_subspace,
    numerical_rank,
    subspace_equal,
)
from .tuples import (
    OperatorTuple,
    apply_cp_map,
    compress,
    cp_iterate,
    direct_sum,
    is_commuting,
    tuple_product,
)

__all__ = [
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "SUITE_NAMES",
    "SuiteResult",
    "expand_suite_names",
    "run_suite",
    "run_suites",
    "suite_descriptions",
]

DEFAULT_SAMPLES = 40
DEFAULT_SEED = 0


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite run.

    ``checks`` = ``passes`` + ``failures`` counts individual assertions,
    not samples.  ``first_failure`` reproduces the earliest failing
    check: its label, the (seed, salt, sample) triple when the check was
    seeded, and a short detail string.  ``notes`` carries measured
    values that are reported rather than asserted.
    """

    name: str
    description: str
    samples: int
    seed: int
    checks: int
    passes: int
    failures: int
    first_failure: dict | None
    notes: tuple = ()

    @property
    def ok(self):
        return self.failures == 0


class _Recorder:
    def __init__(self):
        self.checks = 0
        self.passes = 0
        self.failures = 0
        self.first_failure = None
        self.notes = []

    def check(self, label, passed, seed=None, detail=None):
        self.checks += 1
        if passed:
            self.passes += 1
            return True
        self.failures += 1
        if self.first_failure is None:
            record = {"check": label}
            if seed is not None:
                record["seed"] = list(seed)
            if detail is not None:
                record["detail"] = detail
            self.first_failure = record
        return False

    def note(self, text):
        self.notes.append(text)


def _draw_random_tuple(rng, d_max=3, h_max=8, rank_max=3):
    d = int(rng.integers(1, d_max + 1))
    h = int(rng.integers(2, h_max + 1))
    defect_rank = int(rng.integers(0, min(rank_max, h) + 1))
    return models.random_contractive(d, h, defect_rank, rng)


def _draw_compression(rng):
    # Compression of a depth-2 creation tuple to the co-invariant hull of
    # one or two random vectors, d in {2, 3}.
    d = int(rng.integers(2, 4))
    gens = int(rng.integers(1, 3))
    return models.random_coinvariant_compression(d, 2, gens, rng)


def _draw_mixed_tuple(rng, index):
    # Every fifth sample is a compressed creation tuple instead of a
    # plain random row; compressions carry nontrivial defect growth.
    if index % 5 == 4:
        return _draw_compression(rng)
    return _draw_random_tuple(rng)


def _leak(sub, ops):
    # Largest norm of a piece of A(sub) sticking out of sub, over the
    # matrices A in ``ops``: zero exactly when sub is invariant under
    # each, so reducing for T when ``ops`` holds every T_i and T_i*.
    p = sub.projector()
    comp = np.eye(sub.ambient_dim) - p
    return max(float(np.linalg.norm(comp @ op @ p, 2)) for op in ops)


def _models_fixtures(rec, tol):
    # Creation tuple: exact defect ladder and exact projections.
    fock = models.fock_creation(2, 6)
    rep = defect_sequence(fock, 8, tol)
    rec.check("creation d=2 defect ladder is exact",
              rep.deltas == (1, 3, 7, 15, 31, 63, 127), detail=f"{rep.deltas}")
    rec.check("creation d=2 fills its 127-dimensional space",
              rep.reached_full and rep.h == 127)
    vac = np.zeros((fock.h, fock.h), dtype=np.complex128)
    vac[0, 0] = 1.0
    rec.check("creation first defect is exactly the vacuum projection",
              np.array_equal(defect_operator(fock, 1, tol), vac))
    lower = np.zeros(fock.h)
    lower[:7] = 1.0
    rec.check("third cp iterate is exactly a level projection",
              np.array_equal(cp_iterate(fock, 3), np.diag(1.0 - lower).astype(np.complex128)))
    rec.check("creation tuple does not commute",
              not is_commuting(models.fock_creation(2, 3), tol))

    # Symmetric shifts: exact ladders and commutativity.
    shift26 = models.symmetric_fock_shift(2, 6)
    rep = defect_sequence(shift26, 8, tol)
    rec.check("symmetric shift d=2 defect ladder is exact",
              rep.deltas == (1, 3, 6, 10, 15, 21, 28), detail=f"{rep.deltas}")
    rec.check("symmetric shift commutes", is_commuting(shift26, tol))
    rep = defect_sequence(models.symmetric_fock_shift(3, 4), 6, tol)
    rec.check("symmetric shift d=3 defect ladder is exact",
              rep.deltas == (1, 4, 10, 20, 35), detail=f"{rep.deltas}")

    # Symmetrizer: exact projection with the monomial-count trace.
    for d, k, want_trace in ((2, 2, 3), (2, 3, 4), (3, 2, 6)):
        p = models.symmetrizer(d, k)
        exact = (float(np.abs(p - p.conj().T).max()) <= 1e-12
                 and float(np.linalg.norm(p @ p - p, 2)) <= 1e-12)
        rec.check(f"symmetrizer d={d} k={k} is an exact projection", exact)
        trace = complex(np.trace(p))
        rec.check(f"symmetrizer d={d} k={k} trace counts monomials",
                  abs(trace.real - want_trace) <= 1e-9 and abs(trace.imag) <= 1e-12,
                  detail=f"trace {trace.real!r}")

    # The shift weights against their independent derivation.
    for d, L in ((2, 3), (3, 2)):
        direct = models.symmetric_fock_shift(d, L)
        derived = models.symmetric_shift_via_compression(d, L)
        dev = max(float(np.abs(a - b).max())
                  for a, b in zip(direct.ops, derived.ops))
        rec.check(f"shift weights match the compression oracle (d={d}, L={L})",
                  dev <= 1e-10, detail=f"max deviation {dev:.3e}")

    # One-letter compressions: slow second step, hence not extremal.
    for d in (2, 3):
        rj = models.right_creation_compression(d, 3, d)
        rep = defect_sequence(rj, rj.h + 1, tol)
        rec.check(f"one-letter compression d={d} starts (1, {d})",
                  rep.deltas[:2] == (1, d), detail=f"{rep.deltas}")
        rec.check(f"one-letter compression d={d} is not free-extremal",
                  not is_maximal_noncommutative(rj, None, tol))
    degenerate = models.right_creation_compression(1, 3, 1)
    rec.check("one-letter compression over one letter degenerates to the vacuum",
              degenerate.h == 1
              and defect_sequence(degenerate, 2, tol).deltas == (1,))

    # Single-letter phi reproduces the one-letter compression exactly.
    phi_sub = models.finite_phi_subspace(2, 3, {(1,): 1.0})
    rj_sub = models.right_creation_subspace(2, 3, 1)
    rec.check("single-letter phi subspace equals the one-letter subspace",
              subspace_equal(phi_sub, rj_sub, tol))
    phi_tuple = models.finite_phi_compression(2, 3, {(1,): 1.0})
    rj1 = models.right_creation_compression(2, 3, 1)
    rec.check("single-letter phi compression has the same defect ladder",
              defect_sequence(phi_tuple, phi_tuple.h + 1, tol).deltas
              == defect_sequence(rj1, rj1.h + 1, tol).deltas)

    # Wider-support phi: first defect asserted, growth reported.
    mixed = models.finite_phi_compression(
        2, 3, {(1,): 2 ** -0.5, (2,): 2 ** -0.5})
    mrep = defect_sequence(mixed, mixed.h + 1, tol)
    rec.check("balanced two-letter phi compression has a unit first defect",
              mrep.deltas[0] == 1, detail=f"{mrep.deltas}")
    rec.note(f"balanced two-letter phi compression defect sequence: {mrep.deltas}")
    deg2 = models.finite_phi_compression(2, 4, {(1, 1): 1.0})
    drep = defect_sequence(deg2, deg2.h + 1, tol)
    rec.check("degree-two phi compression has a unit first defect",
              drep.deltas[0] == 1, detail=f"{drep.deltas}")
    rec.note(f"degree-two phi compression defect sequence: {drep.deltas}")

    # The pure tuple with defect growth far below the geometric bound.
    pnm = models.pure_nonmaximal_example(2, 4, 0.5)
    rec.check("pure slow-growth example starts (2, 3)",
              defect_sequence(pnm, 2, tol).deltas == (2, 3))
    rec.check("pure slow-growth example verifies pure",
              purity(pnm, tol=tol).status is Purity.PURE)
    rec.check("pure slow-growth example fails free extremality",
              not is_maximal_noncommutative(pnm, None, tol))
    rec.check("pure slow-growth example fails commuting extremality",
              is_commuting(pnm, tol)
              and not is_maximal_commuting(pnm, None, tol))
    rec.check("pure slow-growth example d=3 starts (2, 4)",
              defect_sequence(models.pure_nonmaximal_example(3, 2, 0.9),
                              2, tol).deltas == (2, 4))

    # Scalar spherical tuples: zero defect, identity as the limit.
    lam = (2 ** -0.5, 2 ** -0.5)
    sphere = models.scalar_spherical_tuple(lam, 2)
    rec.check("scalar spherical tuple has zero defect",
              defect_sequence(sphere, 3, tol).deltas == (0, 0))
    sverdict = purity(sphere, tol=tol)
    rec.check("scalar spherical tuple keeps the identity",
              sverdict.status is Purity.NOT_PURE
              and sverdict.limit is not None
              and float(np.abs(sverdict.limit - np.eye(2)).max()) <= 1e-10)

    # Spherical summand: invisible to defects, visible to the limit.
    combo = models.spherical_shift_sum(2, 5, lam, 3)
    shift25 = models.symmetric_fock_shift(2, 5)
    rec.check("spherical summand leaves the defect ladder alone",
              defect_sequence(combo, 4, tol).deltas
              == defect_sequence(shift25, 4, tol).deltas)
    cverdict = purity(combo, tol=tol)
    if cverdict.limit is None:
        rec.check("spherical sum limit is a projection", False,
                  detail=f"purity came back {cverdict.status}")
    else:
        qgap = float(np.linalg.norm(
            cverdict.limit @ cverdict.limit - cverdict.limit, 2))
        qtrace = float(np.real(np.trace(cverdict.limit)))
        rec.check("spherical sum limit is a projection",
                  cverdict.status is Purity.NOT_PURE and qgap <= 1e-8,
                  detail=f"|QQ - Q| = {qgap:.3e}")
        rec.note(f"spherical sum limit: |QQ - Q| = {qgap:.3e}, trace = {qtrace:.6f}")

    # Block sum of the two shift models: pure but visibly reducible.
    vs = direct_sum(models.fock_creation(2, 3),
                    models.symmetric_fock_shift(2, 3))
    rec.check("two-model sum has defect two", defect_dimension(vs, 1, tol) == 2)
    vrep = classify(vs, tol)
    rec.check("two-model sum is pure but reducible",
              vrep.purity.status is Purity.PURE
              and not vrep.irreducible and vrep.commutant_dim >= 2,
              detail=f"commutant dimension {vrep.commutant_dim}")

    # Seeded random rows hit their prescribed defect rank.
    rec.check("seeded random tuple hits its defect rank",
              defect_dimension(models.random_contractive(2, 6, 2, 7), 1, tol) == 2)
    rec.check("zero-defect random tuple is a row coisometry",
              defect_dimension(models.random_contractive(3, 5, 0, 11), 1, tol) == 0)

    # Aggregate classification of the two flagship models.
    crep = classify(models.fock_creation(2, 3), tol)
    rec.check("creation tuple classifies irreducible pure extremal",
              crep.purity.status is Purity.PURE and bool(crep.irreducible)
              and crep.maximal_noncomm.maximal and not crep.commuting)
    srep = classify(models.symmetric_fock_shift(2, 3), tol)
    rec.check("symmetric shift classifies commuting pure extremal",
              srep.commuting and srep.purity.status is Purity.PURE
              and srep.maximal_comm is not None and srep.maximal_comm.maximal
              and not srep.maximal_noncomm.maximal)

    # Degenerate sanity fixtures.
    zero = OperatorTuple((np.zeros((3, 3), dtype=np.complex128),
                          np.zeros((3, 3), dtype=np.complex128)),
                         label="zero-pair")
    rec.check("zero tuple defect is the whole space",
              defect_sequence(zero, 2, tol).deltas == (3,))
    rec.check("zero tuple commutant is everything",
              commutant_dimension(zero, tol) == 9)


def _monotone_bound_sample(rec, i, key, rng, tol):
    T = _draw_mixed_tuple(rng, i)
    rep = defect_sequence(T, T.h + 1, tol)
    rec.check("defect dimensions never decrease",
              all(a <= b for a, b in zip(rep.deltas, rep.deltas[1:])),
              seed=key, detail=f"{rep.deltas}")
    rec.check("geometric growth bound holds",
              all(delta <= geometric_bound(T.d, n, rep.deltas[0])
                  for n, delta in enumerate(rep.deltas, start=1)),
              seed=key, detail=f"{rep.deltas}")
    rec.check("defect dimensions stay within the space",
              all(delta <= T.h for delta in rep.deltas), seed=key)


def _word_span_sample(rec, i, key, rng, tol):
    d = int(rng.integers(1, 4))
    h = int(rng.integers(2, 7))
    defect_rank = int(rng.integers(1, min(2, h) + 1))
    T = models.random_contractive(d, h, defect_rank, rng)
    for n in (1, 2, 3, 4):
        direct = defect_space(T, n, tol)
        spanned = defect_space_via_words(T, n, tol)
        rec.check(f"defect space equals the word span at step {n}",
                  subspace_equal(direct, spanned, tol), seed=key,
                  detail=f"dims {direct.dim} vs {spanned.dim}")


def _stabilization_sample(rec, i, key, rng, tol):
    T = _draw_mixed_tuple(rng, i)
    rep = defect_sequence(T, T.h + 1, tol)
    found = rec.check("sequence stabilizes within dimension-many steps",
                      rep.stabilized_at is not None, seed=key,
                      detail=f"{rep.deltas}")
    if found:
        at = rep.stabilized_at
        value = rep.deltas[at - 1]
        later = defect_dimension(T, at + 2, tol)
        rec.check("stabilized value persists two steps later",
                  later == value, seed=key,
                  detail=f"{value} then {later}")
        rec.check("no movement recorded past stabilization",
                  all(v == value for v in rep.deltas[at - 1:]),
                  seed=key, detail=f"{rep.deltas}")
    else:
        rec.check("stabilized value persists two steps later", False,
                  seed=key, detail="no stabilization point found")
        rec.check("no movement recorded past stabilization", False,
                  seed=key, detail="no stabilization point found")


def _rank_symmetry_sample(rec, i, key, rng, tol):
    T = _draw_random_tuple(rng, 3, 6, 3)
    choices = (1, 2, 3) if T.d == 1 else (1, 2)
    n = int(choices[int(rng.integers(0, len(choices)))])
    verdict = rank_symmetry_check(T, n, tol)
    square = T.d ** n * T.h == T.h
    rec.check("rank equality occurs exactly in the square case",
              verdict.equal_ranks == square, seed=key,
              detail=f"ranks ({verdict.rank_left}, {verdict.rank_right})")
    rec.check("rank and kernel equalities agree",
              verdict.equal_ranks == verdict.equal_kernels, seed=key)
    rec.check("row defect rank matches the iterate defect rank",
              verdict.rank_left == defect_dimension(T, n, tol),
              seed=key)
    rec.check("right spectrum carries the extra exact ones",
              verdict.rank_right
              == verdict.rank_left + (T.d ** n - 1) * T.h, seed=key)


def _pure_growth_sample(rec, i, key, rng, tol):
    family = i % 3
    if family == 0:
        T = _draw_compression(rng)
    elif family == 1:
        d = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        T = models.pure_nonmaximal_example(d, L, float(rng.uniform(0.3, 0.8)))
    else:
        base = _draw_random_tuple(rng)
        T = OperatorTuple(tuple(0.97 * op for op in base.ops),
                          label="damped random row")
    verdict = purity(T, tol=tol)
    sure = rec.check("constructed tuple verifies pure",
                     verdict.status is Purity.PURE, seed=key,
                     detail=str(verdict.status))
    if sure:
        rep = defect_sequence(T, T.h + 1, tol)
        rec.check("pure tuple fills the space",
                  rep.reached_full, seed=key, detail=f"{rep.deltas}")
        top = rep.deltas.index(T.h) if rep.reached_full else len(rep.deltas) - 1
        rec.check("defects rise strictly until the space is full",
                  rep.deltas[0] >= 1
                  and all(rep.deltas[j] < rep.deltas[j + 1]
                          for j in range(top)),
                  seed=key, detail=f"{rep.deltas}")
    else:
        rec.check("pure tuple fills the space", False, seed=key,
                  detail="purity not established")
        rec.check("defects rise strictly until the space is full",
                  False, seed=key, detail="purity not established")


def _unit_defect_fixtures(rec, tol):
    for h in (3, 4, 5, 6):
        ladder = models.fock_creation(1, h - 1)
        rep = defect_sequence(ladder, h + 1, tol)
        rec.check(f"nilpotent shift on dimension {h} climbs one per step",
                  rep.deltas == tuple(range(1, h + 1)), detail=f"{rep.deltas}")


def _unit_defect_sample(rec, i, key, rng, tol):
    if i % 2 == 0:
        L = int(rng.integers(2, 6))
        T = models.random_coinvariant_compression(1, L, 1, rng)
    else:
        d = int(rng.integers(2, 4))
        h = int(rng.integers(3, 8))
        weights = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        weights /= np.linalg.norm(weights)
        nil = models.fock_creation(1, h - 1).ops[0]
        T = OperatorTuple(tuple(w * nil for w in weights),
                          label="scalar-weighted nilpotent ladder")
    delta_1 = defect_dimension(T, 1, tol)
    verdict = purity(T, tol=tol)
    word_dims = [word_image_dimension(T, n, tol) for n in (1, 2, 3)]
    hypothesis = (delta_1 == 1 and verdict.status is Purity.PURE
                  and max(word_dims) <= 1)
    rec.check("generator satisfies the rank-one pure hypothesis",
              hypothesis or delta_1 == 0, seed=key,
              detail=(f"defect {delta_1}, purity {verdict.status}, "
                      f"word image dims {word_dims}"))
    if hypothesis:
        rep = defect_sequence(T, T.h + 1, tol)
        want = tuple(min(n, T.h) for n in range(1, len(rep.deltas) + 1))
        rec.check("defect ladder climbs exactly one per step",
                  rep.deltas == want, seed=key, detail=f"{rep.deltas}")
    else:
        rec.check("defect ladder claim vacuous for a degenerate draw",
                  delta_1 == 0, seed=key)


def _product_bound_sample(rec, i, key, rng, tol):
    h = int(rng.integers(2, 7))
    left = models.random_contractive(
        int(rng.integers(1, 3)), h,
        int(rng.integers(0, min(2, h) + 1)), rng)
    right = models.random_contractive(
        int(rng.integers(1, 3)), h,
        int(rng.integers(0, min(2, h) + 1)), rng)
    chk = verify_product_bounds(left, right, tol)
    rec.check("product defect at least the left factor defect",
              chk.lower_ok, seed=key,
              detail=f"{chk.delta_b} vs {chk.delta_bc}")
    rec.check("product defect within the combined bound",
              chk.upper_ok, seed=key,
              detail=(f"{chk.delta_bc} vs {chk.delta_b} + "
                      f"{chk.factor_count} * {chk.delta_c}"))
    lhs = defect_operator(tuple_product(left, right), 1, tol)
    rhs = defect_operator(left, 1, tol) + apply_cp_map(
        left, defect_operator(right, 1, tol))
    gap = float(np.linalg.norm(lhs - rhs, 2))
    scale = max(1.0, float(np.linalg.norm(rhs, 2)))
    rec.check("one-step defect identity for products",
              gap <= 1e-10 * scale, seed=key, detail=f"gap {gap:.3e}")


@cache
def _creation_ladder(L, tol):
    # The defect ladder of fock_creation(2, L), which every rotated
    # double sum of it must reproduce on a summand.
    single = models.fock_creation(2, L)
    return defect_sequence(single, single.h + 1, tol).deltas


def _reducing_restriction_sample(rec, i, key, rng, tol):
    L = 2 + (i % 2)
    single = models.fock_creation(2, L)
    double = direct_sum(single, single)
    frame = models.haar_unitary(double.h, rng)
    T = OperatorTuple(
        tuple(frame @ op @ frame.conj().T for op in double.ops),
        label="rotated double creation tuple")
    summand = Subspace(double.h, frame[:, :single.h], tol)
    leak = _leak(summand, [a for op in T.ops for a in (op, op.conj().T)])
    rec.check("summand subspace verifies reducing", leak <= 1e-9,
              seed=key, detail=f"leak {leak:.3e}")
    restriction = compress(T, summand)
    rep = defect_sequence(restriction, restriction.h + 1, tol)
    rec.check("restriction reproduces the summand defect ladder",
              rep.deltas == _creation_ladder(L, tol), seed=key,
              detail=f"{rep.deltas}")
    rec.check("restriction meets the growth bound with equality",
              is_maximal_noncommutative(restriction, None, tol),
              seed=key)
    rec.check("rotated double sum meets the growth bound with equality",
              is_maximal_noncommutative(T, None, tol), seed=key)


def _purity_inheritance_sample(rec, i, key, rng, tol):
    family = i % 3
    if family == 0:
        T = _draw_compression(rng)
        what = "co-invariant compression"
    elif family == 1:
        d = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        base = models.fock_creation(d, L)
        words = models.fock_basis(d, L)
        if int(rng.integers(0, 2)):
            j = int(rng.integers(1, d + 1))
            keep = [p for p, w in enumerate(words)
                    if len(w) >= 1 and w[-1] == j]
        else:
            k = int(rng.integers(1, L + 1))
            keep = [p for p, w in enumerate(words) if len(w) >= k]
        sub = coordinate_subspace(base.h, keep, tol)
        rec.check("restriction subspace verifies invariant",
                  _leak(sub, base.ops) <= 1e-10, seed=key)
        T = compress(base, sub)
        what = "invariant restriction"
    else:
        base = direct_sum(models.fock_creation(2, 2),
                          models.symmetric_fock_shift(2, 3))
        gens_mat = (rng.standard_normal((base.h, 2))
                    + 1j * rng.standard_normal((base.h, 2)))
        hull = models.coinvariant_hull(base, gens_mat, tol)
        T = compress(base, hull)
        what = "co-invariant compression of a mixed sum"
    rec.check("compression stays contractive",
              is_contractive(T, tol), seed=key, detail=what)
    verdict = purity(T, tol=tol)
    rec.check("compression inherits purity",
              verdict.status is Purity.PURE, seed=key,
              detail=f"{what}: {verdict.status}")


def _irreducible_purity_fixtures(rec, tol):
    fixtures = (
        ("creation d=2", models.fock_creation(2, 3)),
        ("creation d=3", models.fock_creation(3, 2)),
        ("symmetric shift d=2", models.symmetric_fock_shift(2, 4)),
        ("symmetric shift d=3", models.symmetric_fock_shift(3, 3)),
    )
    for label, T in fixtures:
        rep = classify(T, tol)
        rec.check(f"{label} is irreducible with positive defect",
                  bool(rep.irreducible) and rep.delta_1 >= 1,
                  detail=f"commutant dimension {rep.commutant_dim}")
        rec.check(f"{label} decays to zero",
                  rep.purity.status is Purity.PURE,
                  detail=str(rep.purity.status))


def _irreducible_purity_sample(rec, i, key, rng, tol):
    d = int(rng.integers(2, 4))
    h = int(rng.integers(2, 6))
    defect_rank = int(rng.integers(1, min(3, h) + 1))
    T = models.random_contractive(d, h, defect_rank, rng)
    try:
        rep = classify(T, tol)
    except ConsistencyError as exc:
        rec.check("classification is internally consistent", False,
                  seed=key, detail=str(exc))
        rec.check("irreducible with defect verifies pure", False,
                  seed=key, detail=str(exc))
        return
    rec.check("classification is internally consistent", True, seed=key)
    if rep.irreducible and rep.delta_1 > 0:
        rec.check("irreducible with defect verifies pure",
                  rep.purity.status is Purity.PURE, seed=key,
                  detail=str(rep.purity.status))
    else:
        rec.check("irreducible with defect verifies pure", True,
                  seed=key,
                  detail=f"vacuous: commutant dimension {rep.commutant_dim}")


def _compressed_shift_fixtures(rec, tol):
    top = 5
    shift = models.symmetric_fock_shift(2, top)
    basis = models.monomial_basis(2, top)
    keep = [p for p, alpha in enumerate(basis) if alpha[0] >= 1]
    sub = coordinate_subspace(shift.h, keep, tol)
    rec.check("first-variable multiples form an invariant subspace",
              _leak(sub, shift.ops) <= 1e-10)
    rec.check("ambient shift keeps a rank-one defect",
              defect_dimension(shift, 1, tol) == 1)

    restriction = compress(shift, sub)
    d1 = defect_operator(restriction, 1, tol)
    off = d1 - np.diag(np.diag(d1))
    rec.check("restricted defect operator is diagonal",
              float(np.abs(off).max()) <= 1e-10)

    kept = [basis[p] for p in keep]
    diag = np.real(np.diag(d1))
    harmonic = True
    for pos, alpha in enumerate(kept):
        degree = alpha[0] + alpha[1]
        want = 1.0 / degree if alpha[0] == 1 else 0.0
        if abs(diag[pos] - want) > 1e-9:
            harmonic = False
    rec.check("diagonal defect values follow the harmonic pattern", harmonic)

    interior = [q for q, alpha in enumerate(kept)
                if alpha[0] + alpha[1] < top]
    inner_rank = numerical_rank(d1[np.ix_(interior, interior)], tol)
    full_rank = numerical_rank(d1, tol)
    rec.check("interior defect rank is at least two", inner_rank >= 2,
              detail=f"interior rank {inner_rank}")
    rec.check("interior defect rank matches the harmonic count",
              inner_rank == top - 1, detail=f"interior rank {inner_rank}")
    rec.note(f"restricted shift defect rank: full {full_rank}, interior "
             f"{inner_rank}; the ambient tuple has rank one")


_SUITES = {
    "models": ("integer-exact fixture checks for the bundled model tuples",
               _models_fixtures, None),
    "lemma21": ("defect dimensions never decrease and obey the geometric bound",
                None, _monotone_bound_sample),
    "cor23": ("defect spaces coincide with accumulated word images of the first",
              None, _word_span_sample),
    "thm24": ("a repeated defect dimension stays fixed forever after",
              None, _stabilization_sample),
    "thm27": ("left and right defect ranks of power rows agree exactly when "
              "kernel dimensions do",
              None, _rank_symmetry_sample),
    "lemma25": ("pure tuples grow strictly until they fill the space",
                None, _pure_growth_sample),
    "lemma26": ("rank-one defect with pure decay gains one dimension per step",
                _unit_defect_fixtures, _unit_defect_sample),
    "product-bounds": ("product defects obey the two-sided factor bounds",
                       None, _product_bound_sample),
    "lemma34": ("restrictions to reducing summands keep the defect ladder "
                "extremal",
                None, _reducing_restriction_sample),
    "lemma51": ("invariant restrictions and co-invariant compressions of pure "
                "tuples stay pure",
                None, _purity_inheritance_sample),
    "lemma53": ("irreducible tuples with nonzero defect decay to zero",
                _irreducible_purity_fixtures, _irreducible_purity_sample),
    "thm44": ("a shift-invariant compression whose defect rank jumps above one",
              _compressed_shift_fixtures, None),
}

SUITE_NAMES = tuple(_SUITES)


def suite_descriptions():
    """Mapping of suite token to its one-line description."""
    return {name: desc for name, (desc, _, _) in _SUITES.items()}


def expand_suite_names(tokens):
    """Resolve suite tokens, expanding ``all`` and normalizing the order.

    The result always follows the canonical ``SUITE_NAMES`` order with
    duplicates removed, so reports are stable no matter how the request
    was spelled.
    """
    requested = set()
    for token in tokens:
        if token == "all":
            requested.update(SUITE_NAMES)
        elif token in _SUITES:
            requested.add(token)
        else:
            raise ArgumentError(
                f"unknown suite {token!r}; choose from "
                f"{', '.join(SUITE_NAMES)} or all"
            )
    return [name for name in SUITE_NAMES if name in requested]


def run_suite(name, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=None):
    """Run one suite and return its SuiteResult.

    ``samples`` scales the random ensembles; fixture-only suites ignore
    it.  ``seed`` is the master seed of the reproducibility contract in
    the module docstring.
    """
    if name not in _SUITES:
        raise ArgumentError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    _require_integer(samples, "sample count", 1)
    _require_integer(seed, "seed", 0)
    tol = DEFAULT_TOL if tol is None else tol
    description, fixtures, sample = _SUITES[name]
    rec = _Recorder()
    if fixtures is not None:
        fixtures(rec, tol)
    if sample is not None:
        salt = SUITE_NAMES.index(name)
        for i in range(samples):
            key = (seed, salt, i)
            try:
                sample(rec, i, key, np.random.default_rng(key), tol)
            except ConsistencyError as exc:
                rec.check("no internal consistency violation", False,
                          seed=key, detail=str(exc))
    return SuiteResult(name, description, samples, seed, rec.checks,
                       rec.passes, rec.failures, rec.first_failure,
                       tuple(rec.notes))


def run_suites(names, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=None):
    """Run the named suites in canonical order; ``all`` expands."""
    return [run_suite(name, samples, seed, tol)
            for name in expand_suite_names(names)]
