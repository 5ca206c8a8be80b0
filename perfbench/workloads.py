"""The benchmark's three workloads: inputs, CLI calls and output checks.

Each workload is a fixed batch of ``defectseq`` CLI calls.  The workload
seed generates the random tuples and the ``verify`` master seeds; the
program receives only the generated tuple files and argv.

* ``ladder``   ``defect`` on flagship ladders with h = 128..511 plus one
  random draw.  Time goes into the dense cp-map step, the rank SVD and
  reading the large tuple files; the commutant never runs.  A wide
  ladder (Delta doubles) sits next to a long one (Delta grows by 1).
* ``classify`` ``classify`` on small flagships (h <= 31), a NotPure
  spherical sum, a random draw and a damped row coisometry.  The
  2d*h^2 x h^2 commutant SVD dominates; the damped tuple spends the
  whole purity budget on a tiny h.  No large-h kernel runs.
* ``verify``   ``verify --suite all`` at several master seeds: hundreds
  of tuples with h <= 8 and thousands of small calls, led by the
  ``lemma53`` and ``models`` suites through ``classify``.  A change that
  speeds up large h but adds per-call cost shows here.

Nothing here imports numpy or the program at module level: the set-up
child times those imports itself.
"""

VERIFY_CALLS = 4
N_MAX = 200  # above every ladder length in the batch (the longest is 128)
SPHERICAL_K = 3


class CheckFailed(Exception):
    """A CLI call gave an output that contradicts a known fact."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _damped(pkg, seed):
    # 0.999 times a row coisometry: cp^n(I) = 0.998001^n I decays too
    # slowly for the default purity budget, while Delta_1 = h.
    row = pkg.models.random_contractive(2, 8, 0, seed)
    return pkg.OperatorTuple(tuple(0.999 * op for op in row.ops),
                             label="damped-coisometry(d=2, h=8)")


def tuple_builders(workload, seed):
    """Label -> builder(pkg) for the tuple files the workload reads.

    ``pkg`` carries the imported ``models`` module and ``OperatorTuple``.
    Each random draw gets its own seed tuple (workload seed, index).
    """
    if workload == "ladder":
        return {
            "fock-2-8": lambda pkg: pkg.models.fock_creation(2, 8),
            "fock-2-7": lambda pkg: pkg.models.fock_creation(2, 7),
            "dshift-2-24": lambda pkg: pkg.models.symmetric_fock_shift(2, 24),
            "fock-1-127": lambda pkg: pkg.models.fock_creation(1, 127),
            "random-2-300": lambda pkg: pkg.models.random_contractive(
                2, 300, 1, (seed, 0)),
        }
    if workload == "classify":
        weights = (2 ** -0.5, 2 ** -0.5)
        return {
            "fock-2-4": lambda pkg: pkg.models.fock_creation(2, 4),
            "dshift-2-6": lambda pkg: pkg.models.symmetric_fock_shift(2, 6),
            "spherical-sum": lambda pkg: pkg.models.spherical_shift_sum(
                2, 5, weights, SPHERICAL_K),
            "random-3-24": lambda pkg: pkg.models.random_contractive(
                3, 24, 2, (seed, 1)),
            "damped-2-8": lambda pkg: _damped(pkg, (seed, 2)),
        }
    if workload == "verify":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# ---- checks on the parsed --report payload --------------------------------

def _exact_ladder(expected):
    def check(report):
        res = report["result"]
        _require(res["deltas"] == expected,
                 f"deltas {res['deltas']} != {expected}")
        _require(res["reached_full"], "ladder did not reach the full space")
    return check


def _random_ladder(report):
    # lemma21: monotone and under the geometric bound; thm24: a repeated
    # value is final, so the ladder ends stabilized or full.
    res = report["result"]
    deltas = res["deltas"]
    h = report["input"]["dim"]
    _require(deltas[0] == 1, f"Delta_1 = {deltas[0]}, drawn with defect rank 1")
    _require(all(a <= b for a, b in zip(deltas, deltas[1:])),
             f"ladder decreases: {deltas}")
    _require(all(delta <= (2 ** n - 1) * deltas[0]
                 for n, delta in enumerate(deltas, start=1)),
             f"ladder exceeds the geometric bound: {deltas}")
    _require(all(res["bound_ok_noncomm"]), "report flags a bound violation")
    if res["reached_full"]:
        _require(deltas[-1] == h, f"reached_full with Delta = {deltas[-1]}")
    else:
        _require(res["stabilized_at"] is not None and len(deltas) >= 2
                 and deltas[-1] == deltas[-2],
                 f"ladder neither full nor stabilized: {deltas}")


def _verdicts(delta_1, commuting, maximal_noncomm, maximal_comm,
              commutant_dim, purity):
    def check(report):
        res = report["result"]
        _require(res["contractive"], "flagship reported non-contractive")
        observed = {
            "delta_1": res["delta_1"],
            "commuting": res["commuting"],
            "maximal_noncomm": res["maximal_noncomm"]["maximal"],
            "maximal_comm": None if res["maximal_comm"] is None
            else res["maximal_comm"]["maximal"],
            "commutant_dim": res["commutant_dim"],
            "irreducible": res["irreducible"],
            "purity": res["purity"]["status"],
        }
        expected = {
            "delta_1": delta_1,
            "commuting": commuting,
            "maximal_noncomm": maximal_noncomm,
            "maximal_comm": maximal_comm,
            "commutant_dim": commutant_dim,
            "irreducible": commutant_dim == 1,
            "purity": purity,
        }
        _require(observed == expected, f"verdicts {observed} != {expected}")
    return check


def _spherical_sum(report):
    # The shift block is irreducible and nilpotent, the scalar block is
    # lambda * I_k, so the commutant is C + M_k and the cp-map iterates
    # converge to the projection onto the scalar block.
    _verdicts(1, True, False, True, 1 + SPHERICAL_K ** 2, "NotPure")(report)
    purity = report["result"]["purity"]
    _require(purity["limit_projection_gap"] <= 1e-8,
             f"limit is no projection: gap {purity['limit_projection_gap']}")
    _require(abs(purity["limit_trace"] - SPHERICAL_K) <= 1e-8,
             f"limit has trace {purity['limit_trace']}, expected {SPHERICAL_K}")


def _random_classify(report):
    res = report["result"]
    _require(res["contractive"], "random draw reported non-contractive")
    _require(res["delta_1"] == 2, f"Delta_1 = {res['delta_1']}, drawn with 2")
    _require(res["commutant_dim"] >= 1, "commutant misses the identity")
    _require(not (res["irreducible"] and res["purity"]["status"] == "NotPure"),
             "irreducible tuple with positive defect reported NotPure")


def _damped_classify(report):
    res = report["result"]
    _require(res["contractive"], "damped tuple reported non-contractive")
    _require(res["delta_1"] == 8, f"Delta_1 = {res['delta_1']}, expected h = 8")
    # Pure is the truth; Undecided is the honest answer within the budget.
    _require(res["purity"]["status"] in ("Undecided", "Pure"),
             f"damped tuple reported {res['purity']['status']}")


def _all_passed(report):
    _require(report["all_passed"] is True, "verify report: not all_passed")


def _triangular(n):
    return n * (n + 1) // 2


CHECKS = {
    "ladder": {
        "fock-2-8": _exact_ladder([2 ** n - 1 for n in range(1, 10)]),
        "fock-2-7": _exact_ladder([2 ** n - 1 for n in range(1, 9)]),
        "dshift-2-24": _exact_ladder([_triangular(n) for n in range(1, 26)]),
        "fock-1-127": _exact_ladder(list(range(1, 129))),
        "random-2-300": _random_ladder,
    },
    "classify": {
        "fock-2-4": _verdicts(1, False, True, None, 1, "Pure"),
        "dshift-2-6": _verdicts(1, True, False, True, 1, "Pure"),
        "spherical-sum": _spherical_sum,
        "random-3-24": _random_classify,
        "damped-2-8": _damped_classify,
    },
}


class Op:
    """One CLI call: argv, the report it writes and the check on it."""

    def __init__(self, label, argv, report, check):
        self.label = label
        self.argv = argv
        self.report = report
        self.check = check


def operations(workload, seed, inputs, reports):
    """The workload's fixed batch of CLI calls, in order.

    ``inputs`` is the directory holding the tuple files written at
    set-up; ``reports`` receives each call's ``--report`` file.
    """
    ops = []
    if workload == "verify":
        for j in range(VERIFY_CALLS):
            master = VERIFY_CALLS * seed + j
            report = reports / f"verify-{j}.json"
            ops.append(Op(f"verify-{j}",
                          ["verify", "--suite", "all", "--samples", "40",
                           "--seed", str(master), "--report", str(report)],
                          report, _all_passed))
        return ops
    for label in tuple_builders(workload, seed):
        report = reports / f"{label}.json"
        path = str(inputs / f"{label}.json")
        if workload == "ladder":
            argv = ["defect", path, "--n-max", str(N_MAX)]
        else:
            argv = ["classify", path]
        ops.append(Op(label, argv + ["--report", str(report)], report,
                      CHECKS[workload][label]))
    return ops
