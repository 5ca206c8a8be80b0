"""Command-line interface for building, analyzing, and verifying tuples.

Five subcommands cover the workflow end to end:

* ``model``     construct one of the bundled model tuples, write a tuple file
* ``defect``    compute a defect sequence with growth-bound columns
* ``classify``  run the full structural classification
* ``verify``    run named property suites over seeded ensembles
* ``product``   combine two tuple files into their product tuple

Exit codes follow one contract everywhere: 0 means success (and, for
``verify``, that every property passed); 1 means a property failed or
the analyzed tuple was not contractive; 2 means the input could not be
used at all (missing or malformed files, bad parameters).

Output is deterministic: identical inputs, flags, seed, and tool
version produce byte-identical stdout and byte-identical report files.
Reports echo the tolerances and seeds they were produced with.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io, models
from .classify import (
    DEFAULT_EPS_CONV,
    DEFAULT_EPS_PURE,
    DEFAULT_MAX_ITER,
    Purity,
    classify,
)
from .config import VERSION
from .defect import defect_sequence
from .errors import (
    ArgumentError,
    ConsistencyError,
    ContractivityError,
    SizeCapError,
    TupleFormatError,
)
from .linalg import DEFAULT_TOL, RankTolerance
from .suites import DEFAULT_SAMPLES, DEFAULT_SEED, SUITE_NAMES, run_suites
from .suites import suite_descriptions
from .tuples import tuple_product

__all__ = ["build_parser", "main"]

_MODEL_KINDS = (
    "fock",
    "dshift",
    "rj",
    "phi",
    "pure-nonmax",
    "spherical-sum",
    "random",
    "random-coinv",
)


def _tool_stamp():
    return {"name": "defectseq", "version": VERSION}


def _parse_complex(text):
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ArgumentError(
            f"cannot parse {text!r} as a number (use forms like 0.5, -1, 0.6+0.8j)"
        ) from None


def _parse_word(text):
    letters = text.split(".") if "." in text else list(text)
    if not letters:
        raise ArgumentError("empty word in --phi value")
    try:
        return tuple(int(c) for c in letters)
    except ValueError:
        raise ArgumentError(
            f"cannot parse word {text!r}; use digits like 12 or dotted form 1.2"
        ) from None


def _parse_phi_spec(text):
    coeffs = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        word_text, sep, coeff_text = part.partition("=")
        if not sep:
            raise ArgumentError(
                f"phi term {part!r} must look like WORD=COEFF"
            )
        word = _parse_word(word_text.strip())
        coeffs[word] = coeffs.get(word, 0) + _parse_complex(coeff_text)
    if not coeffs:
        raise ArgumentError("--phi value is empty")
    return coeffs


def _parse_lambdas(text):
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ArgumentError("--lambdas value is empty")
    return tuple(_parse_complex(p) for p in parts)


def _need(args, kind, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ArgumentError(f"model {kind} requires --{name}")


def _describe(T, path=None):
    tag = T.label or "(unlabeled)"
    src = f" from {path}" if path is not None else ""
    return f"tuple: {tag}{src}  [d = {T.d}, dim = {T.h}]"


def _cmd_model(args):
    kind = args.kind
    meta = {"generator": kind}
    if kind == "fock":
        _need(args, kind, "d", "levels")
        T = models.fock_creation(args.d, args.levels)
        meta.update(d=args.d, levels=args.levels)
    elif kind == "dshift":
        _need(args, kind, "d", "degree")
        T = models.symmetric_fock_shift(args.d, args.degree)
        meta.update(d=args.d, degree=args.degree)
    elif kind == "rj":
        _need(args, kind, "d", "levels", "j")
        T = models.right_creation_compression(args.d, args.levels, args.j)
        meta.update(d=args.d, levels=args.levels, j=args.j)
    elif kind == "phi":
        _need(args, kind, "d", "levels", "phi")
        T = models.finite_phi_compression(
            args.d, args.levels, _parse_phi_spec(args.phi))
        meta.update(d=args.d, levels=args.levels, phi=args.phi)
    elif kind == "pure-nonmax":
        _need(args, kind, "d", "levels")
        T = models.pure_nonmaximal_example(args.d, args.levels, args.r)
        meta.update(d=args.d, levels=args.levels, r=args.r)
    elif kind == "spherical-sum":
        _need(args, kind, "d", "degree", "lambdas")
        lams = _parse_lambdas(args.lambdas)
        T = models.spherical_shift_sum(args.d, args.degree, lams, args.k)
        meta.update(d=args.d, degree=args.degree, lambdas=args.lambdas,
                    k=args.k)
    elif kind == "random":
        _need(args, kind, "d", "dim", "defect-rank")
        T = models.random_contractive(args.d, args.dim, args.defect_rank,
                                      args.seed)
        meta.update(d=args.d, dim=args.dim, defect_rank=args.defect_rank,
                    seed=args.seed)
    else:  # random-coinv
        _need(args, kind, "d", "levels")
        T = models.random_coinvariant_compression(
            args.d, args.levels, args.generators, args.seed)
        meta.update(d=args.d, levels=args.levels, generators=args.generators,
                    seed=args.seed)
    io.write_tuple(T, args.out, meta)
    print(f"wrote {args.out}")
    print(_describe(T))
    return 0


def _defect_payload(args, T, rep, tol):
    commuting = rep.bounds_comm is not None
    return {
        "format": "defectseq-report",
        "kind": "defect",
        "tool": _tool_stamp(),
        "input": {"path": str(args.input), "label": T.label,
                  "d": T.d, "dim": T.h},
        "flags": {"n_max": args.n_max, "rtol": tol.rtol, "atol": tol.atol},
        "result": {
            "deltas": list(rep.deltas),
            "stabilized_at": rep.stabilized_at,
            "reached_full": rep.reached_full,
            "commuting": commuting,
            "bounds_noncomm": list(rep.bounds_noncomm),
            "bound_ok_noncomm": list(rep.bound_ok_noncomm),
            "bounds_comm": list(rep.bounds_comm) if commuting else None,
            "bound_ok_comm": list(rep.bound_ok_comm) if commuting else None,
        },
    }


def _plot_lines(rep):
    commuting = rep.bounds_comm is not None
    lines = ["n,delta,bound_noncomm,bound_comm"]
    for pos, delta in enumerate(rep.deltas):
        comm = str(rep.bounds_comm[pos]) if commuting else ""
        lines.append(
            f"{pos + 1},{delta},{rep.bounds_noncomm[pos]},{comm}")
    return "\n".join(lines) + "\n"


def _cmd_defect(args):
    T = io.read_tuple(args.input)
    tol = RankTolerance(args.rtol, args.atol)
    rep = defect_sequence(T, args.n_max, tol)
    commuting = rep.bounds_comm is not None

    print(_describe(T, args.input))
    print(f"{'n':>4}  {'delta':>8}  {'bound(free)':>12}  {'bound(commuting)':>17}")
    for pos, delta in enumerate(rep.deltas):
        comm = str(rep.bounds_comm[pos]) if commuting else "-"
        print(f"{pos + 1:>4}  {delta:>8}  {rep.bounds_noncomm[pos]:>12}  "
              f"{comm:>17}")
    if rep.reached_full:
        print(f"reached the full dimension {rep.h} at n = {len(rep.deltas)}")
    elif rep.stabilized_at is not None:
        print(f"stabilized at n = {rep.stabilized_at} "
              f"with delta = {rep.deltas[rep.stabilized_at - 1]}")
    else:
        print(f"no stabilization within n_max = {args.n_max}")

    if args.report:
        io.write_report(_defect_payload(args, T, rep, tol), args.report)
        print(f"report written to {args.report}")
    if args.plot:
        Path(args.plot).write_text(_plot_lines(rep), encoding="utf-8")
        print(f"plot data written to {args.plot}")

    ok = all(rep.bound_ok_noncomm)
    if commuting:
        ok = ok and all(rep.bound_ok_comm)
    if not ok:
        print("growth bound violated; see the bound columns", file=sys.stderr)
        return 1
    return 0


def _purity_payload(verdict):
    out = {
        "status": verdict.status.value,
        "iterations": verdict.iterations,
        "residual_norm": float(verdict.residual_norm),
        "limit_trace": None,
        "limit_projection_gap": None,
    }
    if verdict.limit is not None:
        q = verdict.limit
        out["limit_trace"] = float(np.real(np.trace(q)))
        out["limit_projection_gap"] = float(np.linalg.norm(q @ q - q, 2))
    return out


def _maximality_payload(verdict):
    if verdict is None:
        return None
    return {
        "maximal": verdict.maximal,
        "horizon": verdict.horizon,
        "deltas": list(verdict.deltas),
        "bounds": list(verdict.bounds),
        "failed_at": verdict.failed_at,
    }


def _cmd_classify(args):
    T = io.read_tuple(args.input)
    tol = RankTolerance(args.rtol, args.atol)
    rep = classify(T, tol, max_iter=args.max_iter,
                   eps_pure=args.eps_pure, eps_conv=args.eps_conv)
    margin = rep.contractivity_margin

    payload = {
        "format": "defectseq-report",
        "kind": "classify",
        "tool": _tool_stamp(),
        "input": {"path": str(args.input), "label": T.label,
                  "d": T.d, "dim": T.h},
        "flags": {"rtol": tol.rtol, "atol": tol.atol,
                  "eps_pure": args.eps_pure, "eps_conv": args.eps_conv,
                  "max_iter": args.max_iter},
        "result": {
            "contractive": rep.contractive,
            "contractivity_margin": margin,
            "commuting": rep.commuting,
            "purity": None if rep.purity is None
            else _purity_payload(rep.purity),
            "delta_1": rep.delta_1,
            "maximal_noncomm": _maximality_payload(rep.maximal_noncomm),
            "maximal_comm": _maximality_payload(rep.maximal_comm),
            "commutant_dim": rep.commutant_dim,
            "irreducible": rep.irreducible,
        },
    }

    print(_describe(T, args.input))
    if not rep.contractive:
        print(f"contractive: NO (margin {margin:.3e})")
        print("analysis skipped: the tuple is not contractive")
        if args.report:
            io.write_report(payload, args.report)
            print(f"report written to {args.report}")
        return 1

    print(f"contractive: yes (margin {margin:.3e})")
    print(f"commuting: {'yes' if rep.commuting else 'no'}")
    print(f"purity: {rep.purity.status.value} "
          f"({rep.purity.iterations} iterations, "
          f"residual {rep.purity.residual_norm:.3e})")
    print(f"first defect dimension: {rep.delta_1}")
    nc = rep.maximal_noncomm
    print(f"maximal (free bound): {'yes' if nc.maximal else 'no'} "
          f"(checked to n = {nc.horizon})")
    if rep.maximal_comm is None:
        print("maximal (commuting bound): not applicable")
    else:
        mc = rep.maximal_comm
        print(f"maximal (commuting bound): {'yes' if mc.maximal else 'no'} "
              f"(checked to n = {mc.horizon})")
    print(f"commutant dimension: {rep.commutant_dim}")
    print(f"irreducible: {'yes' if rep.irreducible else 'no'}")

    if args.report:
        io.write_report(payload, args.report)
        print(f"report written to {args.report}")
    return 0


def _suite_payload(res):
    return {
        "name": res.name,
        "description": res.description,
        "samples": res.samples,
        "seed": res.seed,
        "checks": res.checks,
        "passes": res.passes,
        "failures": res.failures,
        "first_failure": res.first_failure,
        "notes": list(res.notes),
        "ok": res.ok,
    }


def _cmd_verify(args):
    tol = RankTolerance(args.rtol, args.atol)
    results = run_suites(args.suite, args.samples, args.seed, tol)

    for res in results:
        status = "pass" if res.ok else "FAIL"
        print(f"{res.name:<16} {res.passes}/{res.checks} checks  {status}")
        if not res.ok and res.first_failure is not None:
            ff = res.first_failure
            where = f" at seed {ff['seed']}" if "seed" in ff else ""
            print(f"  first failure: {ff['check']}{where}")
            if "detail" in ff:
                print(f"  detail: {ff['detail']}")
    failed = sum(1 for res in results if not res.ok)
    print("all suites passed" if failed == 0
          else f"{failed} suite(s) failed")

    if args.report:
        payload = {
            "format": "defectseq-report",
            "kind": "verify",
            "tool": _tool_stamp(),
            "flags": {"samples": args.samples, "seed": args.seed,
                      "rtol": tol.rtol, "atol": tol.atol},
            "suites": [_suite_payload(res) for res in results],
            "all_passed": failed == 0,
        }
        io.write_report(payload, args.report)
        print(f"report written to {args.report}")
    return 0 if failed == 0 else 1


def _cmd_product(args):
    left = io.read_tuple(args.left)
    right = io.read_tuple(args.right)
    prod = tuple_product(left, right)
    meta = {
        "generator": "product",
        "left": left.label or str(args.left),
        "right": right.label or str(args.right),
    }
    io.write_tuple(prod, args.out, meta)
    print(f"wrote {args.out}")
    print(_describe(prod))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="defectseq",
        description="Defect sequences of row-contractive operator tuples: "
                    "model construction, analysis, and property verification.",
    )
    parser.add_argument("--version", action="version",
                        version=f"defectseq {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--rtol", type=float, default=DEFAULT_TOL.rtol,
                           help=f"relative rank threshold "
                                f"(default {DEFAULT_TOL.rtol})")
    tolerance.add_argument("--atol", type=float, default=DEFAULT_TOL.atol,
                           help=f"absolute rank threshold "
                                f"(default {DEFAULT_TOL.atol})")

    model = sub.add_parser(
        "model", help="construct a model tuple and write it to a tuple file")
    model.add_argument("kind", choices=_MODEL_KINDS)
    model.add_argument("--d", type=int,
                       help="alphabet size (number of operators)")
    model.add_argument("--levels", type=int,
                       help="truncation level for word-graded models")
    model.add_argument("--degree", type=int,
                       help="truncation degree for monomial-graded models")
    model.add_argument("--j", type=int,
                       help="letter whose right multiples are removed (rj)")
    model.add_argument("--phi", type=str,
                       help="finite vector as WORD=COEFF terms joined by "
                            "commas, words as digit strings or dotted "
                            "letters, e.g. 1=0.707,2=0.707")
    model.add_argument("--r", type=float, default=0.5,
                       help="contraction factor of the extra coordinate "
                            "(pure-nonmax, default 0.5)")
    model.add_argument("--lambdas", type=str,
                       help="comma-separated unit-vector weights "
                            "(spherical-sum)")
    model.add_argument("--k", type=int, default=1,
                       help="dimension of the scalar summand "
                            "(spherical-sum, default 1)")
    model.add_argument("--dim", type=int,
                       help="space dimension for the random model")
    model.add_argument("--defect-rank", type=int, dest="defect_rank",
                       help="prescribed first defect dimension (random)")
    model.add_argument("--generators", type=int, default=2,
                       help="generating vectors for the random co-invariant "
                            "subspace (default 2)")
    model.add_argument("--seed", type=int, default=0,
                       help="seed for the random models (default 0)")
    model.add_argument("-o", "--out", required=True,
                       help="output tuple file")
    model.set_defaults(func=_cmd_model)

    defect = sub.add_parser(
        "defect", parents=[tolerance],
        help="compute the defect sequence of a tuple file")
    defect.add_argument("input", help="tuple file to analyze")
    defect.add_argument("--n-max", type=int, required=True, dest="n_max",
                        help="largest power to compute")
    defect.add_argument("--report", help="write a JSON report here")
    defect.add_argument("--plot",
                        help="write CSV rows n,delta,bounds for external "
                             "plotting")
    defect.set_defaults(func=_cmd_defect)

    cls = sub.add_parser(
        "classify", parents=[tolerance],
        help="run the full structural classification")
    cls.add_argument("input", help="tuple file to classify")
    cls.add_argument("--eps-pure", type=float, default=DEFAULT_EPS_PURE,
                     dest="eps_pure",
                     help=f"purity norm threshold (default {DEFAULT_EPS_PURE})")
    cls.add_argument("--eps-conv", type=float, default=DEFAULT_EPS_CONV,
                     dest="eps_conv",
                     help=f"relative fixed-point threshold "
                          f"(default {DEFAULT_EPS_CONV})")
    cls.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                     dest="max_iter",
                     help=f"iteration budget (default {DEFAULT_MAX_ITER})")
    cls.add_argument("--report", help="write a JSON report here")
    cls.set_defaults(func=_cmd_classify)

    suite_lines = "\n".join(
        f"  {name:<16} {desc}"
        for name, desc in suite_descriptions().items())
    verify = sub.add_parser(
        "verify", parents=[tolerance],
        help="run property suites over seeded ensembles",
        epilog="suites:\n" + suite_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    verify.add_argument("--suite", action="append", required=True,
                        help="suite token (repeatable); one of "
                             f"{', '.join(SUITE_NAMES)}, or all")
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help=f"ensemble size per suite "
                             f"(default {DEFAULT_SAMPLES})")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default {DEFAULT_SEED})")
    verify.add_argument("--report", help="write a JSON report here")
    verify.set_defaults(func=_cmd_verify)

    product = sub.add_parser(
        "product", help="write the product of two tuple files")
    product.add_argument("left", help="tuple file for the left factor")
    product.add_argument("right", help="tuple file for the right factor")
    product.add_argument("-o", "--out", required=True,
                         help="output tuple file")
    product.set_defaults(func=_cmd_product)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractivityError, ConsistencyError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 1
    except (ArgumentError, SizeCapError, TupleFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
