#!/usr/bin/env python3
"""defectseq benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload {ladder,classify,verify} \\
        --seed N --seconds S --trace {0,1}

One client calls ``defectseq.cli.main(argv)`` in-process, one call at a
time, with stdout captured, over the workload's fixed batch (see
``workloads.py``) until S seconds have passed.  Every call's exit code
and ``--report`` output are checked.  After each call, outside its
time, fixed numpy computations (``reference.py``) run for a fifth of
the call's time; ``wall_ref`` and ``op_p50_ref`` are the batch and call
times divided by the mean reference time of their batch, which cancels
the host's changes of speed.  Set-up (importing numpy and the program,
building the models and writing the tuple files) runs in fresh child
processes, at least three times and for at least three seconds; the
median is ``setup_s``, in seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced and traced batches in pairs and prints per-layer metrics from spans
recorded around the program's public functions (``tracer.py``); those
are given per pass, i.e. per one set-up plus one batch.  The last
stdout line is the JSON result; the environment, the raw samples and
(traced) the spans are written under ``.perfbench_out/``.
"""

import os

# One BLAS thread, set before numpy loads; the set-up children inherit
# it.  On a 2-core machine two threads made one h = 511 ladder spread
# 1.25-2.37 s against 1.59-1.87 s with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("ladder", "classify", "verify")
# Set-up repeats until both floors are met, so a sub-second set-up gets
# enough repetitions for a steady median.  The ladder set-up takes about
# 6 s, so it runs three times.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 20
SETUP_TIMEOUT_S = 150
# The reference computations run after each call for this share of its
# time, so they sample the host as evenly in time as the calls do.
REFERENCE_SHARE = 0.2
# The tail percentile needs at least this many traced calls: the
# highest one with ten calls beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Suite tokens of ``defectseq verify --suite all``, in canonical order.
SUITE_TOKENS = ("models", "lemma21", "cor23", "thm24", "thm27", "lemma25",
                "lemma26", "product-bounds", "lemma34", "lemma51", "lemma53",
                "thm44")
MODEL_CONSTRUCTORS = (
    "fock_creation", "symmetric_fock_shift", "symmetric_shift_via_compression",
    "right_creation_compression", "finite_phi_compression",
    "pure_nonmaximal_example", "scalar_spherical_tuple", "spherical_shift_sum",
    "random_contractive", "random_coinvariant_compression",
)
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "per_op": "calls/op",
    "gflop_computed": "GFLOP",
    "iterations": "count",
    "unknowns": "count",
    "bytes": "B",
}
LAYER_STATS = (
    [("tuples.apply_cp_map", s)
     for s in ("calls", "self_s", "per_op", "gflop_computed")]
    + [("linalg.numerical_rank", s) for s in ("calls", "self_s", "per_op")]
    + [("defect.contractivity_margin", s) for s in ("calls", "per_op")]
    + [("tuples.is_commuting", s) for s in ("calls", "per_op")]
    + [("classify.maximality_noncommutative", "self_s"),
       ("classify.maximality_commuting", "self_s"),
       ("defect.defect_sequence", "self_s")]
    + [("classify.purity", s)
       for s in ("calls", "self_s", "total_s", "iterations")]
    + [("classify.commutant_dimension", s)
       for s in ("calls", "self_s", "total_s", "unknowns")]
    + [(f"io.{name}", s) for name in ("read_tuple", "write_tuple")
       for s in ("self_s", "total_s", "bytes")]
    + [("io.tuple_to_payload", "self_s"), ("io.report_json", "self_s"),
       ("io.write_report", "self_s")]
    + [(f"models.{name}", "self_s") for name in MODEL_CONSTRUCTORS]
    + [("linalg.orthonormal_range", "self_s"),
       ("defect.defect_space_via_words", "self_s"),
       ("defect.rank_symmetry_check", "self_s")]
    + [(f"suites.run_suite.{token}", s)
       for token in SUITE_TOKENS for s in ("self_s", "total_s")]
    + [("cli.main", "self_s")]
)
# Counted over the batches only: the set-up's tuple files go through
# write_report too and would swamp the CLI's --report writes.
BATCH_ONLY = {"io.write_report"}
PER_LAYER_EXTRA = {
    "cli.main.tail_ms": "ms",
    "cli.main.tail_pct": "%",
    "cli.main.tail_samples": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units():
    """Metric name -> unit for every per-layer metric, in report order."""
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stat in LAYER_STATS}
    units.update(PER_LAYER_EXTRA)
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---- environment record ---------------------------------------------------

def _git_commit():
    # The benchmark may run from an exported tree with no .git at all.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _blas_threads():
    # Ask the loaded OpenBLAS itself, which confirms the pin took effect.
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---- set-up and the closed loop -------------------------------------------

def prepare(workload, seed, out, trace):
    """Run one set-up in a fresh process; return its parsed result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload, str(seed),
         str(out), str(trace)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_program():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import defectseq.cli

    origin = Path(defectseq.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"defectseq imported from {origin}, not {SRC}")
    return defectseq.cli


def call(cli, op):
    """One timed CLI call; return (seconds, failure message or None)."""
    with contextlib.suppress(FileNotFoundError):
        op.report.unlink()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed call, not a dead run
        return time.perf_counter() - start, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {err.getvalue().strip()}"
    try:
        op.check(json.loads(op.report.read_text()))
    except (workloads.CheckFailed, OSError, ValueError, KeyError,
            TypeError) as exc:
        return elapsed, f"check failed: {exc}"
    return elapsed, None


def run_batch(cli, ops, tr, batch, host_ref):
    """Run the batch once, traced by ``tr`` unless it is None.

    After each call, and outside its time, the reference computations
    ``host_ref`` run for at least REFERENCE_SHARE of the call's time.
    Returns (wall seconds, latencies, reference samples, failures).
    """
    gc.collect()
    latencies = []
    refs = []
    failures = []
    if tr is not None:
        tr.install()
    try:
        for op in ops:
            if tr is not None:
                tr.op = f"{batch}/{op.label}"
            elapsed, failure = call(cli, op)
            latencies.append(elapsed)
            spent = 0.0
            while True:
                refs.append(host_ref.sample())
                spent += sum(refs[-1].values())
                if spent >= REFERENCE_SHARE * elapsed:
                    break
            if failure is not None:
                failures.append(f"{op.label} (batch {batch}): {failure}")
    finally:
        if tr is not None:
            tr.uninstall()
    return sum(latencies), latencies, refs, failures


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); needs more than
    TAIL_BEYOND samples, which the traced loop guarantees.
    """
    n = len(samples)
    idx = n - TAIL_BEYOND - 1
    return sorted(samples)[idx], 100.0 * (idx + 1) / n, n


# ---- metrics ----------------------------------------------------------------

def reference_seconds(samples):
    """Mean time of one reference sample (all kinds) over ``samples``."""
    return statistics.fmean(sum(s.values()) for s in samples)


def end_to_end(setups, walls, latencies, batch_refs, attempted, failed):
    """The gated metrics.  Each batch's wall and call times are divided
    by the mean reference time measured during that batch.

    ``wall_ref`` is the mean over batches, not the median: a run holds
    only two to five batches, and over ten 20 s runs on a shared 2-vCPU
    Xeon host the mean of their ratios spread 0.04-0.09 against
    0.06-0.12 for the median.
    """
    per_batch = len(latencies) // len(walls)
    ref = [reference_seconds(samples) for samples in batch_refs]
    values = {
        "wall_ref": statistics.fmean(w / r for w, r in zip(walls, ref)),
        "op_p50_ref": statistics.median(
            latency / ref[k // per_batch]
            for k, latency in enumerate(latencies)),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(setups, spans, traced_batches, ops_per_batch, walls_untraced,
              walls_traced, traced_latencies):
    """Per-pass layer numbers: set-up spans / reps + batch spans / batches."""
    setup_stats = {}
    for setup in setups:
        for name, rec in tracer.aggregate(setup["spans"]).items():
            acc = setup_stats.setdefault(name, {})
            for key, value in rec.items():
                acc[key] = acc.get(key, 0) + value
    batch_stats = tracer.aggregate(spans)

    def stat(span, key):
        batch_value = batch_stats.get(span, {}).get(
            "calls" if key == "per_op" else key, 0)
        if key == "per_op":
            return batch_value / (traced_batches * ops_per_batch)
        if span in BATCH_ONLY:
            return batch_value / traced_batches
        return (setup_stats.get(span, {}).get(key, 0) / len(setups)
                + batch_value / traced_batches)

    units = per_layer_units()
    values = {f"{span}.{key}": stat(span, key) for span, key in LAYER_STATS}
    tail_ms, tail_pct, tail_n = tail(traced_latencies)
    values["cli.main.tail_ms"] = 1e3 * tail_ms
    values["cli.main.tail_pct"] = tail_pct
    values["cli.main.tail_samples"] = tail_n
    values["trace.overhead_ratio"] = statistics.median(
        traced / untraced
        for untraced, traced in zip(walls_untraced, walls_traced))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_op_breakdown(spans):
    """Span stats grouped by op label (batch index dropped)."""
    labels = sorted({span[4].split("/", 1)[1] for span in spans})
    return {label: tracer.aggregate(
                spans, select=lambda op, label=label: op.endswith("/" + label))
            for label in labels}


def write_spans(path, setups, spans):
    # Span parents index into their own list, so each list is written
    # as its own section.
    with open(path, "w") as fh:
        for k, setup in enumerate(setups):
            fh.write(json.dumps({"section": f"setup-{k}"}) + "\n")
            for span in setup["spans"]:
                fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"section": "batches"}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "defectseq" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'defectseq'}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        while len(setups) < SETUP_MAX_REPS and (
                len(setups) < SETUP_MIN_REPS
                or sum(s["setup_s"] for s in setups) < SETUP_MIN_SECONDS):
            if setups:
                shutil.rmtree(inputs)
            inputs = workdir / f"setup-{len(setups)}"
            setups.append(prepare(args.workload, args.seed, inputs,
                                  args.trace))
        cli = load_program()
        self_test_ok, self_test_counts = tracer.self_test()
        reports = workdir / "reports"
        reports.mkdir()
        ops = workloads.operations(args.workload, args.seed, inputs, reports)

        walls, walls_traced, latencies, traced_latencies = [], [], [], []
        refs = []
        failures = []
        tr = tracer.Tracer() if args.trace else None
        host_ref = reference.Reference()
        start = time.perf_counter()
        batch = 0
        while True:
            # A traced run alternates which batch of each untraced/traced
            # pair goes first, so warm-up and drift favour neither side
            # of trace.overhead_ratio.
            if tr is None:
                pair = (None,)
            else:
                pair = (None, tr) if len(walls) % 2 == 0 else (tr, None)
            for kind in pair:
                wall, lat, ref, fails = run_batch(cli, ops, kind, batch,
                                                  host_ref)
                failures.extend(fails)
                batch += 1
                if kind is None:
                    walls.append(wall)
                    latencies.extend(lat)
                    refs.append(ref)
                else:
                    walls_traced.append(wall)
                    traced_latencies.extend(lat)
            if (time.perf_counter() - start >= args.seconds
                    and len(traced_latencies) >= (TAIL_BEYOND + 1 if tr else 0)):
                break

        env = environment(args)
        attempted = len(latencies) + len(traced_latencies)
        if tr is None:
            metrics = end_to_end(setups, walls, latencies, refs, attempted,
                                 len(failures))
        else:
            metrics = per_layer(setups, tr.spans, len(walls_traced), len(ops),
                                walls, walls_traced, traced_latencies)
        # The same run in seconds, for reading only: these move with the
        # host's speed, which the gated metrics divide out.
        seconds = {
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "reference_ms": 1e3 * statistics.median(
                reference_seconds(samples) for samples in refs),
        }
        OUT.mkdir(exist_ok=True)
        record = {
            "env": env,
            "self_test": {"passed": self_test_ok, "counts": self_test_counts},
            "metrics": metrics,
            "seconds": seconds,
            "samples": {"batch_walls_s": walls,
                        "batch_walls_traced_s": walls_traced,
                        "call_latencies_s": latencies,
                        "reference_s": refs,
                        "setup_s": [s["setup_s"] for s in setups]},
            "failures": failures,
        }
        if tr is not None:
            record["per_op"] = per_op_breakdown(tr.spans)
            write_spans(OUT / f"{args.workload}.spans.jsonl", setups, tr.spans)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env))
    print(f"tracer self-test: {'passed' if self_test_ok else 'FAILED'} "
          f"{self_test_counts}")
    print(f"batches: {len(walls)} untraced, {len(walls_traced)} traced; "
          f"{attempted} calls, {len(failures)} failed")
    for failure in failures:
        print(f"FAILED {failure}")
    print("in seconds: " + ", ".join(f"{name} = {value:.6g}"
                                     for name, value in seconds.items()))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": self_test_ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
