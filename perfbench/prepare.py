"""Benchmark set-up in a fresh process: import, build models, write files.

Usage: python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR TRACE

Times everything a CLI user pays before the first call: importing numpy
and ``defectseq``, constructing the workload's model tuples and writing
them as tuple files into OUT_DIR.  Prints one JSON line with
``setup_s`` and, when TRACE is 1, the spans recorded around the
program's public functions.  ``run.py`` launches it with the BLAS
thread count already pinned in the environment.
"""

import json
import sys
import time
import types
from pathlib import Path

import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    workload, seed, out, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import defectseq.cli  # noqa: F401
    from defectseq import io, models
    from defectseq.tuples import OperatorTuple

    spans = []
    tr = None
    if trace == "1":
        tr = tracer.Tracer()
        tr.op = "setup"
        tr.install()
    try:
        pkg = types.SimpleNamespace(models=models, OperatorTuple=OperatorTuple)
        out.mkdir(parents=True, exist_ok=True)
        for label, build in workloads.tuple_builders(workload, seed).items():
            T = build(pkg)
            io.write_tuple(T, out / f"{label}.json")
    finally:
        if tr is not None:
            tr.uninstall()
            spans = tr.spans
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "spans": spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
