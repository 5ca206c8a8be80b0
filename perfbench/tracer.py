"""Outside-in span tracer for the defectseq benchmark.

The tracer never edits the program.  ``Tracer.install`` replaces every
public function (the ``__all__`` entries defined in the module itself)
of the traced modules with a wrapper that records a span, at every
module binding inside the package: the modules import each other's
names directly (``from .tuples import apply_cp_map``), so patching only
the defining module would miss most calls.  ``Tracer.uninstall`` puts
every original binding back.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the identifier of
the benchmark operation that caused it and ``counts`` a dict of work
counters computed at the boundary, or None.  Spans stay in memory until
the caller writes them out.

Run this file directly to execute the self-test against its exact
fixture.
"""

import functools
import os
import sys
import time
import types

PACKAGE = "defectseq"
TRACED_MODULES = ("tuples", "linalg", "defect", "classify", "io", "models",
                  "suites", "cli")


def _cp_flops(args, kwargs, result):
    # Dense cost of one cp-map application, sum_i T_i X T_i^*: two complex
    # h x h products per operator, 8 real flops per complex multiply-add.
    T = args[0]
    return {"gflop_computed": 16.0 * T.d * T.h ** 3 / 1e9}


def _purity_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _commutant_unknowns(args, kwargs, result):
    return {"unknowns": args[0].h ** 2}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


COUNTERS = {
    "tuples.apply_cp_map": _cp_flops,
    "classify.purity": _purity_iterations,
    "classify.commutant_dimension": _commutant_unknowns,
    "io.read_tuple": _read_bytes,
    "io.write_tuple": _written_bytes,
}


def _suite_span_name(args, kwargs):
    name = args[0] if args else kwargs["name"]
    return f"suites.run_suite.{name}"


SPAN_NAMERS = {"suites.run_suite": _suite_span_name}


class Tracer:
    """Records spans around the public functions of the traced modules."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        namer = SPAN_NAMERS.get(name)
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if namer is None else namer(args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every binding of every traced public function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def aggregate(spans, select=None):
    """Per span name: calls, total and self seconds, summed counters.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    ``select`` filters spans by their op identifier.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, parent, op, counts) in enumerate(spans):
        if select is not None and not select(op):
            continue
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child[idx]
        for key, value in (counts or {}).items():
            rec[key] = rec.get(key, 0) + value
    return out


# defect_sequence(fock_creation(2, 3), 5) on h = 15: the contractivity
# check applies the cp map once, then the ladder 1, 3, 7, 15 takes four
# steps of one cp map and one rank decision each, stopping at full rank.
SELF_TEST_EXPECTED = {"tuples.apply_cp_map": 5, "linalg.numerical_rank": 4}


def self_test():
    """Trace the exact fixture; return (passed, observed call counts)."""
    models = sys.modules[f"{PACKAGE}.models"]
    defect = sys.modules[f"{PACKAGE}.defect"]
    originals = {name: vars(mod).copy() for name, mod in sys.modules.items()
                 if name.startswith(PACKAGE)}
    T = models.fock_creation(2, 3)
    tracer = Tracer()
    tracer.install()
    try:
        defect.defect_sequence(T, 5)
    finally:
        tracer.uninstall()
    stats = aggregate(tracer.spans)
    observed = {name: stats.get(name, {}).get("calls", 0)
                for name in SELF_TEST_EXPECTED}
    restored = all(vars(sys.modules[name]).get(attr) is value
                   for name, namespace in originals.items()
                   for attr, value in namespace.items())
    return observed == SELF_TEST_EXPECTED and restored, observed


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    __import__(f"{PACKAGE}.cli")
    passed, observed = self_test()
    print(f"tracer self-test {'passed' if passed else 'FAILED'}: {observed} "
          f"(expected {SELF_TEST_EXPECTED})")
    sys.exit(0 if passed else 1)
