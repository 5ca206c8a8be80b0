"""Version 1 tuple files for the format tests.

``data/v1_real.json`` and ``data/v1_complex.json`` were written by the
version 1 writer and are kept byte for byte, so every release must read
them to the tuples below.  ``v1_payload`` builds the same version 1
object for any tuple; ``tests/test_io_cli.py`` checks that it reproduces
both files exactly.  ``overflowing_pair`` builds a pair whose entries
lie near the float64 limit, for the overflow refusals.
"""

from pathlib import Path

import numpy as np

from defectseq.tuples import OperatorTuple

DATA = Path(__file__).resolve().parent / "data"
V1_META = {"note": "written by the v1 writer"}


def v1_real_tuple():
    """The float64 tuple stored in ``data/v1_real.json``."""
    return OperatorTuple((
        np.array([[0.1, -0.0, 0.0], [1 / 3, 0.0, 0.0], [0.0, 5e-324, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                  [0.7071067811865476, 0.0, -0.25]]),
    ), label="v1 real fixture")


def v1_complex_tuple():
    """The complex128 tuple stored in ``data/v1_complex.json``.

    Its (0, 0) entry is ``complex(0.25, -0.0)``.
    """
    m = np.array([[complex(0.25, -0.0), 0.5j], [1 / 3 + 1j / 7, 0.0]])
    return OperatorTuple((m,), label="v1 complex fixture")


V1_FILES = {
    "v1_real.json": v1_real_tuple,
    "v1_complex.json": v1_complex_tuple,
}


def v1_payload(T, meta=None):
    """The version 1 object for ``T``: entries as nested [re, im] pairs."""
    merged = dict(meta) if meta is not None else {}
    if T.label and "label" not in merged:
        merged["label"] = T.label
    stacked = np.stack([np.stack([op.real, op.imag], axis=-1) for op in T.ops])
    return {
        "format": "defectseq-tuple",
        "version": 1,
        "d": T.d,
        "dim": T.h,
        "ops": stacked.tolist(),
        "meta": merged,
    }


def same_bits(S, T):
    """True when two tuples have one dtype and bit-identical entries."""
    return (S.dtype == T.dtype and S.d == T.d and S.h == T.h
            and all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
                    for x, y in zip(S.ops, T.ops)))


def overflowing_pair(h, m):
    """(T_1, T_2) on C^h: a row of T_1 along a column of T_2, scale m.

    cp(I) = T_1 T_1* + T_2 T_2* has the entries m and 2 m, finite for m
    near 3e307, but its largest eigenvalue, about h m, overflows, and at
    m = 3.1e307 from h = 36 on so does the entry sqrt(h) m of T_1 T_2.
    """
    t1, t2 = np.zeros((2, h, h))
    t1[0, :] = np.sqrt(m / h)
    t2[:, 1] = np.sqrt(m)
    return OperatorTuple((t1, t2))
