"""JSON persistence for operator tuples and analysis reports.

A tuple file is a single JSON object.  The writer produces version 2:

    {
      "format": "defectseq-tuple",
      "version": 2,
      "d": 2,
      "dim": 3,
      "dtype": "float64",
      "encoding": "coo",
      "index": "<base64>",
      "values": "<base64>",
      "meta": {"label": "..."}
    }

``dtype`` is the tuple's storage type, ``"float64"`` or
``"complex128"``.  The matrix entries form the C-order stack of shape
``(d, dim, dim)`` and are stored as base64 of little-endian bytes in one
of two encodings:

- ``"dense"``: ``data`` holds all ``d * dim**2`` values;
- ``"coo"``: ``index`` holds strictly increasing int64 flat positions
  into the stack and ``values`` the values there; every other entry is
  zero.

The encoding depends on the data alone.  With ``nnz`` the number of
entries whose bit pattern is not all zeros (so ``-0.0`` and
``complex(0, -0.0)`` count), COO is written when
``nnz * (8 + itemsize) < d * dim**2 * itemsize`` and dense otherwise.
A COO file may not declare ``d`` or ``dim`` above the size cap, nor a
stack of more than ``2 * cap**2`` entries (two cap x cap matrices), since
its length no longer bounds the memory that reading it allocates.

Version 1 files stay valid input.  There ``ops`` holds d matrices, each
a dim x dim nested list of [re, im] number pairs in row-major order.

In both versions ``meta`` is free-form; a string ``label`` inside it
becomes the tuple's label on load.  Serialization is deterministic:
keys are sorted and indentation is fixed, so equal tuples produce
byte-identical files, and reading a file back reproduces every matrix
entry bit for bit, ``-0.0`` included.  Nothing time- or host-dependent
is written.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .config import SIZE_CAP_ENV, size_cap
from .errors import ArgumentError, SizeCapError, TupleFormatError
from .tuples import OperatorTuple

__all__ = [
    "TUPLE_FORMAT",
    "TUPLE_FORMAT_VERSION",
    "payload_to_tuple",
    "read_tuple",
    "report_json",
    "tuple_to_payload",
    "write_report",
    "write_tuple",
]

TUPLE_FORMAT = "defectseq-tuple"
TUPLE_FORMAT_VERSION = 2

# Version 2 value types by name, and the COO index type; all little-endian.
_DTYPES = {"float64": np.dtype("<f8"), "complex128": np.dtype("<c16")}
_INDEX_DTYPE = np.dtype("<i8")


def _require(condition, message):
    if not condition:
        raise TupleFormatError(message)


def _b64(values, dtype):
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _coo_size_problem(d, dim):
    # The reader sizes the zeros of a coo stack by d and dim alone, so
    # they are bounded before anything is allocated: each of d and dim
    # by the cap, and the stack by the entries of two cap x cap
    # matrices.  The writer refuses the same stacks, so every file it
    # writes reads back.  None when the stack is within the bounds.
    cap = size_cap()
    if d > cap or dim > cap:
        return (f"d = {d} and dim = {dim}, cap is {cap} for each "
                f"(set {SIZE_CAP_ENV} to raise it)")
    if d * dim * dim > 2 * cap * cap:
        return (f"d * dim**2 = {d * dim * dim} entries, cap is "
                f"2 * cap**2 = {2 * cap * cap} (set {SIZE_CAP_ENV} to "
                "raise it)")
    return None


def _encoded_entries(stack):
    # The version 2 payload keys for a (d, dim, dim) stack of entries.
    flat = stack.reshape(-1)
    dtype = _DTYPES[flat.dtype.name]
    # Nonzero by bit pattern, so a -0.0 part is kept as an entry.
    words = flat.view(np.uint64).reshape(flat.size, -1)
    index = np.flatnonzero(words.any(axis=1))
    if (index.size * (_INDEX_DTYPE.itemsize + dtype.itemsize)
            < flat.size * dtype.itemsize):
        problem = _coo_size_problem(*stack.shape[:2])
        if problem is not None:
            raise SizeCapError(f"cannot write a coo tuple file with {problem}")
        return {"encoding": "coo", "index": _b64(index, _INDEX_DTYPE),
                "values": _b64(flat[index], dtype)}
    return {"encoding": "dense", "data": _b64(flat, dtype)}


def tuple_to_payload(T, meta=None):
    """Build the JSON-ready dict describing an operator tuple.

    The dict is a version 2 tuple file.  ``meta`` extends the file's
    metadata object.  The tuple's label is carried along automatically
    unless the caller supplies one.
    """
    merged = dict(meta) if meta is not None else {}
    if T.label and "label" not in merged:
        merged["label"] = T.label
    return {
        "format": TUPLE_FORMAT,
        "version": TUPLE_FORMAT_VERSION,
        "d": T.d,
        "dim": T.h,
        "dtype": T.dtype.name,
        **_encoded_entries(T._stack),
        "meta": merged,
    }


def _v1_entries(payload, d, dim):
    raw = payload.get("ops")
    _require(isinstance(raw, list), "ops must be a list of matrices")
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TupleFormatError(
            f"ops entries must be nested [re, im] number pairs: {exc}"
        ) from exc
    _require(arr.shape == (d, dim, dim, 2),
             f"ops has shape {arr.shape}, expected {(d, dim, dim, 2)} "
             "(d matrices, each dim x dim, entries as [re, im] pairs)")
    _require(bool(np.isfinite(arr).all()), "ops entries must be finite")
    # A complex view of the [re, im] pairs keeps every bit, the sign of a
    # -0.0 imaginary part included.
    return arr.view(np.complex128)[..., 0]


def _decoded(payload, key, dtype):
    text = payload.get(key)
    _require(isinstance(text, str), f"{key} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise TupleFormatError(f"{key} is not valid base64: {exc}") from exc
    _require(len(raw) % dtype.itemsize == 0,
             f"{key} holds {len(raw)} bytes, not a whole number of "
             f"{dtype.itemsize}-byte values")
    return np.frombuffer(raw, dtype=dtype)


def _v2_entries(payload, d, dim):
    name = payload.get("dtype")
    _require(isinstance(name, str) and name in _DTYPES,
             f"dtype must be one of {sorted(_DTYPES)}, got {name!r}")
    dtype = _DTYPES[name]
    count = d * dim * dim
    encoding = payload.get("encoding")
    if encoding == "dense":
        values = _decoded(payload, "data", dtype)
        _require(values.size == count,
                 f"data holds {values.size} values, expected "
                 f"d * dim**2 = {count}")
        entries = values
    elif encoding == "coo":
        problem = _coo_size_problem(d, dim)
        _require(problem is None, f"a coo tuple file has {problem}")
        index = _decoded(payload, "index", _INDEX_DTYPE)
        values = _decoded(payload, "values", dtype)
        _require(index.size == values.size,
                 f"index holds {index.size} positions but values holds "
                 f"{values.size} values")
        _require(index.size == 0 or (index[0] >= 0 and index[-1] < count),
                 f"index positions must lie in 0 .. {count - 1}")
        _require(bool((index[1:] > index[:-1]).all()),
                 "index positions must be strictly increasing")
        entries = np.zeros(count, dtype=dtype)
        entries[index] = values
    else:
        raise TupleFormatError(
            f"encoding must be 'dense' or 'coo', got {encoding!r}")
    _require(bool(np.isfinite(values).all()), "tuple entries must be finite")
    return entries.reshape(d, dim, dim)


def payload_to_tuple(payload):
    """Validate a parsed tuple-file object and build the OperatorTuple.

    Reads version 1 and version 2 objects.  ``version`` must be the
    integer 1 or 2; ``true``, ``1.0`` and ``2.0`` are refused, as they
    are for ``d`` and ``dim``.
    """
    _require(isinstance(payload, dict), "tuple file must hold a JSON object")
    _require(payload.get("format") == TUPLE_FORMAT,
             f"unrecognized format {payload.get('format')!r}, "
             f"expected {TUPLE_FORMAT!r}")
    version = payload.get("version")
    _require(isinstance(version, int) and not isinstance(version, bool)
             and version in (1, 2),
             f"unsupported version {version!r}, expected 1 or 2")
    d = payload.get("d")
    dim = payload.get("dim")
    _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1,
             f"d must be a positive integer, got {d!r}")
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             f"dim must be a positive integer, got {dim!r}")
    meta = payload.get("meta", {})
    _require(isinstance(meta, dict), "meta must be an object when present")
    entries = (_v1_entries if version == 1 else _v2_entries)(payload, d, dim)
    label = meta.get("label", "")
    if not isinstance(label, str):
        label = ""
    try:
        return OperatorTuple(tuple(entries), label=label)
    except ArgumentError as exc:
        raise TupleFormatError(str(exc)) from exc


def read_tuple(path):
    """Load an operator tuple from a JSON file.

    Raises TupleFormatError when the content is not a well-formed tuple
    file, including text that is not UTF-8 and JSON nested deeper than
    the parser can follow; file-system problems surface as the usual
    OSError family.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise TupleFormatError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TupleFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise TupleFormatError("JSON nested too deeply to parse") from None
    return payload_to_tuple(payload)


def report_json(payload):
    """Serialize a JSON payload deterministically.

    Sorted keys, two-space indentation, a trailing newline, and
    shortest round-trip floats.  Non-finite numbers are rejected rather
    than silently written as non-JSON tokens.
    """
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(payload, path):
    """Write any JSON payload with the deterministic encoding."""
    Path(path).write_text(report_json(payload), encoding="utf-8")


def write_tuple(T, path, meta=None):
    """Write an operator tuple as a version 2 tuple file."""
    write_report(tuple_to_payload(T, meta), path)
