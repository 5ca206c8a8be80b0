"""JSON persistence for operator tuples and analysis reports.

A tuple file is a single JSON object:

    {
      "format": "defectseq-tuple",
      "version": 1,
      "d": 2,
      "dim": 3,
      "ops": [ [[[re, im], ...], ...], ... ],
      "meta": {"label": "..."}
    }

``ops`` holds d matrices, each a dim x dim nested list of [re, im]
number pairs in row-major order.  ``meta`` is free-form; a string
``label`` inside it becomes the tuple's label on load.

Serialization is deterministic: keys are sorted, indentation is fixed,
and floats use Python's shortest round-trip representation (never more
than 17 significant digits), so writing and re-reading a tuple
reproduces every matrix entry bit for bit and equal payloads produce
byte-identical files.  Nothing time- or host-dependent is written.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np

from .errors import ArgumentError, TupleFormatError
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
TUPLE_FORMAT_VERSION = 1


def _require(condition, message):
    if not condition:
        raise TupleFormatError(message)


def tuple_to_payload(T, meta=None):
    """Build the JSON-ready dict describing an operator tuple.

    ``meta`` extends the file's metadata object.  The tuple's label is
    carried along automatically unless the caller supplies one.
    """
    merged = dict(meta) if meta is not None else {}
    if T.label and "label" not in merged:
        merged["label"] = T.label
    stacked = np.stack([np.stack([op.real, op.imag], axis=-1) for op in T.ops])
    return {
        "format": TUPLE_FORMAT,
        "version": TUPLE_FORMAT_VERSION,
        "d": T.d,
        "dim": T.h,
        "ops": stacked.tolist(),
        "meta": merged,
    }


def payload_to_tuple(payload):
    """Validate a parsed tuple-file object and build the OperatorTuple."""
    _require(isinstance(payload, dict), "tuple file must hold a JSON object")
    _require(payload.get("format") == TUPLE_FORMAT,
             f"unrecognized format {payload.get('format')!r}, "
             f"expected {TUPLE_FORMAT!r}")
    _require(payload.get("version") == TUPLE_FORMAT_VERSION,
             f"unsupported version {payload.get('version')!r}, "
             f"expected {TUPLE_FORMAT_VERSION}")
    d = payload.get("d")
    dim = payload.get("dim")
    _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1,
             f"d must be a positive integer, got {d!r}")
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             f"dim must be a positive integer, got {dim!r}")
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
    meta = payload.get("meta", {})
    _require(isinstance(meta, dict), "meta must be an object when present")
    label = meta.get("label", "")
    if not isinstance(label, str):
        label = ""
    # A complex view of the [re, im] pairs keeps every bit, the sign of a
    # -0.0 imaginary part included.
    mats = arr.view(np.complex128)[..., 0]
    try:
        return OperatorTuple(tuple(mats), label=label)
    except ArgumentError as exc:
        raise TupleFormatError(str(exc)) from exc


def _loads_without_gc(text):
    # A tuple file parses into hundreds of thousands of small lists and
    # no reference cycles, so the cyclic collector's passes during the
    # parse find nothing and only cost time.  Its state is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def read_tuple(path):
    """Load an operator tuple from a JSON file.

    Raises TupleFormatError when the content is not a well-formed tuple
    file, including text that is not UTF-8 and JSON nested deeper than
    the parser can follow; file-system problems surface as the usual
    OSError family.
    """
    try:
        payload = _loads_without_gc(Path(path).read_text(encoding="utf-8"))
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
    """Write an operator tuple as a tuple file."""
    write_report(tuple_to_payload(T, meta), path)
