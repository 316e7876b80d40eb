"""Arrangement (.ea) and state (.qs) files.

Both formats are JSON objects with explicit field names. Grammar:

  ArrangementFile (.ea)
    version        must be 1
    factorization  detector counts, one per screen, each >= 1
    label          optional string
    entries        list of records; every pair not listed is zero
      bra, ket     1-based detector indices, one component per screen
      re, im       floats; im may be omitted and defaults to 0.0

  StateFile (.qs)
    version        must be 1
    factorization  as above
    amplitudes     list of records; every index not listed is zero
      index        1-based detector indices, one component per screen
      re, im       as above

Canonical serialization sorts entries by flattened (bra, ket) position, omits
exact zeros, and prints reals with 17 significant digits, so a canonical file
round-trips byte for byte and values round-trip exactly. Duplicate (bra, ket)
pairs or duplicate amplitude indices are rejected. State amplitudes must have
norm 1 within a loose load tolerance; a vector whose norm is off by more than
a machine-level threshold is renormalized on load, anything closer keeps its
stored values so round trips stay exact.

A malformed file is reported at its first faulty record, in file order, as
`entries[i].<field>` or `amplitudes[i].<field>`; within a record the checks
run in the order object, index fields, duplicate, re, im. An integer too
large for a float in re or im is a parse error. Reading and writing each cost
one pass over the records: the checks, flattening and duplicate search run on
whole arrays, and the writer formats all records at once.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tolerances
from .arrangement import ExperimentalArrangement, require_valid, validate_isa
from .errors import DimensionError, ParseError, ValidationError
from .screens import ScreenConfiguration
from .tensor import DenseOperatorTensor

FORMAT_VERSION = 1


@dataclass(frozen=True)
class _Format:
    """What the two file formats differ in; everything else is shared."""

    kind: str
    records: str
    index_fields: tuple[str, ...]
    duplicate: str


_ARRANGEMENT = _Format(
    "arrangement file", "entries", ("bra", "ket"), "duplicate entry for bra index {bra}, ket index {ket}"
)
_STATE = _Format("state file", "amplitudes", ("index",), "duplicate amplitude for index {index}")
_MISSING = object()


def _reject_constant(text: str) -> None:
    raise ParseError(f"non-finite literal {text!r} is not allowed")


def _load_object(text: str, kind: str) -> dict:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"{kind}: invalid syntax at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ParseError(f"{kind}: top level must be an object")
    return data


def _require(data: dict, field: str, kind: str) -> object:
    if field not in data:
        raise ParseError(f"{kind}: missing field {field!r}")
    return data[field]


def _check_version(data: dict, kind: str) -> None:
    version = _require(data, "version", kind)
    if version != FORMAT_VERSION:
        raise ParseError(f"{kind}: unsupported version {version!r}, expected {FORMAT_VERSION}")


def _read_factorization(data: dict, kind: str) -> ScreenConfiguration:
    raw = _require(data, "factorization", kind)
    if not isinstance(raw, list) or not raw or not all(isinstance(c, int) and not isinstance(c, bool) for c in raw):
        raise ParseError(f"{kind}: factorization must be a nonempty list of integers")
    return ScreenConfiguration(tuple(raw))


def _only(items: Iterable[object], *types: type) -> bool:
    """Whether every item has exactly one of `types` (so bool is not an int)."""
    return set(map(type, items)) <= set(types)


def _first(flags: Iterable[bool]) -> int:
    """Position of the first true flag; one is known to exist."""
    return next(itertools.compress(itertools.count(), flags))


def _index_error(shape: ScreenConfiguration, index: list) -> DimensionError:
    """The error check_index raises for an index already found faulty."""
    try:
        shape.check_index(index)
    except DimensionError as e:
        return e
    raise AssertionError(f"index {index} passed check_index")


def _overflows(value: int | float) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _read_records(records: list, fmt: _Format, shape: ScreenConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions and complex values of all records, in file order.

    Each check runs over all records at once, in the order a record is read:
    the record itself, its index fields, duplication, re, im. A failed check
    cuts the records to those before its first faulty one, so a later check
    can only find an earlier record, and the error raised is the one a
    record-by-record reader would meet first.
    """
    end, error = len(records), None
    if not _only(records, dict):
        end = _first(type(r) is not dict for r in records)
        error = ParseError(f"{fmt.records}[{end}] must be an object")
    m = shape.num_screens
    indices = []
    for field in fmt.index_fields:
        raws = list(map(operator.methodcaller("get", field), records[:end]))
        if not (_only(raws, list) and _only(itertools.chain.from_iterable(raws), int)):
            end = _first(type(raw) is not list or not _only(raw, int) for raw in raws)
            error = ParseError(f"{fmt.records}[{end}].{field} must be a list of integers")
            raws = raws[:end]
        wrong_length = np.fromiter(map(len, raws), np.intp, len(raws)) != m
        if wrong_length.any():
            end = int(np.argmax(wrong_length))
            error = _index_error(shape, raws[end])
            raws = raws[:end]
        components = list(itertools.chain.from_iterable(raws))
        try:
            index = np.array(components, np.int64)
        except OverflowError:  # such a component is out of range; compare it exactly
            index = np.array(components, object)
        index = index.reshape(len(raws), m)
        out_of_range = ((index < 1) | (index > np.array(shape.detector_counts))).any(axis=1)
        if out_of_range.any():
            end = int(np.argmax(out_of_range))
            error = _index_error(shape, raws[end])
        indices.append(index)
    joint = np.hstack([index[:end] for index in indices]).astype(np.intp) - 1
    keys = np.ravel_multi_index(tuple(joint.T), shape.detector_counts * len(fmt.index_fields))
    _, first = np.unique(keys, return_index=True)
    if first.size < keys.size:
        repeated = np.ones(keys.size, dtype=bool)
        repeated[first] = False
        end = int(np.argmax(repeated))
        error = ParseError(f"{fmt.records}[{end}]: " + fmt.duplicate.format(**records[end]))
    parts = []
    for field, default in (("re", _MISSING), ("im", 0.0)):
        raws = list(map(operator.methodcaller("get", field, default), records[:end]))
        if not _only(raws, float, int):
            end = _first(type(x) not in (float, int) for x in raws)
            problem = "is missing" if raws[end] is _MISSING else "must be a number"
            error = ParseError(f"{fmt.records}[{end}].{field} {problem}")
            raws = raws[:end]
        try:
            parts.append(np.array(raws, np.float64))
        except OverflowError:
            end = _first(map(_overflows, raws))
            error = ParseError(f"{fmt.records}[{end}].{field} is too large for a float")
    if error is not None:
        raise error
    values = np.empty(keys.size, dtype=np.complex128)
    values.real, values.imag = parts
    return keys, values


def _read_header(text: str, fmt: _Format) -> tuple[ScreenConfiguration, str | None, list]:
    """Configuration, label and the still unchecked records."""
    data = _load_object(text, fmt.kind)
    _check_version(data, fmt.kind)
    shape = _read_factorization(data, fmt.kind)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{fmt.kind}: label must be a string")
    records = _require(data, fmt.records, fmt.kind)
    if not isinstance(records, list):
        raise ParseError(f"{fmt.kind}: {fmt.records} must be a list")
    return shape, label, records


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, if it runs, for the block.

    Decoding makes a few container objects per record, so the collector
    would traverse the growing tree several times per file (about a fifth
    of the parse, and a varying share) while it can free none of it:
    decoded JSON holds no reference cycles.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _parse(text: str, fmt: _Format) -> tuple[ScreenConfiguration, str | None, np.ndarray]:
    """Configuration, label and dense array, one axis per index field."""
    with _collector_paused():
        shape, label, records = _read_header(text, fmt)
        keys, values = _read_records(records, fmt, shape)
        del records  # free the decoded JSON before the dense array is allocated
    dense = np.zeros((shape.dimension,) * len(fmt.index_fields), dtype=np.complex128)
    np.put(dense, keys, values)
    return shape, label, dense


def _serialize(dense: np.ndarray, shape: ScreenConfiguration, label: str | None, fmt: _Format) -> str:
    """Canonical text: one record per nonzero of `dense`, in flat order."""
    lines = ["{"]
    lines.append(f'  "version": {FORMAT_VERSION},')
    lines.append('  "factorization": [' + ", ".join(map(str, shape.detector_counts)) + "],")
    if label is not None:
        lines.append(f'  "label": {json.dumps(label)},')
    index_text = list(map(json.dumps, itertools.product(*(range(1, c + 1) for c in shape.detector_counts))))
    flat = np.flatnonzero(dense)  # -0.0 counts as zero, as it compares equal to 0
    values = dense.take(flat)
    columns = [map(index_text.__getitem__, axis.tolist()) for axis in np.unravel_index(flat, dense.shape)]
    record = "    {" + "".join(f'"{field}": %s, ' for field in fmt.index_fields) + '"re": %.17g, "im": %.17g}'
    body = ",\n".join(map(record.__mod__, zip(*columns, values.real.tolist(), values.imag.tolist())))
    if body:
        lines += [f'  "{fmt.records}": [', body, "  ]"]
    else:
        lines.append(f'  "{fmt.records}": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_arrangement(text: str, validate: bool = True) -> ExperimentalArrangement:
    """Parse .ea text. With validate=False the structural checks still run
    but the arrangement may violate trace or positivity (useful for
    inspecting candidate files)."""
    shape, label, matrix = _parse(text, _ARRANGEMENT)
    ea = ExperimentalArrangement(DenseOperatorTensor(shape, matrix), label)
    if validate:
        require_valid(ea)
    return ea


def serialize_arrangement(ea: ExperimentalArrangement) -> str:
    """Canonical .ea text for a valid arrangement."""
    report = validate_isa(ea)
    if not report.valid:
        raise ValidationError(
            "refusing to serialize an invalid arrangement: " + ", ".join(report.failures())
        )
    return _serialize(ea.alpha.entries, ea.shape, ea.label, _ARRANGEMENT)


def parse_state(text: str) -> tuple[np.ndarray, ScreenConfiguration, str | None]:
    """Parse .qs text into (amplitudes, configuration, label).

    Amplitudes are renormalized after the load-tolerance norm check.
    """
    shape, label, v = _parse(text, _STATE)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tolerances.FILE_NORM_TOL:
        raise ValidationError(f"state file: norm is {norm!r}, expected 1 within {tolerances.FILE_NORM_TOL}")
    if abs(norm - 1.0) > tolerances.FILE_RENORM_EPS:
        v = v / norm
    return v, shape, label


def serialize_state(
    amplitudes: Sequence[complex] | np.ndarray,
    shape: ScreenConfiguration,
    label: str | None = None,
) -> str:
    """Canonical .qs text."""
    v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if v.size != shape.dimension:
        raise ValidationError(
            f"amplitude vector has length {v.size}, expected {shape.dimension}"
        )
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tolerances.FILE_NORM_TOL:
        raise ValidationError(f"state norm is {norm!r}, expected 1")
    return _serialize(v, shape, label, _STATE)


def read_arrangement(path: str, validate: bool = True) -> ExperimentalArrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return parse_arrangement(text, validate=validate)


def write_arrangement(path: str, ea: ExperimentalArrangement) -> None:
    text = serialize_arrangement(ea)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_state(path: str) -> tuple[np.ndarray, ScreenConfiguration, str | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return parse_state(text)


def write_state(
    path: str,
    amplitudes: Sequence[complex] | np.ndarray,
    shape: ScreenConfiguration,
    label: str | None = None,
) -> None:
    text = serialize_state(amplitudes, shape, label)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
