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
run in the order object, index fields, duplicate, re, im. An integer too large
for a float in re or im is a parse error, as are non-UTF-8 text, JSON nested
too deep to decode, and a label outside XML 1.0 text (lone surrogates, C0
controls but tab, LF, CR), which the writers refuse too.

Text in the writer's canonical layout (the same bytes but for the number
tokens, which may be any JSON numbers) is read about a megabyte of records
at a time, without the JSON decoder. One compiled pattern, the writer's
record with the JSON number grammar in each slot, holds each chunk to that
layout. The index components are then read by one of two paths. When every
detector count is at most 9, each component is one digit, so a record is the
writer's byte for byte up to re, and the digits are gathered at fixed
columns from the line starts. Otherwise they are found as tokens between
the edges of the number characters. re and im go through Python's float,
which is what JSON's decoder calls, so the arrays are bit-identical (a bare
-0, an integer to JSON, reads as +0.0). Any other text, canonical text with a
fault included, is decoded as JSON and read record by record, in file order,
stopping at the first fault with the errors above. The writer formats all
records at once.
"""

from __future__ import annotations

import contextlib
import gc
import json
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances
from .arrangement import ExperimentalArrangement, _label_fault, _passes_gate, require_valid, validate_isa
from .errors import DimensionError, ParseError, QLabError, ValidationError
from .screens import ScreenConfiguration
from .tensor import DenseOperatorTensor, _unit_norm

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
_TAIL = "\n  ]\n}\n"  # canonical text after the last record
_EMPTY_TAIL = "]\n}\n"  # after the head but its last line break, when there are no records
_CHUNK_CHARS = 1 << 20  # canonical records are read this much text at a time, which bounds the working memory
_NUMBER_CHARS = b"0123456789.eE+-"
_KEEP_NUMBERS = bytes(c if c in _NUMBER_CHARS + b"\n" else 32 for c in range(256))  # all else becomes a space
_INDEX = rb"[1-9]"  # the first digit of an index component, which has no leading zero
_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"  # RFC 8259, section 6
# finds the shape and label of a canonical head, which is then compared byte for byte
_HEAD = re.compile(r'\{\n.*\n  "factorization": \[(\d+(?:, \d+)*)\],\n(?:  "label": (".*"),\n)?')


def _reject_constant(text: str) -> None:
    raise ParseError(f"non-finite literal {text!r} is not allowed")


def _load_object(text: str, kind: str) -> dict:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"{kind}: invalid syntax at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError(f"{kind}: nesting too deep") from e
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


def _real(value: object, where: str) -> float:
    """float(value) for a JSON number that is not a float; the ParseError otherwise."""
    if value is _MISSING:
        raise ParseError(f"{where} is missing")
    if type(value) is not int:
        raise ParseError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where} is too large for a float") from None


def _index_fault(raw: object, where: str, shape: ScreenConfiguration) -> QLabError:
    """The error of an index field that is not an in-range multi-index."""
    if type(raw) is not list or any(type(k) is not int for k in raw):
        return ParseError(f"{where} must be a list of integers")
    try:
        shape.check_index(raw)
    except DimensionError as e:
        return e
    raise AssertionError(f"{where} {raw} passed check_index")


def _read_records(records: list, fmt: _Format, shape: ScreenConfiguration, dense: np.ndarray) -> None:
    """Write each record's value into `dense`, in file order.

    Raises at the first faulty record; within a record the checks run in the
    order object, index fields, duplicate, re, im.
    """
    flat_of = {index: flat for flat, index in enumerate(shape.all_indices())}
    ints = (int,) * shape.num_screens  # bool and float components compare equal to ints, so types are checked
    n, flat_dense, seen = shape.dimension, dense.reshape(-1), set()
    for i, record in enumerate(records):
        if type(record) is not dict:
            raise ParseError(f"{fmt.records}[{i}] must be an object")
        key = 0
        for field in fmt.index_fields:
            raw = record.get(field)
            flat = flat_of.get(tuple(raw)) if type(raw) is list and tuple(map(type, raw)) == ints else None
            if flat is None:
                raise _index_fault(raw, f"{fmt.records}[{i}].{field}", shape)
            key = key * n + flat
        if key in seen:
            raise ParseError(f"{fmt.records}[{i}]: " + fmt.duplicate.format(**record))
        seen.add(key)
        real, imag = record.get("re", _MISSING), record.get("im", 0.0)
        if type(real) is not float:
            real = _real(real, f"{fmt.records}[{i}].re")
        if type(imag) is not float:
            imag = _real(imag, f"{fmt.records}[{i}].im")
        flat_dense[key] = complex(real, imag)


def _read_header(text: str, fmt: _Format) -> tuple[ScreenConfiguration, str | None, list]:
    """Configuration, label and the still unchecked records."""
    data = _load_object(text, fmt.kind)
    _check_version(data, fmt.kind)
    shape = _read_factorization(data, fmt.kind)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{fmt.kind}: label must be a string")
    if fault := _label_fault(label):
        raise ParseError(f"{fmt.kind}: {fault}")
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


def _record_format(fmt: _Format) -> str:
    """%-format of one canonical record: the index fields' JSON lists, then re and im."""
    return "    {" + "".join(f'"{field}": %s, ' for field in fmt.index_fields) + '"re": %.17g, "im": %.17g}'


def _head(shape: ScreenConfiguration, label: str | None, fmt: _Format) -> str:
    """Canonical text before the first record."""
    lines = ["{", f'  "version": {FORMAT_VERSION},']
    lines.append('  "factorization": [' + ", ".join(map(str, shape.detector_counts)) + "],")
    if label is not None:
        lines.append(f'  "label": {json.dumps(label)},')
    lines.append(f'  "{fmt.records}": [')
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Layout:
    """One shape's canonical records.

    `records` matches whole records, each with its separator. Once the
    characters outside numbers are blanked, a record holds a fixed sequence
    of tokens: the index components of each index field, the `e` of each
    field name that holds one, then re and im. `index_tokens` and
    `name_tokens` pick the first two kinds out of that sequence. When every
    detector count is one digit, the record is the writer's byte for byte up
    to re, so those tokens also sit at fixed `columns` from the line start.
    """

    records: re.Pattern[bytes]
    dims: tuple[int, ...]
    digits: int  # of the largest detector count
    index_tokens: np.ndarray
    name_tokens: np.ndarray
    columns: np.ndarray  # of each token before re, were every index component one digit

    @classmethod
    def of(cls, shape: ScreenConfiguration, fmt: _Format) -> _Layout:
        fields, digits = len(fmt.index_fields), len(str(max(shape.detector_counts)))
        # the writer's record and separator, with %s in each number slot
        index = json.dumps([0] * shape.num_screens).replace("0", "%s")
        record = _record_format(fmt).replace("%.17g", "%s") % ((index,) * fields + ("%s", "%s")) + ",\n"
        slots = record.count("%s") - 2
        component = _INDEX + rb"[0-9]?+" * (digits - 1)  # at most `digits` digits
        pattern = re.escape(record).encode() % ((component,) * slots + (_NUMBER, _NUMBER))
        # the tokens of a record with index components 1 and values 0
        sample = (record % ((1,) * slots + (0, 0))).encode().translate(_KEEP_NUMBERS)
        tokens = [(m.start(), m[0]) for m in re.finditer(rb"\S+", sample)][:-2]
        return cls(
            records=re.compile(b"(?:%s)*+" % pattern),
            dims=shape.detector_counts * fields,
            digits=digits,
            index_tokens=np.array([k for k, (_, token) in enumerate(tokens) if token == b"1"], dtype=np.intp),
            name_tokens=np.array([k for k, (_, token) in enumerate(tokens) if token == b"e"], dtype=np.intp),
            columns=np.array([at for at, _ in tokens], dtype=np.intp),
        )


def _read_index(numbers: np.ndarray, layout: _Layout) -> np.ndarray:
    """The index components of each record in `numbers`, a chunk's number
    tokens and line breaks; blanks all tokens but re and im."""
    if layout.digits == 1:
        ends = np.flatnonzero(numbers == ord("\n"))
        at = np.concatenate(([0], ends[:-1] + 1))[:, None] + layout.columns  # each token's one byte
        index = numbers[at[:, layout.index_tokens]] - ord("0")
        numbers[at] = ord(" ")
        return index
    is_number = numbers > ord(" ")
    edges = np.flatnonzero(is_number[1:] ^ is_number[:-1]) + 1
    tokens = len(layout.columns) + 2  # per record
    starts, ends = edges[0::2].reshape(-1, tokens), edges[1::2].reshape(-1, tokens)
    first, length = starts[:, layout.index_tokens], (ends - starts)[:, layout.index_tokens]
    index = np.zeros(first.shape, dtype=np.intp)
    for k in range(layout.digits):
        more = length > k
        at = first[more] + k
        index[more] = index[more] * 10 + (numbers[at] - ord("0"))
        numbers[at] = ord(" ")
    numbers[starts[:, layout.name_tokens]] = ord(" ")
    return index


def _read_chunk(chunk: bytes, layout: _Layout, flat: np.ndarray, last: int) -> int | None:
    """Store whole canonical records, each ending in ",\n", into `flat`.

    Returns the flat position of the last record. Returns None, having
    stored part or none, unless the chunk matches `layout.records` and every
    record lies in range, finite and after `last` in flat order. re and im
    go through Python's float, as JSON's do.
    """
    if not layout.records.fullmatch(chunk):
        return None
    spaced = bytearray(chunk.translate(_KEEP_NUMBERS))  # the number tokens and line breaks
    index = _read_index(np.frombuffer(spaced, dtype=np.uint8), layout)
    tokens = bytes(spaced).split()  # re and im of each record
    values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    # JSON reads -0 as the integer 0, so as +0.0; -0.0 and -0e0 stay -0.0
    negative_zeros = np.flatnonzero((values == 0) & np.signbit(values)).tolist()
    values[[at for at in negative_zeros if tokens[at] == b"-0"]] = 0.0
    if not (np.isfinite(values).all() and (index <= layout.dims).all()):
        return None
    keys = np.ravel_multi_index(tuple(index.T - 1), layout.dims)
    if keys[0] <= last or (keys[1:] <= keys[:-1]).any():
        return None
    flat.real[keys] = values[0::2]
    flat.imag[keys] = values[1::2]
    return int(keys[-1])


def _read_canonical(text: str, fmt: _Format) -> tuple[ScreenConfiguration, str | None, np.ndarray] | None:
    """What _parse returns, for text in the layout _serialize writes (any
    number of records); None for any other text."""
    found = text.isascii() and _HEAD.match(text)
    if not found:
        return None
    try:
        shape = ScreenConfiguration(tuple(map(int, found[1].split(", "))))
        label = found[2] and json.loads(found[2])
    except (ValueError, DimensionError):
        return None
    if _label_fault(label):
        return None
    head = _head(shape, label, fmt)
    dense = np.zeros((shape.dimension,) * len(fmt.index_fields), dtype=np.complex128)
    if text == head[:-1] + _EMPTY_TAIL:
        return shape, label, dense
    if not (text.startswith(head) and text.endswith(_TAIL)):
        return None
    layout = _Layout.of(shape, fmt)
    start, stop, last = len(head), len(text) - len(_TAIL), -1
    while start < stop:
        end = text.find("\n", start + _CHUNK_CHARS, stop) + 1 or stop
        chunk = text[start:end].encode("ascii") + (b",\n" if end == stop else b"")
        last = _read_chunk(chunk, layout, dense.reshape(-1), last)
        if last is None:
            return None
        start = end
    return shape, label, dense


def _parse_json(text: str, fmt: _Format) -> tuple[ScreenConfiguration, str | None, np.ndarray]:
    """What _parse returns, for any text: decode it as JSON, then read it record by record."""
    with _collector_paused():
        shape, label, records = _read_header(text, fmt)
        dense = np.zeros((shape.dimension,) * len(fmt.index_fields), dtype=np.complex128)
        _read_records(records, fmt, shape, dense)
    return shape, label, dense


def _parse(text: str, fmt: _Format) -> tuple[ScreenConfiguration, str | None, np.ndarray]:
    """Configuration, label and dense array, one axis per index field."""
    return _read_canonical(text, fmt) or _parse_json(text, fmt)


def _serialize(dense: np.ndarray, shape: ScreenConfiguration, label: str | None, fmt: _Format) -> str:
    """Canonical text: one record per nonzero of `dense`, in flat order."""
    if fault := _label_fault(label):
        raise ValidationError(f"refusing to serialize: {fault}")
    head = _head(shape, label, fmt)
    index_text = list(map(json.dumps, shape.all_indices()))
    flat = np.flatnonzero(dense)  # -0.0 counts as zero, as it compares equal to 0
    values = dense.take(flat)
    columns = [map(index_text.__getitem__, axis.tolist()) for axis in np.unravel_index(flat, dense.shape)]
    body = ",\n".join(map(_record_format(fmt).__mod__, zip(*columns, values.real.tolist(), values.imag.tolist())))
    return head + body + _TAIL if body else head[:-1] + _EMPTY_TAIL


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
    if not _passes_gate(ea) and not (report := validate_isa(ea)).valid:
        raise ValidationError(
            "refusing to serialize an invalid arrangement: " + ", ".join(report.failures())
        )
    return _serialize(ea.alpha.entries, ea.shape, ea.label, _ARRANGEMENT)


def parse_state(text: str) -> tuple[np.ndarray, ScreenConfiguration, str | None]:
    """Parse .qs text into (amplitudes, configuration, label).

    Amplitudes are renormalized after the load-tolerance norm check.
    """
    shape, label, v = _parse(text, _STATE)
    norm = _unit_norm(v, tolerances.FILE_NORM_TOL, "state file: norm is {norm!r}, expected 1 within {tol}")
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
    _unit_norm(v, tolerances.FILE_NORM_TOL, "state norm is {norm!r}, expected 1")
    return _serialize(v, shape, label, _STATE)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def read_arrangement(path: str, validate: bool = True) -> ExperimentalArrangement:
    return parse_arrangement(_read_text(path), validate=validate)


def write_arrangement(path: str, ea: ExperimentalArrangement) -> None:
    text = serialize_arrangement(ea)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_state(path: str) -> tuple[np.ndarray, ScreenConfiguration, str | None]:
    return parse_state(_read_text(path))


def write_state(
    path: str,
    amplitudes: Sequence[complex] | np.ndarray,
    shape: ScreenConfiguration,
    label: str | None = None,
) -> None:
    text = serialize_state(amplitudes, shape, label)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
