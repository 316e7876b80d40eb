"""Shared builders and independent brute-force oracles for the test suite.

The loop_* functions re-derive tensor operations and the file codec from their
definitions with plain Python loops, deliberately avoiding the vectorized
library paths, so tests can compare the two routes.
"""

from __future__ import annotations

import json
import math

import numpy as np

import qlab
from qlab.fileio import _ARRANGEMENT, _STATE, FORMAT_VERSION, _read_header
from qlab.tolerances import FILE_NORM_TOL, FILE_RENORM_EPS, PRODUCT_TOL, SPECTRUM_TOL, VALUATION_TOL


def two_detector_table() -> qlab.ExperimentalArrangement:
    """Single screen, two detectors, potentia 0.7 and 0.3."""
    shape = qlab.configuration(2)
    return qlab.build_from_mixture(
        [0.7, 0.3],
        [
            qlab.build_from_state_vector([1, 0], shape),
            qlab.build_from_state_vector([0, 1], shape),
        ],
    )


def six_detector_certain() -> qlab.ExperimentalArrangement:
    """Single screen, six detectors, all potentia on the first."""
    shape = qlab.configuration(6)
    v = np.zeros(6)
    v[0] = 1.0
    return qlab.build_from_state_vector(v, shape)


def four_screen_pair() -> qlab.ExperimentalArrangement:
    """Four qubit-like screens, equal mixture of the joint outcomes
    (1,2,1,2) and (2,2,2,2); screens 1 and 3 track screen 2's partner."""
    shape = qlab.configuration(2, 2, 2, 2)
    v1 = np.zeros(16)
    v1[shape.flat_index((1, 2, 1, 2))] = 1.0
    v2 = np.zeros(16)
    v2[shape.flat_index((2, 2, 2, 2))] = 1.0
    return qlab.build_from_mixture(
        [0.5, 0.5],
        [qlab.build_from_state_vector(v1, shape), qlab.build_from_state_vector(v2, shape)],
    )


def three_screen_pair() -> qlab.ExperimentalArrangement:
    """What four_screen_pair becomes after its last screen is removed."""
    shape = qlab.configuration(2, 2, 2)
    v1 = np.zeros(8)
    v1[shape.flat_index((1, 2, 1))] = 1.0
    v2 = np.zeros(8)
    v2[shape.flat_index((2, 2, 2))] = 1.0
    return qlab.build_from_mixture(
        [0.5, 0.5],
        [qlab.build_from_state_vector(v1, shape), qlab.build_from_state_vector(v2, shape)],
    )


def bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1 / math.sqrt(2)
    return v


def ghz_state(screens: int = 3) -> np.ndarray:
    v = np.zeros(2**screens, dtype=np.complex128)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def w_state() -> np.ndarray:
    v = np.zeros(8, dtype=np.complex128)
    for flat in (1, 2, 4):
        v[flat] = 1 / math.sqrt(3)
    return v


def product_state(counts: tuple[int, ...], seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Random product state and its single-screen factors."""
    rng = qlab.make_rng(seed)
    factors = [qlab.random_state_vector(c, rng) for c in counts]
    v = factors[0]
    for f in factors[1:]:
        v = np.kron(v, f)
    return v, factors


def loop_flat(index: tuple[int, ...], counts: tuple[int, ...]) -> int:
    """Mixed-radix flattening, leftmost most significant, by definition."""
    flat = 0
    for k, c in zip(index, counts):
        flat = flat * c + (k - 1)
    return flat


def loop_indices(counts: tuple[int, ...]):
    """All 1-based multi-indices in flat order."""
    if not counts:
        yield ()
        return
    for head in range(1, counts[0] + 1):
        for tail in loop_indices(counts[1:]):
            yield (head,) + tail


def loop_kron(a: np.ndarray, b: np.ndarray, counts_a, counts_b) -> np.ndarray:
    """Joint tensor from the entry-by-entry definition."""
    counts = tuple(counts_a) + tuple(counts_b)
    n = a.shape[0] * b.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for bra in loop_indices(counts):
        for ket in loop_indices(counts):
            ba, bb = bra[: len(counts_a)], bra[len(counts_a):]
            ka, kb = ket[: len(counts_a)], ket[len(counts_a):]
            out[loop_flat(bra, counts), loop_flat(ket, counts)] = (
                a[loop_flat(ba, counts_a), loop_flat(ka, counts_a)]
                * b[loop_flat(bb, counts_b), loop_flat(kb, counts_b)]
            )
    return out


def loop_partial_trace(matrix: np.ndarray, counts: tuple[int, ...], traced: set[int]) -> np.ndarray:
    """Partial trace from the definition: sum entries whose traced components
    agree on bra and ket. `traced` holds 1-based screen positions."""
    kept = [j for j in range(1, len(counts) + 1) if j not in traced]
    kept_counts = tuple(counts[j - 1] for j in kept)
    traced_counts = tuple(counts[j - 1] for j in sorted(traced))
    m = int(np.prod(kept_counts)) if kept_counts else 1
    out = np.zeros((m, m), dtype=np.complex128)
    for bra_kept in loop_indices(kept_counts):
        for ket_kept in loop_indices(kept_counts):
            acc = 0.0 + 0.0j
            for shared in loop_indices(traced_counts):
                bra_full = [0] * len(counts)
                ket_full = [0] * len(counts)
                for pos, j in enumerate(kept):
                    bra_full[j - 1] = bra_kept[pos]
                    ket_full[j - 1] = ket_kept[pos]
                for pos, j in enumerate(sorted(traced)):
                    bra_full[j - 1] = shared[pos]
                    ket_full[j - 1] = shared[pos]
                acc += matrix[
                    loop_flat(tuple(bra_full), counts), loop_flat(tuple(ket_full), counts)
                ]
            out[loop_flat(bra_kept, kept_counts), loop_flat(ket_kept, kept_counts)] = acc
    return out


def loop_screen_permutation_matrix(counts: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Screen permutation from its definition: source multi-index s moves to
    the target multi-index (s[order[0]-1], s[order[1]-1], ...)."""
    target_counts = tuple(counts[p - 1] for p in order)
    n = math.prod(counts)
    out = np.zeros((n, n), dtype=np.complex128)
    for src in loop_indices(counts):
        dst = tuple(src[p - 1] for p in order)
        out[loop_flat(dst, target_counts), loop_flat(src, counts)] = 1.0
    return out


def loop_is_product_across(ea: qlab.ExperimentalArrangement, cut: qlab.Bipartition) -> tuple[bool, float]:
    """Product test by the matrix route: conjugate with the loop-built
    permutation matrix through change_basis, then take both marginals with
    remove_screens."""
    order = cut.left + cut.right
    n = ea.shape.num_screens
    arranged = ea
    if order != tuple(range(1, n + 1)):
        counts = ea.shape.detector_counts
        target = qlab.ScreenConfiguration(tuple(counts[p - 1] for p in order))
        matrix = loop_screen_permutation_matrix(counts, order)
        arranged = qlab.change_basis(ea, qlab.BasisTransformation(ea.shape, target, matrix))
    k = len(cut.left)
    left = qlab.remove_screens(arranged, range(k + 1, n + 1))
    right = qlab.remove_screens(arranged, range(1, k + 1))
    product = np.kron(left.alpha.entries, right.alpha.entries)
    residual = float(np.max(np.abs(arranged.alpha.entries - product)))
    return residual <= PRODUCT_TOL, residual


def loop_random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-r projector from the first r columns of a full N x N Haar QR
    with phase correction, drawing what random_unitary draws."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    cols = (q * (d / np.abs(d)))[:, :rank]
    return cols @ cols.conj().T


def loop_verify_basis_invariance(
    ea: qlab.ExperimentalArrangement, bt: qlab.BasisTransformation, extra_projectors: int = 3, seed: int = 0
) -> qlab.BasisInvarianceReport:
    """Basis invariance by the dense route: fresh spectra of both tensors,
    and each random projector formed as an N x N matrix from a full QR and
    conjugated by the transformation matrix."""
    moved = qlab.change_basis(ea, bt)
    n = ea.dimension
    a, b, lam = ea.alpha.entries, moved.alpha.entries, bt.matrix
    spectrum_residual = float(np.max(np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))))
    pulled = lam.conj().T @ b @ lam
    valuation_residual = float(np.max(np.abs(a.diagonal().real - pulled.diagonal().real)))
    valuation_residual = max(valuation_residual, abs(float(np.trace(a).real) - float(np.trace(b).real)))
    rng = qlab.make_rng(seed)
    for _ in range(extra_projectors):
        rank = int(rng.integers(1, n)) if n > 1 else 1
        p = loop_random_projector(n, rank, rng)
        before = complex(np.einsum("ij,ji->", a, p)).real
        after = complex(np.einsum("ij,ji->", b, lam @ p @ lam.conj().T)).real
        valuation_residual = max(valuation_residual, abs(before - after))
    return qlab.BasisInvarianceReport(
        degree=n,
        num_projectors=n + 1 + extra_projectors,
        spectrum_residual=spectrum_residual,
        valuation_residual=valuation_residual,
        passed=spectrum_residual <= SPECTRUM_TOL and valuation_residual <= VALUATION_TOL,
    )


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = qlab.make_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2


def _loop_read_index(record: dict, field: str, shape: qlab.ScreenConfiguration, where: str) -> int:
    raw = record.get(field)
    if not isinstance(raw, list) or not all(isinstance(k, int) and not isinstance(k, bool) for k in raw):
        raise qlab.ParseError(f"{where}.{field} must be a list of integers")
    return shape.flat_index(raw)


def _loop_read_real(record: dict, field: str, where: str, default: float | None = None) -> float:
    if field not in record:
        if default is None:
            raise qlab.ParseError(f"{where}.{field} is missing")
        return default
    raw = record[field]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise qlab.ParseError(f"{where}.{field} must be a number")
    try:
        return float(raw)
    except OverflowError:
        raise qlab.ParseError(f"{where}.{field} is too large for a float") from None


def loop_parse_arrangement(text: str, validate: bool = True) -> qlab.ExperimentalArrangement:
    """.ea text to an arrangement, one record at a time."""
    shape, label, raw_entries = _read_header(text, _ARRANGEMENT)
    n = shape.dimension
    matrix = np.zeros((n, n), dtype=np.complex128)
    seen: set[tuple[int, int]] = set()
    for pos, record in enumerate(raw_entries):
        where = f"entries[{pos}]"
        if not isinstance(record, dict):
            raise qlab.ParseError(f"{where} must be an object")
        bra = _loop_read_index(record, "bra", shape, where)
        ket = _loop_read_index(record, "ket", shape, where)
        if (bra, ket) in seen:
            raise qlab.ParseError(f"{where}: duplicate entry for bra index {record['bra']}, ket index {record['ket']}")
        seen.add((bra, ket))
        re = _loop_read_real(record, "re", where)
        im = _loop_read_real(record, "im", where, default=0.0)
        matrix[bra, ket] = complex(re, im)
    ea = qlab.ExperimentalArrangement(qlab.DenseOperatorTensor(shape, matrix), label)
    if validate:
        qlab.require_valid(ea)
    return ea


def loop_parse_state(text: str):
    """.qs text to (amplitudes, configuration, label), one record at a time."""
    shape, label, raw = _read_header(text, _STATE)
    v = np.zeros(shape.dimension, dtype=np.complex128)
    seen: set[int] = set()
    for pos, record in enumerate(raw):
        where = f"amplitudes[{pos}]"
        if not isinstance(record, dict):
            raise qlab.ParseError(f"{where} must be an object")
        flat = _loop_read_index(record, "index", shape, where)
        if flat in seen:
            raise qlab.ParseError(f"{where}: duplicate amplitude for index {record['index']}")
        seen.add(flat)
        re = _loop_read_real(record, "re", where)
        im = _loop_read_real(record, "im", where, default=0.0)
        v[flat] = complex(re, im)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > FILE_NORM_TOL:
        raise qlab.ValidationError(f"state file: norm is {norm!r}, expected 1 within {FILE_NORM_TOL}")
    if abs(norm - 1.0) > FILE_RENORM_EPS:
        v = v / norm
    return v, shape, label


def loop_is_xml_text(label: str) -> bool:
    """Whether every character of `label` is an XML 1.0 Char (section 2.2)."""
    for ch in label:
        c = ord(ch)
        if not (c in (0x9, 0xA, 0xD) or 0x20 <= c <= 0xD7FF or 0xE000 <= c <= 0xFFFD or 0x10000 <= c <= 0x10FFFF):
            return False
    return True


def _loop_document(shape: qlab.ScreenConfiguration, label: str | None, name: str, records: list[str]) -> str:
    lines = ["{"]
    lines.append(f'  "version": {FORMAT_VERSION},')
    lines.append('  "factorization": [' + ", ".join(map(str, shape.detector_counts)) + "],")
    if label is not None:
        lines.append(f'  "label": {json.dumps(label)},')
    if records:
        lines.append(f'  "{name}": [')
        lines.append(",\n".join(records))
        lines.append("  ]")
    else:
        lines.append(f'  "{name}": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


def loop_serialize_arrangement(ea: qlab.ExperimentalArrangement) -> str:
    """Canonical .ea text, one (bra, ket) pair at a time (no validity gate)."""
    shape = ea.shape
    entries = []
    a = ea.alpha.entries
    for bra in range(shape.dimension):
        for ket in range(shape.dimension):
            value = a[bra, ket]
            if value == 0:
                continue
            entries.append(
                '    {"bra": ' + json.dumps(list(shape.multi_index(bra)))
                + ', "ket": ' + json.dumps(list(shape.multi_index(ket)))
                + f', "re": {float(value.real):.17g}, "im": {float(value.imag):.17g}' + "}"
            )
    return _loop_document(shape, ea.label, "entries", entries)


def loop_serialize_state(amplitudes: np.ndarray, shape: qlab.ScreenConfiguration, label: str | None = None) -> str:
    """Canonical .qs text, one amplitude at a time (no norm gate)."""
    v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    records = []
    for flat in range(shape.dimension):
        value = v[flat]
        if value == 0:
            continue
        records.append(
            '    {"index": ' + json.dumps(list(shape.multi_index(flat)))
            + f', "re": {float(value.real):.17g}, "im": {float(value.imag):.17g}' + "}"
        )
    return _loop_document(shape, label, "amplitudes", records)
