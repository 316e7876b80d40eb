"""Seeded inputs for the benchmark, made without qlab.

Every generator takes a numpy Generator derived from the workload seed and a
pass index, so the same seed always gives the same inputs and no two passes
share one. Arrangement and state files are written here in qlab's canonical
text form (entries in flat (bra, ket) order, exact zeros omitted, reals with
17 significant digits), so qlab only ever reads what the benchmark produced.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one (seed, pass, ...) coordinate."""
    return np.random.Generator(np.random.PCG64([seed, *path]))


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.sqrt(np.vdot(v, v).real)


def product_vector(rng: np.random.Generator, counts: tuple[int, ...]) -> np.ndarray:
    """Fully separable state: a Kronecker chain of single-screen unit vectors."""
    v = np.ones(1, dtype=np.complex128)
    for c in counts:
        v = np.kron(v, unit_vector(rng, c))
    return v


def mixed_matrix(rng: np.random.Generator, dim: int, terms: int) -> np.ndarray:
    """Dense Hermitian, trace-one, PSD matrix: a random mixture of pure terms."""
    weights = rng.dirichlet(np.ones(terms))
    vecs = np.stack([unit_vector(rng, dim) for _ in range(terms)], axis=1)
    m = (vecs * weights) @ vecs.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def orthogonal_family(rng: np.random.Generator, dim: int, parts: int) -> list[np.ndarray]:
    """Pairwise orthogonal projectors splitting one random orthonormal basis."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(z)[0]
    edges = [0, *sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False).tolist()), dim]
    return [q[:, a:b] @ q[:, a:b].conj().T for a, b in zip(edges[:-1], edges[1:])]


def permute_screens(matrix: np.ndarray, counts: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Operator with its screens reordered; target screen j is source screen order[j-1]."""
    k = len(counts)
    axes = [p - 1 for p in order]
    t = matrix.reshape(counts + counts).transpose(axes + [k + a for a in axes])
    n = matrix.shape[0]
    return np.ascontiguousarray(t).reshape(n, n)


def _index_strings(counts: tuple[int, ...]) -> list[str]:
    return [json.dumps(list(idx)) for idx in itertools.product(*(range(1, c + 1) for c in counts))]


def _reals(values: np.ndarray) -> list[str]:
    return [f"{x:.17g}" for x in values.tolist()]


def _document(counts: tuple[int, ...], field: str, records: list[str]) -> str:
    lines = ["{", '  "version": 1,', '  "factorization": [' + ", ".join(map(str, counts)) + "],"]
    if records:
        lines += [f'  "{field}": [', ",\n".join(records), "  ]"]
    else:
        lines.append(f'  "{field}": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


def arrangement_text(counts: tuple[int, ...], matrix: np.ndarray) -> str:
    """Canonical .ea text of an unlabelled arrangement."""
    names = _index_strings(counts)
    bra, ket = np.nonzero(matrix)
    values = matrix[bra, ket]
    records = [
        '    {"bra": ' + names[b] + ', "ket": ' + names[k] + ', "re": ' + re + ', "im": ' + im + "}"
        for b, k, re, im in zip(bra.tolist(), ket.tolist(), _reals(values.real), _reals(values.imag))
    ]
    return _document(counts, "entries", records)


def state_text(counts: tuple[int, ...], amplitudes: np.ndarray) -> str:
    """Canonical .qs text of an unlabelled state."""
    names = _index_strings(counts)
    (flat,) = np.nonzero(amplitudes)
    values = amplitudes[flat]
    records = [
        '    {"index": ' + names[i] + ', "re": ' + re + ', "im": ' + im + "}"
        for i, re, im in zip(flat.tolist(), _reals(values.real), _reals(values.imag))
    ]
    return _document(counts, "amplitudes", records)
