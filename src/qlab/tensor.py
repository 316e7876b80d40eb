"""Dense operator tensors over factorized detector spaces.

A tensor holds one complex entry per (bra multi-index, ket multi-index) pair
and is stored as an (N, N) array under the shared row-major flattening, so
matrix algebra and multi-index access describe the same object. Entries are
immutable after construction, in a pickled or deep copy too, and a copy
restored from out-of-band pickle buffers views none of them; every
operation returns a new tensor. Every joint tensor, and every product of two
marginals, comes from one broadcast kernel, `_kron`, which also builds rows
of the product from rows of the factors. `_row_blocks` splits rows evenly
for the routines that work one row block at a time: a conjugation's
products, and blocks of about `_BLOCK_ENTRIES` entries for the Hermiticity
residual and the grid of the product test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import tolerances
from .errors import DimensionError, NumericError, ValidationError
from .screens import ScreenConfiguration


def _frozen_complex_matrix(entries: object) -> np.ndarray:
    """entries read-only, copied unless neither it nor any array it views can be written."""
    arr = np.asarray(entries, dtype=np.complex128)
    owner = arr if arr is entries or arr.base is not None else None  # None: a fresh conversion
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _fresh(arr: np.ndarray) -> np.ndarray:
    """A just-computed array that no caller holds, frozen together with every
    array it views so that _frozen_complex_matrix keeps it without a copy."""
    view = arr
    while isinstance(view, np.ndarray):
        view.setflags(write=False)
        view = view.base
    return arr


def _restored(arr: np.ndarray) -> np.ndarray:
    """An unpickled array, frozen; copied unless its memory is pickle's own.

    Pickle's own memory is an array that owns its data (protocol 4 and
    below, deep copies) or an immutable bytes object (protocol 5 in band).
    Anything else, such as an out-of-band buffer, can still be written by
    whoever handed it to pickle.loads.
    """
    owner = arr
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    if isinstance(owner, memoryview):
        owner = owner.obj
    return _fresh(arr if isinstance(owner, (np.ndarray, bytes)) else arr.copy())


def _restore_frozen(obj: object, state: dict) -> None:
    """Restore a pickled or deep-copied state into obj with every array read-only
    and no array viewing memory another holder can write, so a checked value
    stays as checked."""
    vars(obj).update({k: _restored(v) if isinstance(v, np.ndarray) else v for k, v in state.items()})


def _unchecked(cls: type, **fields: object) -> object:
    """cls(**fields) without its checks, for a value that is valid by construction."""
    obj = cls.__new__(cls)
    vars(obj).update(fields)
    return obj


def _check_capacity(a: int, b: int) -> None:
    """Raise DimensionError if a joint dimension a x b would exceed the cap."""
    if a * b > tolerances.DIMENSION_CAP:
        raise DimensionError(
            f"capacity overflow: {a} x {b} = {a * b} exceeds the configured cap {tolerances.DIMENSION_CAP}"
        )


def _unit_norm(v: np.ndarray, tol: float, message: str) -> float:
    """Norm of v, or ValidationError when it is not within tol of 1 (NaN never is).

    `message` is formatted with the keywords `norm` and `tol`.
    """
    with np.errstate(over="ignore"):  # a norm past the largest double is inf, refused below
        norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= tol:
        raise ValidationError(message.format(norm=norm, tol=tol))
    return norm


@dataclass(frozen=True, eq=False)
class DenseOperatorTensor:
    """Immutable (N, N) complex array tied to a screen configuration."""

    shape: ScreenConfiguration
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_complex_matrix(self.entries)
        n = self.shape.dimension
        if arr.ndim != 2 or arr.shape != (n, n):
            raise DimensionError(
                f"entry array has shape {arr.shape}, expected ({n}, {n}) for configuration {self.shape}"
            )
        if not np.isfinite(arr).all():
            raise NumericError("tensor entries must be finite (no NaN or Inf)")
        object.__setattr__(self, "entries", arr)

    def __setstate__(self, state: dict) -> None:
        _restore_frozen(self, state)

    @property
    def dimension(self) -> int:
        return self.shape.dimension

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the entries read as a Hermitian matrix.

        Computed once per tensor, since entries never change, and returned
        read-only. Assumes Hermitian entries: eigvalsh reads one triangle.
        """
        values = np.linalg.eigvalsh(self.entries)
        values.setflags(write=False)
        return values

    def entry(self, bra: Sequence[int], ket: Sequence[int]) -> complex:
        """Entry at a (bra, ket) pair of 1-based multi-indices."""
        return complex(self.entries[self.shape.flat_index(bra), self.shape.flat_index(ket)])

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its Python-level wrapper.

    Row i*m + r of the product (m = len(b)) holds a[i, j] * b[r, c] at column
    j*m + c: the same broadcast multiply that np.kron runs after its
    expand_dims, so the bits are the same, also for rows of the factors:
    _kron(a[i0:i1], b[r0:r1]) is rows i*m + r for i in i0..i1, r in r0..r1, in
    that order. A fresh, writable array.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _reordered(shape: ScreenConfiguration, order: Sequence[int]) -> tuple[ScreenConfiguration, np.ndarray]:
    """Screens reordered so target screen j is source screen order[j-1] (a
    permutation of 1..n), and the source flat position of each target one."""
    axes = [int(p) - 1 for p in order]
    target = ScreenConfiguration(tuple(shape.detector_counts[a] for a in axes))
    return target, np.arange(shape.dimension).reshape(shape.detector_counts).transpose(axes).ravel()


_BLOCK_ENTRIES = 1 << 16  # entries per block of an elementwise residual (1 MiB)


def _row_blocks(n: int, target: int) -> list[slice]:
    """Rows 0..n in ceil(n / target) blocks of even size, so that none holds
    fewer than target // 2 rows when n >= target: BLAS may take another path
    for a block of one or a few rows, and give other bits."""
    count = -(-n // target)
    edges = [n * j // count for j in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def tensor_product(a: DenseOperatorTensor, b: DenseOperatorTensor) -> DenseOperatorTensor:
    """Joint tensor on the concatenated screen list.

    The flat layout of the result is exactly the Kronecker product, because
    both use leftmost-most-significant ordering. Raises DimensionError when
    the combined dimension would exceed the configured cap.
    """
    _check_capacity(a.dimension, b.dimension)
    shape = ScreenConfiguration(a.shape.detector_counts + b.shape.detector_counts)
    return DenseOperatorTensor(shape, _fresh(_kron(a.entries, b.entries)))


def partial_trace(t: DenseOperatorTensor, screens: Iterable[int]) -> DenseOperatorTensor:
    """Trace out the given screens (1-based positions).

    Tracing every screen leaves the single-screen, single-detector
    configuration holding the full trace as its only entry.
    """
    n = t.shape.num_screens
    positions = sorted({int(s) for s in screens})
    if not positions:
        return t
    for s in positions:
        if not 1 <= s <= n:
            raise DimensionError(f"screen position {s} out of range 1..{n}")

    counts = t.shape.detector_counts
    arr = t.entries.reshape(counts + counts)
    remaining = n
    for s in reversed(positions):
        # bra axis of screen s sits at s-1, its ket partner `remaining` later
        arr = np.trace(arr, axis1=s - 1, axis2=remaining + s - 1)
        remaining -= 1

    kept = tuple(c for j, c in enumerate(counts, start=1) if j not in positions)
    new_shape = ScreenConfiguration(kept or (1,))
    m = new_shape.dimension
    return DenseOperatorTensor(new_shape, _fresh(np.ascontiguousarray(arr).reshape(m, m)))
