"""Dense operator tensors over factorized detector spaces.

A tensor holds one complex entry per (bra multi-index, ket multi-index) pair
and is stored as an (N, N) array under the shared row-major flattening, so
matrix algebra and multi-index access describe the same object. Entries are
immutable after construction; every operation returns a new tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tolerances
from .errors import DimensionError, NumericError, ValidationError
from .screens import ScreenConfiguration


def _frozen_complex_matrix(entries: object) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.flags.writeable:
        if arr is entries or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _check_capacity(a: int, b: int) -> None:
    """Raise DimensionError if a joint dimension a x b would exceed the cap."""
    if a * b > tolerances.DIMENSION_CAP:
        raise DimensionError(
            f"capacity overflow: {a} x {b} = {a * b} exceeds the configured cap {tolerances.DIMENSION_CAP}"
        )


def _reordered(shape: ScreenConfiguration, order: Sequence[int]) -> tuple[ScreenConfiguration, np.ndarray]:
    """Screens reordered so target screen j is source screen order[j-1] (a
    permutation of 1..n), and the source flat position of each target one."""
    axes = [int(p) - 1 for p in order]
    target = ScreenConfiguration(tuple(shape.detector_counts[a] for a in axes))
    return target, np.arange(shape.dimension).reshape(shape.detector_counts).transpose(axes).ravel()


def _unit_norm(v: np.ndarray, tol: float, message: str) -> float:
    """Norm of v, or ValidationError when it is not within tol of 1 (NaN never is).

    `message` is formatted with the keywords `norm` and `tol`.
    """
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
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor entries must be finite (no NaN or Inf)")
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.shape.dimension

    def entry(self, bra: Sequence[int], ket: Sequence[int]) -> complex:
        """Entry at a (bra, ket) pair of 1-based multi-indices."""
        return complex(self.entries[self.shape.flat_index(bra), self.shape.flat_index(ket)])

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal()


def zeros(shape: ScreenConfiguration) -> DenseOperatorTensor:
    n = shape.dimension
    return DenseOperatorTensor(shape, np.zeros((n, n), dtype=np.complex128))


def tensor_product(a: DenseOperatorTensor, b: DenseOperatorTensor) -> DenseOperatorTensor:
    """Joint tensor on the concatenated screen list.

    The flat layout of the result is exactly the Kronecker product, because
    both use leftmost-most-significant ordering. Raises DimensionError when
    the combined dimension would exceed the configured cap.
    """
    _check_capacity(a.dimension, b.dimension)
    shape = ScreenConfiguration(a.shape.detector_counts + b.shape.detector_counts)
    return DenseOperatorTensor(shape, np.kron(a.entries, b.entries))


def conjugate_transpose(t: DenseOperatorTensor) -> DenseOperatorTensor:
    return DenseOperatorTensor(t.shape, t.entries.conj().T)


def trace(t: DenseOperatorTensor) -> complex:
    return complex(np.trace(t.entries))


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

    kept = [c for j, c in enumerate(counts, start=1) if j not in positions]
    if not kept:
        new_shape = ScreenConfiguration((1,))
        return DenseOperatorTensor(new_shape, np.asarray(arr, dtype=np.complex128).reshape(1, 1))
    new_shape = ScreenConfiguration(tuple(kept))
    m = new_shape.dimension
    return DenseOperatorTensor(new_shape, np.ascontiguousarray(arr).reshape(m, m))


def hermitian_eigendecomposition(t: DenseOperatorTensor) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, ties keep ascending-order first occurrence)
    and matching orthonormal eigenvector columns.

    Raises NumericError when the tensor is not Hermitian within tolerance.
    """
    a = t.entries
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tolerances.HERMITICITY_TOL:
        raise NumericError(f"tensor is not Hermitian: max deviation {dev:.3e}")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def singular_value_decomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vh) with s descending and m = u @ diag(s) @ vh."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of rank {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("matrix entries must be finite")
    return np.linalg.svd(arr, full_matrices=False)
