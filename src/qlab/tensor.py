"""Dense operator tensors over factorized detector spaces.

A tensor holds one complex entry per (bra multi-index, ket multi-index) pair
and is stored as an (N, N) array under the shared row-major flattening, so
matrix algebra and multi-index access describe the same object. Entries are
immutable after construction; every operation returns a new tensor.
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
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor entries must be finite (no NaN or Inf)")
        object.__setattr__(self, "entries", arr)

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


def tensor_product(a: DenseOperatorTensor, b: DenseOperatorTensor) -> DenseOperatorTensor:
    """Joint tensor on the concatenated screen list.

    The flat layout of the result is exactly the Kronecker product, because
    both use leftmost-most-significant ordering. Raises DimensionError when
    the combined dimension would exceed the configured cap.
    """
    _check_capacity(a.dimension, b.dimension)
    shape = ScreenConfiguration(a.shape.detector_counts + b.shape.detector_counts)
    return DenseOperatorTensor(shape, np.kron(a.entries, b.entries))


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
    return DenseOperatorTensor(new_shape, np.ascontiguousarray(arr).reshape(m, m))
