"""Correlation structure across screen bipartitions.

For a pure joint state, reshaping the amplitude vector into a matrix along a
cut and taking its SVD yields the Schmidt form: orthonormal vectors on each
side paired by nonnegative coefficients. Rank one across a cut means the two
sides are uncorrelated; rank one across every sequential cut means the state
is a product of single-screen factors. For arrangements (pure or mixed) a
direct marginal comparison tests product structure across a cut; it reads
the arrangement where it lies and builds the product of the marginals one
block of whole rows at a time, so it holds no N^2 array beyond its input and
the marginals, plus a block.

A state is proven once, where it comes in (length and unit norm, then the
cut). One kernel does the arithmetic of every routine: a rank profile runs it
on each cut, a separability peel on each screen split off the remainder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances
from .arrangement import ExperimentalArrangement
from .errors import DimensionError
from .screens import ScreenConfiguration
from .tensor import _BLOCK_ENTRIES, _kron, _reordered, _row_blocks, _unit_norm, partial_trace

MAX_PROFILE_SCREENS = 12


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint groups of 1-based screen positions covering all screens."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        left = tuple(sorted(int(p) for p in self.left))
        right = tuple(sorted(int(p) for p in self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if not left or not right:
            raise DimensionError("both sides of a bipartition must be nonempty")
        if set(left) & set(right):
            raise DimensionError(f"bipartition sides overlap: {left} | {right}")
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise DimensionError("bipartition sides must not repeat screens")

    @classmethod
    def split(cls, left: Sequence[int], num_screens: int) -> "Bipartition":
        """Build from the left side; the right side is the complement."""
        chosen = set(int(p) for p in left)
        right = tuple(p for p in range(1, num_screens + 1) if p not in chosen)
        return cls(tuple(chosen), right)

    def check_against(self, shape: ScreenConfiguration) -> None:
        n = shape.num_screens
        if sorted(self.left + self.right) != list(range(1, n + 1)):
            raise DimensionError(
                f"bipartition {self.left} | {self.right} does not cover screens 1..{n}"
            )

    def __str__(self) -> str:
        return ",".join(map(str, self.left)) + "|" + ",".join(map(str, self.right))


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int


def _as_state(state: Sequence[complex] | np.ndarray, shape: ScreenConfiguration) -> np.ndarray:
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    if v.size != shape.dimension:
        raise DimensionError(f"state has length {v.size}, expected {shape.dimension} for {shape}")
    _unit_norm(v, tolerances.STATE_NORM_TOL, "state norm is {norm!r}, expected 1")
    return v


def _schmidt(v: np.ndarray, counts: Sequence[int], cut: Bipartition) -> SchmidtResult:
    """Schmidt form of a proven state across a proven cut: one reorder, one SVD, one rank rule."""
    permuted = v.reshape(counts).transpose([p - 1 for p in cut.left + cut.right])
    n_left = math.prod(counts[p - 1] for p in cut.left)
    u, s, vh = np.linalg.svd(permuted.reshape(n_left, -1), full_matrices=False)
    return SchmidtResult(s, u, vh.T, int(np.count_nonzero(s > tolerances.SCHMIDT_RANK_TOL)))


_PEEL = Bipartition((1,), (2,))  # the first screen against the rest, read as one screen


def schmidt_decompose(
    state: Sequence[complex] | np.ndarray, shape: ScreenConfiguration, cut: Bipartition
) -> SchmidtResult:
    """Schmidt form of a normalized state across a cut.

    Returns coefficients (descending), left and right orthonormal vectors as
    matrix columns, and the rank (coefficients above tolerance). The state is
    the coefficient-weighted sum of left (x) right vector pairs after screens
    are permuted to (left..., right...) order.
    """
    v = _as_state(state, shape)
    cut.check_against(shape)
    return _schmidt(v, shape.detector_counts, cut)


def schmidt_rank_profile(
    state: Sequence[complex] | np.ndarray, shape: ScreenConfiguration
) -> dict[Bipartition, int]:
    """Schmidt rank across every bipartition, keyed with screen 1 on the left.

    The number of cuts doubles with each screen, so configurations beyond
    MAX_PROFILE_SCREENS screens are refused. A single screen has no cuts.
    """
    n = shape.num_screens
    if n > MAX_PROFILE_SCREENS:
        raise DimensionError(
            f"{n} screens would need {2 ** (n - 1) - 1} cuts; cap is {MAX_PROFILE_SCREENS} screens"
        )
    v = _as_state(state, shape)
    extras = (extra for r in range(n - 1) for extra in itertools.combinations(range(2, n + 1), r))
    cuts = (Bipartition.split((1,) + extra, n) for extra in extras)
    return {cut: _schmidt(v, shape.detector_counts, cut).rank for cut in cuts}


def is_fully_separable_pure(
    state: Sequence[complex] | np.ndarray, shape: ScreenConfiguration
) -> tuple[bool, list[np.ndarray] | None]:
    """Peel single screens left to right; separable iff every peel has rank one.

    On success returns one normalized factor per screen whose chained tensor
    product reconstructs the state. Each peel is one SVD of the remainder as
    a (count, rest) matrix, whose right vector is a unit state by construction.
    """
    v = _as_state(state, shape)
    factors: list[np.ndarray] = []
    for count in shape.detector_counts[:-1]:
        peeled = _schmidt(v, (count, -1), _PEEL)
        if peeled.rank != 1:
            return False, None
        factors.append(peeled.left_vectors[:, 0])
        v = peeled.right_vectors[:, 0]
    return True, factors + [v]


def is_product_across(ea: ExperimentalArrangement, cut: Bipartition) -> tuple[bool, float]:
    """Marginal product test for any valid arrangement.

    Reports the largest entrywise gap between the arrangement, read with its
    screens in (left..., right...) order, and the tensor product of its
    marginals, walked as a grid of blocks of about _BLOCK_ENTRIES entries:
    whole rows of the left marginal times all of the right one, or one row of
    the left times a row block of the right, each against the arrangement's
    rows gathered by source position. The gap is the maximum over the blocks.
    """
    cut.check_against(ea.shape)
    left = partial_trace(ea.alpha, cut.right).entries
    right = partial_trace(ea.alpha, cut.left).entries
    _, src = _reordered(ea.shape, cut.left + cut.right)
    grid, rows, residual = src.reshape(len(left), -1), max(1, _BLOCK_ENTRIES // ea.dimension), 0.0
    for li, ri in itertools.product(_row_blocks(len(left), max(1, rows // len(right))), _row_blocks(len(right), rows)):
        product = _kron(left[li], right[ri])
        given = ea.alpha.entries[np.ix_(grid[li, ri].ravel(), src)]
        residual = max(residual, float(np.abs(np.subtract(given, product, out=product)).max()))
    return residual <= tolerances.PRODUCT_TOL, residual
