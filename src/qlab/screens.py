"""Screen configurations and multi-index arithmetic.

A configuration is an ordered list of screens, each with a fixed number of
detectors. Joint outcomes are addressed by multi-indices (k_1, ..., k_n) with
1-based components, k_j selecting a detector on screen j. Internally every
multi-index maps to a 0-based flat position via mixed-radix, row-major order
with the leftmost screen most significant; that flattening is fixed across the
whole package and is what ties tensor entries to detector outcomes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import tolerances
from .errors import DimensionError


@dataclass(frozen=True)
class ScreenConfiguration:
    """Ordered detector counts, one per screen."""

    detector_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.detector_counts)
        object.__setattr__(self, "detector_counts", counts)
        if len(counts) < 1:
            raise DimensionError("a configuration needs at least one screen")
        for j, c in enumerate(counts, start=1):
            if c < 1:
                raise DimensionError(f"screen {j} has detector count {c}; each screen needs at least one detector")
        n = math.prod(counts)
        if n > tolerances.DIMENSION_CAP:
            raise DimensionError(
                f"total dimension {n} exceeds the configured cap {tolerances.DIMENSION_CAP}"
            )

    @property
    def num_screens(self) -> int:
        return len(self.detector_counts)

    @property
    def dimension(self) -> int:
        """Total dimension: the product of all detector counts."""
        return math.prod(self.detector_counts)

    def check_index(self, index: Sequence[int]) -> tuple[int, ...]:
        """Validate a 1-based multi-index against this configuration."""
        idx = tuple(int(k) for k in index)
        if len(idx) != self.num_screens:
            raise DimensionError(
                f"multi-index {idx} has {len(idx)} components, expected {self.num_screens}"
            )
        for j, (k, c) in enumerate(zip(idx, self.detector_counts), start=1):
            if not 1 <= k <= c:
                raise DimensionError(
                    f"index {k} out of range 1..{c} on screen {j}"
                )
        return idx

    def flat_index(self, index: Sequence[int]) -> int:
        """0-based flat position of a 1-based multi-index."""
        idx = self.check_index(index)
        flat = 0
        for k, c in zip(idx, self.detector_counts):
            flat = flat * c + (k - 1)
        return flat

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """1-based multi-index at a 0-based flat position."""
        if not 0 <= flat < self.dimension:
            raise DimensionError(f"flat position {flat} out of range 0..{self.dimension - 1}")
        out = []
        for c in reversed(self.detector_counts):
            out.append(flat % c + 1)
            flat //= c
        return tuple(reversed(out))

    def all_indices(self) -> Iterator[tuple[int, ...]]:
        """All multi-indices in flat order."""
        return itertools.product(*(range(1, c + 1) for c in self.detector_counts))

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.detector_counts) + "]"


def configuration(*counts: int) -> ScreenConfiguration:
    """Shorthand constructor: configuration(2, 2, 2)."""
    return ScreenConfiguration(tuple(counts))
