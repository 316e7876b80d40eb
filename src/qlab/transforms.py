"""Basis changes, refactorizations, and screen insertion or removal.

A basis transformation is a unitary matrix read against the fixed flattening
of a source and a target configuration. The two configurations may factorize
the same total dimension differently; only the product has to agree. Entry
transformation is matrix conjugation under that flattening:

    transformed = matrix @ alpha @ matrix^dagger

Every operation assumes a valid input. Unitary conjugation, partial trace
and adjoining a pure screen preserve validity, so results get only the O(N^2)
Hermiticity, trace and diagonal checks; positivity is not proven again.

Two verifiers exercise the calculus end to end: one checks that a unitary
change of description preserves spectra and projector valuations, the other
that adjoining an uncorrelated screen and then removing it is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tolerances
from .arrangement import ExperimentalArrangement, _valid_result
from .errors import DimensionError, NumericError
from .rand import _haar_columns, make_rng, random_state_vector, random_unitary
from .screens import ScreenConfiguration
from .tensor import (
    DenseOperatorTensor,
    _check_capacity,
    _frozen_complex_matrix,
    _reordered,
    _unit_norm,
    partial_trace,
    tensor_product,
)


@dataclass(frozen=True, eq=False)
class BasisTransformation:
    """Unitary coefficients mapping source description to target description.

    The constructor proves the matrix unitary by an N^3 check. Haar draws,
    screen permutations and their inverses are unitary by construction;
    they are built by _unitary_by_construction, which skips that check. A
    screen permutation, the identity included, also keeps `_source_index`,
    the source flat position of each target one. Its matrix is
    eye(N)[_source_index], and change_basis moves entries by index instead
    of multiplying.
    """

    source_shape: ScreenConfiguration
    target_shape: ScreenConfiguration
    matrix: np.ndarray
    _source_index: np.ndarray | None = field(default=None, init=False, repr=False)
    _unitary: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.source_shape.dimension != self.target_shape.dimension:
            raise DimensionError(
                f"source dimension {self.source_shape.dimension} differs from "
                f"target dimension {self.target_shape.dimension}"
            )
        mat = _frozen_complex_matrix(np.asarray(self.matrix, dtype=np.complex128))
        n = self.source_shape.dimension
        if mat.shape != (n, n):
            raise DimensionError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        if not self._unitary:
            dev = float(np.max(np.abs(mat @ mat.conj().T - np.eye(n))))
            if dev > tolerances.UNITARITY_TOL:
                raise NumericError(f"transformation matrix is not unitary: max deviation {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(
        cls, shape: ScreenConfiguration, target_shape: ScreenConfiguration | None = None
    ) -> "BasisTransformation":
        return cls._permutation(shape, target_shape or shape, np.arange(shape.dimension))

    @classmethod
    def random(
        cls,
        shape: ScreenConfiguration,
        seed: int | np.random.Generator,
        target_shape: ScreenConfiguration | None = None,
    ) -> "BasisTransformation":
        return cls._unitary_by_construction(shape, target_shape or shape, random_unitary(shape.dimension, seed))

    @classmethod
    def screen_permutation(
        cls, shape: ScreenConfiguration, order: Sequence[int]
    ) -> "BasisTransformation":
        """Reorder screens. `order` lists source screen positions (1-based)
        in their new left-to-right order; target screen j is source screen
        order[j-1]."""
        n = shape.num_screens
        perm = tuple(int(p) for p in order)
        if sorted(perm) != list(range(1, n + 1)):
            raise DimensionError(f"order {perm} is not a permutation of 1..{n}")
        target, src = _reordered(shape, perm)
        return cls._permutation(shape, target, src)

    @classmethod
    def _permutation(
        cls, source: ScreenConfiguration, target: ScreenConfiguration, src: np.ndarray
    ) -> "BasisTransformation":
        """Target flat position i takes source position src[i]."""
        src.setflags(write=False)
        return cls._unitary_by_construction(source, target, np.eye(source.dimension, dtype=np.complex128)[src], src)

    @classmethod
    def _unitary_by_construction(
        cls,
        source: ScreenConfiguration,
        target: ScreenConfiguration,
        matrix: np.ndarray,
        source_index: np.ndarray | None = None,
    ) -> "BasisTransformation":
        """The constructor's result for a matrix unitary by construction, without its N^3 check."""
        bt = cls.__new__(cls)
        names = "source_shape", "target_shape", "matrix", "_source_index", "_unitary"
        for name, value in zip(names, (source, target, matrix, source_index, True)):
            object.__setattr__(bt, name, value)
        bt.__post_init__()
        return bt

    def inverse(self) -> "BasisTransformation":
        if self._source_index is not None:
            return BasisTransformation._permutation(self.target_shape, self.source_shape, np.argsort(self._source_index))
        build = BasisTransformation._unitary_by_construction if self._unitary else BasisTransformation
        return build(self.target_shape, self.source_shape, self.matrix.conj().T)


def change_basis(ea: ExperimentalArrangement, bt: BasisTransformation) -> ExperimentalArrangement:
    """Re-express the arrangement in the target description."""
    if ea.shape != bt.source_shape:
        raise DimensionError(
            f"arrangement configuration {ea.shape} does not match transformation source {bt.source_shape}"
        )
    src = bt._source_index
    if src is None:
        moved = bt.matrix @ ea.alpha.entries @ bt.matrix.conj().T
    else:
        moved = ea.alpha.entries[np.ix_(src, src)]
    return _valid_result(DenseOperatorTensor(bt.target_shape, moved), ea.label)


def refactorize(ea: ExperimentalArrangement, new_shape: ScreenConfiguration) -> ExperimentalArrangement:
    """Reread the same flat entries under a different factorization.

    The entry array is reused as-is, so the result is bit-identical.
    """
    if new_shape.dimension != ea.dimension:
        raise DimensionError(
            f"cannot refactor dimension {ea.dimension} as {new_shape} "
            f"(product {new_shape.dimension})"
        )
    return ExperimentalArrangement(DenseOperatorTensor(new_shape, ea.alpha.entries), ea.label)


def remove_screen(ea: ExperimentalArrangement, screen: int) -> ExperimentalArrangement:
    """Drop one screen (1-based position) by tracing out its detector index."""
    if ea.shape.num_screens < 2:
        raise DimensionError("cannot remove the only screen")
    return _valid_result(partial_trace(ea.alpha, [screen]), ea.label)


def remove_screens(ea: ExperimentalArrangement, screens: Sequence[int]) -> ExperimentalArrangement:
    """Drop several screens at once; at least one must survive."""
    positions = sorted({int(s) for s in screens})
    if len(positions) >= ea.shape.num_screens:
        raise DimensionError("cannot remove every screen")
    return _valid_result(partial_trace(ea.alpha, positions), ea.label)


def extend_arrangement(
    ea: ExperimentalArrangement,
    ancilla_dim: int,
    ancilla_state: Sequence[complex] | np.ndarray | None = None,
) -> ExperimentalArrangement:
    """Adjoin an uncorrelated screen in a pure state as the new last screen.

    Default ancilla is the first basis state. The ancilla must be normalized.
    The joint dimension is checked against the cap before anything is allocated.
    """
    if ancilla_dim < 1:
        raise DimensionError(f"ancilla dimension must be at least 1, got {ancilla_dim}")
    _check_capacity(ea.dimension, ancilla_dim)
    if ancilla_state is None:
        phi = np.zeros(ancilla_dim, dtype=np.complex128)
        phi[0] = 1.0
    else:
        phi = np.asarray(ancilla_state, dtype=np.complex128).reshape(-1)
        if phi.size != ancilla_dim:
            raise DimensionError(
                f"ancilla state has length {phi.size}, expected {ancilla_dim}"
            )
        if not np.all(np.isfinite(phi)):
            raise NumericError("ancilla amplitudes must be finite")
        _unit_norm(phi, tolerances.STATE_NORM_TOL, "ancilla state norm is {norm!r}, expected 1")
    ancilla = DenseOperatorTensor(ScreenConfiguration((ancilla_dim,)), np.outer(phi, phi.conj()))
    return _valid_result(tensor_product(ea.alpha, ancilla), ea.label)


@dataclass(frozen=True)
class BasisInvarianceReport:
    degree: int
    num_projectors: int
    spectrum_residual: float
    valuation_residual: float
    passed: bool


def verify_basis_invariance(
    ea: ExperimentalArrangement,
    bt: BasisTransformation,
    extra_projectors: int = 3,
    seed: int | np.random.Generator = 0,
) -> BasisInvarianceReport:
    """Check that a unitary change of description is observationally silent.

    Compares the sorted spectra of the original and transformed arrangements,
    and the valuation of every basis power, the identity, and
    `extra_projectors` random projectors against the valuation of their
    transformed images.

    A random projector p = C C^dagger (C holding `rank` orthonormal columns)
    maps to lam p lam^dagger, whose valuation on the transformed entries b is

        tr(b lam C C^dagger lam^dagger) = tr(C^dagger (lam^dagger b lam) C),

    so it is read from `pulled` = lam^dagger b lam, which the basis powers
    need anyway, in O(N^2 rank) without forming an N x N projector.
    """
    if extra_projectors < 0:
        raise DimensionError(f"need a nonnegative number of extra projectors, got {extra_projectors}")
    moved = change_basis(ea, bt)
    n = ea.dimension
    a, b, lam = ea.alpha.entries, moved.alpha.entries, bt.matrix

    spectrum_residual = float(np.max(np.abs(ea.alpha.spectrum - moved.alpha.spectrum)))

    # Basis powers all at once: valuations on the source are diag(a); their
    # images have valuation diag(lam^dagger b lam).
    pulled = lam.conj().T @ b @ lam
    valuation_residual = float(np.max(np.abs(a.diagonal().real - pulled.diagonal().real)))
    # Identity maps to itself.
    valuation_residual = max(valuation_residual, abs(float(np.trace(a).real) - float(np.trace(b).real)))

    rng = make_rng(seed)
    for _ in range(extra_projectors):
        rank = int(rng.integers(1, n)) if n > 1 else 1
        c = _haar_columns(n, rank, rng)
        before = float(np.vdot(c, a @ c).real)
        after = float(np.vdot(c, pulled @ c).real)
        valuation_residual = max(valuation_residual, abs(before - after))

    passed = (
        spectrum_residual <= tolerances.SPECTRUM_TOL
        and valuation_residual <= tolerances.VALUATION_TOL
    )
    return BasisInvarianceReport(
        degree=n,
        num_projectors=n + 1 + extra_projectors,
        spectrum_residual=spectrum_residual,
        valuation_residual=valuation_residual,
        passed=passed,
    )


@dataclass(frozen=True)
class FactorizationInvarianceReport:
    ancilla_dim: int
    trials: int
    max_roundtrip_residual: float
    max_marginal_residual: float
    passed: bool


def verify_factorization_invariance(
    ea: ExperimentalArrangement,
    ancilla_dim: int,
    trials: int = 1,
    seed: int | np.random.Generator = 0,
) -> FactorizationInvarianceReport:
    """Extend with an uncorrelated screen, remove it, and compare.

    Trial 1 uses the default basis ancilla; later trials draw random pure
    ancilla states. Also checks that every potentia query on the original is
    answered identically by marginalizing the extended arrangement.
    """
    if trials < 1:
        raise DimensionError(f"need at least one trial, got {trials}")
    rng = make_rng(seed)
    last = ea.shape.num_screens + 1
    diag = ea.potentia_table()
    roundtrip = 0.0
    marginal = 0.0
    for t in range(trials):
        phi = None if t == 0 else random_state_vector(ancilla_dim, rng)
        extended = extend_arrangement(ea, ancilla_dim, phi)
        back = remove_screen(extended, last)
        roundtrip = max(
            roundtrip, float(np.max(np.abs(back.alpha.entries - ea.alpha.entries)))
        )
        joint = extended.potentia_table().reshape(ea.dimension, ancilla_dim)
        marginal = max(marginal, float(np.max(np.abs(joint.sum(axis=1) - diag))))
    passed = roundtrip <= tolerances.ROUNDTRIP_TOL and marginal <= tolerances.MARGINAL_TOL
    return FactorizationInvarianceReport(
        ancilla_dim=ancilla_dim,
        trials=trials,
        max_roundtrip_residual=roundtrip,
        max_marginal_residual=marginal,
        passed=passed,
    )
