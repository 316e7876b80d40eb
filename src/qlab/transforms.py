"""Basis changes, refactorizations, and screen insertion or removal.

A basis transformation is a unitary matrix, proven unitary once, read against
the fixed flattening of a source and a target configuration, which may
factorize the same total dimension differently. Entry transformation is one
conjugation, computed in one place, which also undoes it by the adjoint; a
screen permutation moves entries by index and builds its matrix only when it
is read:

    transformed = matrix @ alpha @ matrix^dagger

Both products of a dense matrix are computed in row blocks of about 256
rows, split evenly, which give the bits of the whole products; a
conjugation holds one N^2 array beyond its input and result (the
matrix^dagger, or for the adjoint the array it fills), plus a row block.

A transformation weakly remembers the last arrangement it moved and the
result, so a second change_basis of the same arrangement (the verifier's,
after its caller's) returns that result instead of computing it again. The
memo holds no reference that keeps either alive.

Every operation assumes a valid input. Unitary conjugation, partial trace
and adjoining a pure screen preserve validity, so results get only the O(N^2)
Hermiticity, trace and diagonal checks; positivity is not proven again.

Two verifiers exercise the calculus end to end: one checks that a unitary
change of description preserves spectra and the valuation of every
projector, the latter through one O(N^2) Frobenius bound on the result moved
back by the inverse, so it draws no projectors; the other that adjoining an
uncorrelated screen and then removing it is lossless.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tolerances
from .arrangement import ExperimentalArrangement, _valid_result
from .errors import DimensionError, NumericError
from .rand import make_rng, random_state_vector, random_unitary
from .screens import ScreenConfiguration
from .tensor import (
    DenseOperatorTensor,
    _check_capacity,
    _fresh,
    _frozen_complex_matrix,
    _reordered,
    _restore_frozen,
    _row_blocks,
    _unchecked,
    _unit_norm,
    partial_trace,
    tensor_product,
)


def _same_dimension(source: ScreenConfiguration, target: ScreenConfiguration) -> None:
    if source.dimension != target.dimension:
        raise DimensionError(f"source dimension {source.dimension} differs from target dimension {target.dimension}")


@dataclass(frozen=True, eq=False)
class BasisTransformation:
    """Unitary coefficients mapping source description to target description.

    It is proven unitary once: the constructor checks a caller's matrix in N^3
    time, and Haar draws, screen permutations and their inverses are built
    unitary. A permutation, the identity included, holds only _source_index,
    the source flat position of each target one; entries move by index, and
    `matrix` (row i has its 1 in column _source_index[i]) is built on first read.
    _last_moved holds weak references to the last (arrangement, result) pair
    of change_basis; a pickled copy leaves it behind, and its arrays come
    back read-only.
    """

    source_shape: ScreenConfiguration
    target_shape: ScreenConfiguration
    matrix: np.ndarray = field(repr=False)
    _source_index: np.ndarray | None = field(default=None, init=False, repr=False)
    _last_moved: tuple[weakref.ref, weakref.ref] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _same_dimension(self.source_shape, self.target_shape)
        mat = _frozen_complex_matrix(self.matrix)
        n = self.source_shape.dimension
        if mat.shape != (n, n):
            raise DimensionError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        dev = float(np.abs(mat @ mat.conj().T - np.eye(n)).max())
        if dev > tolerances.UNITARITY_TOL:
            raise NumericError(f"transformation matrix is not unitary: max deviation {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    def __getattr__(self, name: str) -> np.ndarray:
        src = self._source_index
        if name != "matrix" or src is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = np.zeros((len(src), len(src)), dtype=np.complex128)
        mat[np.arange(len(src)), src] = 1.0
        object.__setattr__(self, "matrix", _fresh(mat))
        return mat

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_last_moved"}  # weak references do not pickle

    def __setstate__(self, state: dict) -> None:
        _restore_frozen(self, state)

    @classmethod
    def identity(
        cls, shape: ScreenConfiguration, target_shape: ScreenConfiguration | None = None
    ) -> "BasisTransformation":
        return cls._unitary_by_construction(shape, target_shape or shape, np.arange(shape.dimension))

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
        return cls._unitary_by_construction(shape, target, src)

    @classmethod
    def _unitary_by_construction(
        cls, source: ScreenConfiguration, target: ScreenConfiguration, built: np.ndarray
    ) -> "BasisTransformation":
        """The constructor's result, minus its N^3 check, for a Haar matrix or a
        permutation's source index (1-D), frozen in place."""
        _same_dimension(source, target)
        kept = "_source_index" if built.ndim == 1 else "matrix"
        return _unchecked(cls, source_shape=source, target_shape=target, **{kept: _fresh(built)})

    def inverse(self) -> "BasisTransformation":
        src = self._source_index
        built = self.matrix.conj().T if src is None else np.argsort(src)
        return self._unitary_by_construction(self.target_shape, self.source_shape, built)


_CONJUGATE_ROWS = 256  # target rows per block of a conjugation's products; up to N = 256 one block


def _conjugate(entries: np.ndarray, bt: BasisTransformation, adjoint: bool = False) -> np.ndarray:
    """bt.matrix @ entries @ bt.matrix^dagger, or with `adjoint` bt.matrix^dagger
    @ entries @ bt.matrix, which undoes it; an index move for a permutation.

    A dense matrix is multiplied in row blocks (see _row_blocks; one block
    up to 256 rows), which give the bits of the whole products: the first product
    is the result array (the adjoint fills it from column blocks of the
    matrix, so no conjugated copy is made), then each of its row blocks is
    overwritten by its product with the right factor. Beyond the result the
    forward direction holds the matrix^dagger and a row block, the adjoint
    only a row block.
    """
    src = bt._source_index
    if src is not None:
        if adjoint:
            src = np.argsort(src)
        return entries[np.ix_(src, src)]
    lam = bt.matrix
    blocks = _row_blocks(len(lam), _CONJUGATE_ROWS)
    if adjoint:
        out = np.empty(entries.shape, dtype=np.complex128)
        for rows in blocks:
            np.matmul(lam[:, rows].conj().T, entries, out=out[rows])
        right = lam
    else:
        out, right = lam @ entries, lam.conj().T
    for rows in blocks:
        out[rows] = out[rows] @ right
    return out


def change_basis(ea: ExperimentalArrangement, bt: BasisTransformation) -> ExperimentalArrangement:
    """Re-express the arrangement in the target description.

    Called again with the same arrangement object while its last result is
    alive, it returns that result: both are immutable, so it is the same value.
    """
    if ea.shape != bt.source_shape:
        raise DimensionError(
            f"arrangement configuration {ea.shape} does not match transformation source {bt.source_shape}"
        )
    last = bt._last_moved
    if last is not None and last[0]() is ea and (moved := last[1]()) is not None:
        return moved
    moved = _valid_result(DenseOperatorTensor(bt.target_shape, _fresh(_conjugate(ea.alpha.entries, bt))), ea.label)
    object.__setattr__(bt, "_last_moved", (weakref.ref(ea), weakref.ref(moved)))
    return moved


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
        if not np.isfinite(phi).all():
            raise NumericError("ancilla amplitudes must be finite")
        _unit_norm(phi, tolerances.STATE_NORM_TOL, "ancilla state norm is {norm!r}, expected 1")
    ancilla = DenseOperatorTensor(ScreenConfiguration((ancilla_dim,)), _fresh(np.outer(phi, phi.conj())))
    return _valid_result(tensor_product(ea.alpha, ancilla), ea.label)


@dataclass(frozen=True)
class BasisInvarianceReport:
    degree: int
    spectrum_residual: float
    valuation_residual: float
    passed: bool


def verify_basis_invariance(
    ea: ExperimentalArrangement,
    bt: BasisTransformation,
    *,
    seed: int | np.random.Generator | None = None,
) -> BasisInvarianceReport:
    """Check that a unitary change of description is observationally silent.

    Compares the sorted spectra of the original and transformed arrangements,
    and bounds the valuation gap of every projector at once. A projector P
    maps to lam P lam^dagger, whose valuation on the transformed entries b is
    tr(lam P lam^dagger b) = tr(P pulled), with `pulled` = lam^dagger b lam.
    So for d = a - pulled, by the Cauchy-Schwarz inequality for the
    Hilbert-Schmidt product,

        |tr(P a) - tr(P pulled)| = |tr(P d)| <= ||P||_F ||d||_F <= sqrt(N) ||d||_F,

    and valuation_residual is sqrt(N) ||d||_F: an upper bound on the gap of
    every projector, the basis powers and the identity included, up to the
    rounding of the norm. `pulled` is b moved back by the adjoint, an index
    move for a permutation (so a permutation's bound is exactly 0), and d
    is subtracted into it. The moved arrangement is the caller's own when it
    has just made it with bt. `seed` is accepted and unused: the verifier
    draws nothing.
    """
    moved = change_basis(ea, bt)
    spectrum_residual = float(np.abs(ea.alpha.spectrum - moved.alpha.spectrum).max())
    d = _conjugate(moved.alpha.entries, bt, adjoint=True)  # a fresh array: subtract into it
    d -= ea.alpha.entries
    valuation_residual = math.sqrt(ea.dimension) * float(np.linalg.norm(d))
    passed = (
        spectrum_residual <= tolerances.SPECTRUM_TOL
        and valuation_residual <= tolerances.VALUATION_TOL
    )
    return BasisInvarianceReport(
        degree=ea.dimension,
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
            roundtrip, float(np.abs(back.alpha.entries - ea.alpha.entries).max())
        )
        joint = extended.potentia_table().reshape(ea.dimension, ancilla_dim)
        marginal = max(marginal, float(np.abs(joint.sum(axis=1) - diag).max()))
    passed = roundtrip <= tolerances.ROUNDTRIP_TOL and marginal <= tolerances.MARGINAL_TOL
    return FactorizationInvarianceReport(
        ancilla_dim=ancilla_dim,
        trials=trials,
        max_roundtrip_residual=roundtrip,
        max_marginal_residual=marginal,
        passed=passed,
    )
