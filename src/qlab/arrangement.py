"""Experimental arrangements and the intensive valuation they induce.

An arrangement assigns one complex entry to every (bra, ket) pair of joint
detector outcomes. A valid arrangement is Hermitian with unit trace and no
negative eigenvalues, so its diagonal is a table of potentia: real weights in
[0, 1] summing to 1, one per joint outcome (power). The valuation extends that
table to arbitrary projectors by trace(alpha . P) and is additive over
pairwise orthogonal families.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import tolerances
from .errors import DimensionError, NumericError, ValidationError
from .screens import ScreenConfiguration
from .tensor import DenseOperatorTensor, _fresh, _unchecked, _unit_norm

SAMPLER_ALGORITHM = "numpy-pcg64-multinomial"
# outside XML 1.0 Char (section 2.2): C0 controls but tab, LF, CR; surrogates; U+FFFE, U+FFFF
_NON_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_HERMITIAN_BLOCK = 1 << 16  # entries per row block of the Hermiticity residual (1 MiB)


def _label_fault(label: str | None) -> str | None:
    """Why a label cannot be stored or drawn, or None when it is absent or XML 1.0 text."""
    bad = _NON_XML_CHAR.search(label or "")
    return bad and f"label holds U+{ord(bad.group()):04X}, which is not an XML 1.0 character"


@dataclass(frozen=True)
class Power:
    """One joint outcome: a 1-based detector choice on every screen."""

    shape: ScreenConfiguration
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", self.shape.check_index(self.index))

    @property
    def flat(self) -> int:
        return self.shape.flat_index(self.index)

    def projector(self) -> "GeneralProjector":
        n = self.shape.dimension
        m = np.zeros((n, n), dtype=np.complex128)
        m[self.flat, self.flat] = 1.0
        return _unchecked(GeneralProjector, matrix=DenseOperatorTensor(self.shape, _fresh(m)))


@dataclass(frozen=True, eq=False)
class ExperimentalArrangement:
    """An operator tensor together with an optional label.

    Construction is structural only. Positivity is proven where data
    enters or leaves: parse/read with validate=True, serialize/write, and
    explicit validate_isa/require_valid calls. Builders and transforms
    assume valid inputs (a loaded file, a builder output, or an arrangement
    passed through require_valid) and re-check only the O(N^2) properties.
    """

    alpha: DenseOperatorTensor
    label: str | None = None

    @property
    def shape(self) -> ScreenConfiguration:
        return self.alpha.shape

    @property
    def dimension(self) -> int:
        return self.alpha.dimension

    def potentia(self, index: Sequence[int]) -> float:
        return potentia_of_power(self, index)

    def potentia_table(self) -> np.ndarray:
        """Real diagonal in flat order."""
        diag = self.alpha.diagonal()
        worst = float(np.abs(diag.imag).max())
        if worst > tolerances.DIAGONAL_TOL:
            raise NumericError(f"diagonal has imaginary part {worst:.3e}")
        return diag.real.copy()


@dataclass(frozen=True)
class IsaCheck:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class IsaValidationReport:
    checks: tuple[IsaCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> IsaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _hermiticity_residual(a: np.ndarray) -> float:
    """max |a - a^dagger|, taken over row blocks of the upper triangle.

    In floating point |x - conj(y)| = |y - conj(x)|, so the upper triangle
    gives the full maximum bit for bit. A block holds about _HERMITIAN_BLOCK
    entries; up to N = 256 the whole matrix is one block.
    """
    rows = max(1, _HERMITIAN_BLOCK // len(a))
    return max(float(np.abs(a[i : i + rows, i:] - a[i:, i : i + rows].conj().T).max()) for i in range(0, len(a), rows))


def _structural_checks(a: np.ndarray) -> tuple[IsaCheck, ...]:
    """The O(N^2) checks of validate_isa: hermitian, trace, diagonal. The
    diagonal residual is the worst of imaginary part and distance outside [0, 1].
    Entries near the largest double give inf residuals, which fail."""
    diag = a.diagonal()
    below = float(np.maximum(-diag.real, 0.0).max())
    above = float(np.maximum(diag.real - 1.0, 0.0).max())
    with np.errstate(over="ignore", invalid="ignore"):
        found = (
            ("hermitian", _hermiticity_residual(a), tolerances.HERMITICITY_TOL),
            ("trace", float(abs(np.trace(a) - 1.0)), tolerances.TRACE_TOL),
            ("diagonal", max(float(np.abs(diag.imag).max()), below, above), tolerances.DIAGONAL_TOL),
        )
    return tuple(IsaCheck(name, res <= tol, res, tol) for name, res, tol in found)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger) / 2, halved first so that finite entries cannot overflow."""
    conj = a.conj()
    conj /= 2.0
    return a / 2.0 + conj.T


def validate_isa(ea: ExperimentalArrangement) -> IsaValidationReport:
    """Check the four arrangement properties and report each residual.

    Checks, in order: hermitian, trace, positive, diagonal. The positive
    residual comes from a full O(N^3) eigvalsh; require_valid and the
    writer ask for it only when a cheaper Cholesky cannot prove positivity.
    """
    a = ea.alpha.entries
    herm, trace, diag = _structural_checks(a)
    # eigvalsh assumes Hermitian input; symmetrize so a lopsided candidate
    # still gets a sensible positivity figure instead of garbage
    min_eig = float(np.linalg.eigvalsh(_hermitian_part(a))[0])
    floor = tolerances.PSD_EIGENVALUE_FLOOR
    # eigvalsh returns NaN when the spectrum overflows: an inf residual
    residual = np.inf if np.isnan(min_eig) else max(0.0, -min_eig)
    positive = IsaCheck("positive", min_eig >= floor, residual, -floor)
    return IsaValidationReport((herm, trace, positive, diag))


def _require(ea: ExperimentalArrangement, checks: Sequence[IsaCheck]) -> ExperimentalArrangement:
    detail = ", ".join(f"{c.name} (residual {c.residual:.6e})" for c in checks if not c.passed)
    if detail:
        raise ValidationError(f"arrangement failed validation: {detail}")
    return ea


def _passes_gate(ea: ExperimentalArrangement) -> bool:
    """True only if validate_isa would pass, proven without eigvalsh.

    Runs the O(N^2) checks, then one Cholesky of the matrix validate_isa's
    eigvalsh sees, shifted by tolerances.PSD_CHOLESKY_SHIFT; a Cholesky
    that succeeds bounds the smallest eigenvalue above the floor. False
    says nothing: the caller asks validate_isa.
    """
    a = ea.alpha.entries
    if not all(check.passed for check in _structural_checks(a)):
        return False
    shifted = _hermitian_part(a)
    shifted.flat[:: len(a) + 1] += tolerances.PSD_CHOLESKY_SHIFT
    try:
        # An overflow yields a non-finite factor, not an error, and a
        # non-finite entry spreads to every later diagonal entry.
        return bool(np.isfinite(np.linalg.cholesky(shifted).diagonal()).all())
    except np.linalg.LinAlgError:
        return False


def _failed_checks(ea: ExperimentalArrangement) -> tuple[IsaCheck, ...]:
    """The checks validate_isa fails; () without eigvalsh when _passes_gate passes."""
    return () if _passes_gate(ea) else tuple(c for c in validate_isa(ea).checks if not c.passed)


def require_valid(ea: ExperimentalArrangement) -> ExperimentalArrangement:
    return _require(ea, _failed_checks(ea))


def _valid_result(alpha: DenseOperatorTensor, label: str | None) -> ExperimentalArrangement:
    """Arrangement from a result valid by mathematics: O(N^2) checks, no positivity."""
    return _require(ExperimentalArrangement(alpha, label), _structural_checks(alpha.entries))


def build_from_state_vector(
    amplitudes: Sequence[complex] | np.ndarray,
    shape: ScreenConfiguration,
    label: str | None = None,
) -> ExperimentalArrangement:
    """Rank-one arrangement |v><v| from a normalized amplitude vector in flat order."""
    v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if v.size != shape.dimension:
        raise DimensionError(
            f"amplitude vector has length {v.size}, expected {shape.dimension} for {shape}"
        )
    if not np.isfinite(v).all():
        raise NumericError("amplitudes must be finite")
    _unit_norm(v, tolerances.STATE_NORM_TOL, "state vector norm is {norm!r}, expected 1")
    return _valid_result(DenseOperatorTensor(shape, _fresh(np.outer(v, v.conj()))), label)


def build_from_mixture(
    weights: Sequence[float],
    arrangements: Sequence[ExperimentalArrangement],
    label: str | None = None,
) -> ExperimentalArrangement:
    """Convex combination of arrangements over one shared configuration."""
    if len(weights) != len(arrangements) or not arrangements:
        raise DimensionError("need one weight per arrangement, at least one of each")
    shape = arrangements[0].shape
    for ea in arrangements[1:]:
        if ea.shape != shape:
            raise DimensionError(f"mixture mixes configurations {shape} and {ea.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValidationError("mixture weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > tolerances.TRACE_TOL:
        raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
    return _mixed(shape, (wi * ea.alpha.entries for wi, ea in zip(w, arrangements)), label)


def _mixed(shape: ScreenConfiguration, terms: Iterable[np.ndarray], label: str | None) -> ExperimentalArrangement:
    """sum_i w_i m_i from its weighted terms w_i m_i, summed into one
    accumulator and proven once.

    Each term is valid by construction (an arrangement, or |v><v| of a unit
    vector) and the weights are convex; the result's trace check covers both.
    """
    acc = np.zeros((shape.dimension, shape.dimension), dtype=np.complex128)
    for term in terms:
        acc += term
        del term  # freed before the next term is made
    return _valid_result(DenseOperatorTensor(shape, _fresh(acc)), label)


def potentia_of_power(ea: ExperimentalArrangement, power: Power | Sequence[int]) -> float:
    """Diagonal entry at the power's multi-index.

    The imaginary part is checked against tolerance and discarded.
    """
    if isinstance(power, Power):
        if power.shape != ea.shape:
            raise DimensionError(f"power on {power.shape} queried against {ea.shape}")
        flat = power.flat
    else:
        flat = ea.shape.flat_index(power)
    value = complex(ea.alpha.entries[flat, flat])
    if abs(value.imag) > tolerances.DIAGONAL_TOL:
        raise NumericError(f"potentia has imaginary part {value.imag:.3e}")
    return value.real


@dataclass(frozen=True, eq=False)
class GeneralProjector:
    """Hermitian idempotent operator on a configuration's full space."""

    matrix: DenseOperatorTensor

    def __post_init__(self) -> None:
        m = self.matrix.entries
        squared = m @ m
        worst = max(_hermiticity_residual(m), float(np.abs(np.subtract(squared, m, out=squared)).max()))
        if worst > tolerances.PROJECTOR_TOL:
            raise NumericError(f"not a projector: max deviation {worst:.3e}")

    @classmethod
    def from_matrix(cls, m: np.ndarray, shape: ScreenConfiguration | None = None) -> "GeneralProjector":
        if shape is None:
            dims = np.shape(m)
            if len(dims) != 2 or dims[0] != dims[1]:
                raise DimensionError(f"projector matrix must be square, got {dims}")
            shape = ScreenConfiguration((dims[0],))
        return cls(DenseOperatorTensor(shape, m))

    @classmethod
    def identity(cls, shape: ScreenConfiguration) -> "GeneralProjector":
        return _unchecked(cls, matrix=DenseOperatorTensor(shape, _fresh(np.eye(shape.dimension, dtype=np.complex128))))

    @property
    def dimension(self) -> int:
        return self.matrix.dimension

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix.entries).real)))


def commutes(p: GeneralProjector, q: GeneralProjector) -> bool:
    """True when the commutator vanishes within tolerance."""
    if p.dimension != q.dimension:
        raise DimensionError(f"projector dimensions differ: {p.dimension} vs {q.dimension}")
    a, b = p.matrix.entries, q.matrix.entries
    return float(np.abs(a @ b - b @ a).max()) <= tolerances.COMMUTATOR_TOL


@dataclass(frozen=True, eq=False)
class GlobalIntensiveValuation:
    """The valuation P -> trace(alpha . P) backed by one arrangement."""

    backing: ExperimentalArrangement

    def __call__(self, p: GeneralProjector) -> float:
        return potentia_of_projector(self, p)


def potentia_of_projector(giv: GlobalIntensiveValuation, p: GeneralProjector) -> float:
    ea = giv.backing
    if p.dimension != ea.dimension:
        raise DimensionError(
            f"projector dimension {p.dimension} does not match arrangement dimension {ea.dimension}"
        )
    value = complex(np.einsum("ij,ji->", ea.alpha.entries, p.matrix.entries))
    if abs(value.imag) > tolerances.DIAGONAL_TOL:
        raise NumericError(f"valuation has imaginary part {value.imag:.3e}")
    return value.real


@dataclass(frozen=True)
class AdditivityReport:
    family_size: int
    residual: float
    passed: bool


def verify_additivity(
    giv: GlobalIntensiveValuation, family: Sequence[GeneralProjector]
) -> AdditivityReport:
    """Compare the valuation of a summed orthogonal family with the sum of valuations.

    The family must be pairwise orthogonal within tolerance; the sum of such a
    family is itself a projector, so the valuation applies to it directly.
    """
    if not family:
        raise DimensionError("additivity needs a nonempty projector family")
    mats = [p.matrix.entries for p in family]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = float(np.abs(mats[i] @ mats[j]).max())
            if dev > tolerances.ORTHOGONALITY_TOL:
                raise NumericError(
                    f"family is not pairwise orthogonal: |P{i} P{j}| = {dev:.3e}"
                )
    total = np.add.reduce(mats, axis=0)
    whole = complex(np.einsum("ij,ji->", giv.backing.alpha.entries, total)).real
    parts = sum(potentia_of_projector(giv, p) for p in family)
    residual = abs(whole - parts)
    return AdditivityReport(len(family), residual, residual <= tolerances.ADDITIVITY_TOL)


class AbstractPurity(NamedTuple):
    value: float
    is_pure: bool


class OperationalPurity(NamedTuple):
    max_eigenvalue: float
    certain_power_exists: bool


def purity_abstract(ea: ExperimentalArrangement) -> AbstractPurity:
    """Trace of the squared tensor; pure iff it equals 1 within tolerance."""
    value = complex(np.einsum("ij,ji->", ea.alpha.entries, ea.alpha.entries))
    return AbstractPurity(value.real, abs(value.real - 1.0) <= tolerances.PURITY_TOL)


def purity_operational(ea: ExperimentalArrangement) -> OperationalPurity:
    """Largest eigenvalue; a certain outcome exists in some basis iff it is 1.

    In the eigenbasis the arrangement is diagonal, so a unit eigenvalue means
    one power there carries potentia 1 and every other power carries 0.
    Reads the tensor's cached spectrum.
    """
    top = float(ea.alpha.spectrum[-1])
    return OperationalPurity(top, abs(top - 1.0) <= tolerances.PURITY_TOL)


def sample_outcomes(ea: ExperimentalArrangement, count: int, seed: int) -> dict[tuple[int, ...], int]:
    """Draw joint outcomes from the potentia table.

    One multinomial draw of the full count using a PCG64 generator seeded with
    `seed` (algorithm id: SAMPLER_ALGORITHM). Identical inputs give identical
    counts. Returns only outcomes that occurred, keyed by multi-index in flat
    order.
    """
    if count < 0:
        raise DimensionError(f"draw count must be nonnegative, got {count}")
    table = ea.potentia_table()
    total = float(table.sum())
    if abs(total - 1.0) > tolerances.DIAGONAL_TOL:
        raise ValidationError(f"potentia table sums to {total!r}, expected 1")
    p = np.clip(table, 0.0, None)
    p = p / p.sum()
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.multinomial(count, p)
    return {index: c for index, c in zip(ea.shape.all_indices(), draws.tolist()) if c > 0}
