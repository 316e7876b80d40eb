import numpy as np
import pytest

import qlab
from qlab import (
    DenseOperatorTensor,
    DimensionError,
    ExperimentalArrangement,
    GeneralProjector,
    GlobalIntensiveValuation,
    NumericError,
    Power,
    ValidationError,
    build_from_mixture,
    build_from_state_vector,
    commutes,
    configuration,
    potentia_of_power,
    potentia_of_projector,
    purity_abstract,
    purity_operational,
    sample_outcomes,
    validate_isa,
    verify_additivity,
)

from helpers import bell_state, four_screen_pair, six_detector_certain, two_detector_table


def candidate(counts, entries):
    return ExperimentalArrangement(
        DenseOperatorTensor(configuration(*counts), np.asarray(entries, dtype=np.complex128))
    )


PLUS_PROJECTOR = np.full((2, 2), 0.5, dtype=np.complex128)
FIRST_PROJECTOR = np.diag([1.0, 0.0]).astype(np.complex128)


class TestValidation:
    def test_valid_table_passes_all_checks(self):
        report = validate_isa(two_detector_table())
        assert report.valid
        assert report.failures() == ()
        assert [c.name for c in report.checks] == ["hermitian", "trace", "positive", "diagonal"]

    def test_trace_failure_is_named(self):
        report = validate_isa(candidate([2], np.diag([0.9, 0.2])))
        assert not report.valid
        assert report.failures() == ("trace",)
        assert report["trace"].residual == pytest.approx(0.1, abs=1e-15)

    def test_hermiticity_failure(self):
        report = validate_isa(candidate([2], [[0.5, 1.0], [0.0, 0.5]]))
        assert "hermitian" in report.failures()

    def test_negative_eigenvalue_fails_positivity_and_diagonal(self):
        report = validate_isa(candidate([2], np.diag([1.5, -0.5])))
        assert "positive" in report.failures()
        assert "diagonal" in report.failures()
        assert report["trace"].passed

    def test_off_unit_diagonal_entry_fails(self):
        # unit trace but one potentia above 1, balanced by an off-diagonal-free negative
        report = validate_isa(candidate([2], np.diag([1.2, -0.2])))
        assert "diagonal" in report.failures()

    def test_require_valid_raises_with_check_names(self):
        with pytest.raises(ValidationError, match="trace"):
            qlab.require_valid(candidate([2], np.diag([0.9, 0.2])))

    def test_report_lookup_of_an_unknown_check(self):
        with pytest.raises(KeyError, match="^'symmetric'$"):
            validate_isa(two_detector_table())["symmetric"]


class TestBuilders:
    def test_state_vector_outer_product_enumeration(self):
        v = bell_state()
        ea = build_from_state_vector(v, configuration(2, 2))
        expected = np.zeros((4, 4), dtype=np.complex128)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(ea.alpha.entries, expected, atol=1e-15)

    def test_state_vector_rejects_bad_norm_and_length(self):
        shape = configuration(2)
        with pytest.raises(ValidationError, match="norm"):
            build_from_state_vector([1.0, 1.0], shape)
        with pytest.raises(DimensionError, match="length"):
            build_from_state_vector([1.0, 0.0, 0.0], shape)

    def test_state_vector_rejects_non_finite_amplitudes(self):
        with pytest.raises(NumericError, match="^amplitudes must be finite$"):
            build_from_state_vector([np.nan, 0.0], configuration(2))

    def test_random_arrangement_needs_a_term(self):
        with pytest.raises(ValueError, match="^terms must be positive, got 0$"):
            qlab.random_arrangement(configuration(2), 1, terms=0)

    def test_mixture_weights_checked(self):
        shape = configuration(2)
        pure = build_from_state_vector([1, 0], shape)
        other = build_from_state_vector([0, 1], shape)
        with pytest.raises(ValidationError, match="sum"):
            build_from_mixture([0.5, 0.6], [pure, other])
        with pytest.raises(ValidationError, match="nonnegative"):
            build_from_mixture([1.5, -0.5], [pure, other])
        with pytest.raises(DimensionError):
            build_from_mixture([1.0], [])

    def test_mixture_rejects_mixed_configurations(self):
        a = build_from_state_vector([1, 0], configuration(2))
        b = build_from_state_vector([1, 0], configuration(2, 1))
        with pytest.raises(DimensionError, match="configurations"):
            build_from_mixture([0.5, 0.5], [a, b])


class TestPotentia:
    def test_two_detector_values(self):
        ea = two_detector_table()
        assert potentia_of_power(ea, (1,)) == 0.7
        assert potentia_of_power(ea, (2,)) == 0.3

    def test_six_detector_certain_table(self):
        table = six_detector_certain().potentia_table()
        assert np.array_equal(table, np.array([1.0, 0, 0, 0, 0, 0]))

    def test_four_screen_pair_values(self):
        ea = four_screen_pair()
        assert potentia_of_power(ea, (1, 2, 1, 2)) == 0.5
        assert potentia_of_power(ea, (2, 2, 2, 2)) == 0.5
        assert potentia_of_power(ea, (1, 1, 1, 1)) == 0.0

    def test_power_object_and_range_check(self):
        ea = two_detector_table()
        p = Power(ea.shape, (2,))
        assert potentia_of_power(ea, p) == 0.3
        with pytest.raises(DimensionError):
            potentia_of_power(ea, (3,))
        with pytest.raises(DimensionError):
            Power(ea.shape, (0,))

    def test_power_shape_mismatch(self):
        p = Power(configuration(3), (1,))
        with pytest.raises(DimensionError):
            potentia_of_power(two_detector_table(), p)

    def test_table_sums_to_one(self):
        for seed in range(5):
            ea = qlab.random_arrangement(configuration(2, 3), seed)
            assert abs(ea.potentia_table().sum() - 1.0) <= 1e-9

    def test_imaginary_diagonal_is_numeric(self):
        ea = candidate([2], [[0.5 + 0.1j, 0], [0, 0.5]])
        with pytest.raises(NumericError, match=r"^diagonal has imaginary part 1\.000e-01$"):
            ea.potentia_table()
        with pytest.raises(NumericError, match=r"^potentia has imaginary part 1\.000e-01$"):
            potentia_of_power(ea, (1,))


class TestProjectors:
    def test_basis_power_projector(self):
        p = Power(configuration(2, 2), (1, 2)).projector()
        assert p.rank == 1
        assert p.matrix.entries[1, 1] == 1.0

    def test_rejects_non_idempotent_and_non_hermitian(self):
        # the deviation is the full maximum of |m - m^dagger| and |m m - m|
        rng = np.random.default_rng(6)
        a = rng.normal(size=(65, 65)) + 1j * rng.normal(size=(65, 65))
        for m in (np.eye(2) * 0.5, np.array([[1, 0.5], [0, 0]]), a / 100, (a + a.conj().T) / 100):
            full = max(float(np.max(np.abs(m - m.conj().T))), float(np.max(np.abs(m @ m - m))))
            with pytest.raises(NumericError, match=f"^not a projector: max deviation {full:.3e}$"):
                GeneralProjector.from_matrix(m)

    def test_commutes_oracle(self):
        # [first, plus] has commutator max entry 0.5, far above tolerance
        first = GeneralProjector.from_matrix(FIRST_PROJECTOR)
        plus = GeneralProjector.from_matrix(PLUS_PROJECTOR)
        second = GeneralProjector.from_matrix(np.diag([0.0, 1.0]))
        identity = GeneralProjector.identity(configuration(2))
        assert not commutes(first, plus)
        assert not commutes(second, plus)
        assert commutes(first, second)
        for p in (first, second, plus):
            assert commutes(p, identity)

    def test_commutes_dimension_check(self):
        a = GeneralProjector.identity(configuration(2))
        b = GeneralProjector.identity(configuration(3))
        with pytest.raises(DimensionError):
            commutes(a, b)

    def test_rejects_non_square_matrix(self):
        with pytest.raises(DimensionError, match=r"^projector matrix must be square, got \(2, 3\)$"):
            GeneralProjector.from_matrix(np.ones((2, 3)))

    def test_random_projector_and_family_arguments(self):
        with pytest.raises(ValueError, match=r"^rank must be in 1\.\.4, got 0$"):
            qlab.random_projector(4, 0, 1)
        with pytest.raises(ValueError, match=r"^parts must be in 1\.\.4, got 5$"):
            qlab.random_orthogonal_family(4, 1, parts=5)


class TestValuation:
    def test_identity_valuation_is_one(self):
        ea = four_screen_pair()
        giv = GlobalIntensiveValuation(ea)
        assert giv(GeneralProjector.identity(ea.shape)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_potentia_on_basis_powers(self):
        ea = two_detector_table()
        giv = GlobalIntensiveValuation(ea)
        for index in ea.shape.all_indices():
            p = Power(ea.shape, index).projector()
            assert giv(p) == pytest.approx(potentia_of_power(ea, index), abs=1e-15)

    def test_complement_rule(self):
        rng = qlab.make_rng(21)
        ea = qlab.random_arrangement(configuration(2, 2), rng)
        giv = GlobalIntensiveValuation(ea)
        p = qlab.random_projector(4, 2, rng)
        comp = np.eye(4) - p
        total = giv(GeneralProjector.from_matrix(p, ea.shape)) + giv(
            GeneralProjector.from_matrix(comp, ea.shape)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        giv = GlobalIntensiveValuation(two_detector_table())
        with pytest.raises(DimensionError):
            giv(GeneralProjector.identity(configuration(3)))

    def test_imaginary_valuation_is_numeric(self):
        giv = GlobalIntensiveValuation(candidate([2], [[0.5 + 0.1j, 0], [0, 0.5]]))
        with pytest.raises(NumericError, match=r"^valuation has imaginary part 1\.000e-01$"):
            giv(GeneralProjector.identity(configuration(2)))

    def test_additivity_needs_a_family(self):
        giv = GlobalIntensiveValuation(two_detector_table())
        with pytest.raises(DimensionError, match="^additivity needs a nonempty projector family$"):
            verify_additivity(giv, [])

    def test_additivity_over_basis_family(self):
        ea = four_screen_pair()
        giv = GlobalIntensiveValuation(ea)
        family = [Power(ea.shape, idx).projector() for idx in ea.shape.all_indices()]
        report = verify_additivity(giv, family)
        assert report.passed
        assert report.family_size == 16
        assert report.residual <= 1e-12

    def test_additivity_rejects_overlapping_family(self):
        ea = two_detector_table()
        giv = GlobalIntensiveValuation(ea)
        first = GeneralProjector.from_matrix(FIRST_PROJECTOR, ea.shape)
        plus = GeneralProjector.from_matrix(PLUS_PROJECTOR, ea.shape)
        with pytest.raises(NumericError, match="orthogonal"):
            verify_additivity(giv, [first, plus])


class TestPurity:
    def test_pure_state_is_pure_both_ways(self):
        ea = build_from_state_vector(bell_state(), configuration(2, 2))
        value, is_pure = purity_abstract(ea)
        assert is_pure and value == pytest.approx(1.0, abs=1e-12)
        top, certain = purity_operational(ea)
        assert certain and top == pytest.approx(1.0, abs=1e-12)

    def test_even_mixture_value_is_half(self):
        # trace of the square of diag(1/2, 1/2) is exactly 1/2
        shape = configuration(2)
        ea = build_from_mixture(
            [0.5, 0.5],
            [build_from_state_vector([1, 0], shape), build_from_state_vector([0, 1], shape)],
        )
        value, is_pure = purity_abstract(ea)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert not is_pure
        top, certain = purity_operational(ea)
        assert top == pytest.approx(0.5, abs=1e-15)
        assert not certain

    def test_two_detector_table_not_pure(self):
        assert not purity_abstract(two_detector_table()).is_pure
        assert purity_operational(two_detector_table()).max_eigenvalue == pytest.approx(0.7)


class TestSampler:
    def test_table_that_does_not_sum_to_one(self):
        with pytest.raises(ValidationError, match=r"^potentia table sums to 1\.2, expected 1$"):
            sample_outcomes(candidate([2], np.diag([0.6, 0.6])), 10, seed=1)

    def test_identical_seed_identical_counts(self):
        ea = two_detector_table()
        a = sample_outcomes(ea, 5000, seed=42)
        b = sample_outcomes(ea, 5000, seed=42)
        assert a == b

    def test_certain_outcome_takes_all_draws(self):
        counts = sample_outcomes(six_detector_certain(), 1000, seed=1)
        assert counts == {(1,): 1000}

    def test_counts_conserve_draws(self):
        ea = four_screen_pair()
        counts = sample_outcomes(ea, 2048, seed=9)
        assert sum(counts.values()) == 2048
        assert set(counts) <= {(1, 2, 1, 2), (2, 2, 2, 2)}

    def test_zero_draws(self):
        assert sample_outcomes(two_detector_table(), 0, seed=0) == {}

    def test_negative_count_rejected(self):
        with pytest.raises(DimensionError):
            sample_outcomes(two_detector_table(), -1, seed=0)
