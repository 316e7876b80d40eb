import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qlab
from qlab import (
    Bipartition,
    DimensionError,
    configuration,
    entanglement,
    is_fully_separable_pure,
    is_product_across,
    schmidt_decompose,
    schmidt_rank_profile,
)
from qlab.tolerances import SCHMIDT_RANK_TOL

from helpers import (
    bell_state,
    four_screen_pair,
    ghz_state,
    loop_is_fully_separable_pure,
    loop_partial_trace,
    loop_schmidt_rank_profile,
    product_state,
    w_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
PAIR = configuration(2, 2)
TRIPLE = configuration(2, 2, 2)


class TestBipartition:
    def test_split_builds_complement(self):
        cut = Bipartition.split((1, 3), 4)
        assert cut.left == (1, 3)
        assert cut.right == (2, 4)
        assert str(cut) == "1,3|2,4"

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(DimensionError):
            Bipartition((1, 2), (2, 3))
        with pytest.raises(DimensionError):
            Bipartition((), (1, 2))

    def test_rejects_a_repeated_screen(self):
        with pytest.raises(DimensionError, match="^bipartition sides must not repeat screens$"):
            Bipartition((1, 1), (2,))

    def test_check_against_requires_full_cover(self):
        cut = Bipartition((1,), (2,))
        with pytest.raises(DimensionError):
            cut.check_against(TRIPLE)
        with pytest.raises(DimensionError):
            Bipartition((1,), (2, 5)).check_against(PAIR)


class TestSchmidtDecompose:
    def test_bell_coefficients(self):
        result = schmidt_decompose(bell_state(), PAIR, Bipartition((1,), (2,)))
        assert result.rank == 2
        assert np.max(np.abs(result.coefficients - INV_SQRT2)) <= 1e-12

    def test_ghz_single_screen_cut(self):
        result = schmidt_decompose(ghz_state(3), TRIPLE, Bipartition((1,), (2, 3)))
        assert result.rank == 2
        assert np.max(np.abs(result.coefficients[:2] - INV_SQRT2)) <= 1e-12

    def test_w_state_coefficients(self):
        # marginal of the first screen has eigenvalues 2/3 and 1/3
        result = schmidt_decompose(w_state(), TRIPLE, Bipartition((1,), (2, 3)))
        assert result.rank == 2
        want = np.array([np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)])
        assert np.max(np.abs(result.coefficients[:2] - want)) <= 1e-12

    def test_product_state_rank_one(self):
        state, _ = product_state((2, 3), seed=5)
        result = schmidt_decompose(state, configuration(2, 3), Bipartition((1,), (2,)))
        assert result.rank == 1
        assert abs(result.coefficients[0] - 1.0) <= 1e-12

    def test_reconstruction_in_cut_order(self):
        # state rebuilt as sum of c_i * kron(u_i, v_i) must match the
        # original vector with screens transposed into (left, right) order
        state = ghz_state(3)
        result = schmidt_decompose(state, TRIPLE, Bipartition((2,), (1, 3)))
        permuted = state.reshape(2, 2, 2).transpose(1, 0, 2).reshape(-1)
        rebuilt = np.zeros(8, dtype=np.complex128)
        for i, c in enumerate(result.coefficients):
            rebuilt += c * np.kron(result.left_vectors[:, i], result.right_vectors[:, i])
        assert np.max(np.abs(rebuilt - permuted)) <= 1e-9

    def test_reconstruction_random_state(self):
        rng = qlab.make_rng(41)
        shape = configuration(2, 3, 2)
        state = qlab.random_state_vector(shape.dimension, rng)
        result = schmidt_decompose(state, shape, Bipartition((1, 3), (2,)))
        permuted = state.reshape(2, 3, 2).transpose(0, 2, 1).reshape(-1)
        rebuilt = np.zeros(12, dtype=np.complex128)
        for i, c in enumerate(result.coefficients):
            rebuilt += c * np.kron(result.left_vectors[:, i], result.right_vectors[:, i])
        assert np.max(np.abs(rebuilt - permuted)) <= 1e-9

    def test_squared_coefficients_are_marginal_eigenvalues(self):
        rng = qlab.make_rng(42)
        shape = configuration(2, 2, 3)
        state = qlab.random_state_vector(shape.dimension, rng)
        result = schmidt_decompose(state, shape, Bipartition((1,), (2, 3)))
        alpha = np.outer(state, state.conj())
        marginal = loop_partial_trace(alpha, shape.detector_counts, {2, 3})
        eigs = np.sort(np.linalg.eigvalsh(marginal))[::-1]
        squared = np.square(result.coefficients)
        assert np.max(np.abs(squared - eigs[: squared.size])) <= 1e-9

    def test_rejects_bad_state(self):
        with pytest.raises(DimensionError):
            schmidt_decompose(np.ones(3), PAIR, Bipartition((1,), (2,)))
        with pytest.raises(qlab.ValidationError, match="norm"):
            schmidt_decompose(np.ones(4), PAIR, Bipartition((1,), (2,)))

    def test_nan_state_fails_the_norm_check(self):
        with pytest.raises(qlab.ValidationError, match="norm is nan"):
            schmidt_decompose(np.array([np.nan, 0, 0, 0]), PAIR, Bipartition((1,), (2,)))


class TestFullSeparability:
    def test_product_state_separates_with_factors(self):
        state, _ = product_state((2, 3, 2), seed=6)
        separable, factors = is_fully_separable_pure(state, configuration(2, 3, 2))
        assert separable
        assert len(factors) == 3
        rebuilt = factors[0]
        for factor in factors[1:]:
            rebuilt = np.kron(rebuilt, factor)
        # factors are defined up to phase per screen; compare projectors
        assert np.max(np.abs(np.outer(rebuilt, rebuilt.conj()) - np.outer(state, state.conj()))) <= 1e-9

    def test_entangled_states_refused(self):
        cases = [(bell_state(), PAIR), (ghz_state(3), TRIPLE), (w_state(), TRIPLE)]
        for state, shape in cases:
            separable, factors = is_fully_separable_pure(state, shape)
            assert not separable
            assert factors is None

    def test_single_screen_always_separable(self):
        separable, factors = is_fully_separable_pure(np.array([0.6, 0.8j]), configuration(2))
        assert separable
        assert len(factors) == 1


class TestProductAcross:
    def test_bell_projector_residual(self):
        ea = qlab.build_from_state_vector(bell_state(), PAIR)
        flag, residual = is_product_across(ea, Bipartition((1,), (2,)))
        assert not flag
        assert abs(residual - 0.5) <= 1e-12

    def test_classical_pair_mixture_residual(self):
        # equal mixture of the (1,1) and (2,2) powers: uncorrelated product
        # of its marginals differs by 0.25 in the largest entry
        e11 = np.zeros(4, dtype=np.complex128)
        e11[0] = 1.0
        e22 = np.zeros(4, dtype=np.complex128)
        e22[3] = 1.0
        ea = qlab.build_from_mixture(
            [0.5, 0.5],
            [qlab.build_from_state_vector(e11, PAIR), qlab.build_from_state_vector(e22, PAIR)],
        )
        flag, residual = is_product_across(ea, Bipartition((1,), (2,)))
        assert not flag
        assert abs(residual - 0.25) <= 1e-12

    def test_four_screen_pair_splits_off_last_screen(self):
        ea = four_screen_pair()
        flag, residual = is_product_across(ea, Bipartition((1, 2, 3), (4,)))
        assert flag
        assert residual <= 1e-12

    def test_four_screen_pair_first_screen_correlated(self):
        ea = four_screen_pair()
        flag, residual = is_product_across(ea, Bipartition((1,), (2, 3, 4)))
        assert not flag
        assert abs(residual - 0.25) <= 1e-12

    def test_pure_product_passes(self):
        state, _ = product_state((2, 2, 3), seed=7)
        ea = qlab.build_from_state_vector(state, configuration(2, 2, 3))
        flag, residual = is_product_across(ea, Bipartition((1, 2), (3,)))
        assert flag
        assert residual <= 1e-9

    def test_non_contiguous_cut(self):
        # product of a correlated pair on screens 1, 3 with a point state on 2
        state = np.kron(bell_state(), np.array([1.0, 0.0]))
        state = state.reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        ea = qlab.build_from_state_vector(state, TRIPLE)
        flag, residual = is_product_across(ea, Bipartition((1, 3), (2,)))
        assert flag
        assert residual <= 1e-9
        flag2, residual2 = is_product_across(ea, Bipartition((1,), (2, 3)))
        assert not flag2
        assert residual2 > 0.2

    def test_agrees_with_schmidt_rank_for_pure(self):
        rng = qlab.make_rng(43)
        cut = Bipartition((1,), (2,))
        for _ in range(10):
            state = qlab.random_state_vector(4, rng)
            ea = qlab.build_from_state_vector(state, PAIR)
            flag, _ = is_product_across(ea, cut)
            rank = schmidt_decompose(state, PAIR, cut).rank
            assert flag == (rank == 1)


class TestRankProfile:
    def test_enumerates_canonical_cuts(self):
        profile = schmidt_rank_profile(ghz_state(4), configuration(2, 2, 2, 2))
        assert len(profile) == 2 ** (4 - 1) - 1
        for cut in profile:
            assert 1 in cut.left

    def test_ghz_every_cut_rank_two(self):
        profile = schmidt_rank_profile(ghz_state(3), TRIPLE)
        assert sorted(profile.values()) == [2, 2, 2]

    def test_product_every_cut_rank_one(self):
        state, _ = product_state((2, 2, 2), seed=8)
        profile = schmidt_rank_profile(state, TRIPLE)
        assert set(profile.values()) == {1}

    def test_bell_with_spectator_screen(self):
        state = np.kron(bell_state(), np.array([1.0, 0.0]))
        profile = schmidt_rank_profile(state, TRIPLE)
        by_str = {str(cut): rank for cut, rank in profile.items()}
        assert by_str == {"1|2,3": 2, "1,2|3": 1, "1,3|2": 2}

    def test_single_screen_profile_empty(self):
        profile = schmidt_rank_profile(np.array([1.0, 0.0]), configuration(2))
        assert profile == {}

    def test_screen_count_cap(self):
        shape = configuration(*([1] * 13))
        with pytest.raises(DimensionError, match="12"):
            schmidt_rank_profile(np.array([1.0]), shape)

    def test_all_ranks_one_iff_separable(self):
        rng = qlab.make_rng(44)
        cases = [
            (product_state((2, 2, 2), seed=9)[0], TRIPLE),
            (ghz_state(3), TRIPLE),
            (w_state(), TRIPLE),
            (qlab.random_state_vector(8, rng), TRIPLE),
        ]
        for state, shape in cases:
            profile = schmidt_rank_profile(state, shape)
            all_one = set(profile.values()) == {1}
            assert all_one == is_fully_separable_pure(state, shape)[0]


def drawn_state(counts, kind, seed):
    """A random state, a product state, or a product state with one amplitude
    moved by about SCHMIDT_RANK_TOL and renormalized."""
    rng = qlab.make_rng(seed)
    if kind == "random":
        return qlab.random_state_vector(math.prod(counts), rng)
    state = product_state(tuple(counts), seed)[0]
    if kind == "nudged":
        state = state.copy()
        state[rng.integers(state.size)] += SCHMIDT_RANK_TOL * rng.choice([0.5, 1.0, 2.0]) * np.exp(2j * np.pi * rng.random())
        state /= np.linalg.norm(state)
    return state


class TestOneProofPerState:
    @settings(deadline=None, max_examples=60)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4).filter(
            lambda c: math.prod(c) <= 2048
        ),
        kind=st.sampled_from(["random", "product", "nudged"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(counts=[12, 10], kind="nudged", seed=1)
    @example(counts=[10, 1, 11], kind="product", seed=2)
    @example(counts=[2, 12, 3, 10], kind="random", seed=3)
    def test_profile_and_peel_equal_the_per_cut_route_bit_for_bit(self, counts, kind, seed):
        shape = configuration(*counts)
        state = drawn_state(counts, kind, seed)
        assert list(schmidt_rank_profile(state, shape).items()) == list(loop_schmidt_rank_profile(state, shape).items())
        separable, factors = is_fully_separable_pure(state, shape)
        want_separable, want_factors = loop_is_fully_separable_pure(state, shape)
        assert separable == want_separable
        if want_factors is None:
            assert factors is None
        else:
            assert [f.tobytes() for f in factors] == [f.tobytes() for f in want_factors]

    def test_a_state_is_proven_once_per_profile_and_per_peel(self):
        shape = configuration(*[2] * 6)
        state = qlab.random_state_vector(shape.dimension, qlab.make_rng(45))
        product, _ = product_state(shape.detector_counts, seed=46)
        with mock.patch.object(entanglement, "_unit_norm", wraps=entanglement._unit_norm) as spy:
            assert len(schmidt_rank_profile(state, shape)) == 31
        assert spy.call_count == 1  # one per cut made 32
        with mock.patch.object(entanglement, "_unit_norm", wraps=entanglement._unit_norm) as spy:
            assert is_fully_separable_pure(product, shape)[0]
        assert spy.call_count == 1  # one per peel made 6
