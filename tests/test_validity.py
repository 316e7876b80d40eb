"""Positivity is proven once, where data enters or leaves.

validate_isa, with its O(N^3) eigvalsh, runs on parse/read with validation,
on serialize/write, and on explicit validate_isa/require_valid calls.
Builders and transforms assume valid inputs and re-check only Hermiticity,
trace and the diagonal. These tests pin where eigvalsh runs, that every such
operation still yields a valid arrangement, that the kept checks still fire,
that a tensor's spectrum is computed once, and that the index-based screen
permutation and product test give exactly what the matrix routes give.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlab
from qlab import BasisTransformation, Bipartition, DenseOperatorTensor, ExperimentalArrangement, configuration

from helpers import loop_is_product_across, loop_screen_permutation_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# two or three screens of 1..4 detectors: inputs have N <= 64
input_counts = st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3)


def _some_screens(ea, rng):
    n = ea.shape.num_screens
    return [int(p) for p in rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False)]


# Every operation that is valid by mathematics on a valid input.
OPERATIONS = {
    "build_from_state_vector": lambda ea, rng: qlab.build_from_state_vector(
        qlab.random_state_vector(ea.dimension, rng), ea.shape
    ),
    "build_from_mixture": lambda ea, rng: qlab.build_from_mixture(
        [0.25, 0.75], [ea, qlab.build_from_state_vector(qlab.random_state_vector(ea.dimension, rng), ea.shape)]
    ),
    "change_basis[random unitary]": lambda ea, rng: qlab.change_basis(ea, BasisTransformation.random(ea.shape, rng)),
    "change_basis[permutation]": lambda ea, rng: qlab.change_basis(
        ea, BasisTransformation.screen_permutation(ea.shape, rng.permutation(ea.shape.num_screens) + 1)
    ),
    "remove_screen": lambda ea, rng: qlab.remove_screen(ea, int(rng.integers(1, ea.shape.num_screens + 1))),
    "remove_screens": lambda ea, rng: qlab.remove_screens(ea, _some_screens(ea, rng)),
    "extend_arrangement": lambda ea, rng: qlab.extend_arrangement(ea, 3, qlab.random_state_vector(3, rng)),
    "refactorize": lambda ea, rng: qlab.refactorize(ea, configuration(ea.dimension)),
}


@pytest.mark.parametrize("op", sorted(OPERATIONS))
@settings(max_examples=25, deadline=None)
@given(counts=input_counts, seed=seeds)
def test_operations_keep_arrangements_valid(op, counts, seed):
    rng = qlab.make_rng(seed)
    ea = qlab.random_arrangement(configuration(*counts), rng)
    report = qlab.validate_isa(OPERATIONS[op](ea, rng))
    assert report.valid, report


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4), data=st.data())
def test_screen_permutation_matches_loop_oracle(counts, data):
    order = tuple(data.draw(st.permutations(range(1, len(counts) + 1))))
    ea = qlab.random_arrangement(configuration(*counts), data.draw(seeds))
    bt = BasisTransformation.screen_permutation(ea.shape, order)
    dense = BasisTransformation(ea.shape, bt.target_shape, loop_screen_permutation_matrix(tuple(counts), order))
    assert np.array_equal(bt.matrix, dense.matrix)
    assert bt.target_shape.detector_counts == tuple(counts[p - 1] for p in order)
    # entries moved by index equal the matmul route, and so does the inverse
    moved = qlab.change_basis(ea, bt)
    assert np.array_equal(moved.alpha.entries, qlab.change_basis(ea, dense).alpha.entries)
    back = bt.inverse()
    assert back.target_shape == ea.shape
    assert np.array_equal(back.matrix, dense.inverse().matrix)
    assert np.array_equal(qlab.change_basis(moved, back).alpha.entries, ea.alpha.entries)


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4), seed=seeds)
def test_product_test_matches_matrix_route_on_every_cut(counts, seed):
    rng = qlab.make_rng(seed)
    shape = configuration(*counts)
    mixed = qlab.random_arrangement(shape, rng)
    # a product across the last screen, so near-zero residuals are compared too
    product = qlab.extend_arrangement(
        qlab.random_arrangement(configuration(*counts[:-1]), rng), counts[-1], qlab.random_state_vector(counts[-1], rng)
    )
    n = len(counts)
    for ea in (mixed, product):
        for r in range(1, n):
            for left in itertools.combinations(range(1, n + 1), r):
                cut = Bipartition.split(left, n)
                assert qlab.is_product_across(ea, cut) == loop_is_product_across(ea, cut), cut


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


COUNTED = {
    **OPERATIONS,
    "random_arrangement": lambda ea, rng: qlab.random_arrangement(ea.shape, rng, terms=3),
    "is_product_across": lambda ea, rng: qlab.is_product_across(ea, Bipartition((3, 1), (2,))),
}


@pytest.mark.parametrize("op", sorted(COUNTED))
def test_operations_on_valid_input_run_no_eigvalsh(op, eigvalsh_calls):
    rng = qlab.make_rng(5)
    ea = qlab.random_arrangement(configuration(2, 3, 2), rng)
    eigvalsh_calls.clear()
    COUNTED[op](ea, rng)
    assert eigvalsh_calls == []


def test_read_and_write_each_run_one_eigvalsh(eigvalsh_calls, tmp_path):
    ea = qlab.random_arrangement(configuration(2, 3, 2), 5)
    eigvalsh_calls.clear()
    path = str(tmp_path / "a.ea")
    qlab.write_arrangement(path, ea)
    assert eigvalsh_calls == [(12, 12)]
    qlab.read_arrangement(path)
    assert eigvalsh_calls == [(12, 12)] * 2


def test_verifier_and_purity_share_one_spectrum_per_tensor(eigvalsh_calls):
    ea = qlab.random_arrangement(configuration(2, 3, 2), 5)
    bt = BasisTransformation.random(ea.shape, 6)
    eigvalsh_calls.clear()
    qlab.verify_basis_invariance(ea, bt)
    qlab.purity_operational(ea)
    assert eigvalsh_calls == [(12, 12)] * 2
    with pytest.raises(AttributeError):
        ea.alpha.spectrum = np.zeros(12)
    with pytest.raises(ValueError, match="read-only"):
        ea.alpha.spectrum[0] = 0.0


def test_builder_post_check_still_fires():
    v = np.array([1 + 0.9e-10, 0])
    message = "arrangement failed validation: trace (residual 1.800000e-10)"
    with pytest.raises(qlab.ValidationError) as built:
        qlab.build_from_state_vector(v, configuration(2))
    assert str(built.value) == message
    hand_built = ExperimentalArrangement(DenseOperatorTensor(configuration(2), np.outer(v, v)))
    with pytest.raises(qlab.ValidationError) as required:
        qlab.require_valid(hand_built)
    assert str(required.value) == message


def test_transform_post_check_rejects_a_non_hermitian_input():
    lopsided = ExperimentalArrangement(DenseOperatorTensor(configuration(2), np.array([[0.5, 0.1], [0.0, 0.5]])))
    with pytest.raises(qlab.ValidationError, match=r"^arrangement failed validation: hermitian \(residual 1\.0"):
        qlab.change_basis(lopsided, BasisTransformation.identity(configuration(2)))


def test_transforms_assume_positivity_and_the_boundaries_prove_it():
    # Hermitian, trace one, diagonal in [0, 1], eigenvalues 1.4 and -0.4
    not_psd = ExperimentalArrangement(DenseOperatorTensor(configuration(2), np.array([[0.5, 0.9], [0.9, 0.5]])))
    moved = qlab.change_basis(not_psd, BasisTransformation.identity(configuration(2)))
    assert qlab.validate_isa(moved).failures() == ("positive",)
    with pytest.raises(qlab.ValidationError, match="positive"):
        qlab.require_valid(moved)
    with pytest.raises(qlab.ValidationError, match="positive"):
        qlab.serialize_arrangement(moved)
