"""Positivity is proven once, where data enters or leaves.

Parse/read with validation, serialize/write and require_valid prove it by
one shifted Cholesky, and run validate_isa's O(N^3) eigvalsh only to explain
a failure; explicit validate_isa calls always run it. Builders and
transforms assume valid inputs and re-check only Hermiticity, trace and the
diagonal. These tests pin where Cholesky and eigvalsh run, that the gate
passes only what eigvalsh passes, that every such operation still yields a
valid arrangement, that the kept checks still fire, that a tensor's spectrum
is computed once, and that the index-based screen permutation and product
test give exactly what the matrix routes give.
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


def _counted(monkeypatch, name):
    """The shapes np.linalg.<name> is called on, from now on."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return _counted(monkeypatch, "eigvalsh")


@pytest.fixture
def cholesky_calls(monkeypatch):
    return _counted(monkeypatch, "cholesky")


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


def test_read_and_write_each_run_one_cholesky_and_no_eigvalsh(eigvalsh_calls, cholesky_calls, tmp_path):
    ea = qlab.random_arrangement(configuration(2, 3, 2), 5)
    eigvalsh_calls.clear()
    path = str(tmp_path / "a.ea")
    qlab.write_arrangement(path, ea)
    assert (cholesky_calls, eigvalsh_calls) == ([(12, 12)], [])
    qlab.read_arrangement(path)
    assert (cholesky_calls, eigvalsh_calls) == ([(12, 12)] * 2, [])
    # a failed Cholesky: exactly one eigvalsh, which explains the failure
    not_psd = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=np.complex128)
    text = qlab.fileio._serialize(not_psd, configuration(2), None, qlab.fileio._ARRANGEMENT)
    bad = ExperimentalArrangement(DenseOperatorTensor(configuration(2), not_psd))
    for fail in (lambda: qlab.parse_arrangement(text), lambda: qlab.serialize_arrangement(bad)):
        cholesky_calls.clear()
        eigvalsh_calls.clear()
        with pytest.raises(qlab.ValidationError, match="positive"):
            fail()
        assert (cholesky_calls, eigvalsh_calls) == ([(2, 2)], [(2, 2)])
    # a failed O(N^2) check: no Cholesky, exactly one eigvalsh
    cholesky_calls.clear()
    eigvalsh_calls.clear()
    with pytest.raises(qlab.ValidationError, match="trace"):
        qlab.require_valid(ExperimentalArrangement(DenseOperatorTensor(configuration(2), np.diag([0.9, 0.2]))))
    assert (cholesky_calls, eigvalsh_calls) == ([], [(2, 2)])


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


def _with_smallest_eigenvalue(n, rank, low, seed):
    """Trace-one Hermitian n x n matrix: eigenvalue `low` (unless `rank` is
    n), `rank` positive ones, zeros elsewhere, in a Haar-random basis."""
    rng = qlab.make_rng(seed)
    weights = rng.dirichlet(np.ones(rank)) * (1.0 - (low if rank < n else 0.0))
    spectrum = np.zeros(n)
    spectrum[:rank] = weights
    if rank < n:
        spectrum[rank] = low
    u = qlab.random_unitary(n, rng)
    a = (u * spectrum) @ u.conj().T
    return ExperimentalArrangement(DenseOperatorTensor(configuration(n), (a + a.conj().T) / 2.0))


def test_cholesky_gate_passes_only_what_eigvalsh_passes():
    floor, shift, u = qlab.tolerances.PSD_EIGENVALUE_FLOOR, qlab.tolerances.PSD_CHOLESKY_SHIFT, 2.0**-53
    for n in (1, 2, 3, 7, 12, 64):
        ranks = range(1, n + 1) if n <= 12 else (1, 2, 3, 32, 63, 64)
        for rank in ranks:  # lambda_min >= 0: the gate passes, no eigvalsh needed
            ea = _with_smallest_eigenvalue(n, rank, 0.0, 100 * n + rank)
            assert qlab.arrangement._passes_gate(ea), (n, rank)
            assert qlab.validate_isa(ea).valid
        if n == 1:
            continue
        near = [edge + k * n * u for edge in (floor, -shift) for k in (-64, -8, -1, 0, 1, 8, 64)]
        for i, low in enumerate(near + [-1e-9, -1e-3]):
            for rank in {1, n - 1}:
                ea = _with_smallest_eigenvalue(n, rank, low, 7 * i + rank)
                gate, report = qlab.arrangement._passes_gate(ea), qlab.validate_isa(ea)
                assert report.valid or not gate, (n, rank, low)  # a gate pass is an eigvalsh pass
                # they may disagree only where eigvalsh passes and the gate refuses: floor <= low < about -shift
                if low < -shift - 1e-12 or low > -shift + 1e-12:
                    assert gate == (low > -shift), (n, rank, low)
                if report.valid:
                    assert qlab.require_valid(ea) is ea
                else:
                    with pytest.raises(qlab.ValidationError) as failed:
                        qlab.require_valid(ea)
                    detail = ", ".join(f"{c.name} (residual {c.residual:.6e})" for c in report.checks if not c.passed)
                    assert str(failed.value) == "arrangement failed validation: " + detail


@pytest.mark.parametrize(
    "matrix, checks",
    [
        ([[0.5, 0.9], [0.9, 0.5]], "positive (residual 4.000000e-01)"),
        ([[0.5, 0.1], [0.0, 0.5]], "hermitian (residual 1.000000e-01)"),
        ([[0.9, 0.0], [0.0, 0.2]], "trace (residual 1.000000e-01)"),
        (
            [[0.7, 0.9], [0.8, 0.5]],
            "hermitian (residual 1.000000e-01), trace (residual 2.000000e-01), positive (residual 2.558621e-01)",
        ),
    ],
)
def test_failed_gate_keeps_every_message(matrix, checks):
    m = np.array(matrix, dtype=np.complex128)
    ea = ExperimentalArrangement(DenseOperatorTensor(configuration(2), m))
    text = qlab.fileio._serialize(m, configuration(2), None, qlab.fileio._ARRANGEMENT)
    for fail in (lambda: qlab.require_valid(ea), lambda: qlab.parse_arrangement(text)):
        with pytest.raises(qlab.ValidationError) as failed:
            fail()
        assert str(failed.value) == "arrangement failed validation: " + checks
    with pytest.raises(qlab.ValidationError) as refused:
        qlab.serialize_arrangement(ea)
    names = ", ".join(check.split(" ")[0] for check in checks.split("), "))
    assert str(refused.value) == "refusing to serialize an invalid arrangement: " + names


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
def test_haar_draws_are_unitary_without_the_check(n):
    bt = BasisTransformation.random(configuration(n), n)
    u = bt.matrix
    assert float(np.max(np.abs(u @ u.conj().T - np.eye(n)))) <= qlab.tolerances.UNITARITY_TOL
    assert np.array_equal(u, qlab.random_unitary(n, n))
    back = bt.inverse()
    assert back._unitary and np.array_equal(back.matrix, u.conj().T)
    caller = BasisTransformation(configuration(n), configuration(n), u)
    assert not caller._unitary and not caller.inverse()._unitary
    with pytest.raises(qlab.NumericError, match="not unitary"):
        BasisTransformation(configuration(n), configuration(n), 1.5 * u)
    for private in ("_unitary", "_source_index"):  # the check cannot be skipped from the constructor
        with pytest.raises(TypeError):
            BasisTransformation(configuration(n), configuration(n), 1.5 * u, **{private: True})
