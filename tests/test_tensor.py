import copy
import pickle

import numpy as np
import pytest

import qlab
from qlab import (
    DenseOperatorTensor,
    DimensionError,
    NumericError,
    configuration,
    partial_trace,
    tensor_product,
)

from helpers import (
    bell_state,
    loop_kron,
    loop_partial_trace,
    random_hermitian,
    two_detector_table,
)


def tensor(counts, entries):
    return DenseOperatorTensor(configuration(*counts), np.asarray(entries, dtype=np.complex128))


def test_entries_are_immutable():
    t = tensor([2], [[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        t.entries[0, 0] = 5.0


def _restored_arrays():
    """(what, array) for every array of a checked value after a pickle round trip or a deep copy."""
    shape = configuration(2, 2)
    ea = qlab.random_arrangement(shape, 5, label="kept")
    ea.alpha.spectrum  # cached on the instance, so it is pickled with it
    haar = qlab.BasisTransformation.random(shape, 6)
    permutation = qlab.BasisTransformation.screen_permutation(shape, (2, 1))
    read = qlab.BasisTransformation.screen_permutation(shape, (2, 1))
    read.matrix  # built on first read, then kept
    for name, restore in (("pickle", lambda x: pickle.loads(pickle.dumps(x))), ("deepcopy", copy.deepcopy)):
        tensor_copy = restore(ea.alpha)
        yield f"{name}:tensor.entries", tensor_copy.entries
        yield f"{name}:tensor.spectrum", vars(tensor_copy)["spectrum"]
        yield f"{name}:arrangement.entries", restore(ea).alpha.entries
        yield f"{name}:haar.matrix", restore(haar).matrix
        yield f"{name}:permutation._source_index", restore(permutation)._source_index
        read_copy = restore(read)
        yield f"{name}:read permutation._source_index", read_copy._source_index
        yield f"{name}:read permutation.matrix", vars(read_copy)["matrix"]


def test_a_restored_value_keeps_its_arrays_read_only():
    seen = []
    for what, arr in _restored_arrays():
        seen.append(what)
        assert not arr.flags.writeable, what
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 7
    assert len(seen) == 14


@pytest.mark.parametrize("kind", ["tensor", "haar", "permutation"])
def test_an_out_of_band_restore_does_not_view_the_callers_buffers(kind):
    shape = configuration(2, 2)
    value = {
        "tensor": lambda: qlab.random_arrangement(shape, 5).alpha,
        "haar": lambda: qlab.BasisTransformation.random(shape, 6),
        "permutation": lambda: qlab.BasisTransformation.screen_permutation(shape, (2, 1)),
    }[kind]()
    buffers = []
    data = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
    raw = [bytearray(b.raw()) for b in buffers]
    assert raw  # the arrays left the pickle stream
    restored = pickle.loads(data, buffers=raw)
    arrays = [v for v in vars(restored).values() if isinstance(v, np.ndarray)]
    before = [arr.tobytes() for arr in arrays]
    for buffer in raw:
        buffer[:] = b"\x07" * len(buffer)
    assert [arr.tobytes() for arr in arrays] == before
    assert not any(arr.flags.writeable for arr in arrays)


def test_entry_lookup_by_multi_index():
    t = tensor([2, 2], np.arange(16).reshape(4, 4))
    assert t.entry((1, 2), (2, 1)) == 1 * 4 + 2  # row 1, column 2 in flat terms


def test_rejects_wrong_shape_and_nonfinite():
    with pytest.raises(DimensionError, match="expected"):
        tensor([2], np.zeros((3, 3)))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.inf
    with pytest.raises(NumericError, match="finite"):
        tensor([2], bad)
    bad[0, 1] = np.nan
    with pytest.raises(NumericError, match="finite"):
        tensor([2], bad)


def test_tensor_product_table_with_pure_second_factor():
    # hand enumeration: diag(0.7, 0.3) (x) first-detector projector
    a = tensor([2], np.diag([0.7, 0.3]))
    b = tensor([2], np.diag([1.0, 0.0]))
    joint = tensor_product(a, b)
    assert joint.shape.detector_counts == (2, 2)
    expected = np.diag([0.7, 0.0, 0.3, 0.0])
    assert np.array_equal(joint.entries, expected)


def test_tensor_product_matches_loop_oracle():
    rng = qlab.make_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    joint = tensor_product(tensor([2], a), tensor([3, 2], b))
    assert joint.shape.detector_counts == (2, 3, 2)
    assert np.allclose(joint.entries, loop_kron(a, b, (2,), (3, 2)), atol=1e-13, rtol=1e-13)


def test_tensor_product_capacity_overflow():
    a = tensor([64], np.eye(64) / 64)
    b = tensor([65], np.eye(65) / 65)
    with pytest.raises(DimensionError, match="capacity"):
        tensor_product(a, b)


def test_partial_trace_of_bell_projector():
    v = bell_state()
    t = tensor([2, 2], np.outer(v, v.conj()))
    for screen in (1, 2):
        reduced = partial_trace(t, [screen])
        assert reduced.shape.detector_counts == (2,)
        assert np.allclose(reduced.entries, np.diag([0.5, 0.5]), atol=1e-15)


def test_partial_trace_matches_loop_oracle():
    rng = qlab.make_rng(6)
    counts = (2, 3, 2)
    n = 12
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t = tensor(counts, m)
    for traced in [{1}, {2}, {3}, {1, 3}, {2, 3}]:
        got = partial_trace(t, traced)
        want = loop_partial_trace(m, counts, traced)
        assert np.allclose(got.entries, want, atol=1e-13, rtol=0)


def test_partial_trace_all_screens_yields_scalar_tensor():
    rng = qlab.make_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = tensor([2, 2], m)
    total = partial_trace(t, [1, 2])
    assert total.shape.detector_counts == (1,)
    assert total.entries[0, 0] == pytest.approx(np.trace(m))


def test_partial_trace_preserves_trace():
    rng = qlab.make_rng(8)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    t = tensor([2, 2, 2], m)
    assert abs(np.trace(partial_trace(t, [2]).entries) - np.trace(t.entries)) <= 1e-12


def test_partial_trace_of_product_recovers_factor():
    a = tensor([2], random_hermitian(2, 9))
    b = tensor([3], random_hermitian(3, 10))
    joint = tensor_product(a, b)
    got = partial_trace(joint, [2])
    want = a.entries * np.trace(b.entries)
    assert np.max(np.abs(got.entries - want)) <= 1e-10


def test_partial_trace_of_no_screens_is_the_tensor():
    t = tensor([2, 2], np.eye(4) / 4)
    assert partial_trace(t, []) is t


def test_partial_trace_position_errors():
    t = tensor([2, 2], np.eye(4))
    with pytest.raises(DimensionError, match="out of range"):
        partial_trace(t, [3])


def test_two_detector_table_diagonal():
    ea = two_detector_table()
    assert np.array_equal(ea.alpha.entries, np.diag([0.7, 0.3]).astype(complex))
