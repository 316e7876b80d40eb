"""The dense layer allocates nothing of full size that it does not return.

The Hermiticity residual is taken over row blocks, a Haar draw fills its
complex Gaussian in place, fresh results (the parsed matrix
included) are frozen where they are made so that DenseOperatorTensor keeps
them without a copy, a random arrangement scales each term where it is made,
and the basis-invariance verifier reuses its caller's moved arrangement,
pulls it back by the adjoint without copying the transformation, and
subtracts into what it pulled back. A conjugation multiplies in row blocks,
holding beyond its result at most the conjugated matrix and one row block;
the product test reads its input where it lies, with no reordered copy, and
builds the product of its marginals one block of whole rows at a time and
subtracts the gathered input rows into it. Projectors
valid by construction skip the product check, a permutation's repr builds
no matrix, and an in-band unpickle keeps pickle's own buffer. These tests
pin that every value stays bit-identical to the full-size expressions, and
bound the traced peak at N = 512 and 1024 (numpy reports its arrays to
tracemalloc; LAPACK's own work space is not counted).
"""

import copy
import functools
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import qlab
from qlab import BasisTransformation, DenseOperatorTensor, configuration
from qlab import arrangement, entanglement, transforms
from qlab.rand import make_rng
from qlab.tensor import _BLOCK_ENTRIES, _fresh, _kron


def traced_peak(call):
    """What `call` returns, and its traced peak in bytes beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def matrix(n, kind):
    rng = np.random.default_rng(n)
    if kind == "huge":  # each difference overflows to inf or is exactly zero; the diagonal overflows
        return rng.choice([-1.7e308, 1.7e308], (n, n)) + 1j * rng.choice([-1.7e308, 1.7e308], (n, n))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a if kind == "random" else a + a.conj().T


@pytest.mark.parametrize("block", [_BLOCK_ENTRIES, 64 * 64, 1], ids=["block", "64x64", "rows"])
@pytest.mark.parametrize("kind", ["random", "hermitian", "huge"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 257, 1024])
def test_blocked_hermiticity_residual_is_the_full_maximum_bit_for_bit(n, kind, block):
    a = matrix(n, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        full = float(np.max(np.abs(a - a.conj().T)))
    with mock.patch.object(arrangement, "_BLOCK_ENTRIES", block):
        check = arrangement._structural_checks(a)[0]
    assert check.name == "hermitian"
    assert check.residual.hex() == full.hex()
    assert (check.residual == 0.0) == (kind == "hermitian")
    assert (check.residual == np.inf) == (kind == "huge")


def full_draw(dim, rng):
    """A Haar unitary drawn the plain way: the complex Gaussian a + 1j*b, its QR, then the phase fix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 65, 200])
def test_random_unitary_is_the_full_draw_bit_for_bit(dim):
    ours, theirs = make_rng(dim), make_rng(dim)
    u = qlab.random_unitary(dim, ours)
    assert u.shape == (dim, dim)
    assert u.tobytes() == full_draw(dim, theirs).tobytes()
    assert ours.normal(size=4).tobytes() == theirs.normal(size=4).tobytes()  # the same draws were made


N = 1024
FULL = N * N * 16  # bytes of one N x N complex matrix


@pytest.fixture(scope="module")
def large():
    shape = configuration(*[2] * 10)
    return shape, qlab.random_arrangement(shape, 3, terms=2)


def test_structural_checks_allocate_one_block_at_a_time(large):
    a = large[1].alpha.entries
    checks, peak = traced_peak(lambda: arrangement._structural_checks(a))
    assert all(check.passed for check in checks)
    assert peak <= 4 * 2**20  # a full-size residual took 32 MiB


def test_random_arrangement_copies_no_term(large):
    shape, ea = large
    built, peak = traced_peak(lambda: qlab.random_arrangement(shape, 3, terms=2))
    assert built.alpha.entries.tobytes() == ea.alpha.entries.tobytes()
    assert peak <= 2.25 * FULL  # the sum and one term; its weighted copy made it 3.06, keeping every term 4


@pytest.mark.parametrize("build, bound", [("random", 2.375), ("screen_permutation", 1.25)])
def test_change_basis_keeps_its_fresh_result(large, build, bound):
    shape, ea = large
    if build == "random":
        bt = BasisTransformation.random(shape, 8)
        lam = bt.matrix
        want = lam @ ea.alpha.entries @ lam.conj().T
    else:
        bt = BasisTransformation.screen_permutation(shape, tuple(range(10, 0, -1)))
        want = ea.alpha.entries[np.ix_(bt._source_index, bt._source_index)]
    moved, peak = traced_peak(lambda: qlab.change_basis(ea, bt))
    assert moved.alpha.entries.tobytes() == want.tobytes()
    assert peak <= bound * FULL  # the whole products held the result, the matrix^dagger and a full first product: 3


# The whole product took 2.75, and with a reordered copy of the input 1.39 (ancilla left) and 1.56 (right).
# Without the copy the marginals and the partial traces that form them set the peak: 0.45 and 0.56.
@pytest.mark.parametrize("left, bound", [((10,), 0.625), (range(1, 10), 0.75)], ids=["ancilla-left", "ancilla-right"])
def test_product_test_holds_no_moved_copy(large, left, bound):
    shape, ea = large
    cut = qlab.Bipartition.split(left, 10)  # the last screen alone on one side, as for an adjoined ancilla
    (product, residual), peak = traced_peak(lambda: qlab.is_product_across(ea, cut))
    assert residual.hex() == full_product_residual(ea, cut).hex() and not product
    assert peak <= bound * FULL


@pytest.mark.parametrize("build, bound", [("random", 3.25), ("screen_permutation", 2.25)])
def test_basis_invariance_frees_what_its_projectors_do_not_read(build, bound):
    shape = configuration(*[2] * 9)
    n = shape.dimension
    ea = qlab.random_arrangement(shape, 7, terms=2)
    bt = (BasisTransformation.random(shape, 8) if build == "random"
          else BasisTransformation.screen_permutation(shape, tuple(range(9, 0, -1))))
    report, peak = traced_peak(lambda: qlab.verify_basis_invariance(ea, bt, seed=9))
    assert report.passed
    assert peak <= bound * n * n * 16  # the sampled projectors took 5.25 and 4.5, and 6 while the moved copy stayed live


def test_basis_invariance_bound_of_a_haar_round_trip_has_headroom(large):
    shape, ea = large
    report = qlab.verify_basis_invariance(ea, BasisTransformation.random(shape, 8))
    assert report.passed
    assert 0.0 < report.valuation_residual <= 1e-4 * qlab.tolerances.VALUATION_TOL


@pytest.mark.parametrize("protocol", [4, 5, "deepcopy"])
def test_an_in_band_restore_copies_no_entries(protocol):
    n = 512
    t = DenseOperatorTensor(configuration(8, 8, 8), matrix(n, "random"))
    if protocol == "deepcopy":
        restore = functools.partial(copy.deepcopy, t)
    else:
        restore = functools.partial(pickle.loads, pickle.dumps(t, protocol=protocol))
    restored, peak = traced_peak(restore)
    assert restored.entries.tobytes() == t.entries.tobytes() and not restored.entries.flags.writeable
    assert peak <= 1.25 * n * n * 16  # pickle's own buffer, or the deep copy, and no copy of it


CONJUGATE = transforms._conjugate


def inverse_route(entries, bt, adjoint=False):
    """_conjugate as it pulled back before: through bt.inverse(), whose matrix is a copy of bt.matrix^dagger."""
    return CONJUGATE(entries, bt.inverse() if adjoint else bt)


@functools.lru_cache
def haar(n):
    return qlab.random_unitary(n, n)


def caller_matrix(n, layout):
    """A unitary as a caller may hand it over: writable (copied to C order), or read-only with every array
    it views, so that the constructor keeps it in its own layout."""
    lam = haar(n)
    if layout == "writable":
        return np.asfortranarray(lam)
    if layout == "fortran":
        return _fresh(np.asfortranarray(lam))
    spread = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    spread[::2, ::2] = lam
    return _fresh(spread[::2, ::2] if layout == "strided" else np.ascontiguousarray(lam[::-1, ::-1])[::-1, ::-1])


@pytest.mark.parametrize("layout", ["haar", "writable", "fortran", "strided", "reversed"])
@pytest.mark.parametrize("counts", [(3, 5), (2,) * 6, (2,) * 10], ids=["15", "64", "1024"])
def test_pulled_by_the_adjoint_is_the_inverse_route_bit_for_bit(counts, layout):
    shape = configuration(*counts)
    n = shape.dimension
    bt = (BasisTransformation.random(shape, n) if layout == "haar"
          else BasisTransformation(shape, shape, caller_matrix(n, layout)))
    b = qlab.change_basis(qlab.random_arrangement(shape, n + 1, terms=2), bt).alpha.entries
    assert transforms._conjugate(b, bt, adjoint=True).tobytes() == inverse_route(b, bt, adjoint=True).tobytes()
    if n < N:
        ea = qlab.random_arrangement(shape, n + 2)
        report = qlab.verify_basis_invariance(ea, bt, seed=n)
        with mock.patch.object(transforms, "_conjugate", inverse_route):
            expected = qlab.verify_basis_invariance(ea, bt, seed=n)
        assert (report.spectrum_residual.hex(), report.valuation_residual.hex()) == (
            expected.spectrum_residual.hex(), expected.valuation_residual.hex())


@pytest.mark.parametrize("build, bound", [("random", 1.5), ("screen_permutation", 1.25)])
def test_basis_invariance_after_its_callers_change_reuses_it_and_copies_no_transformation(large, build, bound):
    shape, ea = large
    make = {"random": lambda: BasisTransformation.random(shape, 8),
            "screen_permutation": lambda: BasisTransformation.screen_permutation(shape, tuple(range(10, 0, -1)))}[build]
    bt = make()
    moved = qlab.change_basis(ea, bt)  # the caller's, alive while the verifier runs
    report, peak = traced_peak(lambda: qlab.verify_basis_invariance(ea, bt))
    with mock.patch.object(transforms, "_conjugate", inverse_route):
        expected = qlab.verify_basis_invariance(ea, make())
    assert (report.spectrum_residual.hex(), report.valuation_residual.hex()) == (
        expected.spectrum_residual.hex(), expected.valuation_residual.hex())
    assert peak <= bound * FULL  # the whole adjoint products took 2; recomputing the move 5 (with copies of the matrix) and 2


def read_only_view(a):
    view = a.view()
    view.setflags(write=False)
    return view


def test_a_callers_array_is_copied_and_a_fresh_result_is_kept():
    shape = configuration(2)
    mine = np.array([[0.25, 0.5j], [-0.5j, 0.75]])
    unitary = np.eye(2, dtype=np.complex128)
    for take in (lambda a: a, lambda a: a[:, :], read_only_view):  # the array, a view, a read-only view
        t = DenseOperatorTensor(shape, take(mine))
        bt = BasisTransformation(shape, shape, take(unitary))
        before = t.entries.tobytes(), bt.matrix.tobytes()
        mine[0, 0] = unitary[0, 0] = 7.0  # a kept read-only view would make bt.matrix [[7, 0], [0, 1]]
        assert (t.entries.tobytes(), bt.matrix.tobytes()) == before
        assert not (t.entries.flags.writeable or bt.matrix.flags.writeable)
        mine[0, 0], unitary[0, 0] = 0.25, 1.0
    fresh = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=np.complex128)
    fresh.setflags(write=False)
    assert DenseOperatorTensor(shape, fresh).entries is fresh
    ea = qlab.build_from_state_vector(np.array([0.6, 0.8j]), shape)
    assert not ea.alpha.entries.flags.writeable


@pytest.mark.parametrize("build", ["identity", "power"])
def test_projectors_built_by_construction_skip_the_product_check(build):
    shape = configuration(*[2] * 10)
    want = np.eye(N, dtype=np.complex128)
    if build == "power":
        want[:-1, :-1] = 0.0
        made, peak = traced_peak(lambda: qlab.Power(shape, (2,) * 10).projector())
    else:
        made, peak = traced_peak(lambda: qlab.GeneralProjector.identity(shape))
    assert made.matrix.entries.tobytes() == want.tobytes()
    assert made.rank == (N if build == "identity" else 1)
    assert peak <= 1.25 * FULL  # the Hermiticity and idempotence check took 3.01 (identity) and 4.01 (power)


@pytest.fixture(scope="module")
def large_text(large):
    return qlab.serialize_arrangement(large[1])


@pytest.mark.parametrize("validate, bound", [(False, 1.5), (True, 3.25)])
def test_parse_keeps_the_matrix_its_reader_filled(large, large_text, validate, bound):
    parsed, peak = traced_peak(lambda: qlab.parse_arrangement(large_text, validate=validate))
    assert parsed.alpha.entries.tobytes() == large[1].alpha.entries.tobytes()
    assert peak <= bound * FULL  # the constructor's copy made 2.07 and 4.01


def test_repr_of_a_permutation_builds_no_matrix():
    shape = configuration(*[2] * 10)
    bt = BasisTransformation.screen_permutation(shape, tuple(range(10, 0, -1)))
    text, peak = traced_peak(lambda: repr(bt))
    assert "matrix" not in vars(bt)
    assert peak < 0.01 * FULL  # building the matrix took 1.0
    assert text == f"BasisTransformation(source_shape={shape!r}, target_shape={bt.target_shape!r})"
    assert "matrix" not in repr(BasisTransformation.random(configuration(2), 1))


@pytest.mark.parametrize("layout", ["haar", "writable", "fortran", "strided", "reversed"])
@pytest.mark.parametrize("n", [15, 64, 257, 513, 1000, 1024])
def test_blocked_conjugation_is_the_unblocked_product_bit_for_bit(n, layout):
    shape = configuration(n)
    bt = (BasisTransformation.random(shape, n) if layout == "haar"
          else BasisTransformation(shape, shape, caller_matrix(n, layout)))
    lam, e = bt.matrix, matrix(n, "random")
    assert transforms._conjugate(e, bt).tobytes() == (lam @ e @ lam.conj().T).tobytes()
    assert transforms._conjugate(e, bt, adjoint=True).tobytes() == (lam.conj().T @ e @ lam).tobytes()


def full_product_residual(ea, cut):
    """The product test's residual from the whole product of its marginals."""
    n = ea.shape.num_screens
    arranged = qlab.change_basis(ea, BasisTransformation.screen_permutation(ea.shape, cut.left + cut.right))
    k = len(cut.left)
    left = qlab.remove_screens(arranged, range(k + 1, n + 1)).alpha.entries
    right = qlab.remove_screens(arranged, range(1, k + 1)).alpha.entries
    return float(np.max(np.abs(arranged.alpha.entries - _kron(left, right))))


@pytest.mark.parametrize("rows", [None, 1, 5, 7, 20], ids=["block", "1", "5", "7", "20"])
@pytest.mark.parametrize("counts, left", [
    ((2, 9, 3), (1,)),  # a left side of one small screen
    ((9, 3, 2), (1, 2)),  # a right side of one small screen
    ((9, 3, 2), (1,)),  # a screen of 9 detectors alone
    ((3, 8, 2), (2, 3)),
    ((5, 3, 2, 11), (4,)),  # N = 330: rows of the right marginal in blocks of 1, 5 or 7 (not dividing 165)
    ((2,) * 10, (10,)),
    ((4, 4, 16), (1, 3)),  # interleaved cuts that trace a screen of 9 or more detectors, where a partial
    ((16, 3, 9), (1, 3)),  # trace of the input could sum in another order than one of the reordered copy
    ((12, 10), (2,)),
    ((2,) * 10, tuple(range(1, 10))),  # N = 1024, m = 2: blocks of 32 whole rows of the left marginal
    ((11, 2, 3, 5), (1, 2, 3)),  # N = 330, m = 5: 66 left rows, in 17 uneven blocks of 3 or 4 at 20 rows
])
def test_blocked_product_residual_is_the_full_kron_residual(counts, left, rows):
    shape = configuration(*counts)
    n = shape.dimension
    cut = qlab.Bipartition.split(left, len(counts))
    block = _BLOCK_ENTRIES if rows is None else rows * n
    ancilla = qlab.random_state_vector(counts[-1], n)
    product = qlab.extend_arrangement(qlab.random_arrangement(configuration(*counts[:-1]), n, terms=2), counts[-1], ancilla)
    for ea in (qlab.random_arrangement(shape, n + 1, terms=2), product):
        with mock.patch.object(entanglement, "_BLOCK_ENTRIES", block):
            passed, residual = qlab.is_product_across(ea, cut)
        assert residual.hex() == full_product_residual(ea, cut).hex()
        assert passed == (residual <= qlab.tolerances.PRODUCT_TOL)


def test_a_small_right_marginal_shares_its_blocks_across_whole_left_rows(large):
    shape, ea = large
    cut = qlab.Bipartition.split(range(1, 10), 10)  # a right marginal of 2 rows under a block target of 64
    calls = []
    with mock.patch.object(entanglement, "_kron", lambda a, b: calls.append(len(a)) or _kron(a, b)):
        qlab.is_product_across(ea, cut)
    assert len(calls) <= 16 and sum(calls) == 512  # one left row per block made 512 blocks of 2 rows


def test_a_linalg_large_pass_holds_less_than_six_full_arrays():
    shape = configuration(*[2] * 10)

    def one_pass():
        ea = qlab.random_arrangement(shape, 11, terms=2)
        bt = BasisTransformation.random(shape, 12)
        moved = qlab.change_basis(ea, bt)
        extended = qlab.extend_arrangement(qlab.remove_screen(moved, 1), 2)
        product = qlab.is_product_across(extended, qlab.Bipartition.split((10,), 10))
        return product, qlab.verify_basis_invariance(ea, bt, seed=13), qlab.purity_operational(ea)

    (product, report, purity), peak = traced_peak(one_pass)
    assert product[0] and report.passed and 0.5 <= purity.max_eigenvalue <= 1.0 + 1e-9
    assert peak <= 5.85 * FULL  # the whole products took 7.05; the QR of BasisTransformation.random alone takes 5.12
