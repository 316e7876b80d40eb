import gc
import pickle
import tracemalloc

import numpy as np
import pytest

import qlab
from qlab import transforms
from qlab import (
    BasisTransformation,
    DimensionError,
    ExperimentalArrangement,
    NumericError,
    ValidationError,
    change_basis,
    configuration,
    extend_arrangement,
    refactorize,
    remove_screen,
    remove_screens,
    verify_basis_invariance,
    verify_factorization_invariance,
)

from helpers import four_screen_pair, loop_flat, loop_screen_permutation_matrix, three_screen_pair, two_detector_table

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


class TestBasisTransformation:
    def test_rejects_non_unitary(self):
        with pytest.raises(NumericError, match="unitary"):
            BasisTransformation(configuration(2), configuration(2), np.array([[1, 0], [1, 1]]))

    def test_rejects_product_mismatch(self):
        with pytest.raises(DimensionError):
            BasisTransformation(configuration(2, 2), configuration(3), np.eye(4))

    def test_accepts_refactorizing_unitary(self):
        bt = BasisTransformation(configuration(2, 2), configuration(4), np.eye(4))
        assert bt.target_shape.detector_counts == (4,)

    def test_inverse_composes_to_identity(self):
        bt = BasisTransformation.random(configuration(2, 2), seed=3)
        double = bt.inverse().matrix @ bt.matrix
        assert np.max(np.abs(double - np.eye(4))) <= 1e-12

    def test_screen_permutation_relabels_indices(self):
        shape = configuration(2, 3)
        bt = BasisTransformation.screen_permutation(shape, (2, 1))
        assert bt.target_shape.detector_counts == (3, 2)
        for k1 in (1, 2):
            for k2 in (1, 2, 3):
                src = shape.flat_index((k1, k2))
                dst = bt.target_shape.flat_index((k2, k1))
                assert bt.matrix[dst, src] == 1.0

    def test_identity_is_the_identity_permutation(self):
        ea = three_screen_pair()
        bt = BasisTransformation.identity(ea.shape, configuration(4, 2))
        assert np.array_equal(bt.matrix, np.eye(8)) and np.array_equal(bt._source_index, np.arange(8))
        moved = change_basis(ea, bt)
        assert moved.shape == configuration(4, 2)
        assert moved.alpha.entries.tobytes() == ea.alpha.entries.tobytes()
        with pytest.raises(DimensionError, match="^source dimension 8 differs from target dimension 9$"):
            BasisTransformation.identity(ea.shape, configuration(3, 3))

    @pytest.mark.parametrize("build", ["identity", "screen_permutation", "inverse"])
    def test_permutations_hold_no_matrix(self, build):
        counts, order = (2,) * 10, tuple(range(10, 0, -1))
        shape = configuration(*counts)
        n = shape.dimension
        make = {
            "identity": lambda: BasisTransformation.identity(shape),
            "screen_permutation": lambda: BasisTransformation.screen_permutation(shape, order),
            "inverse": BasisTransformation.screen_permutation(shape, order).inverse,
        }[build]
        tracemalloc.start()
        try:
            bt = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * n * n * 16  # the index alone; the eager matrix took 1.0
        moves = {"identity": tuple(range(1, 11)), "screen_permutation": order, "inverse": order}[build]  # a reversal undoes itself
        first = bt.matrix
        assert first.tobytes() == loop_screen_permutation_matrix(counts, moves).tobytes()
        assert bt.matrix is first

    def test_rejects_bad_matrix(self):
        shape = configuration(2)
        with pytest.raises(NumericError, match="unitary"):
            BasisTransformation(shape, shape, np.array([[1, 0], [1, 1]], dtype=complex))
        with pytest.raises(DimensionError, match="shape"):
            BasisTransformation(shape, shape, np.eye(3))

    def test_screen_permutation_rejects_non_permutation(self):
        with pytest.raises(DimensionError, match="permutation"):
            BasisTransformation.screen_permutation(configuration(2, 2), (1, 1))


class TestChangeBasis:
    def test_hadamard_table(self):
        # hand product: H diag(0.7, 0.3) H = [[0.5, 0.2], [0.2, 0.5]]
        ea = two_detector_table()
        bt = BasisTransformation(ea.shape, ea.shape, H)
        moved = change_basis(ea, bt)
        assert np.allclose(moved.alpha.entries, [[0.5, 0.2], [0.2, 0.5]], atol=1e-15)

    def test_entry_transformation_formula(self):
        # definition check: moved[r, c] = sum over k, k' of
        # matrix[r, k] * alpha[k, k'] * conj(matrix[c, k'])
        rng = qlab.make_rng(31)
        ea = qlab.random_arrangement(configuration(2, 2), rng)
        bt = BasisTransformation.random(ea.shape, rng)
        moved = change_basis(ea, bt)
        n = 4
        want = np.zeros((n, n), dtype=np.complex128)
        for r in range(n):
            for c in range(n):
                acc = 0j
                for k in range(n):
                    for kp in range(n):
                        acc += bt.matrix[r, k] * ea.alpha.entries[k, kp] * np.conj(bt.matrix[c, kp])
                want[r, c] = acc
        assert np.max(np.abs(moved.alpha.entries - want)) <= 1e-12

    def test_preserves_validity_trace_and_spectrum(self):
        rng = qlab.make_rng(32)
        ea = qlab.random_arrangement(configuration(2, 2, 2), rng)
        bt = BasisTransformation.random(ea.shape, rng)
        moved = change_basis(ea, bt)
        assert qlab.validate_isa(moved).valid
        before = np.linalg.eigvalsh(ea.alpha.entries)
        after = np.linalg.eigvalsh(moved.alpha.entries)
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_preserves_spectrum_across_unequal_screens(self):
        ea = qlab.random_arrangement(configuration(2, 4), 16)
        moved = change_basis(ea, BasisTransformation.random(ea.shape, 17))
        before = np.linalg.eigvalsh(ea.alpha.entries)
        after = np.linalg.eigvalsh(moved.alpha.entries)
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_composition_matches_single_transformation(self):
        rng = qlab.make_rng(33)
        ea = qlab.random_arrangement(configuration(2, 3), rng)
        bt1 = BasisTransformation.random(ea.shape, rng)
        bt2 = BasisTransformation.random(bt1.target_shape, rng, configuration(6))
        two_step = change_basis(change_basis(ea, bt1), bt2)
        combined = BasisTransformation(ea.shape, configuration(6), bt2.matrix @ bt1.matrix)
        one_step = change_basis(ea, combined)
        assert np.max(np.abs(two_step.alpha.entries - one_step.alpha.entries)) <= 1e-9

    def test_shape_mismatch_rejected(self):
        bt = BasisTransformation.random(configuration(2, 2), seed=0)
        with pytest.raises(DimensionError, match="source"):
            change_basis(two_detector_table(), bt)

    def test_label_preserved(self):
        ea = qlab.ExperimentalArrangement(two_detector_table().alpha, label="tagged")
        bt = BasisTransformation(ea.shape, ea.shape, H)
        assert change_basis(ea, bt).label == "tagged"


class TestRefactorize:
    def test_two_by_three_to_six_relabeling(self):
        # flat(k1, k2) = 3 * (k1 - 1) + k2 in 1-based terms, all 36 pairs
        rng = qlab.make_rng(34)
        ea = qlab.random_arrangement(configuration(2, 3), rng)
        flat = refactorize(ea, configuration(6))
        for bra in ea.shape.all_indices():
            for ket in ea.shape.all_indices():
                fb = 3 * (bra[0] - 1) + bra[1]
                fk = 3 * (ket[0] - 1) + ket[1]
                assert flat.alpha.entry((fb,), (fk,)) == ea.alpha.entry(bra, ket)

    def test_entries_bit_identical(self):
        ea = four_screen_pair()
        flat = refactorize(ea, configuration(4, 4))
        assert flat.alpha.entries.tobytes() == ea.alpha.entries.tobytes()
        back = refactorize(flat, configuration(2, 2, 2, 2))
        assert back.alpha.entries.tobytes() == ea.alpha.entries.tobytes()

    def test_four_screen_pair_under_four_by_four(self):
        flat = refactorize(four_screen_pair(), configuration(4, 4))
        table = flat.potentia_table()
        assert table[flat.shape.flat_index((2, 2))] == 0.5
        assert table[flat.shape.flat_index((4, 4))] == 0.5
        assert table.sum() == 1.0

    def test_product_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            refactorize(four_screen_pair(), configuration(3, 5))


class TestRemoveScreen:
    def test_four_screen_pair_reduces_exactly(self):
        reduced = remove_screen(four_screen_pair(), 4)
        want = three_screen_pair()
        assert reduced.shape.detector_counts == (2, 2, 2)
        assert np.max(np.abs(reduced.alpha.entries - want.alpha.entries)) <= 1e-12

    def test_cannot_remove_only_screen(self):
        with pytest.raises(DimensionError, match="only screen"):
            remove_screen(two_detector_table(), 1)

    def test_position_out_of_range(self):
        with pytest.raises(DimensionError, match="out of range"):
            remove_screen(four_screen_pair(), 5)

    def test_commutes_with_change_basis_on_surviving_screens(self):
        rng = qlab.make_rng(35)
        shape = configuration(2, 3, 2)
        ea = qlab.random_arrangement(shape, rng)
        u1 = qlab.random_unitary(2, rng)
        u3 = qlab.random_unitary(2, rng)
        # unitary acting on screens 1 and 3 only, identity on the removed screen 2
        full = np.kron(np.kron(u1, np.eye(3)), u3)
        survivors = np.kron(u1, u3)
        bt_full = BasisTransformation(shape, shape, full)
        bt_surv = BasisTransformation(configuration(2, 2), configuration(2, 2), survivors)
        route_a = remove_screen(change_basis(ea, bt_full), 2)
        route_b = change_basis(remove_screen(ea, 2), bt_surv)
        assert np.max(np.abs(route_a.alpha.entries - route_b.alpha.entries)) <= 1e-9

    def test_remove_screens_multi(self):
        ea = four_screen_pair()
        reduced = remove_screens(ea, [2, 4])
        assert reduced.shape.detector_counts == (2, 2)
        with pytest.raises(DimensionError, match="every screen"):
            remove_screens(ea, [1, 2, 3, 4])


class TestExtendArrangement:
    def test_default_ancilla_is_first_basis_state(self):
        ea = two_detector_table()
        extended = extend_arrangement(ea, 3)
        assert extended.shape.detector_counts == (2, 3)
        table = extended.potentia_table()
        assert table[extended.shape.flat_index((1, 1))] == 0.7
        assert table[extended.shape.flat_index((2, 1))] == 0.3
        assert table.sum() == 1.0

    def test_second_basis_ancilla_reproduces_four_screen_pair(self):
        extended = extend_arrangement(three_screen_pair(), 2, [0, 1])
        assert np.array_equal(extended.alpha.entries, four_screen_pair().alpha.entries)

    def test_rejects_non_normalized_ancilla(self):
        with pytest.raises(ValidationError, match="norm"):
            extend_arrangement(two_detector_table(), 2, [1, 1])

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionError):
            extend_arrangement(two_detector_table(), 0)
        with pytest.raises(DimensionError, match="length"):
            extend_arrangement(two_detector_table(), 2, [1, 0, 0])

    def test_rejects_non_finite_ancilla(self):
        with pytest.raises(NumericError, match="^ancilla amplitudes must be finite$"):
            extend_arrangement(two_detector_table(), 2, [np.inf, 0])

    def test_capacity_overflow(self, monkeypatch):
        ea = four_screen_pair()
        monkeypatch.setattr(qlab.tolerances, "DIMENSION_CAP", 16)
        with pytest.raises(DimensionError, match="capacity"):
            extend_arrangement(ea, 2)

    def test_huge_ancilla_fails_before_allocating(self):
        # an ancilla vector of this length cannot be allocated at all
        huge = 10**20
        with pytest.raises(DimensionError, match="capacity"):
            extend_arrangement(two_detector_table(), huge)
        with pytest.raises(DimensionError, match="capacity"):
            verify_factorization_invariance(two_detector_table(), huge)


class TestVerifiers:
    def test_basis_invariance_random_unitary(self):
        rng = qlab.make_rng(36)
        ea = qlab.random_arrangement(configuration(2, 2), rng)
        bt = BasisTransformation.random(ea.shape, rng)
        report = verify_basis_invariance(ea, bt, seed=rng)
        assert report.passed
        assert report.degree == 4
        assert report.spectrum_residual <= 1e-9
        assert report.valuation_residual <= 1e-8

    def test_basis_invariance_across_factorizations(self):
        ea = four_screen_pair()
        bt = BasisTransformation.random(ea.shape, 37, configuration(4, 4))
        report = verify_basis_invariance(ea, bt)
        assert report.passed

    @pytest.mark.parametrize("order", [None, (3, 1, 2)])
    def test_basis_invariance_of_an_index_move_is_exact(self, order):
        ea = qlab.random_arrangement(configuration(2, 3, 4), 40)
        bt = (BasisTransformation.identity(ea.shape) if order is None
              else BasisTransformation.screen_permutation(ea.shape, order))
        report = verify_basis_invariance(ea, bt)
        assert report.passed and report.valuation_residual == 0.0
        if order is None:  # a permuted matrix has its own eigvalsh rounding
            assert report.spectrum_residual == 0.0

    def test_basis_invariance_bound_flags_a_slightly_non_unitary_transformation(self, monkeypatch):
        ea = qlab.random_arrangement(configuration(2, 3), 43, terms=2)
        lam = qlab.random_unitary(ea.dimension, 44) * (1 + 1e-6)
        bt = BasisTransformation._unitary_by_construction(ea.shape, ea.shape, lam)
        with pytest.raises(ValidationError, match="trace"):
            change_basis(ea, bt)  # its image has trace (1 + 1e-6)^2
        # with change_basis's own checks lifted, the bound alone must see it
        monkeypatch.setattr(transforms, "_valid_result", ExperimentalArrangement)
        report = verify_basis_invariance(ea, bt)
        assert not report.passed
        assert report.valuation_residual > qlab.tolerances.VALUATION_TOL

    def test_basis_invariance_draws_nothing(self, monkeypatch):
        ea = qlab.random_arrangement(configuration(2, 2, 2), 45)
        bt = BasisTransformation.random(ea.shape, 46)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append("qr") or qr(*a, **k))
        rng = qlab.make_rng(47)
        state = rng.bit_generator.state
        assert verify_basis_invariance(ea, bt, seed=rng).passed
        assert calls == [] and rng.bit_generator.state == state

    def test_basis_invariance_seed_is_keyword_only_and_unused(self):
        ea = two_detector_table()
        bt = BasisTransformation.random(ea.shape, 48)
        assert verify_basis_invariance(ea, bt, seed=5) == verify_basis_invariance(ea, bt)
        with pytest.raises(TypeError):
            verify_basis_invariance(ea, bt, 5)

    @pytest.mark.parametrize("order", [None, (3, 1, 2)])
    def test_basis_invariance_of_a_permutation_never_reads_its_matrix(self, order):
        ea = qlab.random_arrangement(configuration(2, 3, 4), 41)

        def build():
            if order is None:
                return BasisTransformation.identity(ea.shape)
            return BasisTransformation.screen_permutation(ea.shape, order)

        expected = verify_basis_invariance(ea, build(), seed=42)
        bt = build()
        n = ea.dimension
        object.__setattr__(bt, "matrix", np.full((n, n), np.nan))
        report = verify_basis_invariance(ea, bt, seed=42)
        assert report.passed and report == expected

    def test_factorization_invariance_report(self):
        ea = three_screen_pair()
        report = verify_factorization_invariance(ea, ancilla_dim=3, trials=5, seed=38)
        assert report.passed
        assert report.trials == 5
        assert report.max_roundtrip_residual <= 1e-10
        assert report.max_marginal_residual <= 1e-12

    def test_factorization_invariance_needs_a_trial(self):
        with pytest.raises(DimensionError):
            verify_factorization_invariance(two_detector_table(), 2, trials=0)


def transformation(kind, shape, seed):
    """A fresh transformation of each kind, equal for equal arguments."""
    if kind == "haar":
        return BasisTransformation.random(shape, seed)
    if kind == "matrix":
        return BasisTransformation(shape, shape, qlab.random_unitary(shape.dimension, seed))
    if kind == "permutation":
        return BasisTransformation.screen_permutation(shape, tuple(range(shape.num_screens, 0, -1)))
    return BasisTransformation.identity(shape)


KINDS = ["haar", "matrix", "permutation", "identity"]


def report_bits(r):
    return r.degree, r.spectrum_residual.hex(), r.valuation_residual.hex(), r.passed


class TestChangeBasisMemo:
    @pytest.mark.parametrize("kind", KINDS)
    def test_the_same_arrangement_again_returns_the_first_result(self, kind):
        ea = qlab.random_arrangement(configuration(2, 3, 2), 51)
        bt = transformation(kind, ea.shape, 52)
        moved = change_basis(ea, bt)
        assert change_basis(ea, bt) is moved
        unremembered = change_basis(ea, transformation(kind, ea.shape, 52))
        assert unremembered is not moved
        assert unremembered.alpha.entries.tobytes() == moved.alpha.entries.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_verifier_conjugates_once_after_its_caller(self, kind, monkeypatch):
        ea = qlab.random_arrangement(configuration(2, 2, 2), 53)
        expected = verify_basis_invariance(ea, transformation(kind, ea.shape, 54), seed=55)  # no memo
        bt = transformation(kind, ea.shape, 54)
        calls = []
        conjugate = transforms._conjugate
        monkeypatch.setattr(transforms, "_conjugate", lambda *a, **k: calls.append(k) or conjugate(*a, **k))
        moved = change_basis(ea, bt)
        report = verify_basis_invariance(ea, bt, seed=55)
        assert calls == [{}, {"adjoint": True}]  # the verifier only pulls back; recomputing the move made 3
        assert report_bits(report) == report_bits(expected)
        assert moved.alpha.spectrum is change_basis(ea, bt).alpha.spectrum  # the verifier's, cached on the result

    def test_an_arrangement_with_the_same_tensor_and_another_label_gets_its_own_result(self):
        ea = qlab.random_arrangement(configuration(2, 2), 56)
        bt = BasisTransformation.random(ea.shape, 57)
        moved = change_basis(ea, bt)
        twin = ExperimentalArrangement(ea.alpha, "twin")
        other = change_basis(twin, bt)
        assert other is not moved and (moved.label, other.label) == (None, "twin")
        assert other.alpha.entries.tobytes() == moved.alpha.entries.tobytes()
        assert change_basis(twin, bt) is other
        assert change_basis(ea, bt) is not moved  # the memo holds the last pair only

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_memo_keeps_nothing_alive(self, kind):
        shape = configuration(*[2] * 9)
        full = shape.dimension ** 2 * 16
        ea = qlab.random_arrangement(shape, 58, terms=2)
        bt = transformation(kind, shape, 59)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            moved = change_basis(ea, bt)
            held = tracemalloc.get_traced_memory()[0] - start
            source, result = bt._last_moved
            assert (source(), result()) == (ea, moved)
            del moved
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert result() is None and source() is ea
        assert held - kept >= full and kept < 0.01 * full
        del ea
        gc.collect()
        assert source() is None

    def test_a_transformation_pickles_without_its_memo(self):
        ea = qlab.random_arrangement(configuration(2, 2), 63)
        for bt in (BasisTransformation.random(ea.shape, 64), BasisTransformation.screen_permutation(ea.shape, (2, 1))):
            moved = change_basis(ea, bt)
            copy = pickle.loads(pickle.dumps(bt))
            assert copy._last_moved is None and repr(copy) == repr(bt)
            assert change_basis(ea, copy).alpha.entries.tobytes() == moved.alpha.entries.tobytes()
