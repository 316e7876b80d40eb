"""Randomized invariant checks. Each property draws a seed and small shape,
builds arrangements through the public constructors, and asserts an exact
algebraic relation up to the documented tolerances."""

import copy
import json

import numpy as np
from hypothesis import given, settings, strategies as st

import qlab
from qlab import (
    BasisTransformation,
    Bipartition,
    change_basis,
    configuration,
    extend_arrangement,
    parse_arrangement,
    parse_state,
    refactorize,
    remove_screen,
    schmidt_decompose,
    serialize_arrangement,
    serialize_state,
)

from helpers import (
    loop_parse_arrangement,
    loop_parse_state,
    loop_partial_trace,
    loop_serialize_arrangement,
    loop_serialize_state,
)

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_counts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).filter(
    lambda counts: int(np.prod(counts)) >= 2
)


def draw_arrangement(counts, seed):
    return qlab.random_arrangement(configuration(*counts), seed)


@given(counts=small_counts, seed=seeds)
def test_potentia_is_a_distribution(counts, seed):
    ea = draw_arrangement(counts, seed)
    table = ea.potentia_table()
    assert np.all(table >= -1e-12)
    assert abs(table.sum() - 1.0) <= 1e-9


@given(counts=small_counts, seed=seeds)
def test_valuation_of_complementary_projectors(counts, seed):
    ea = draw_arrangement(counts, seed)
    rng = qlab.make_rng(seed)
    rank = 1 + seed % ea.dimension
    m = qlab.random_projector(ea.dimension, rank, rng)
    p = qlab.GeneralProjector.from_matrix(m, ea.shape)
    q = qlab.GeneralProjector.from_matrix(np.eye(ea.dimension) - m, ea.shape)
    psi = qlab.GlobalIntensiveValuation(ea)
    assert abs(psi(p) + psi(q) - 1.0) <= 1e-8


@given(counts=small_counts, seed=seeds)
def test_purity_routes_agree(counts, seed):
    ea = draw_arrangement(counts, seed)
    abstract = qlab.purity_abstract(ea)
    operational = qlab.purity_operational(ea)
    assert abstract.is_pure == operational.certain_power_exists
    # rank-one iff the top eigenvalue is 1
    if abstract.is_pure:
        assert abs(operational.max_eigenvalue - 1.0) <= 1e-9


@given(counts=small_counts, seed=seeds)
def test_change_basis_preserves_spectrum_and_purity(counts, seed):
    ea = draw_arrangement(counts, seed)
    bt = BasisTransformation.random(ea.shape, seed)
    moved = change_basis(ea, bt)
    before = np.linalg.eigvalsh(ea.alpha.entries)
    after = np.linalg.eigvalsh(moved.alpha.entries)
    assert np.max(np.abs(before - after)) <= 1e-9
    assert abs(qlab.purity_abstract(ea).value - qlab.purity_abstract(moved).value) <= 1e-9


@given(counts=small_counts, seed=seeds)
def test_change_basis_inverse_returns_start(counts, seed):
    ea = draw_arrangement(counts, seed)
    bt = BasisTransformation.random(ea.shape, seed)
    back = change_basis(change_basis(ea, bt), bt.inverse())
    assert np.max(np.abs(back.alpha.entries - ea.alpha.entries)) <= 1e-10


@given(counts=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3), seed=seeds)
def test_remove_screen_matches_loop_partial_trace(counts, seed):
    ea = draw_arrangement(counts, seed)
    position = 1 + seed % len(counts)
    reduced = remove_screen(ea, position)
    want = loop_partial_trace(ea.alpha.entries, tuple(counts), {position})
    assert np.max(np.abs(reduced.alpha.entries - want)) <= 1e-12
    assert abs(qlab.trace(reduced.alpha) - 1.0) <= 1e-10


@given(counts=small_counts, seed=seeds, dim=st.integers(min_value=1, max_value=3))
def test_extend_then_remove_is_identity(counts, seed, dim):
    ea = draw_arrangement(counts, seed)
    phi = qlab.random_state_vector(dim, qlab.make_rng(seed))
    extended = extend_arrangement(ea, dim, phi)
    back = remove_screen(extended, extended.shape.num_screens)
    assert np.max(np.abs(back.alpha.entries - ea.alpha.entries)) <= 1e-10


@given(counts=small_counts, seed=seeds)
def test_refactorize_keeps_bytes_and_potentia(counts, seed):
    ea = draw_arrangement(counts, seed)
    flat = refactorize(ea, configuration(ea.dimension))
    assert flat.alpha.entries.tobytes() == ea.alpha.entries.tobytes()
    assert np.array_equal(flat.potentia_table(), ea.potentia_table())


@given(seed=seeds)
def test_schmidt_is_local_unitary_invariant(seed):
    shape = configuration(2, 3)
    rng = qlab.make_rng(seed)
    state = qlab.random_state_vector(6, rng)
    cut = Bipartition((1,), (2,))
    u = qlab.random_unitary(2, rng)
    w = qlab.random_unitary(3, rng)
    rotated = np.kron(u, w) @ state
    before = schmidt_decompose(state, shape, cut).coefficients
    after = schmidt_decompose(rotated, shape, cut).coefficients
    assert before.size == after.size
    assert np.max(np.abs(before - after)) <= 1e-9


@given(seed=seeds)
def test_schmidt_squares_are_marginal_eigenvalues(seed):
    shape = configuration(2, 2, 2)
    state = qlab.random_state_vector(8, qlab.make_rng(seed))
    result = schmidt_decompose(state, shape, Bipartition((1, 2), (3,)))
    alpha = np.outer(state, state.conj())
    marginal = loop_partial_trace(alpha, (2, 2, 2), {3})
    eigs = np.sort(np.linalg.eigvalsh(marginal))[::-1]
    squared = np.square(result.coefficients)
    assert np.max(np.abs(squared - eigs[: squared.size])) <= 1e-9


@given(counts=small_counts, seed=seeds)
def test_serialize_parse_round_trip(counts, seed):
    ea = draw_arrangement(counts, seed)
    back = parse_arrangement(serialize_arrangement(ea))
    assert np.array_equal(back.alpha.entries, ea.alpha.entries)
    assert serialize_arrangement(back) == serialize_arrangement(ea)


@given(counts=small_counts, seed=seeds)
def test_sampler_is_deterministic_and_conserving(counts, seed):
    ea = draw_arrangement(counts, seed)
    first = qlab.sample_outcomes(ea, 200, seed)
    second = qlab.sample_outcomes(ea, 200, seed)
    assert first == second
    assert sum(first.values()) == 200
    support = {ea.shape.multi_index(flat) for flat, p in enumerate(ea.potentia_table()) if p > 0}
    assert set(first) <= support


@given(counts=small_counts, seed=seeds)
def test_basis_invariance_verifier_passes(counts, seed):
    ea = draw_arrangement(counts, seed)
    bt = BasisTransformation.random(ea.shape, seed)
    assert qlab.verify_basis_invariance(ea, bt, seed=seed).passed


# The file codec against the record-by-record loop_* oracles: same bytes out,
# same arrays or the same error in.

codec_counts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
labels = st.none() | st.text(max_size=6)
SIGNED_ZEROS = (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0))


def with_signed_zeros(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Give zero entries and zero parts of nonzero entries random signs."""
    out = values.astype(np.complex128).copy().reshape(-1)
    for k in range(out.size):
        if out[k] == 0:
            out[k] = SIGNED_ZEROS[rng.integers(4)]
        elif out[k].imag == 0 and rng.integers(2):
            out[k] = complex(out[k].real, -0.0)
    return out.reshape(values.shape)


def draw_state(counts, seed, kind) -> np.ndarray:
    """Dense random, sparse random, or a single basis vector."""
    n = int(np.prod(counts))
    rng = qlab.make_rng(seed)
    v = qlab.random_state_vector(n, rng)
    if kind != "dense":
        keep = rng.random(n) < (0.4 if kind == "sparse" else 0.0)
        keep[rng.integers(n)] = True
        v = np.where(keep, v, 0)
        v = v / np.linalg.norm(v)
    return with_signed_zeros(v, rng)


def draw_codec_arrangement(counts, seed, kind, label):
    """Dense mixed, sparse pure, or diagonal arrangement with signed zeros."""
    shape = configuration(*counts)
    rng = qlab.make_rng(seed)
    if kind == "dense":
        matrix = qlab.random_arrangement(shape, rng).alpha.entries
    elif kind == "sparse":
        v = draw_state(counts, seed, "sparse")
        matrix = np.outer(v, v.conj())
    else:
        p = rng.random(shape.dimension) * (rng.random(shape.dimension) < 0.5)
        p[rng.integers(shape.dimension)] += 1.0
        matrix = np.diag(p / p.sum())
    return qlab.ExperimentalArrangement(
        qlab.DenseOperatorTensor(shape, with_signed_zeros(matrix, rng)), label
    )


kinds = st.sampled_from(["dense", "sparse", "basis"])


@settings(max_examples=60)
@given(counts=codec_counts, seed=seeds, kind=kinds, label=labels)
def test_serialize_arrangement_matches_loop_oracle(counts, seed, kind, label):
    ea = draw_codec_arrangement(counts, seed, kind, label)
    assert serialize_arrangement(ea) == loop_serialize_arrangement(ea)


@settings(max_examples=60)
@given(counts=codec_counts, seed=seeds, kind=kinds, label=labels)
def test_serialize_state_matches_loop_oracle(counts, seed, kind, label):
    v = draw_state(counts, seed, kind)
    shape = configuration(*counts)
    assert serialize_state(v, shape, label) == loop_serialize_state(v, shape, label)


BAD_VALUES = ("x", None, True, [1.0], {})


def bad_values(*extra):
    """One of BAD_VALUES or extra, as a fresh copy: a shared list or dict
    placed in a record would be edited by later faults and could end up
    containing itself."""
    return st.sampled_from(BAD_VALUES + extra).map(copy.deepcopy)


BAD_INDEX_COMPONENTS = (True, False, 1.0, 0, -1, 5, 10**30, -(10**30), "1", None)


@st.composite
def mutated_records(draw, records: list, index_fields: tuple[str, ...]) -> list:
    """The records, possibly reordered, with one to four faults (or harmless
    edits), often several in the first few records."""
    records = json.loads(json.dumps(records))
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    last = len(records) - 1
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=min(last, 2)) | st.integers(min_value=0, max_value=last))
        record = records[pos]
        field = draw(st.sampled_from(index_fields))
        kind = draw(st.sampled_from(["non_dict", "index_component", "index_field", "index_length", "duplicate", "value"]))
        if kind == "non_dict" or not isinstance(record, dict):
            records[pos] = draw(bad_values(3, 2.5))
        elif kind == "index_component" and isinstance(record.get(field), list) and record[field]:
            j = draw(st.integers(min_value=0, max_value=len(record[field]) - 1))
            record[field][j] = draw(st.sampled_from(BAD_INDEX_COMPONENTS))
        elif kind == "index_field":
            value = draw(bad_values(1, "missing"))
            if value == "missing":
                record.pop(field, None)
            else:
                record[field] = value
        elif kind == "index_length" and isinstance(record.get(field), list):
            if record[field] and draw(st.booleans()):
                record[field].pop()
            else:
                record[field].append(1)
        elif kind == "duplicate":
            source = records[draw(st.integers(min_value=0, max_value=last))]
            if isinstance(source, dict):
                dup = copy.deepcopy({f: source.get(f) for f in index_fields})
                if draw(st.booleans()):
                    records.insert(draw(st.integers(min_value=0, max_value=len(records))), {**dup, "re": 0.0})
                else:
                    record.update(dup)
        else:
            name = draw(st.sampled_from(["re", "im"]))
            value = draw(bad_values("missing", 0, 1, -2, 2**60, 10**400, -(10**400), 1e300))
            if value == "missing":
                record.pop(name, None)
            else:
                record[name] = value
    return records


def outcome(parse, text):
    """What a parser returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except qlab.QLabError as e:
        return type(e), str(e)


@settings(max_examples=150)
@given(counts=codec_counts, seed=seeds, kind=kinds, label=labels, data=st.data())
def test_parse_arrangement_matches_loop_oracle(counts, seed, kind, label, data):
    ea = draw_codec_arrangement(counts, seed, kind, label)
    text = loop_serialize_arrangement(ea)
    doc = json.loads(text)
    mutate = data.draw(st.booleans())
    if mutate:
        doc["entries"] = data.draw(mutated_records(doc["entries"], ("bra", "ket")))
        text = json.dumps(doc, indent=1)
    validate = data.draw(st.booleans())
    got = outcome(lambda t: parse_arrangement(t, validate=validate), text)
    want = outcome(lambda t: loop_parse_arrangement(t, validate=validate), text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.alpha.entries.tobytes() == want.alpha.entries.tobytes()
        assert (got.shape, got.label) == (want.shape, want.label)
        if not mutate:
            assert np.array_equal(got.alpha.entries, ea.alpha.entries)


@settings(max_examples=150)
@given(counts=codec_counts, seed=seeds, kind=kinds, label=labels, data=st.data())
def test_parse_state_matches_loop_oracle(counts, seed, kind, label, data):
    shape = configuration(*counts)
    v = draw_state(counts, seed, kind)
    text = loop_serialize_state(v, shape, label)
    doc = json.loads(text)
    mutate = data.draw(st.booleans())
    if mutate:
        doc["amplitudes"] = data.draw(mutated_records(doc["amplitudes"], ("index",)))
        text = json.dumps(doc, indent=1)
    got = outcome(parse_state, text)
    want = outcome(loop_parse_state, text)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        if not mutate:
            assert np.array_equal(got[0], v)
