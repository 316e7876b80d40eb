"""Randomized invariant checks. Each property draws a seed and small shape,
builds arrangements through the public constructors, and asserts an exact
algebraic relation up to the documented tolerances."""

import copy
import functools
import itertools
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlab
from qlab import (
    BasisTransformation,
    Bipartition,
    change_basis,
    configuration,
    extend_arrangement,
    fileio,
    parse_arrangement,
    parse_state,
    refactorize,
    remove_screen,
    schmidt_decompose,
    serialize_arrangement,
    serialize_state,
)

from helpers import (
    loop_is_xml_text,
    loop_parse_arrangement,
    loop_parse_state,
    loop_partial_trace,
    loop_random_projector,
    loop_serialize_arrangement,
    loop_serialize_state,
    loop_valuation_gaps,
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
    assert abs(np.trace(reduced.alpha.entries) - 1.0) <= 1e-10


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


# The verifier's Frobenius bound against the sampled dense loop_* oracle: it
# is at least the gap of every basis power, the identity and a random
# projector of each rank 1..N. Valuations lie in [0, 1], and the oracle
# rounds its own, so the slack is a few ulps of 1.

TRANSFORMATIONS = {
    "random unitary": lambda shape, seed: BasisTransformation.random(shape, seed),
    "refactorizing unitary": lambda shape, seed: BasisTransformation.random(shape, seed, configuration(shape.dimension)),
    "screen permutation": lambda shape, seed: BasisTransformation.screen_permutation(
        shape, qlab.make_rng(seed).permutation(shape.num_screens) + 1
    ),
}
VALUATION_SLACK = 8 * np.finfo(float).eps


@pytest.mark.parametrize("kind", sorted(TRANSFORMATIONS))
@given(counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3), seed=seeds)
def test_valuation_bound_covers_the_sampled_oracle_at_every_rank(kind, counts, seed):
    ea = draw_arrangement(counts, seed)
    bt = TRANSFORMATIONS[kind](ea.shape, seed + 1)
    report = qlab.verify_basis_invariance(ea, bt)
    gaps = loop_valuation_gaps(ea, bt, range(1, ea.dimension + 1), seed + 2)
    assert len(gaps) == 2 * ea.dimension + 1
    assert report.passed
    assert report.valuation_residual >= max(gaps) - VALUATION_SLACK


@pytest.mark.parametrize("dim, rank", [(8, rank) for rank in range(1, 9)] + [(200, 100), (200, 199)])
def test_random_projector_matches_full_qr_route(dim, rank):
    for seed in range(5):
        p = qlab.random_projector(dim, rank, qlab.make_rng(seed))
        assert p.tobytes() == loop_random_projector(dim, rank, qlab.make_rng(seed)).tobytes()


@pytest.mark.parametrize("rank", (1, 5, 8))
def test_random_projector_leaves_the_stream_where_random_unitary_does(rank):
    projector, full = qlab.make_rng(11), qlab.make_rng(11)
    p = qlab.random_projector(8, rank, projector)
    u = qlab.random_unitary(8, full)[:, :rank]
    assert p.tobytes() == (u @ u.conj().T).tobytes()
    assert projector.random() == full.random()


# The file codec against the record-by-record loop_* oracles: same bytes out,
# same arrays or the same error in.

codec_counts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
# any code point, lone surrogates included: labels outside XML text are refused
labels = st.none() | st.text(st.characters(exclude_categories=()), max_size=6)
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
    if label is None or loop_is_xml_text(label):
        assert serialize_arrangement(ea) == loop_serialize_arrangement(ea)
    else:
        with pytest.raises(qlab.ValidationError, match="not an XML 1.0 character"):
            serialize_arrangement(ea)


@settings(max_examples=60)
@given(counts=codec_counts, seed=seeds, kind=kinds, label=labels)
def test_serialize_state_matches_loop_oracle(counts, seed, kind, label):
    v = draw_state(counts, seed, kind)
    shape = configuration(*counts)
    if label is None or loop_is_xml_text(label):
        assert serialize_state(v, shape, label) == loop_serialize_state(v, shape, label)
    else:
        with pytest.raises(qlab.ValidationError, match="not an XML 1.0 character"):
            serialize_state(v, shape, label)


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


# Canonical text and one-edit variants of it: the chunked canonical reader
# must give what the JSON path gives, bit for bit, or fall back to it.
EXTREME_REALS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, -1e17, 12345678901234567.0, 0.1, -2.0,
)
reals = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EXTREME_REALS)
    | st.integers(min_value=-(10**17), max_value=10**17).map(float)  # %.17g prints these as integers
)
FORMATS = st.sampled_from([fileio._ARRANGEMENT, fileio._STATE])


@st.composite
def canonical_texts(draw, fmt) -> tuple[str, bool]:
    """Text _serialize writes for up to twelve nonzero records, and whether its
    label is XML text (if not, the label is spliced in, as no writer emits it)."""
    shape = configuration(*draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)))
    dense = np.zeros((shape.dimension,) * len(fmt.index_fields), dtype=np.complex128)
    for flat in draw(st.lists(st.integers(min_value=0, max_value=dense.size - 1), max_size=12)):
        dense.flat[flat] = complex(draw(reals), draw(reals))
    label = draw(labels)
    if label is None or loop_is_xml_text(label):
        return fileio._serialize(dense, shape, label, fmt), True
    text = fileio._serialize(dense, shape, "x", fmt)
    return text.replace('"label": "x"', '"label": ' + json.dumps(label), 1), False


VALUE_EDITS = ("01", "-01", "+1", ".5", "1.", "1.e5", "1e", "-", "1e400", "9" * 400, "-0", "-0.0", "-0e0",
               "0e0", "1E+2", "", "1 ", "--1", "1e5e5")
INDEX_EDITS = ("1.0", "1e0", "0", "01", "+1", "-1", "", "5", "12", "9" * 30, " 1", "e", "E", "-", "100", "010")
# one edit each: a token, a name, an inserted character, the order or count of records, the header
EDITS = {
    "value": VALUE_EDITS,
    "index": INDEX_EDITS,
    "name": ("1", "E", "-", "e1", "1e", ""),  # in place of the e of a field name
    "insert": tuple("0123456789.eE+-") + (" ", "\u00e9", "\u00a0", "\uff11"),
    "swap": (None,),
    "duplicate": (None,),
    "reorder": (None,),
    "missing_im": (None,),
    "move": (None,),  # re's token leaves its slot for a place past the record
    "crlf": (1, 3, -1),
    "trailing": ("x", " ", "\n", "0", "{}"),
    "header": (('"version": 1', '"version": 2'), ('"version": 1', '"version": 1.0'), ("[", "[0"), ("[", "[ "),
               ("[", "[01, "), ('"factorization"', '"factorisation"'), ("{", "{ ")),
}


def edited(text: str, kind: str, option, pick) -> str:
    """`text` with one edit; pick(n) chooses one of n places (a record, field or offset)."""
    if kind == "crlf":
        return text.replace("\n", "\r\n", option)
    if kind == "trailing":
        return text + option
    lines = text.split("\n")
    records = [i for i, line in enumerate(lines) if line.startswith("    {")]
    if kind == "header" or not records:
        old, new = option if kind == "header" else ("{", "{ ")
        return text.replace(old, new, 1)
    i, j = records[pick(len(records))], records[pick(len(records))]
    line = lines[i]
    if kind == "value":
        field = ("re", "im")[pick(2)]
        lines[i] = re.sub(f'"{field}": [^,}}]*', lambda _: f'"{field}": {option}', line, count=1)
    elif kind == "index":
        lists = list(re.finditer(r"\[([^\]]*)\]", line))
        found = lists[pick(len(lists))]
        parts = found[1].split(", ")
        parts[pick(len(parts))] = option
        lines[i] = line[: found.start(1)] + ", ".join(parts) + line[found.end(1) :]
    elif kind == "name":
        names = [m.start() + m[0].index("e") for m in re.finditer(r'"\w*e\w*"', line)]
        at = names[pick(len(names))]
        lines[i] = line[:at] + option + line[at + 1 :]
    elif kind == "insert":
        at = pick(len(line) + 1)
        lines[i] = line[:at] + option + line[at:]
    elif kind == "swap":  # each line keeps its own separator
        a, b = line.rstrip(","), lines[j].rstrip(",")
        lines[i], lines[j] = b + line[len(a) :], a + lines[j][len(b) :]
    elif kind == "duplicate":
        lines.insert(j, line.rstrip(",") + ",")
    elif kind == "move":
        token = re.search(r'"re": ([^,]*)', line)[1]
        lines[i] = line.replace('"re": ' + token, '"re": ', 1).replace("}", "}" + token, 1)
    elif kind == "reorder":
        lines[i] = re.sub(r'"re": ([^,]*), "im": ([^}]*)', r'"im": \2, "re": \1', line)
    else:
        lines[i] = re.sub(r', "im": [^}]*', "", line)
    return "\n".join(lines)


def read_outcome(read, text):
    """Configuration, label and array bits a reader returns, or the type and message of what it raises."""
    try:
        result = read(text)
    except qlab.QLabError as e:
        return type(e), str(e)
    if isinstance(result, qlab.ExperimentalArrangement):
        result = result.shape, result.label, result.alpha.entries
    elif isinstance(result[1], qlab.ScreenConfiguration):  # parse_state: (amplitudes, shape, label)
        result = result[1], result[2], result[0]
    shape, label, dense = result
    return shape, label, dense.shape, dense.view(np.int64).tobytes()


def check_readers(text: str, fmt, chunk: int):
    """The reader _parse uses agrees with the JSON path, the public parser with
    its loop oracle; returns what the canonical reader gave (None: fell back)."""
    # chunk 1 puts each record in a chunk of its own; the norm of a state
    # holding the largest doubles overflows to inf, which is refused
    with mock.patch.object(fileio, "_CHUNK_CHARS", chunk), np.errstate(over="ignore"):
        fast = fileio._read_canonical(text, fmt)
        got = read_outcome(lambda t: fileio._parse(t, fmt), text)
        if fmt is fileio._ARRANGEMENT:
            public = read_outcome(lambda t: parse_arrangement(t, validate=False), text)
            oracle = read_outcome(lambda t: loop_parse_arrangement(t, validate=False), text)
        else:
            public, oracle = read_outcome(parse_state, text), read_outcome(loop_parse_state, text)
    assert got == read_outcome(lambda t: fileio._parse_json(t, fmt), text)
    assert public == oracle
    if fast is not None:
        assert read_outcome(lambda t: fast, text) == got
    return fast


@settings(max_examples=300)
@given(fmt=FORMATS, chunk=st.sampled_from([1, 150, fileio._CHUNK_CHARS]), data=st.data())
def test_canonical_reader_matches_json_path_and_oracle(fmt, chunk, data):
    text, xml_label = data.draw(canonical_texts(fmt))
    if data.draw(st.booleans()):
        kind = data.draw(st.sampled_from(sorted(EDITS)))
        option = data.draw(st.sampled_from(EDITS[kind]))
        check_readers(edited(text, kind, option, lambda n: data.draw(st.integers(0, n - 1))), fmt, chunk)
    else:
        assert (check_readers(text, fmt, chunk) is not None) == xml_label


SAMPLE_VALUES = (complex(0.5, -0.0), complex(-0.0, 1e16), complex(5e-324, -1.7976931348623157e308),
                 complex(1 / 3, 2.0), complex(-12345678901234567.0, 1e-300))


# 24: an index token E would read as 21; 10: two-digit index components
@pytest.mark.parametrize("counts", [(2, 3), (24,), (10, 3)])
@pytest.mark.parametrize("fmt", [fileio._ARRANGEMENT, fileio._STATE], ids=["ea", "qs"])
@pytest.mark.parametrize("kind", sorted(EDITS))
def test_canonical_reader_on_every_listed_edit(kind, fmt, counts):
    shape = configuration(*counts)
    dense = np.zeros((shape.dimension,) * len(fmt.index_fields), dtype=np.complex128)
    dense.flat[np.linspace(0, dense.size - 1, len(SAMPLE_VALUES)).astype(int)] = SAMPLE_VALUES
    text = fileio._serialize(dense, shape, "sample", fmt)
    assert check_readers(text, fmt, 1) is not None
    for option in EDITS[kind]:
        for pick in (lambda n: 0, lambda n: n - 1, lambda n: n // 2):
            check_readers(edited(text, kind, option, pick), fmt, 1)


# Number tokens JSON reads apart from Python's float: a bare -0 is the integer
# 0, so +0.0, and an integer past 17 digits is rounded from the integer.
SPECIAL_TOKENS = ("-0", "-0.0", "-0e0", "0", "1e-5", "2.5E+3", "-1.25e-300", "7E2", "0.1", "5e-324",
                  "1.7976931348623157e308", "123456789012345678901234567890", "-9007199254740993")


# one-digit counts: index digits at fixed columns; a count of 10 or more: token edges
@pytest.mark.parametrize("counts", [(9,), (10,), (3, 9), (9, 10), (10, 2), (2,) * 5])
@pytest.mark.parametrize("fmt", [fileio._ARRANGEMENT, fileio._STATE], ids=["ea", "qs"])
def test_both_canonical_paths_match_json_path_and_oracle_bit_for_bit(fmt, counts):
    shape = configuration(*counts)
    assert (fileio._Layout.of(shape, fmt).digits == 1) == (max(counts) <= 9)
    dense = np.zeros((shape.dimension,) * len(fmt.index_fields), dtype=np.complex128)
    dense.flat[np.linspace(0, dense.size - 1, 3 * len(SPECIAL_TOKENS)).astype(int)] = complex(0.5, 0.5)
    tokens = itertools.cycle(SPECIAL_TOKENS)
    text = re.sub(r'"re": [^,]*, "im": [^}]*', lambda _: f'"re": {next(tokens)}, "im": {next(tokens)}',
                  fileio._serialize(dense, shape, "special", fmt))
    for chunk in (1, 150, fileio._CHUNK_CHARS):
        fast = check_readers(text, fmt, chunk)
        assert fast is not None
    values = fast[2].reshape(-1)[np.flatnonzero(dense)]
    written = re.findall(r'"re": ([^,]*), "im": ([^}]*)', text)
    assert [(x.real, x.imag) for x in values.tolist()] == [(float(a), float(b)) for a, b in written]
    signs = np.signbit(np.stack([values.real, values.imag], axis=1))
    assert signs.tolist() == [[t in ("-0.0", "-0e0") or float(t) < 0 for t in pair] for pair in written]


# Faults placed in one record of a realistic non-canonical file; each maps a
# record and its index fields to the faulty record. The last three put two
# faults in one record, of which the first in the order index fields, re, im wins.
RECORD_FAULTS = {
    "not_object": lambda record, fields: 3,
    "bool_component": lambda record, fields: {**record, fields[0]: [True, *record[fields[0]][1:]]},
    "out_of_range": lambda record, fields: {**record, fields[-1]: [*record[fields[-1]][:-1], 5]},
    "too_long": lambda record, fields: {**record, fields[-1]: [*record[fields[-1]], 1]},
    "re_missing": lambda record, fields: {k: v for k, v in record.items() if k != "re"},
    "re_not_number": lambda record, fields: {**record, "re": "x"},
    "im_too_large": lambda record, fields: {**record, "im": -(10**400)},
    "two_index_faults": lambda record, fields: {
        **record, fields[-1]: [True, *record[fields[-1]][1:]], fields[0]: [*record[fields[0]], 1]},
    "index_and_re": lambda record, fields: {**record, fields[-1]: [*record[fields[-1]], 1], "re": "x"},
    "re_and_im": lambda record, fields: {**record, "re": "x", "im": -(10**400)},
}


@pytest.mark.parametrize("fmt", [fileio._ARRANGEMENT, fileio._STATE], ids=["ea", "qs"])
def test_json_path_matches_canonical_reader_and_oracle_at_realistic_size(fmt):
    counts = (4, 4, 4)  # N = 64: 4,096 entries or 64 amplitudes
    if fmt is fileio._ARRANGEMENT:
        dense = draw_codec_arrangement(counts, 11, "dense", None).alpha.entries
        public = functools.partial(parse_arrangement, validate=False)
        oracle = functools.partial(loop_parse_arrangement, validate=False)
    else:
        dense = draw_state(counts, 11, "dense")
        public, oracle = parse_state, loop_parse_state
    canonical = fileio._serialize(dense, configuration(*counts), None, fmt)
    doc = json.loads(canonical)
    compact = json.dumps(doc)
    assert fileio._read_canonical(compact, fmt) is None
    parsed = fileio._parse_json(compact, fmt)[2].tobytes()
    assert parsed == fileio._read_canonical(canonical, fmt)[2].tobytes() == dense.tobytes()
    assert read_outcome(oracle, compact)[3] == read_outcome(public, compact)[3] == parsed

    records = doc[fmt.records]
    for pos in (0, len(records) // 2, len(records) - 1):
        faults = {name: fault(records[pos], fmt.index_fields) for name, fault in RECORD_FAULTS.items()}
        other = records[1 if pos == 0 else 0]  # the later of the two equal records is the faulty one
        faults["duplicate"] = {**records[pos], **{field: other[field] for field in fmt.index_fields}}
        for name, record in faults.items():
            text = json.dumps({**doc, fmt.records: [*records[:pos], record, *records[pos + 1 :]]})
            want = read_outcome(oracle, text)
            assert isinstance(want[0], type), (name, pos)
            assert read_outcome(lambda t: fileio._parse_json(t, fmt), text) == want, (name, pos)
            assert read_outcome(public, text) == want, (name, pos)
