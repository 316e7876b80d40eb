import _pyio
import contextlib
import gc
import json
import os

import numpy as np
import pytest

import qlab
import qlab.cli
from qlab import (
    DimensionError,
    NumericError,
    ParseError,
    ValidationError,
    configuration,
    parse_arrangement,
    parse_state,
    read_arrangement,
    read_state,
    serialize_arrangement,
    serialize_state,
    write_arrangement,
    write_state,
)

from helpers import (
    bell_state,
    four_screen_pair,
    loop_parse_arrangement,
    loop_serialize_arrangement,
    loop_serialize_state,
    two_detector_table,
)

PAIR_TEXT = """{
  "version": 1,
  "factorization": [2, 2, 2, 2],
  "entries": [
    {"bra": [1, 2, 1, 2], "ket": [1, 2, 1, 2], "re": 0.5},
    {"bra": [2, 2, 2, 2], "ket": [2, 2, 2, 2], "re": 0.5}
  ]
}
"""


class TestArrangementRoundTrip:
    def test_parse_known_text(self):
        ea = parse_arrangement(PAIR_TEXT)
        assert np.array_equal(ea.alpha.entries, four_screen_pair().alpha.entries)

    def test_values_round_trip_exactly(self):
        rng = qlab.make_rng(51)
        ea = qlab.random_arrangement(configuration(2, 3), rng)
        back = parse_arrangement(serialize_arrangement(ea))
        assert np.array_equal(back.alpha.entries, ea.alpha.entries)

    def test_serialization_is_canonical_fixed_point(self):
        text = serialize_arrangement(four_screen_pair())
        assert serialize_arrangement(parse_arrangement(text)) == text

    def test_entry_order_does_not_matter(self):
        shuffled = PAIR_TEXT.replace(
            '{"bra": [1, 2, 1, 2], "ket": [1, 2, 1, 2], "re": 0.5},\n'
            '    {"bra": [2, 2, 2, 2], "ket": [2, 2, 2, 2], "re": 0.5}',
            '{"bra": [2, 2, 2, 2], "ket": [2, 2, 2, 2], "re": 0.5},\n'
            '    {"bra": [1, 2, 1, 2], "ket": [1, 2, 1, 2], "re": 0.5}',
        )
        assert shuffled != PAIR_TEXT
        assert serialize_arrangement(parse_arrangement(shuffled)) == serialize_arrangement(
            parse_arrangement(PAIR_TEXT)
        )

    def test_seventeen_digits_preserve_one_third(self):
        third = 1.0 / 3.0
        shape = configuration(3)
        ea = qlab.build_from_mixture(
            [third, third, 1.0 - 2.0 * third],
            [
                qlab.build_from_state_vector(np.eye(3)[k], shape)
                for k in range(3)
            ],
        )
        back = parse_arrangement(serialize_arrangement(ea))
        assert back.alpha.entries[0, 0] == ea.alpha.entries[0, 0]
        assert back.alpha.entries[0, 0].real == third

    def test_label_round_trip(self):
        ea = qlab.ExperimentalArrangement(two_detector_table().alpha, label='odd "label"\n')
        back = parse_arrangement(serialize_arrangement(ea))
        assert back.label == ea.label

    def test_label_keeps_tab_line_breaks_and_astral_characters(self):
        ea = qlab.ExperimentalArrangement(two_detector_table().alpha, label="a\tb\r\n\U0001f600\ufffd")
        assert parse_arrangement(serialize_arrangement(ea)).label == ea.label

    @pytest.mark.parametrize("label", ["\ud800", "a\x00b", "\x1f", "\ufffe"])
    def test_label_outside_xml_is_refused_both_ways(self, label, tmp_path):
        ea = qlab.ExperimentalArrangement(two_detector_table().alpha, label=label)
        path = tmp_path / "labelled.ea"
        with pytest.raises(ValidationError, match="not an XML 1.0 character"):
            write_arrangement(str(path), ea)
        with pytest.raises(ValidationError, match="not an XML 1.0 character"):
            serialize_state(bell_state(), configuration(2, 2), label=label)
        assert not path.exists()
        labelled = '{"label": %s,' % json.dumps(label)
        with pytest.raises(ParseError, match=r"^arrangement file: label holds U\+[0-9A-F]{4}, which is not an XML"):
            parse_arrangement(PAIR_TEXT.replace("{", labelled, 1))
        state_text = serialize_state(bell_state(), configuration(2, 2))
        with pytest.raises(ParseError, match=r"^state file: label holds U\+[0-9A-F]{4}, which is not an XML"):
            parse_state(state_text.replace("{", labelled, 1))

    def test_zero_entries_omitted(self):
        text = serialize_arrangement(two_detector_table())
        assert text.count('"bra"') == 2

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "pair.ea")
        write_arrangement(path, four_screen_pair())
        back = read_arrangement(path)
        assert np.array_equal(back.alpha.entries, four_screen_pair().alpha.entries)

    def test_writers_emit_lf_where_the_line_separator_is_crlf(self, tmp_path, monkeypatch):
        # the pure-Python io module translates "\n" to os.linesep, as the C one does on Windows
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(qlab.fileio, "open", _pyio.open, raising=False)
        ea, v = four_screen_pair(), bell_state()
        write_arrangement(str(tmp_path / "pair.ea"), ea)
        write_state(str(tmp_path / "bell.qs"), v, configuration(2, 2))
        assert qlab.cli.main(["render", "--in", str(tmp_path / "pair.ea"), "--out", str(tmp_path / "pair.svg")]) == 0
        assert (tmp_path / "pair.ea").read_bytes() == serialize_arrangement(ea).encode()
        assert (tmp_path / "bell.qs").read_bytes() == serialize_state(v, configuration(2, 2)).encode()
        assert (tmp_path / "pair.svg").read_bytes() == qlab.render_arrangement_svg(ea).encode()

    def test_refuses_to_serialize_invalid(self):
        alpha = qlab.DenseOperatorTensor(configuration(2), np.diag([0.9, 0.2]))
        ea = qlab.ExperimentalArrangement(alpha)
        with pytest.raises(ValidationError, match="trace"):
            serialize_arrangement(ea)


class TestArrangementErrors:
    def test_syntax_error_names_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_arrangement("{nope}")

    def test_non_object_top_level(self):
        with pytest.raises(ParseError, match="object"):
            parse_arrangement("[1, 2]")

    def test_wrong_version(self):
        with pytest.raises(ParseError, match="version"):
            parse_arrangement(PAIR_TEXT.replace('"version": 1', '"version": 2'))

    def test_missing_fields(self):
        with pytest.raises(ParseError, match="version"):
            parse_arrangement('{"factorization": [2], "entries": []}')
        with pytest.raises(ParseError, match="factorization"):
            parse_arrangement('{"version": 1, "entries": []}')
        with pytest.raises(ParseError, match="entries"):
            parse_arrangement('{"version": 1, "factorization": [2]}')

    def test_entry_field_errors_name_the_record(self):
        base = '{"version": 1, "factorization": [2], "entries": [%s]}'
        with pytest.raises(ParseError, match=r"entries\[0\].re"):
            parse_arrangement(base % '{"bra": [1], "ket": [1]}')
        with pytest.raises(ParseError, match=r"entries\[0\].bra"):
            parse_arrangement(base % '{"bra": 1, "ket": [1], "re": 1.0}')
        with pytest.raises(ParseError, match=r"entries\[0\].im"):
            parse_arrangement(base % '{"bra": [1], "ket": [1], "re": 1.0, "im": "x"}')

    def test_duplicate_entry(self):
        text = PAIR_TEXT.replace(
            '{"bra": [2, 2, 2, 2], "ket": [2, 2, 2, 2], "re": 0.5}',
            '{"bra": [1, 2, 1, 2], "ket": [1, 2, 1, 2], "re": 0.5}',
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_arrangement(text)

    def test_index_out_of_range(self):
        text = '{"version": 1, "factorization": [2], "entries": [{"bra": [3], "ket": [1], "re": 1.0}]}'
        with pytest.raises(DimensionError):
            parse_arrangement(text)

    def test_index_wrong_length(self):
        text = '{"version": 1, "factorization": [2], "entries": [{"bra": [1, 1], "ket": [1], "re": 1.0}]}'
        with pytest.raises(DimensionError):
            parse_arrangement(text)

    def test_invalid_arrangement_rejected_unless_inspecting(self):
        text = '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 0.9}]}'
        with pytest.raises(ValidationError, match="trace"):
            parse_arrangement(text)
        ea = parse_arrangement(text, validate=False)
        assert not qlab.validate_isa(ea).valid

    def test_nan_literal_is_a_parse_error(self):
        text = '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": NaN}]}'
        with pytest.raises(ParseError, match="non-finite"):
            parse_arrangement(text)

    def test_overflowing_value_is_numeric(self):
        text = '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 1e999}]}'
        with pytest.raises(NumericError):
            parse_arrangement(text)

    def test_integer_too_large_for_a_float_is_a_parse_error(self):
        huge = "1" + "0" * 400
        text = '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": %s}]}'
        with pytest.raises(ParseError, match=r"^entries\[0\]\.re is too large for a float$"):
            parse_arrangement(text % huge)
        with pytest.raises(ParseError, match=r"^entries\[0\]\.im is too large for a float$"):
            parse_arrangement(text % ('1.0, "im": -' + huge))

    def test_label_and_records_must_have_their_types(self):
        with pytest.raises(ParseError, match="^arrangement file: label must be a string$"):
            parse_arrangement('{"version": 1, "factorization": [2], "label": 3, "entries": []}')
        with pytest.raises(ParseError, match="^arrangement file: entries must be a list$"):
            parse_arrangement('{"version": 1, "factorization": [2], "entries": {}}')
        with pytest.raises(ParseError, match="^state file: amplitudes must be a list$"):
            parse_state('{"version": 1, "factorization": [2], "amplitudes": {}}')

    def test_canonical_head_that_is_no_configuration_takes_the_json_path(self):
        # each head has the canonical layout, but its factorization or label does not decode
        text = serialize_arrangement(qlab.build_from_state_vector([1], configuration(1)))
        fileio = qlab.fileio
        no_detector = text.replace('"factorization": [1]', '"factorization": [0]')
        assert fileio._read_canonical(no_detector, fileio._ARRANGEMENT) is None
        with pytest.raises(DimensionError, match="^screen 1 has detector count 0; each screen needs at least one detector$"):
            parse_arrangement(no_detector)
        bad_label = text.replace('"factorization": [1],', '"factorization": [1],\n  "label": "\\q",')
        assert fileio._read_canonical(bad_label, fileio._ARRANGEMENT) is None
        with pytest.raises(ParseError, match=r"^arrangement file: invalid syntax at line 4, column 13: Invalid \\escape$"):
            parse_arrangement(bad_label)

    @pytest.mark.parametrize("label", [None, "empty"])
    @pytest.mark.parametrize("kind", ["ea", "qs"])
    def test_empty_record_list_takes_the_json_path(self, kind, label):
        # no writer emits an empty list: a valid arrangement or state has a nonzero entry
        fileio, shape = qlab.fileio, configuration(2, 3)
        if kind == "ea":
            fmt = fileio._ARRANGEMENT
            text = loop_serialize_arrangement(qlab.ExperimentalArrangement(
                qlab.DenseOperatorTensor(shape, np.zeros((6, 6))), label))
        else:
            fmt, text = fileio._STATE, loop_serialize_state(np.zeros(6), shape, label)
        assert text.endswith(f'  "{fmt.records}": []\n}}\n')
        assert fileio._read_canonical(text, fmt) is None
        parsed_shape, parsed_label, dense = fileio._parse(text, fmt)
        assert (parsed_shape, parsed_label) == (shape, label)
        assert dense.dtype == np.complex128 and dense.shape == (6,) * len(fmt.index_fields)
        assert not dense.any()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_arrangement(str(tmp_path / "absent.ea"))

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin.ea"
        path.write_bytes(b"\xff" + PAIR_TEXT.encode())
        with pytest.raises(ParseError, match="cannot read .*can't decode byte 0xff"):
            read_arrangement(str(path))
        with pytest.raises(ParseError, match="cannot read .*can't decode byte 0xff"):
            read_state(str(path))

    def test_deep_nesting_is_a_parse_error(self):
        text = "[" * 5000 + "]" * 5000
        with pytest.raises(ParseError, match="^arrangement file: nesting too deep$"):
            parse_arrangement(text)
        with pytest.raises(ParseError, match="^state file: nesting too deep$"):
            parse_state(text)


A = '{"bra": [1, 1], "ket": [1, 1], "re": 0.5}'
B = '{"bra": [2, 2], "ket": [2, 2], "re": 0.5}'
C = '{"bra": [1, 2], "ket": [2, 1], "re": 0.0}'


class TestFirstFaultyRecordWins:
    """Several faulty records: the error names the first one in file order,
    exactly as the record-by-record reader does."""

    @pytest.mark.parametrize(
        "records, error",
        [
            ([A, B, B, A], "entries[2]: duplicate entry for bra index [2, 2], ket index [2, 2]"),
            ([A, A, A], "entries[1]: duplicate entry for bra index [1, 1], ket index [1, 1]"),
            ([A, '{"bra": [1, 2], "ket": [2, 1]}', B, B], "entries[1].re is missing"),
            ([A, B, '{"bra": [1, true], "ket": [1, 1], "re": 0.5}', "3"], "entries[2].bra must be a list of integers"),
            ([C, '{"bra": [1, 2], "ket": [3, 1], "re": 0.5}', '{"bra": [1], "ket": [1, 1], "re": 0.5}'],
             "entries[1].ket: index 3 out of range 1..2 on screen 1"),
            ([C, '{"bra": [1, 2], "ket": [1, 2, 1], "re": 0.5}', '{"bra": [5, 5], "ket": [1, 1], "re": 0.5}'],
             "entries[1].ket: multi-index (1, 2, 1) has 3 components, expected 2"),
            (['{"bra": [1, 1], "ket": [1, 1], "re": 0.5, "im": "0"}', '{"bra": [1.0, 1], "ket": [1, 1], "re": 0.5}'],
             "entries[0].im must be a number"),
            ([A, C, '{"bra": [1, 2], "ket": [2, 1], "re": "x"}', A], "entries[2]: duplicate entry for bra index [1, 2], ket index [2, 1]"),
        ],
    )
    def test_error_names_the_first_faulty_record(self, records, error):
        text = '{"version": 1, "factorization": [2, 2], "entries": [%s]}' % ", ".join(records)
        with pytest.raises(qlab.QLabError) as got:
            parse_arrangement(text)
        with pytest.raises(qlab.QLabError) as want:
            loop_parse_arrangement(text)
        assert str(want.value) == error
        assert (type(got.value), str(got.value)) == (type(want.value), error)


class TestGarbageCollector:
    """Parsing pauses the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text", [PAIR_TEXT, PAIR_TEXT.replace('"re": 0.5}\n', '"re": "x"}\n')])
    def test_collector_state_is_restored(self, enabled, text):
        was = gc.isenabled()
        try:
            if not enabled:
                gc.disable()
            with contextlib.suppress(qlab.QLabError):
                parse_arrangement(text)
            with contextlib.suppress(qlab.QLabError):
                parse_state(text.replace("entries", "amplitudes").replace('"bra"', '"index"'))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestStateFiles:
    def test_round_trip_exact(self):
        text = serialize_state(bell_state(), configuration(2, 2), label="pair")
        v, shape, label = parse_state(text)
        assert np.array_equal(v, bell_state())
        assert shape.detector_counts == (2, 2)
        assert label == "pair"

    def test_canonical_fixed_point(self):
        text = serialize_state(bell_state(), configuration(2, 2))
        v, shape, _ = parse_state(text)
        assert serialize_state(v, shape) == text

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "state.qs")
        rng = qlab.make_rng(52)
        v = qlab.random_state_vector(6, rng)
        write_state(path, v, configuration(2, 3))
        back, shape, label = read_state(path)
        assert np.array_equal(back, v)
        assert label is None

    def test_slightly_off_norm_renormalized(self):
        v = bell_state() * (1.0 + 1e-9)
        text = serialize_state(v, configuration(2, 2))
        back, _, _ = parse_state(text)
        assert abs(np.linalg.norm(back) - 1.0) <= 1e-15

    def test_norm_past_the_largest_double_is_refused_without_a_warning(self):
        # warnings are errors in this suite, so an overflow warning would fail the raises
        text = '{"version": 1, "factorization": [2], "amplitudes": [{"index": [1], "re": 1e300}]}'
        with pytest.raises(ValidationError, match=r"^state file: norm is inf, expected 1 within 1e-08$"):
            parse_state(text)

    def test_badly_off_norm_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            serialize_state(bell_state() * 1.001, configuration(2, 2))
        text = serialize_state(bell_state(), configuration(2, 2)).replace(
            '"re": 0.70710678118654746', '"re": 0.5'
        )
        with pytest.raises(ValidationError, match="norm"):
            parse_state(text)

    def test_nan_amplitude_is_not_serialized(self, tmp_path):
        v = np.array([np.nan, 0.0])
        with pytest.raises(ValidationError, match="norm is nan"):
            serialize_state(v, configuration(2))
        path = tmp_path / "nan.qs"
        with pytest.raises(ValidationError, match="norm is nan"):
            write_state(str(path), v, configuration(2))
        assert not path.exists()

    def test_duplicate_amplitude(self):
        text = (
            '{"version": 1, "factorization": [2], "amplitudes": ['
            '{"index": [1], "re": 1.0}, {"index": [1], "re": 0.0}]}'
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_state(text)

    def test_integer_too_large_for_a_float_is_a_parse_error(self):
        huge = "1" + "0" * 400
        text = (
            '{"version": 1, "factorization": [2], "amplitudes": ['
            '{"index": [1], "re": 1.0}, {"index": [2], "re": 0.0, "im": %s}]}'
        )
        with pytest.raises(ParseError, match=r"^amplitudes\[1\]\.im is too large for a float$"):
            parse_state(text % huge)

    def test_wrong_length_vector(self):
        with pytest.raises(ValidationError, match="length"):
            serialize_state(bell_state(), configuration(2, 3))


class TestCanonicalReader:
    """Canonical text is read chunk by chunk without the JSON decoder, to the same result."""

    def test_body_of_canonical_text_is_not_decoded_as_json(self, monkeypatch):
        text = serialize_arrangement(qlab.ExperimentalArrangement(four_screen_pair().alpha, label="pair"))
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
        parse_arrangement(text)
        assert decoded == ['"pair"']  # the label literal alone
        other = text.replace(", ", ",")
        parse_arrangement(other)
        assert decoded[-1] == other

    @staticmethod
    def records_text(count: int) -> str:
        """Canonical .ea text of `count` equally long records (not a valid arrangement)."""
        shape = configuration(8, 8, 2)
        dense = np.zeros((shape.dimension, shape.dimension), dtype=np.complex128)
        dense.flat[:count] = complex(0.5, -0.25)
        return qlab.fileio._serialize(dense, shape, None, qlab.fileio._ARRANGEMENT)

    def test_record_counts_around_one_chunk(self, monkeypatch):
        fileio = qlab.fileio
        step = len(self.records_text(2)) - len(self.records_text(1))  # one record and its ",\n"
        # record j's line break ends body position j * step - 1; a chunk is cut
        # at the first line break at or past _CHUNK_CHARS
        two = -(-(fileio._CHUNK_CHARS + 1) // step) + 1  # the fewest records that make two chunks
        chunks = []
        read_chunk = fileio._read_chunk
        monkeypatch.setattr(fileio, "_read_chunk", lambda *a: chunks.append(1) or read_chunk(*a))
        for count, expected in ((two - 1, 1), (two, 2), (two + 1, 2)):
            chunks.clear()
            text = self.records_text(count)
            fast = fileio._read_canonical(text, fileio._ARRANGEMENT)
            assert len(chunks) == expected
            assert fast[2].tobytes() == fileio._parse_json(text, fileio._ARRANGEMENT)[2].tobytes()
            assert np.count_nonzero(fast[2]) == count
        lines = text.split("\n")
        lines[-4] = lines[4].rstrip(",")  # the last record repeats the first, across the chunk boundary
        with pytest.raises(ParseError, match=r"^entries\[%d\]: duplicate entry" % (count - 1)):
            parse_arrangement("\n".join(lines), validate=False)
