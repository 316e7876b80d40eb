import contextlib
import gc

import numpy as np
import pytest

import qlab
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

from helpers import bell_state, four_screen_pair, loop_parse_arrangement, two_detector_table

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

    def test_zero_entries_omitted(self):
        text = serialize_arrangement(two_detector_table())
        assert text.count('"bra"') == 2

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "pair.ea")
        write_arrangement(path, four_screen_pair())
        back = read_arrangement(path)
        assert np.array_equal(back.alpha.entries, four_screen_pair().alpha.entries)

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_arrangement(str(tmp_path / "absent.ea"))


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
             "index 3 out of range 1..2 on screen 1"),
            ([C, '{"bra": [1, 2], "ket": [1, 2, 1], "re": 0.5}', '{"bra": [5, 5], "ket": [1, 1], "re": 0.5}'],
             "multi-index (1, 2, 1) has 3 components, expected 2"),
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

    def test_badly_off_norm_rejected(self):
        with pytest.raises(ValidationError, match="norm"):
            serialize_state(bell_state() * 1.001, configuration(2, 2))
        text = serialize_state(bell_state(), configuration(2, 2)).replace(
            '"re": 0.70710678118654746', '"re": 0.5'
        )
        with pytest.raises(ValidationError, match="norm"):
            parse_state(text)

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
