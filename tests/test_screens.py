import pytest

from qlab import DimensionError, ScreenConfiguration, configuration
from qlab import tolerances

from helpers import loop_flat, loop_indices


def test_flat_index_two_by_three_enumeration():
    # full mixed-radix table for [2, 3], worked out by hand
    shape = configuration(2, 3)
    expected = {
        (1, 1): 0,
        (1, 2): 1,
        (1, 3): 2,
        (2, 1): 3,
        (2, 2): 4,
        (2, 3): 5,
    }
    for index, flat in expected.items():
        assert shape.flat_index(index) == flat
        assert shape.multi_index(flat) == index


def test_leftmost_screen_most_significant():
    shape = configuration(2, 2, 2, 2)
    assert shape.flat_index((1, 2, 1, 2)) == 5
    assert shape.flat_index((2, 2, 2, 2)) == 15
    assert shape.flat_index((2, 1, 1, 1)) == 8


def test_flat_round_trip_matches_loop_oracle():
    for counts in [(2,), (3, 2), (2, 3, 4), (5, 1, 2)]:
        shape = configuration(*counts)
        for flat, index in enumerate(loop_indices(counts)):
            assert loop_flat(index, counts) == flat
            assert shape.flat_index(index) == flat
            assert shape.multi_index(flat) == index
        assert list(shape.all_indices()) == list(loop_indices(counts))


def test_dimension_and_screen_count():
    shape = configuration(3, 4, 2)
    assert shape.num_screens == 3
    assert shape.dimension == 24
    assert list(shape.all_indices())[0] == (1, 1, 1)
    assert list(shape.all_indices())[-1] == (3, 4, 2)


def test_single_detector_screens_allowed():
    shape = configuration(1, 1, 1)
    assert shape.dimension == 1
    assert shape.flat_index((1, 1, 1)) == 0


def test_rejects_empty_and_nonpositive():
    with pytest.raises(DimensionError):
        ScreenConfiguration(())
    with pytest.raises(DimensionError, match="screen 2"):
        configuration(2, 0)
    with pytest.raises(DimensionError):
        configuration(-1)


def test_rejects_dimension_above_cap():
    assert tolerances.DIMENSION_CAP == 4096
    configuration(4096)  # at the cap is fine
    with pytest.raises(DimensionError, match="cap"):
        configuration(4097)
    with pytest.raises(DimensionError, match="cap"):
        configuration(2, 4, 8, 64, 2)


def test_index_range_errors():
    shape = configuration(2, 3)
    with pytest.raises(DimensionError, match="out of range"):
        shape.flat_index((3, 1))
    with pytest.raises(DimensionError, match="out of range"):
        shape.flat_index((1, 0))
    with pytest.raises(DimensionError, match="components"):
        shape.flat_index((1, 1, 1))
    with pytest.raises(DimensionError):
        shape.multi_index(6)
