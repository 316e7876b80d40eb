import xml.etree.ElementTree as ET

import numpy as np
import pytest

import qlab
from qlab import RenderOptions, configuration, depicted_powers, layout, render_arrangement_svg
from qlab.viz import _fmt

from helpers import four_screen_pair, six_detector_certain, three_screen_pair, two_detector_table

SVG_NS = "{http://www.w3.org/2000/svg}"


def elements_with_class(svg: str, cls: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == cls]


def tag(el: ET.Element) -> str:
    return el.tag.removeprefix(SVG_NS)


class TestLayout:
    def test_two_screen_coordinates(self):
        plan = layout(configuration(2, 2))
        assert plan.screen_x == (64.0, 576.0)
        assert plan.detector_y == ((48.0, 352.0), (48.0, 352.0))
        assert plan.node(2, 1) == (576.0, 48.0)

    def test_single_screen_centered(self):
        plan = layout(configuration(2))
        assert plan.screen_x == (320.0,)
        assert plan.detector_y == ((48.0, 352.0),)

    def test_single_detector_centered(self):
        plan = layout(configuration(2, 1))
        assert plan.detector_y[1] == (200.0,)

    def test_respects_canvas_options(self):
        plan = layout(configuration(2, 2), RenderOptions(canvas_width=100.0, canvas_height=50.0))
        assert plan.width == 100.0
        assert plan.screen_x == (10.0, 90.0)
        assert plan.detector_y[0] == (6.0, 44.0)


class TestRenderOptions:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="max_powers"):
            RenderOptions(max_powers=0)
        with pytest.raises(ValueError, match="min_potentia"):
            RenderOptions(min_potentia=1.5)
        with pytest.raises(ValueError, match="canvas"):
            RenderOptions(canvas_width=-1.0)

    @pytest.mark.parametrize("field", ["canvas_width", "canvas_height"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_canvas(self, field, value):
        with pytest.raises(ValueError, match="^canvas dimensions must be positive$"):
            RenderOptions(**{field: value})


class TestDepictedPowers:
    def test_sorted_by_potentia_then_position(self):
        ea = two_detector_table()
        assert depicted_powers(ea) == [((1,), 0.7), ((2,), 0.3)]

    def test_ties_broken_by_flat_position(self):
        ea = four_screen_pair()
        assert depicted_powers(ea) == [((1, 2, 1, 2), 0.5), ((2, 2, 2, 2), 0.5)]

    def test_min_potentia_filters(self):
        ea = two_detector_table()
        assert depicted_powers(ea, RenderOptions(min_potentia=0.5)) == [((1,), 0.7)]

    def test_max_powers_truncates(self):
        ea = two_detector_table()
        assert depicted_powers(ea, RenderOptions(max_powers=1)) == [((1,), 0.7)]


class TestRenderedGlyphs:
    def test_certain_arrangement_single_full_circle(self):
        svg = render_arrangement_svg(six_detector_certain())
        powers = elements_with_class(svg, "power")
        assert [tag(el) for el in powers] == ["circle"]
        assert powers[0].get("fill-opacity") == "1.0"

    def test_two_detector_table_circle_opacities(self):
        svg = render_arrangement_svg(two_detector_table())
        powers = elements_with_class(svg, "power")
        assert [tag(el) for el in powers] == ["circle", "circle"]
        assert [el.get("fill-opacity") for el in powers] == ["0.7", "0.3"]

    def test_two_screens_draw_segments(self):
        v = np.zeros(4, dtype=np.complex128)
        v[0] = 1.0
        ea = qlab.build_from_state_vector(v, configuration(2, 2))
        powers = elements_with_class(render_arrangement_svg(ea), "power")
        assert [tag(el) for el in powers] == ["line"]
        assert powers[0].get("stroke-opacity") == "1.0"

    def test_four_screen_pair_two_polygons(self):
        svg = render_arrangement_svg(four_screen_pair())
        powers = elements_with_class(svg, "power")
        assert [tag(el) for el in powers] == ["polygon", "polygon"]
        assert all(el.get("fill-opacity") == "0.5" for el in powers)

    def test_polygon_vertices_touch_one_node_per_screen(self):
        ea = three_screen_pair()
        plan = layout(ea.shape)
        svg = render_arrangement_svg(ea)
        first = elements_with_class(svg, "power")[0]
        # depicted first: potentia 0.5 at (1, 2, 1), ties broken by position
        want = [plan.node(1, 1), plan.node(2, 2), plan.node(3, 1)]
        want_points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in want)
        assert first.get("points") == want_points

    def test_detector_nodes_present_and_distinct(self):
        svg = render_arrangement_svg(two_detector_table())
        detectors = elements_with_class(svg, "detector")
        assert len(detectors) == 2
        assert all(tag(el) == "circle" and el.get("r") == "4" for el in detectors)

    def test_opacity_clamped_below(self):
        e1 = np.array([1.0, 0.0], dtype=np.complex128)
        e2 = np.array([0.0, 1.0], dtype=np.complex128)
        shape = configuration(2)
        ea = qlab.build_from_mixture(
            [0.99, 0.01],
            [qlab.build_from_state_vector(e1, shape), qlab.build_from_state_vector(e2, shape)],
        )
        powers = elements_with_class(render_arrangement_svg(ea), "power")
        assert powers[1].get("fill-opacity") == "0.05"

    def test_max_powers_limits_glyphs(self):
        svg = render_arrangement_svg(four_screen_pair(), RenderOptions(max_powers=1))
        assert len(elements_with_class(svg, "power")) == 1


class TestDocumentShape:
    def test_well_formed_with_version_and_size(self):
        svg = render_arrangement_svg(four_screen_pair())
        root = ET.fromstring(svg)
        assert root.tag == SVG_NS + "svg"
        assert root.get("version") == "1.1"
        assert root.get("width") == "640.000"
        assert root.get("viewBox") == "0 0 640.000 400.000"

    def test_header_and_declaration(self):
        svg = render_arrangement_svg(two_detector_table())
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert svg.endswith("</svg>\n")

    def test_title_uses_label_or_shape(self):
        ea = qlab.ExperimentalArrangement(two_detector_table().alpha, label="my <experiment>")
        root = ET.fromstring(render_arrangement_svg(ea))
        assert root.find(SVG_NS + "title").text == "my <experiment>"
        bare = ET.fromstring(render_arrangement_svg(two_detector_table()))
        assert bare.find(SVG_NS + "title").text == "arrangement [2]"

    @pytest.mark.parametrize("label", ["a\x00b", "\ud800"])
    def test_label_outside_xml_is_refused(self, label):
        ea = qlab.ExperimentalArrangement(two_detector_table().alpha, label=label)
        with pytest.raises(qlab.ValidationError, match="not an XML 1.0 character"):
            render_arrangement_svg(ea)

    def test_byte_determinism(self):
        ea = qlab.random_arrangement(configuration(2, 3), 11)
        assert render_arrangement_svg(ea) == render_arrangement_svg(ea)

    def test_labels_mode_adds_text(self):
        options = RenderOptions(show_labels=True)
        svg = render_arrangement_svg(two_detector_table(), options)
        labels = elements_with_class(svg, "screen-label")
        values = elements_with_class(svg, "potentia")
        assert [el.text for el in labels] == ["S1"]
        assert [el.text for el in values] == ["0.7", "0.3"]
        plain = render_arrangement_svg(two_detector_table())
        assert elements_with_class(plain, "screen-label") == []
