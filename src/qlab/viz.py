"""Deterministic SVG depiction of arrangements.

Screens are vertical columns of detector nodes, left to right in screen
order. Each depicted power touches exactly one detector node per screen: a
dot on one screen, a segment across two, a filled polygon across three or
more. Potentia maps to opacity (clamped so faint powers stay visible) and is
optionally written next to the glyph. Output is plain SVG 1.1 text assembled
with fixed formatting, so the same arrangement and options give the same
bytes on every run. A label outside XML 1.0 text, which no SVG can hold, is a
ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrangement import ExperimentalArrangement, _label_fault
from .errors import ValidationError
from .screens import ScreenConfiguration

MIN_OPACITY = 0.05

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)


@dataclass(frozen=True)
class RenderOptions:
    max_powers: int | None = None
    min_potentia: float = 1e-6
    canvas_width: float = 640.0
    canvas_height: float = 400.0
    show_labels: bool = False

    def __post_init__(self) -> None:
        if self.max_powers is not None and self.max_powers < 1:
            raise ValueError(f"max_powers must be at least 1, got {self.max_powers}")
        if not 0.0 <= self.min_potentia <= 1.0:
            raise ValueError(f"min_potentia must lie in [0, 1], got {self.min_potentia}")
        if not all(math.isfinite(x) and x > 0 for x in (self.canvas_width, self.canvas_height)):
            raise ValueError("canvas dimensions must be positive")


@dataclass(frozen=True)
class LayoutPlan:
    width: float
    height: float
    screen_x: tuple[float, ...]
    detector_y: tuple[tuple[float, ...], ...]

    def node(self, screen: int, detector: int) -> tuple[float, float]:
        """Coordinates of a detector node, both arguments 1-based."""
        return self.screen_x[screen - 1], self.detector_y[screen - 1][detector - 1]


def layout(shape: ScreenConfiguration, options: RenderOptions = RenderOptions()) -> LayoutPlan:
    """Equal horizontal spacing for screens, equal vertical spacing per screen."""
    margin_x = options.canvas_width * 0.1
    margin_y = options.canvas_height * 0.12
    n = shape.num_screens
    if n == 1:
        xs = (options.canvas_width / 2.0,)
    else:
        step = (options.canvas_width - 2 * margin_x) / (n - 1)
        xs = tuple(margin_x + j * step for j in range(n))
    ys = []
    for count in shape.detector_counts:
        if count == 1:
            ys.append((options.canvas_height / 2.0,))
        else:
            step = (options.canvas_height - 2 * margin_y) / (count - 1)
            ys.append(tuple(margin_y + k * step for k in range(count)))
    return LayoutPlan(options.canvas_width, options.canvas_height, xs, tuple(ys))


def _fmt(x: float) -> str:
    """Fixed decimal form for coordinates, stable across runs."""
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _fmt_opacity(x: float) -> str:
    return repr(float(x))


def depicted_powers(
    ea: ExperimentalArrangement, options: RenderOptions = RenderOptions()
) -> list[tuple[tuple[int, ...], float]]:
    """Powers to draw: potentia >= min_potentia, descending, ties by flat
    position, truncated to max_powers."""
    table = ea.potentia_table()
    chosen = [(index, p) for index, p in zip(ea.shape.all_indices(), table.tolist()) if p >= options.min_potentia]
    chosen.sort(key=lambda item: -item[1])  # stable: ties keep flat order
    return chosen[: options.max_powers]


def render_arrangement_svg(
    ea: ExperimentalArrangement, options: RenderOptions = RenderOptions()
) -> str:
    from xml.sax.saxutils import escape  # here, so importing qlab does not load xml.sax and its imports

    if fault := _label_fault(ea.label):
        raise ValidationError(f"refusing to render: {fault}")
    plan = layout(ea.shape, options)
    shape = ea.shape
    n = shape.num_screens
    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(plan.width)}" height="{_fmt(plan.height)}" '
        f'viewBox="0 0 {_fmt(plan.width)} {_fmt(plan.height)}">'
    )
    title = ea.label if ea.label else "arrangement " + str(shape)
    parts.append(f"  <title>{escape(title)}</title>")
    parts.append('  <rect width="100%" height="100%" fill="#ffffff"/>')

    parts.append('  <g class="screens">')
    for j in range(1, n + 1):
        x = plan.screen_x[j - 1]
        ys = plan.detector_y[j - 1]
        top = min(ys) - 14.0
        bottom = max(ys) + 14.0
        parts.append(
            f'    <line class="screen" x1="{_fmt(x)}" y1="{_fmt(top)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(bottom)}" stroke="#888888" stroke-width="2"/>'
        )
        for k in range(1, shape.detector_counts[j - 1] + 1):
            cx, cy = plan.node(j, k)
            parts.append(
                f'    <circle class="detector" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                'r="4" fill="#444444"/>'
            )
        if options.show_labels:
            parts.append(
                f'    <text class="screen-label" x="{_fmt(x)}" y="{_fmt(bottom + 18.0)}" '
                f'font-size="12" text-anchor="middle" fill="#444444">S{j}</text>'
            )
    parts.append("  </g>")

    parts.append('  <g class="powers">')
    for rank, (index, potentia) in enumerate(depicted_powers(ea, options)):
        color = PALETTE[rank % len(PALETTE)]
        opacity = _fmt_opacity(min(1.0, max(MIN_OPACITY, potentia)))
        nodes = [plan.node(j, k) for j, k in enumerate(index, start=1)]
        if n == 1:
            (cx, cy) = nodes[0]
            parts.append(
                f'    <circle class="power" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="9" '
                f'fill="{color}" fill-opacity="{opacity}"/>'
            )
        elif n == 2:
            (x1, y1), (x2, y2) = nodes
            parts.append(
                f'    <line class="power" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" stroke-width="3" '
                f'stroke-opacity="{opacity}"/>'
            )
        else:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in nodes)
            parts.append(
                f'    <polygon class="power" points="{pts}" fill="{color}" '
                f'fill-opacity="{opacity}" stroke="{color}" stroke-opacity="{opacity}"/>'
            )
        if options.show_labels:
            lx, ly = nodes[0]
            parts.append(
                f'    <text class="potentia" x="{_fmt(lx + 8.0)}" y="{_fmt(ly - 8.0)}" '
                f'font-size="11" fill="#222222">{_fmt_opacity(potentia)}</text>'
            )
    parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
