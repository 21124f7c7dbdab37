"""SVG rendering of the nested cone wedges in a codim-c cycle plane.

Plain SVG 1.1, no dependencies.  The horizontal axis carries the H^c
coefficient, the vertical axis the H^(c-1)S coefficient; every cone is
the wedge between the common vertical ray and H^c - t * H^(c-1)S.  The
drawing uses short decimals but each wedge duplicates its exact
rational threshold slope in a data-slope attribute.
"""

from __future__ import annotations

from fractions import Fraction
from math import hypot

from .bundles import ConeLabel

__all__ = ["cone_diagram"]

_SIZE = 480
_ORIGIN = (90.0, 240.0)
_ARM = 170.0
_STEEP = 10**6  # a steeper ray draws as vertical at two decimals
_STYLE = {
    "Pseff": "#d95f02",
    "Bridge": "#7570b3",
    "Nef": "#1b9e77",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ray_end(threshold: Fraction) -> tuple[float, float]:
    # unit vector along (1, -t), y flipped for SVG, scaled to arm length; t is
    # clamped exactly first, as a huge rational has no float
    t = float(max(-_STEEP, min(threshold, _STEEP)))
    norm = hypot(1.0, t)
    return (_ORIGIN[0] + _ARM / norm, _ORIGIN[1] + _ARM * t / norm)


def cone_diagram(codim: int, thresholds: dict[ConeLabel, Fraction], coincide: bool) -> str:
    """Render the codim-c cones, given by threshold per label (outermost first), as wedges."""
    up = (_ORIGIN[0], _ORIGIN[1] - _ARM)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<line x1="{_fmt(_ORIGIN[0])}" y1="{_fmt(_ORIGIN[1])}" '
        f'x2="{_fmt(_ORIGIN[0] + _ARM + 40)}" y2="{_fmt(_ORIGIN[1])}" '
        f'stroke="#999" stroke-width="1"/>',
        f'<line x1="{_fmt(_ORIGIN[0])}" y1="{_fmt(_ORIGIN[1] + 60)}" '
        f'x2="{_fmt(up[0])}" y2="{_fmt(up[1] - 20)}" stroke="#999" stroke-width="1"/>',
    ]
    for cone_label, t in thresholds.items():
        label = cone_label.value
        end = _ray_end(t)
        colour = _STYLE[label]
        parts.append(
            f'<path d="M {_fmt(_ORIGIN[0])} {_fmt(_ORIGIN[1])} '
            f'L {_fmt(up[0])} {_fmt(up[1])} L {_fmt(end[0])} {_fmt(end[1])} Z" '
            f'fill="{colour}" fill-opacity="0.25" stroke="{colour}" '
            f'stroke-width="1.5" data-label="{label}" data-slope="{t}"/>'
        )
        parts.append(
            f'<text x="{_fmt(end[0] + 6)}" y="{_fmt(end[1] + 4)}" '
            f'font-size="13" fill="{colour}">{label}: t = {t}</text>'
        )
    legend = (
        "all three cones coincide (semistable bundle)"
        if coincide
        else "nested: Nef inside Bridge inside Pseff"
    )
    parts.append(
        f'<text x="20" y="{_SIZE - 20}" font-size="13" fill="#333">{legend}</text>'
    )
    parts.append(
        f'<text x="20" y="24" font-size="14" fill="#333">'
        f"codimension {codim} cone wedges: rays H^(c-1)S and H^c - t H^(c-1)S</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
