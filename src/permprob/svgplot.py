"""Minimal self-contained SVG line charts, and the ``compare --format svg`` figure.

Hand-rolled rather than delegated to a plotting library so the output is a
single dependency-free file, byte-identical for identical inputs, and easy
to diff.  The axes are fixed to the unit square because every curve plotted
here is a probability against a probability parameter; each curve is a
plain ``(label, points, color, dashed)`` tuple.  Only
``compare --format svg`` loads this module; it takes its grids from
``probability._compare_grids`` and loads no ``output``.
"""

from .families import Family
from .probability import _compare_grids

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 62
MARGIN_RIGHT = 150
MARGIN_TOP = 46
MARGIN_BOTTOM = 54

_FAMILY_COLORS = {Family.A: "#1f77b4", Family.B: "#d62728", Family.C: "#2ca02c"}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def line_chart(series: list[tuple], title: str) -> str:
    """Render each ``(label, points, color, dashed)`` series over the unit
    square as a standalone SVG document."""
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def to_x(v: float) -> float:
        return MARGIN_LEFT + v * plot_w

    def to_y(v: float) -> float:
        return MARGIN_TOP + (1.0 - v) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="24" font-family="sans-serif" '
        f'font-size="15" text-anchor="middle">{title}</text>',
    ]
    # gridlines and ticks at 0, 0.2, ..., 1.0 on both axes
    for i in range(6):
        v = i / 5
        x = to_x(v)
        y = to_y(v)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(to_y(0.0))}" x2="{_fmt(x)}" '
            f'y2="{_fmt(to_y(1.0))}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_fmt(to_x(0.0))}" y1="{_fmt(y)}" x2="{_fmt(to_x(1.0))}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(to_y(0.0) + 18)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{v:.1f}</text>'
        )
        out.append(
            f'<text x="{_fmt(to_x(0.0) - 8)}" y="{_fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{v:.1f}</text>'
        )
    # axes
    out.append(
        f'<rect x="{_fmt(to_x(0.0))}" y="{_fmt(to_y(1.0))}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{_fmt(HEIGHT - 14)}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">r</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(MARGIN_TOP + plot_h / 2)}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(MARGIN_TOP + plot_h / 2)})">probability</text>'
    )
    # curves
    for _, points, color, dashed in series:
        coords = " ".join(f"{_fmt(to_x(x))},{_fmt(to_y(y))}" for x, y in points)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"{dash}/>'
        )
    # legend
    legend_x = WIDTH - MARGIN_RIGHT + 14
    for idx, (label, _, color, dashed) in enumerate(series):
        y = MARGIN_TOP + 10 + idx * 20
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        out.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        out.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def compare_svg(families: list[Family], n: int, grid_points: int,
                force: bool = False) -> str:
    """One figure of Q (solid) and P (dashed) against r for each family."""
    grids = _compare_grids(families, n, grid_points, force)
    series = [(f"{name} ({fam.value})", [(row[0], row[col]) for row in grids[fam]],
               _FAMILY_COLORS[fam], dashed)
              for fam in families for name, col, dashed in (("Q", 1, False), ("P", 2, True))]
    return line_chart(
        series, title=f"Probability that the permanent hits its target (n={n})"
    )
