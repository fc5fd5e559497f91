"""Minimal SVG 1.1 line charts, pure text output with no renderer.

The writer is deliberately dumb: fixed canvas, linear axes with six
ticks, one polyline per series and a text legend.  Coordinates are
formatted with fixed precision so identical data gives identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH = 720
HEIGHT = 480
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 24
MARGIN_B = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_line_chart(
    abscissa: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    x_label: str,
) -> str:
    """Render one polyline per named series against the abscissa."""
    if not abscissa:
        raise ValueError("no data rows")
    if not series:
        raise ValueError("no series selected")
    xs = [float(v) for v in abscissa]
    ys_all = [float(v) for _, ys in series for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    # a coordinate is at most WIDTH spans, so that product must be finite too
    if not all(map(math.isfinite, [*xs, *ys_all, WIDTH * (x_hi - x_lo),
                                   WIDTH * (y_hi - y_lo)])):
        raise ValueError("data or axis span is not finite")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{_fmt(px(tx))}" y1="{HEIGHT - MARGIN_B}" '
            f'x2="{_fmt(px(tx))}" y2="{HEIGHT - MARGIN_B + 5}" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{_fmt(px(tx))}" y="{HEIGHT - MARGIN_B + 20}" '
            f'font-size="12" text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py(ty))}" '
            f'x2="{MARGIN_L}" y2="{_fmt(py(ty))}" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py(ty) + 4)}" '
            f'font-size="12" text-anchor="end">{ty:.4g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 12}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>'
    )

    for k, (name, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(float(y)))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 16 + 16 * k
        lx = WIDTH - MARGIN_R - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12">{name}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
