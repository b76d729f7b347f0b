"""Minimal deterministic SVG line-plot writer.

Hand-rolled on purpose: the plots ship as reproducible artifacts, so the
bytes must depend only on the data.  No plotting library keeps that promise
across versions.  The plot has one fixed style: canvas size, margins, font
and the colour cycle are module constants.  The curves share one x array, and a
curve, a (label, y, dash) tuple, chooses only its dash.  Each polyline is placed
as arrays and its points are formatted with one ``%``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["render_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# the stroke attribute of each dash style
_DASH = {
    "solid": "",
    "dashed": ' stroke-dasharray="7 4"',
    "dotdash": ' stroke-dasharray="9 3 2 3"',
}


_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64, 16, 40, 52
_FONT = "Helvetica, Arial, sans-serif"
_TICKS = 5  # per axis, both ends included


def _tick_values(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def render_line_plot(x, curves: Sequence[tuple], x_label: str, y_label: str, title: str) -> str:
    """Self-contained SVG document for (label, y, dash) curves over one ``x``, each y
    of x's size; dash is "solid", "dashed" or "dotdash"."""
    x = np.asarray(x, float)
    ys = [np.asarray(y, float) for _, y, _ in curves]
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = 0.0, max([1.0] + [float(y.max()) for y in ys]) * 1.06

    px_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    px_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(x, y):  # a point, or a curve as arrays in the same operation order
        fx = _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * px_w
        fy = _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * px_h
        return fx, fy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<g font-family="{_FONT}" font-size="13" fill="#222">',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]

    # axes frame and ticks
    x0, y0 = to_px(x_lo, y_lo)
    x1, y1 = to_px(x_hi, y_hi)
    parts.append(
        f'<rect x="{x1 - px_w:.2f}" y="{y1:.2f}" width="{px_w:.2f}" height="{px_h:.2f}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for tx in _tick_values(x_lo, x_hi):
        px, py = to_px(tx, y_lo)
        parts.append(f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{px:.2f}" y2="{py + 5:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{py + 20:.2f}" text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in _tick_values(y_lo, y_hi):
        px, py = to_px(x_lo, ty)
        parts.append(f'<line x1="{px - 5:.2f}" y1="{py:.2f}" x2="{px:.2f}" y2="{py:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{px - 9:.2f}" y="{py + 4:.2f}" text-anchor="end">{ty:.3g}</text>'
        )
        if ty not in (y_lo,):
            parts.append(
                f'<line x1="{x0:.2f}" y1="{py:.2f}" x2="{x0 + px_w:.2f}" y2="{py:.2f}" '
                f'stroke="#ddd" stroke-width="0.7"/>'
            )
    parts.append(
        f'<text x="{_MARGIN_LEFT + px_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + px_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + px_h / 2:.1f})">{y_label}</text>'
    )

    # curves, each stroked in its colour and dash, as is its legend line
    strokes = [f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.8"' for i in range(len(ys))]
    strokes = [stroke + _DASH[dash] for stroke, (*_, dash) in zip(strokes, curves)]
    for y, stroke in zip(ys, strokes):
        fx, fy = to_px(x, y)
        pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(np.stack([fx, fy], 1).ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" {stroke}/>')

    # legend (top right, inside the frame)
    lx = _MARGIN_LEFT + px_w - 170
    ly = _MARGIN_TOP + 12
    box_h = 20 * len(curves) + 10
    parts.append(
        f'<rect x="{lx - 8}" y="{ly - 6}" width="170" height="{box_h}" fill="white" '
        f'fill-opacity="0.85" stroke="#bbb"/>'
    )
    for i, ((label, *_), stroke) in enumerate(zip(curves, strokes)):
        yy = ly + 10 + 20 * i
        parts.append(f'<line x1="{lx}" y1="{yy}" x2="{lx + 30}" y2="{yy}" {stroke}/>')
        parts.append(f'<text x="{lx + 38}" y="{yy + 4}">{label}</text>')

    parts.append("</g>")
    parts.append("</svg>\n")  # the document's last newline, with no copy of the whole
    return "\n".join(parts)
