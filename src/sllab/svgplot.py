"""Dependency-free SVG emission for series and multi-series plots.
Deliberately minimal: axes, ticks, labels, legend."""

from __future__ import annotations

from itertools import groupby

import numpy as np

W, H = 640, 420
ML, MR, MT, MB = 60, 20, 36, 48  # margins
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


class PlotError(ValueError):
    pass


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, 5)
    return [float(v) for v in raw]


def _scale(lo, hi, a, b):
    span = hi - lo if hi > lo else 1.0

    def f(v):
        return a + (np.asarray(v) - lo) / span * (b - a)

    return f


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axes(xlo, xhi, ylo, yhi, xlabel, ylabel):
    sx = _scale(xlo, xhi, ML, W - MR)
    sy = _scale(ylo, yhi, H - MB, MT)
    parts = [
        f'<line x1="{ML}" y1="{H-MB}" x2="{W-MR}" y2="{H-MB}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H-MB}" stroke="black"/>',
        f'<text x="{(ML+W-MR)/2}" y="{H-10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="16" y="{(MT+H-MB)/2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(MT+H-MB)/2})">'
        f'{ylabel}</text>',
    ]
    for v in _ticks(xlo, xhi):
        px = float(sx(v))
        parts.append(f'<line x1="{px:.1f}" y1="{H-MB}" x2="{px:.1f}" '
                     f'y2="{H-MB+5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{H-MB+18}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{v:.3g}</text>')
    for v in _ticks(ylo, yhi):
        py = float(sy(v))
        parts.append(f'<line x1="{ML-5}" y1="{py:.1f}" x2="{ML}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ML-8}" y="{py+3:.1f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{v:.3g}</text>')
    return parts, sx, sy


def _polylines(xs, ys, sx, sy, color):
    """One polyline per run of points whose x and y are both finite."""
    runs = groupby(zip(xs, ys), lambda p: bool(np.isfinite(p).all()))
    pts = [" ".join(f"{float(sx(x)):.2f},{float(sy(y)):.2f}" for x, y in run)
           for finite, run in runs if finite]
    return [f'<polyline points="{p}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>' for p in pts]


def _finite_range(values):
    """(min, max) of the finite entries of the sequences `values`, (0, 0)
    if there is none."""
    flat = np.concatenate([np.asarray(v, dtype=float).ravel() for v in values])
    flat = flat[np.isfinite(flat)]
    return (float(flat.min()), float(flat.max())) if flat.size else (0.0, 0.0)


def line_plot(series, path, title="", xlabel="x", ylabel="y"):
    """series: list of (label, xs, ys).  The axes span the finite values;
    a line breaks at a point with a non-finite coordinate."""
    if not series or any(len(xs) == 0 for _, xs, _ in series):
        raise PlotError("empty series")
    xlo, xhi = _finite_range([xs for _, xs, _ in series])
    ylo, yhi = _finite_range([ys for _, _, ys in series])
    if ylo == yhi:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    parts = _header(title)
    ax, sx, sy = _axes(xlo, xhi, ylo, yhi, xlabel, ylabel)
    parts += ax
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        parts += _polylines(xs, ys, sx, sy, color)
        parts.append(f'<text x="{W-MR-6}" y="{MT+14+14*i}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif" fill="{color}">'
                     f'{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
