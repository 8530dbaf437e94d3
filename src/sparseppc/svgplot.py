"""Minimal native SVG line plots (no plotting dependency).

Good enough for eyeballing norm decay, sparsity profiles, and sweep
curves; anything publication-grade should go through the CSV outputs.
"""

import math

from .sim import write_file

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 16, 28, 42


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def write_line_svg(path, series, title="", x_label="k", y_label="",
                   log_y=False) -> None:
    """Write one SVG with a polyline per (label, xs, ys) triple in series."""
    finite = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
              if math.isfinite(y) and (not log_y or y > 0)]
    if not finite:
        finite = [(0.0, 1.0)]
    xs_all = [p[0] for p in finite]
    ys_all = [math.log10(p[1]) if log_y else p[1] for p in finite]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
        f'<text x="{_W / 2:.1f}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MT + ph / 2:.1f})">{y_label}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(t):.2f}" y1="{_MT + ph}" x2="{px(t):.2f}" '
                     f'y2="{_MT + ph + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px(t):.2f}" y="{_MT + ph + 16}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        label = f"1e{t:g}" if log_y else f"{t:g}"
        parts.append(f'<line x1="{_ML - 4}" y1="{py(t):.2f}" x2="{_ML}" '
                     f'y2="{py(t):.2f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 6}" y="{py(t):.2f}" text-anchor="end" '
                     f'dominant-baseline="middle">{label}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(math.log10(y) if log_y else y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(y) and (not log_y or y > 0))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + pw - 6}" y="{_MT + 14 + 14 * i}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    write_file(path, ["\n".join(parts) + "\n"])
