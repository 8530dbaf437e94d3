"""Minimal native SVG line plots (no plotting dependency).

Good enough for eyeballing norm decay, sparsity profiles, and sweep
curves; anything publication-grade should go through the CSV outputs.

Each axis spans its points' values (see _bounds). Where they are all
equal, it is widened by 1.0 when that changes the float, and otherwise,
where |v| >= 2^53 makes v + 1.0 == v, it spans v and v / 2. So any two
bounds differ as floats, and their span is finite wherever the values'
span is. An axis draws at most six ticks (see _ticks): Heckbert's "nice
numbers" (Graphics Gems, 1990), a 1, 2, 5 or 10 times a power of ten step
that takes at most five steps to cross the span.
"""

import math

from .sim import write_file

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 16, 28, 42


def _bounds(values) -> tuple:
    """(lo, hi) of values, with lo < hi: equal values are widened (see the module docstring)."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = sorted((lo, lo + 1.0 if lo + 1.0 != lo else lo / 2))
    return lo, hi


def _ticks(lo, hi, count=5) -> list:
    """At most count + 1 ticks t = i * step in [lo, hi], for lo < hi.

    The step is the smallest of 1, 2, 5 and 10 times 10^floor(log10(span /
    count)) that gives at most count steps. A tick that one more step
    leaves unchanged (a step under half an ulp of it) is the last.
    """
    span = hi - lo
    # below 1e-322, 10 ** floor(log10(.)) underflows to 0.0
    step = 10 ** math.floor(math.log10(max(span / count, 1e-322)))
    step = next((step * m for m in (1, 2, 5, 10) if span / (step * m) <= count), step)
    end = hi + 1e-12 * span
    if math.isinf(end - lo):     # the slack would take a tick past float64
        end = hi
    out = []
    t = math.ceil(lo / step) * step
    while t <= end and len(out) <= count and t not in out[-1:]:
        out.append(t)
        t += step
    return out


def write_line_svg(path, series, title="", x_label="k", y_label="",
                   log_y=False) -> None:
    """Write one SVG with a polyline per (label, xs, ys) triple in series.

    A point is drawn where its y is finite, and on a log axis (log_y) also
    positive; its y is then drawn as log10(y). Without any such point the
    axes span the point (0, 1), (0, 0) on a log axis.
    """
    kept = [[(x, math.log10(y) if log_y else y) for x, y in zip(xs, ys)
             if math.isfinite(y) and (not log_y or y > 0)] for _, xs, ys in series]
    points = [p for pts in kept for p in pts] or [(0.0, 0.0 if log_y else 1.0)]
    x_lo, x_hi = _bounds([x for x, _ in points])
    y_lo, y_hi = _bounds([y for _, y in points])

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

    for i, ((label, _, _), pts) in enumerate(zip(series, kept)):
        color = _COLORS[i % len(_COLORS)]
        if pts:
            line = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + pw - 6}" y="{_MT + 14 + 14 * i}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    write_file(path, ["\n".join(parts) + "\n"])
