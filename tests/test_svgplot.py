import math
import xml.etree.ElementTree as ET

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparseppc.svgplot import _ticks, write_line_svg

_NUMERIC = ("x", "y", "x1", "x2", "y1", "y2", "width", "height")


def svg_numbers(text: str, log_y: bool = False) -> list:
    """Every number of an SVG that write_line_svg wrote: coordinates and tick labels.

    A tick label is the text after a tick's line; on a log axis (log_y) its
    y labels are read as their exponents.
    """
    els = list(ET.fromstring(text))
    out = []
    for prev, el in zip([None] + els, els):
        out += [float(v) for k, v in el.attrib.items() if k in _NUMERIC]
        out += [float(v) for pair in el.get("points", "").split() for v in pair.split(",")]
        if prev is not None and prev.tag.endswith("}line"):
            label = el.text
            out.append(float(label[2:] if log_y and el.get("text-anchor") == "end" else label))
    return out


def tick_counts(text: str) -> tuple:
    """(x ticks, y ticks) of an SVG that write_line_svg wrote."""
    lines = [el for el in ET.fromstring(text) if el.tag.endswith("}line")]
    return (sum(el.get("x1") == el.get("x2") for el in lines),
            sum(el.get("y1") == el.get("y2") for el in lines))


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, 70.35439302423701, 70.35439302423703,
                     2.0 ** 53, 1e17, 1e308, -1e308, 5e-324]))
_Y = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _series(draw):
    n = draw(st.integers(0, 6))
    xs = draw(st.lists(_FINITE, min_size=n, max_size=n))
    ys = draw(st.one_of(st.lists(_Y, min_size=n, max_size=n), _Y.map(lambda y: [y] * n)))
    return ("s", xs, ys)


@settings(max_examples=500, deadline=None)
@given(series=st.lists(_series(), max_size=3), log_y=st.booleans())
def test_any_finite_points_plot_with_bounded_ticks_and_finite_numbers(tmp_path_factory, series,
                                                                       log_y):
    # equal values, one-ulp spans, magnitudes to float64's largest, subnormals,
    # empty and all-NaN series: the plot returns whenever its points' spans are finite
    kept = [(x, math.log10(y) if log_y else y) for _, xs, ys in series for x, y in zip(xs, ys)
            if math.isfinite(y) and (not log_y or y > 0)]
    for values in zip(*kept):
        assume(math.isfinite(max(values) - min(values)))
    path = tmp_path_factory.getbasetemp() / "property.svg"
    write_line_svg(path, series, title="t", y_label="y", log_y=log_y)
    text = path.read_text()
    assert all(n <= 6 for n in tick_counts(text))
    assert all(map(math.isfinite, svg_numbers(text, log_y)))
    assert text.count("<polyline") == sum(1 for _, xs, ys in series if any(
        math.isfinite(y) and (not log_y or y > 0) for y in ys))


@settings(max_examples=500, deadline=None)
@given(a=_FINITE, b=_FINITE)
def test_ticks_rise_strictly_and_are_at_most_six(a, b):
    # a step under half an ulp of a tick ends the list rather than repeating it
    lo, hi = sorted((a, b))
    assume(lo < hi and math.isfinite(hi - lo))
    ticks = _ticks(lo, hi)
    assert len(ticks) <= 6 and all(s < t for s, t in zip(ticks, ticks[1:]))
