import re

import numpy as np
import pytest

from sllab.svgplot import PlotError, line_plot


def _polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', path.read_text())


@pytest.mark.filterwarnings("error")
def test_non_finite_points_break_the_line(tmp_path):
    # H(t) of an ensemble with mass where the target has none is inf
    xs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    ys = [np.inf, 2.0, 1.0, np.nan, 0.5, -np.inf]
    line_plot([("H(t)", xs, ys)], tmp_path / "h.svg")
    finite = tmp_path / "finite.svg"
    line_plot([("H(t)", xs, [2.0, 2.0, 1.0, 1.0, 0.5, 0.5])], finite)
    text = (tmp_path / "h.svg").read_text()
    assert "nan" not in text.lower() and "inf" not in text.lower()
    runs = _polylines(tmp_path / "h.svg")
    assert [len(r.split()) for r in runs] == [2, 1]
    # the axes span the finite points: those of an all-finite series over
    # the same x and y range
    assert text.split("<polyline")[0] == finite.read_text().split(
        "<polyline")[0]
    points = _polylines(finite)[0].split()
    assert runs == [" ".join(points[1:3]), points[4]]


@pytest.mark.filterwarnings("error")
def test_series_with_no_finite_point(tmp_path):
    line_plot([("a", [0.0, 1.0], [np.inf, np.inf]), ("b", [0.0, 1.0],
                                                      [1.0, 2.0])],
              tmp_path / "p.svg")
    assert len(_polylines(tmp_path / "p.svg")) == 1


def test_empty_series_rejected(tmp_path):
    with pytest.raises(PlotError):
        line_plot([("a", [], [])], tmp_path / "p.svg")
