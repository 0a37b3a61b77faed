import pytest

from skewtab import density, sample
from skewtab.render import render_density, render_tiling
from skewtab.tiling import Lozenge, enumerate_H, heights_to_tiling


def test_tiling_svg_structure(tmp_path, s332_21):
    t = heights_to_tiling(enumerate_H(s332_21)[0])
    out = tmp_path / "t.svg"
    render_tiling(t, out)
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polygon") == len(t.lozenges)
    # all three fills appear for this shape
    for color in ("#8ab8e0", "#e0b38a", "#a5cf9e"):
        assert color in text


def test_render_deterministic(tmp_path, s332_21):
    t = heights_to_tiling(enumerate_H(s332_21)[1])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_tiling(t, a)
    render_tiling(t, b)
    assert a.read_bytes() == b.read_bytes()
    low = a.read_text().lower()
    assert "date" not in low and "time" not in low


def test_density_svg(tmp_path, s332_21):
    field = density(sample(s332_21, n_samples=60, seed=9))
    out = tmp_path / "d.svg"
    render_density(field, out)
    text = out.read_text()
    assert text.count("<polygon") == len(field.anchors)
    assert "rgb(" in text


def test_render_refuses_an_unknown_lozenge_type(tmp_path):
    class Fake:
        lozenges = (Lozenge(3, 1, 1), Lozenge(4, 1, 2))

    with pytest.raises(ValueError, match="unknown lozenge type 4"):
        render_tiling(Fake(), tmp_path / "t.svg")
