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


def test_nothing_to_draw_is_a_blank_picture(tmp_path, data_dir):
    from skewtab.cli import main

    tiling, dens = tmp_path / "t.json", tmp_path / "d.csv"
    tiling.write_text("[]")
    dens.write_text("x,y,freq1,freq2,freq3,n\n")
    blank = '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>\n'
    for argv in (["--tiling", str(tiling), "--shape",
                  str(data_dir / "empty.json")], ["--density", str(dens)]):
        out = tmp_path / "out.svg"
        assert main(["--no-manifest", "render", *argv, "--out", str(out)]) == 0
        assert out.read_text() == blank
        out.unlink()
