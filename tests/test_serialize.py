import json
import math

import pytest

from skewtab import SkewShape, hook_weights, sample, density
from skewtab.cli import main
from skewtab.serialize import (
    load_density,
    load_profile,
    load_shape,
    load_tiling,
    save_density,
    save_profile,
    save_shape,
    save_terms,
    save_tiling,
)
from skewtab.shapes import thick_hook_profile
from skewtab.tiling import Region, build_region, enumerate_H, heights_to_tiling

from _naive import outside_cells


def test_shape_round_trip(tmp_path, s332_21):
    p = tmp_path / "s.json"
    save_shape(s332_21, p)
    assert load_shape(p) == s332_21


def test_shape_files(data_dir):
    sh = load_shape(data_dir / "s332_21.json")
    assert list(sh.outer) == [3, 3, 2] and list(sh.inner) == [2, 1]
    empty = load_shape(data_dir / "empty.json")
    assert empty.size == 0


def test_shape_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_shape(bad)
    bad.write_text('{"outer": [2.5]}')
    with pytest.raises(ValueError):
        load_shape(bad)
    bad.write_text("{")
    with pytest.raises(ValueError):
        load_shape(bad)


def test_profile_round_trip(tmp_path):
    p = tmp_path / "p.json"
    prof = thick_hook_profile(1.0, 2.0)
    save_profile(prof, p)
    back = load_profile(p)
    assert back == prof


def test_tiling_round_trip(tmp_path, s332_21):
    t = heights_to_tiling(enumerate_H(s332_21)[0])
    p = tmp_path / "t.json"
    save_tiling(t, p)
    back = load_tiling(p, s332_21)
    assert back == t
    bad = tmp_path / "bad.json"
    bad.write_text('[{"type": 1}]')
    with pytest.raises(ValueError):
        load_tiling(bad, s332_21)


def test_density_round_trip(tmp_path, s332_21):
    samples = sample(s332_21, n_samples=50, seed=1)
    field = density(samples)
    p = tmp_path / "d.csv"
    save_density(field, p)
    back = load_density(p)
    assert back.n == 50
    assert list(back.anchors) == list(field.anchors)
    for a, b in zip(back.freqs, field.freqs):
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12
    # a loaded density saves again, byte for byte
    again = tmp_path / "again.csv"
    save_density(back, again)
    assert again.read_bytes() == p.read_bytes()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n")
    with pytest.raises(ValueError):
        load_density(bad)


def test_terms_csv(tmp_path, s332_21):
    w = hook_weights(s332_21)
    from skewtab import tiling_weight

    heights = enumerate_H(s332_21)
    rows = [(i, tiling_weight(h, w),
             sorted(heights_to_tiling(h).type3_cells()))
            for i, h in enumerate(heights)]
    p = tmp_path / "terms.csv"
    save_terms(rows, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "tiling_id,log_weight,flat_cells"
    assert len(lines) == 6
    total = sum(round(math.exp(float(l.split(",")[1]))) for l in lines[1:])
    assert total == 128


def test_golden_tilings_match_enumeration(data_dir, s332_21):
    golden = json.loads((data_dir / "golden_tilings_332_21.json").read_text())
    heights = enumerate_H(s332_21)
    ours = [[{"type": l.type, "x": l.x, "y": l.y}
             for l in heights_to_tiling(h).lozenges] for h in heights]
    assert ours == golden


def _write_lozenges(path, lozenges):
    path.write_text(json.dumps([{"type": l.type, "x": l.x, "y": l.y}
                                for l in lozenges]))


def test_load_tiling_rejects_non_tilings(tmp_path, s332_21):
    loz = heights_to_tiling(enumerate_H(s332_21)[0]).lozenges
    assert loz[0].type == 1 and loz[-1].type == 3
    p = tmp_path / "t.json"
    for bad in (loz[1:], loz[:-1], loz + loz[:1], loz + loz[-1:]):
        _write_lozenges(p, bad)
        with pytest.raises(ValueError):
            load_tiling(p, s332_21)
    # a flat lozenge outside the outer shape: the heights of 2,2/2 pinned
    # only at its chain heads and tails, at a state the pins forbid
    shape = SkewShape([2, 2], [2])
    reg = build_region(shape)
    ends = {v: x for c in reg.chains.values()
            for v, x in ((c[0], 0), (c[-1], reg.depth))}
    unpinned = Region(shape, reg.vertices, ends,
                      tuple(sorted(reg.vertices - ends.keys())), reg.chains,
                      reg.depth)
    masked = outside_cells(reg)
    outside = [h for h in enumerate_H(unpinned)
               if not masked.isdisjoint(h.type3_cells())]
    assert outside
    for h in outside:
        t = heights_to_tiling(h)
        assert any(c not in shape.outer for c in t.type3_cells())
        _write_lozenges(p, t.lozenges)
        with pytest.raises(ValueError):
            load_tiling(p, shape)


def _exits_2(capsys, *argv):
    """Run the CLI; assert exit 2 and one JSON error line, and return it."""
    code = main(["--no-manifest", *argv])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out, argv
    return json.loads(captured.err)["error"]


def test_profile_file_needs_psi(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"phi": [[0, 1], [1, 0]]}')
    with pytest.raises(ValueError, match="expected an object with 'psi'"):
        load_profile(p)
    assert "'psi'" in _exits_2(capsys, "constant", "--profile", str(p))


def test_tiling_file_must_be_a_list(tmp_path, capsys, data_dir, s332_21):
    p = tmp_path / "t.json"
    p.write_text('{"type": 3, "x": 1, "y": 1}')
    with pytest.raises(ValueError, match="expected a list of lozenges"):
        load_tiling(p, s332_21)
    assert "list of lozenges" in _exits_2(
        capsys, "render", "--tiling", str(p),
        "--shape", str(data_dir / "s332_21.json"),
        "--out", str(tmp_path / "t.svg"))


def test_density_rows_need_six_columns(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("x,y,freq1,freq2,freq3,n\n1,1,0.5,0.5,0.0\n")
    with pytest.raises(ValueError, match="density rows need 6 columns"):
        load_density(p)
    assert "6 columns" in _exits_2(capsys, "render", "--density", str(p),
                                   "--out", str(tmp_path / "d.svg"))


@pytest.mark.parametrize("field, value", [
    ("x", 0.9), ("type", True), ("x", "0"), ("type", "x")])
def test_tiling_fields_must_be_json_integers(tmp_path, capsys, monkeypatch,
                                             data_dir, s332_21, field,
                                             value):
    # the first entry is (1, 0, 2): int() read 0.9, true and "0" as a
    # valid tiling, and "x" failed without naming the file
    monkeypatch.chdir(tmp_path)
    entries = [{"type": l.type, "x": l.x, "y": l.y}
               for l in heights_to_tiling(enumerate_H(s332_21)[0]).lozenges]
    entries[0][field] = value
    p = tmp_path / "t.json"
    p.write_text(json.dumps(entries))
    with pytest.raises(ValueError) as exc:
        load_tiling(p, s332_21)
    assert str(exc.value).startswith(f"{p}: bad lozenge entry "), exc.value
    code = main(["render", "--tiling", str(p), "--shape",
                 str(data_dir / "s332_21.json"), "--out", "t.svg"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err) == {"error": str(exc.value)}
    assert sorted(f.name for f in tmp_path.iterdir()) == ["t.json"]


@pytest.mark.parametrize("row, why", [
    ("1,1,a,0.5,0.0,4", "could not convert string to float: 'a'"),
    ("1.5,1,0.5,0.5,0.0,4", "invalid literal for int() with base 10: '1.5'"),
    ("1,1,nan,0.5,0.0,4", "frequencies must be finite")],
    ids=["frequency", "anchor", "nan"])
def test_density_rows_are_checked_at_load(tmp_path, capsys, row, why):
    p, svg = tmp_path / "d.csv", tmp_path / "d.svg"
    p.write_text(f"x,y,freq1,freq2,freq3,n\n2,1,0.0,1.0,0.0,4\n{row}\n")
    with pytest.raises(ValueError) as exc:
        load_density(p)
    assert str(exc.value).startswith(f"{p}: line 3: {why}"), exc.value
    msg = _exits_2(capsys, "render", "--density", str(p), "--out", str(svg))
    assert str(p) in msg and msg == str(exc.value)
    assert not svg.exists()
