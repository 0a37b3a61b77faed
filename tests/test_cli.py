import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skewtab import count_hlf
from skewtab.cli import _decimal, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, skewtab, skewtab.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_count_methods(capsys, data_dir):
    shape = str(data_dir / "s332_21.json")
    for method in ("det", "brute", "nhlf"):
        code, out, _ = run(capsys, "--no-manifest", "count",
                           "--shape", shape, "--method", method)
        assert code == 0
        assert out.strip() == "16"


def test_count_auto_takes_the_fast_route(capsys, tmp_path, monkeypatch):
    # th(20) has 1200 cells: the default counts it with nhlf, never the
    # determinant
    from skewtab import cli, count_thick_hook, thick_hook_shape

    def refuse(shape):
        raise AssertionError("count must not call count_determinant")

    monkeypatch.setattr(cli, "count_determinant", refuse)
    sh = thick_hook_shape(20, 20, 20)
    path = tmp_path / "th20.json"
    path.write_text(json.dumps({"outer": list(sh.outer), "inner": list(sh.inner)}))
    code, out, _ = run(capsys, "--no-manifest", "count", "--shape", str(path))
    assert code == 0
    assert int(out.strip()) == count_thick_hook(20, 20, 20)
    path.write_text(json.dumps({"outer": list(sh.outer)}))
    code, out, _ = run(capsys, "--no-manifest", "count", "--shape", str(path))
    assert code == 0 and int(out.strip()) == count_hlf(sh.outer)


def test_count_has_three_routes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{nhlf,det,brute}" in out and "nhlf (default)" in out
    for method in ("auto", "hlf"):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--shape", "s.json", "--method", method])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert not os.listdir()


def test_count_empty(capsys, data_dir):
    code, out, _ = run(capsys, "--no-manifest", "count",
                       "--shape", str(data_dir / "empty.json"))
    assert code == 0 and out.strip() == "1"


def test_global_flags_accepted_after_subcommand(capsys, data_dir, tmp_path):
    shape = str(data_dir / "s332_21.json")
    code, out, _ = run(capsys, "count", "--shape", shape, "--no-manifest")
    assert code == 0 and out.strip() == "16"
    manifest = tmp_path / "after.json"
    code, out, _ = run(capsys, "count", "--shape", shape,
                       "--manifest", str(manifest))
    assert code == 0 and out.strip() == "16"
    assert json.loads(manifest.read_text())["subcommand"] == "count"


def test_bad_shape_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    # JSON true is a Python int subclass, but not a row length
    for text in ("{nope", '{"outer": [3, 3], "inner": [true]}',
                 '{"outer": 3}', '{"outer": [3], "inner": null}'):
        p.write_text(text)
        code, out, err = run(capsys, "--no-manifest", "count",
                             "--shape", str(p))
        assert code == 2 and not out, text
        msg = json.loads(err.strip())
        assert "error" in msg and err.count("\n") == 1
        if text.startswith('{"'):
            field = "inner" if "inner" in text else "outer"
            assert str(p) in msg["error"] and field in msg["error"], msg
    # files that parse but describe no skew shape name the file too
    for text, why in (('{"outer": [3], "inner": [4]}', "does not fit"),
                      ('{"outer": [2, 1], "inner": [1]}', "disconnected")):
        p.write_text(text)
        code, out, err = run(capsys, "--no-manifest", "count",
                             "--shape", str(p))
        assert code == 2 and not out, text
        msg = json.loads(err.strip())["error"]
        assert msg.startswith(f"{p}: ") and why in msg, msg


def test_bad_profile_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    for text, field in (('{"psi": 5}', "psi"),
                        ('{"psi": [[0, 1], [1, 0]], "phi": null}', "phi"),
                        ('{"psi": [[0, 1, 2], [1, 0]]}', "psi")):
        p.write_text(text)
        code, out, err = run(capsys, "--no-manifest", "constant",
                             "--profile", str(p))
        assert code == 2 and not out, text
        msg = json.loads(err.strip())["error"]
        assert str(p) in msg and f"'{field}'" in msg, msg
    # files that parse but fail a profile check name the file too; JSON
    # reads 1e400 as inf, and Infinity and NaN are Python's extensions
    for text, why in (('{"psi": [[0, 1], [1, 0]], "phi": [[0, 2], [1, 0]]}',
                       "phi exceeds psi at x = 0.0"),
                      ('{"psi": [[0, 1e400], [1, 0]]}',
                       "psi breakpoints must be finite"),
                      ('{"psi": [[0, 2], [2, 0]], '
                       '"phi": [[0, Infinity], [1, 0]]}',
                       "phi breakpoints must be finite"),
                      ('{"psi": [[0, 1], [NaN, 0]]}',
                       "psi breakpoints must be finite")):
        p.write_text(text)
        code, out, err = run(capsys, "--no-manifest", "constant",
                             "--profile", str(p))
        assert code == 2 and not out, text
        msg = json.loads(err.strip())["error"]
        assert msg.startswith(f"{p}: {why}"), msg


def test_zero_width_phi_is_a_straight_family(capsys, data_dir, tmp_path):
    p = tmp_path / "zero_width.json"
    p.write_text('{"psi": [[0, 1], [1, 1]], "phi": [[0, 0.5]]}')
    code, out, _ = run(capsys, "--no-manifest", "constant",
                       "--profile", str(p), "--mesh", "16")
    square = str(data_dir / "square_profile.json")
    assert code == 0
    assert out == run(capsys, "--no-manifest", "constant",
                      "--profile", square, "--mesh", "16")[1]
    code, out, err = run(capsys, "--no-manifest", "solve", "--profile", str(p),
                         "--mesh", "16")
    assert code == 2 and not out
    assert "straight" in json.loads(err.strip())["error"], err


def test_count_beyond_str_digit_limit(capsys, tmp_path):
    # the 80 x 80 square's count has more digits than str() allows by default
    p = tmp_path / "square.json"
    p.write_text(json.dumps({"outer": [80] * 80}))
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "--no-manifest", "count", "--shape", str(p))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    digits = out.strip()
    assert len(digits) > 4300 and digits.isdigit()
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == count_hlf([80] * 80)
    # zeros where the digits are split must survive
    assert _decimal(10 ** 9000 + 7) == "1" + "0" * 8999 + "7"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "--no-manifest", "count",
                       "--shape", "/nonexistent/x.json")
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_guard_exits_3(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text('{"outer": [8,8,8,8,8,8,8,8], "inner": [4,4,4,4]}')
    code, _, err = run(capsys, "--no-manifest", "enumerate",
                       "--shape", str(p), "--guard", "10")
    assert code == 3
    assert "error" in json.loads(err.strip())


def test_brute_force_guard_exits_3(capsys, tmp_path):
    p = tmp_path / "cells26.json"
    p.write_text('{"outer": [6, 5, 5, 5, 5]}')
    code, out, err = run(capsys, "--no-manifest", "count", "--shape", str(p),
                         "--method", "brute")
    assert code == 3 and not out
    assert json.loads(err.strip()) == {"error": (
        "brute force refused for 26 cells (limit 25) "
        "(use count_determinant or count_nhlf)")}


def test_disconnected_shape_exits_2(capsys, tmp_path):
    p = tmp_path / "split.json"
    # the middle row is fully covered, so rows 1 and 3 do not touch
    p.write_text('{"outer": [3, 2, 2], "inner": [2, 2]}')
    code, out, err = run(capsys, "--no-manifest", "count", "--shape", str(p))
    assert code == 2 and not out
    assert "disconnected" in json.loads(err.strip())["error"]


def test_enumerate_golden(capsys, data_dir, tmp_path):
    out_file = tmp_path / "tilings.json"
    code, out, _ = run(capsys, "--no-manifest", "enumerate",
                       "--shape", str(data_dir / "s332_21.json"),
                       "--out", str(out_file))
    assert code == 0 and out.strip() == "5"
    golden = json.loads((data_dir / "golden_tilings_332_21.json").read_text())
    assert json.loads(out_file.read_text()) == golden


def test_enumerate_terms(capsys, data_dir, tmp_path):
    terms = tmp_path / "terms.csv"
    code, out, _ = run(capsys, "--no-manifest", "enumerate",
                       "--shape", str(data_dir / "s332_21.json"),
                       "--terms", str(terms))
    assert code == 0
    lines = terms.read_text().strip().splitlines()
    assert len(lines) == 6
    flats = sorted(line.split(",", 2)[2] for line in lines[1:])
    assert flats[0].startswith('"1,1;')


def test_sample_and_manifest(capsys, data_dir, tmp_path):
    manifest = tmp_path / "run.json"
    dens = tmp_path / "d.csv"
    code, out, _ = run(capsys, "--manifest", str(manifest), "sample",
                       "--shape", str(data_dir / "s332_21.json"),
                       "--samples", "50", "--seed", "7",
                       "--density", str(dens))
    assert code == 0
    assert out.startswith("samples 50")
    doc = json.loads(manifest.read_text())
    assert doc["subcommand"] == "sample"
    assert doc["seeds"] == [7]
    assert doc["version"]
    assert str(dens) in doc["outputs"]
    assert len(doc["outputs"][str(dens)]) == 64  # sha256 hex


def test_manifest_hash_deterministic(capsys, data_dir, tmp_path):
    hashes = []
    for k in ("a", "b"):
        manifest = tmp_path / f"m{k}.json"
        dens = tmp_path / f"d{k}.csv"
        code, _, _ = run(capsys, "--manifest", str(manifest), "sample",
                         "--shape", str(data_dir / "s332_21.json"),
                         "--samples", "40", "--seed", "3",
                         "--density", str(dens))
        assert code == 0
        hashes.append(json.loads(manifest.read_text())["outputs"][str(dens)])
    assert hashes[0] == hashes[1]


def test_render_roundtrip(capsys, data_dir, tmp_path):
    tiling = tmp_path / "t.json"
    svg = tmp_path / "t.svg"
    code, _, _ = run(capsys, "--no-manifest", "sample",
                     "--shape", str(data_dir / "s332_21.json"),
                     "--samples", "5", "--seed", "1", "--out", str(tiling))
    assert code == 0
    code, _, _ = run(capsys, "--no-manifest", "render",
                     "--tiling", str(tiling),
                     "--shape", str(data_dir / "s332_21.json"),
                     "--out", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg ")


def test_render_needs_exactly_one_input(capsys, tmp_path):
    code, _, err = run(capsys, "--no-manifest", "render",
                       "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_constant_json_square(capsys, data_dir):
    code, out, _ = run(capsys, "--no-manifest", "constant",
                       "--profile", str(data_dir / "square_profile.json"),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - (-0.8862943611)) < 1e-6
    assert doc["psi_max"] == 0.0


def test_solve_small_profile(capsys, data_dir, tmp_path):
    mesh_csv = tmp_path / "mesh.csv"
    code, out, _ = run(capsys, "--no-manifest", "solve",
                       "--profile", str(data_dir / "thick_hook_profile.json"),
                       "--mesh", "12", "--tol", "1e-2",
                       "--out", str(mesh_csv))
    assert code == 0
    assert out.startswith("psi ")
    levels = [line.split() for line in out.splitlines()
              if line.startswith("level ")]
    assert [lv[:3] for lv in levels] == [["level", "1", "nodes"]]
    assert [lv[::2] for lv in levels] == [[
        "level", "nodes", "steps", "phase1_steps", "start_mu", "blend", "mu",
        "gap", "psi", "seconds", "converged"]]
    start_mu, blend = float(levels[0][9]), float(levels[0][11])
    assert start_mu == 1e-2 and 0.0 <= blend <= 1.0
    assert any(line.startswith("gap ") for line in out.splitlines())
    header = mesh_csv.read_text().splitlines()[0]
    assert header == "node_x,node_y,f"


def test_bad_mesh_or_tol_exits_2(capsys, data_dir):
    hook = str(data_dir / "thick_hook_profile.json")
    shape = str(data_dir / "s332_21.json")
    for argv in (["solve", "--profile", "hexagon", "--mesh", "0"],
                 ["solve", "--profile", "hexagon", "--tol", "0"],
                 ["constant", "--profile", hook, "--mesh", "-4"],
                 ["repro", "--target", "hexagon", "--mesh", "0"],
                 ["enumerate", "--shape", shape, "--guard", "-1"]):
        code, out, err = run(capsys, "--no-manifest", *argv)
        assert code == 2 and not out, argv
        assert "error" in json.loads(err.strip()), argv


def test_solver_verbs_take_no_seed(capsys):
    for argv in (["solve", "--profile", "hexagon", "--seed", "1"],
                 ["constant", "--profile", "x.json", "--restarts", "2"],
                 ["repro", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["--no-manifest", *argv])
        assert exc.value.code == 2, argv


def test_sample_needs_a_sample(capsys, data_dir):
    code, _, err = run(capsys, "--no-manifest", "sample", "--shape",
                       str(data_dir / "s332_21.json"), "--samples", "0")
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_render_rejects_a_dropped_lozenge(capsys, data_dir, tmp_path):
    tiling = tmp_path / "t.json"
    shape = str(data_dir / "s332_21.json")
    code, _, _ = run(capsys, "--no-manifest", "sample", "--shape", shape,
                     "--samples", "1", "--out", str(tiling))
    assert code == 0
    tiling.write_text(json.dumps(json.loads(tiling.read_text())[1:]))
    code, _, err = run(capsys, "--no-manifest", "render", "--tiling",
                       str(tiling), "--shape", shape,
                       "--out", str(tmp_path / "t.svg"))
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_repro_thick_hook_series_limit(capsys):
    code, out, _ = run(capsys, "--no-manifest", "repro", "--target",
                       "thick-hook", "--mesh", "32")
    assert code == 0
    line = next(l for l in out.splitlines() if "finite-N" in l)
    assert float(line.split("|diff|")[1].split()[0]) < 1e-6, line


@pytest.mark.parametrize("target, lines", [("hexagon", 1), ("ribbon", 2)])
def test_repro_target_passes(capsys, target, lines):
    code, out, _ = run(capsys, "--no-manifest", "repro", "--target", target)
    assert code == 0
    assert [l.split()[-1] for l in out.splitlines()] == ["PASS"] * lines


def test_repro_failure_exits_2(capsys, monkeypatch):
    from types import SimpleNamespace

    from skewtab import cli

    monkeypatch.setattr(cli, "maximize",
                        lambda *a, **k: SimpleNamespace(psi_value=0.5))
    code, out, err = run(capsys, "--no-manifest", "repro", "--target",
                         "hexagon")
    assert code == 2
    assert out.startswith("hexagon entropy 0.5 ") and out.rstrip().endswith(
        "FAIL")
    assert json.loads(err)["error"] == "1 repro target(s) FAILED"


@pytest.mark.parametrize("weights", ["hook"])
def test_sample_weight_families(capsys, data_dir, tmp_path, weights):
    # the CLI's density is the library's under the same weight field, and
    # not the uniform one
    from skewtab import density, hook_weights, sample
    from skewtab.serialize import load_shape, save_density

    shape = load_shape(data_dir / "s332_21.json")
    dens, ref, flat = (tmp_path / name for name in ("d.csv", "r.csv",
                                                    "u.csv"))
    code, out, _ = run(capsys, "--no-manifest", "sample", "--shape",
                       str(data_dir / "s332_21.json"), "--samples", "20",
                       "--seed", "4", "--weights", weights,
                       "--density", str(dens))
    assert code == 0 and out.strip() == "samples 20 type_totals 40 40 60"
    w = hook_weights(shape)
    save_density(density(sample(shape, w, n_samples=20, seed=4)), ref)
    save_density(density(sample(shape, n_samples=20, seed=4)), flat)
    assert dens.read_text() == ref.read_text() != flat.read_text()


def test_sample_hook_weights_on_the_empty_shape(capsys, data_dir):
    code, out, _ = run(capsys, "--no-manifest", "sample", "--shape",
                       str(data_dir / "empty.json"), "--samples", "3",
                       "--weights", "hook")
    assert code == 0 and out.strip() == "samples 3 type_totals 0 0 0"


def test_sample_has_no_hook_scaled_weights(capsys, data_dir, tmp_path,
                                          monkeypatch):
    # hook / sqrt(N) scales every tiling's weight alike: it was --weights hook
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--shape", str(data_dir / "s332_21.json"),
              "--weights", "hook-scaled"])
    assert exc.value.code == 2
    assert not os.listdir()


def test_render_density(capsys, data_dir, tmp_path):
    dens, svg = tmp_path / "d.csv", tmp_path / "d.svg"
    code, _, _ = run(capsys, "--no-manifest", "sample", "--shape",
                     str(data_dir / "s332_21.json"), "--samples", "30",
                     "--density", str(dens))
    assert code == 0
    code, _, _ = run(capsys, "--no-manifest", "render", "--density",
                     str(dens), "--out", str(svg))
    text = svg.read_text()
    assert code == 0 and text.startswith("<svg ")
    assert text.count("<polygon") == len(dens.read_text().splitlines()) - 1


def test_render_tiling_needs_shape(capsys, data_dir, tmp_path):
    tiling = tmp_path / "t.json"
    code, _, _ = run(capsys, "--no-manifest", "sample", "--shape",
                     str(data_dir / "s332_21.json"), "--samples", "1",
                     "--out", str(tiling))
    assert code == 0
    code, out, err = run(capsys, "--no-manifest", "render", "--tiling",
                         str(tiling), "--out", str(tmp_path / "t.svg"))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "--tiling also needs --shape"


@pytest.mark.parametrize("eps", ["7", "0", "nan"])
def test_solve_checks_eps_on_the_hexagon_too(capsys, data_dir, eps):
    # the hexagon has no weights to cap, but a bad --eps is still bad input
    want = {"error": f"eps must lie in (0, 1], got {float(eps)}"}
    for profile in ("hexagon", str(data_dir / "thick_hook_profile.json")):
        code, out, err = run(capsys, "--no-manifest", "solve", "--profile",
                             profile, "--eps", eps)
        assert code == 2 and not out, profile
        assert json.loads(err) == want, profile


@pytest.mark.parametrize("eps", ["7", "0", "nan"])
def test_constant_checks_eps_on_straight_profiles_too(
        capsys, data_dir, tmp_path, monkeypatch, eps):
    # a straight profile needs no solve, but a bad --eps is still bad input
    from skewtab import constant, square_profile

    want = f"eps must lie in (0, 1], got {float(eps)}"
    with pytest.raises(ValueError, match=re.escape(want)):
        constant(square_profile(), eps=float(eps))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "constant", "--profile",
                         str(data_dir / "square_profile.json"), "--eps", eps)
    assert code == 2 and not out
    assert json.loads(err) == {"error": want}
    assert not os.listdir()


# verb: (argv, the files it writes in write order, argv that exits 2)
CONTRACT = {
    "count": (["--shape", "{shape}"], [], ["--shape", "none.json"]),
    "enumerate": (["--shape", "{shape}", "--out", "t.json", "--terms",
                   "t.csv"], ["t.json", "t.csv"],
                  ["--shape", "{shape}", "--guard", "-1"]),
    "sample": (["--shape", "{shape}", "--samples", "5", "--seed", "7",
                "--density", "d.csv", "--out", "s.json"], ["d.csv", "s.json"],
               ["--shape", "{shape}", "--samples", "0"]),
    "render": (["--tiling", "in.json", "--shape", "{shape}", "--out",
                "t.svg"], ["t.svg"], ["--out", "t.svg"]),
    "solve": (["--profile", "hexagon", "--mesh", "4", "--out", "m.csv"],
              ["m.csv"], ["--profile", "hexagon", "--eps", "7"]),
    "constant": (["--profile", "{square}", "--mesh", "8"], [],
                 ["--profile", "none.json"]),
    "repro": (["--target", "hexagon"], [],
              ["--target", "hexagon", "--mesh", "0"]),
}


@pytest.mark.parametrize("verb", list(CONTRACT))
def test_manifest_contract(capsys, data_dir, tmp_path, monkeypatch, verb):
    from skewtab import cli, enumerate_H, load_shape, save_tiling

    monkeypatch.chdir(tmp_path)
    names = {"shape": str(data_dir / "s332_21.json"),
             "square": str(data_dir / "square_profile.json")}
    good, files, bad = ([a.format(**names) for a in argv]
                        for argv in CONTRACT[verb])
    save_tiling(enumerate_H(load_shape(names["shape"]))[0], "in.json")
    hashed = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256",
                        lambda path: hashed.append(path) or sha256(path))
    manifest = tmp_path / "skewtab_run.json"

    assert run(capsys, "--no-manifest", verb, *good)[0] == 0
    assert not manifest.exists() and not hashed
    assert sorted(os.listdir()) == sorted(["in.json", *files])
    for name in files:
        os.remove(name)

    assert run(capsys, verb, *good)[0] == 0
    assert sorted(os.listdir()) == sorted(["in.json", "skewtab_run.json",
                                           *files])
    doc = json.loads(manifest.read_text())
    assert sorted(doc) == ["flags", "outputs", "seeds", "subcommand",
                           "version", "wall_time_s"]
    assert doc["subcommand"] == verb
    assert hashed == files  # hashed in the order the verb wrote them
    assert doc["outputs"] == {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in files}
    assert doc["seeds"] == ([7] if verb == "sample" else [])

    manifest.unlink()
    code, out, err = run(capsys, verb, *bad)
    assert code == 2 and "error" in json.loads(err)
    assert not manifest.exists()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--shape", "{shape}", "--guard", "1"],
    ["count", "--shape", "cells26.json", "--method", "brute"]])
def test_a_guarded_run_leaves_no_manifest(capsys, data_dir, tmp_path,
                                          monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("cells26.json").write_text('{"outer": [6, 5, 5, 5, 5]}')
    shape = str(data_dir / "s332_21.json")
    code, out, err = run(capsys, *(a.format(shape=shape) for a in argv))
    assert code == 3 and not out and "error" in json.loads(err)
    assert os.listdir() == ["cells26.json"]


@pytest.mark.parametrize("verb", [None, *CONTRACT])
def test_help_lists_the_shared_flags(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"] if verb else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    flags = ["--manifest MANIFEST", "--no-manifest"]
    if verb in ("solve", "constant"):
        flags += ["--mesh MESH", "--tol TOL", "--eps EPS"]
    assert all(flag in out for flag in flags), out


def _repro_with(capsys, monkeypatch, hexagon, hook, hook_series, ribbon,
                ribbon_series):
    """repro --target all with its solver calls stubbed by fixed values."""
    from types import SimpleNamespace

    from skewtab import cli, thick_hook_shape_of_size, thick_ribbon_profile

    ribbon_psi = thick_ribbon_profile().psi
    monkeypatch.setattr(cli, "maximize", lambda *a, **k: SimpleNamespace(
        psi_value=hexagon))
    monkeypatch.setattr(cli, "constant", lambda profile, **k: SimpleNamespace(
        value=ribbon if profile.psi == ribbon_psi else hook))
    monkeypatch.setattr(cli, "finite_n_constant", lambda family, sizes: [
        hook_series if family is thick_hook_shape_of_size
        else ribbon_series] * len(sizes))
    return run(capsys, "--no-manifest", "repro")


def test_repro_line_formats(capsys, monkeypatch):
    code, out, err = _repro_with(capsys, monkeypatch, 0.78, -0.739, -0.74,
                                 -0.18, -0.2)
    assert code == 0 and not err
    assert out == (
        "hexagon entropy 0.78 closed form 0.784872215647 "
        "|diff| 0.00487221564682 PASS\n"
        "thick-hook constant -0.739 closed form -0.737936313768 "
        "|diff| 0.00106368623212 PASS\n"
        "thick-hook finite-N extrapolation -0.74 "
        "|diff| 0.00206368623212 PASS\n"
        "ribbon constant -0.18 band [-0.3237, -0.0621] PASS\n"
        "ribbon finite-N extrapolation -0.2 band [-0.3237, -0.0621] PASS\n")
    # a target fails when either of its lines does, and every line prints
    code, out, err = _repro_with(capsys, monkeypatch, 0.5, -0.739, -0.5,
                                 -0.5, -0.2)
    assert code == 2
    assert json.loads(err) == {"error": "3 repro target(s) FAILED"}
    assert out == (
        "hexagon entropy 0.5 closed form 0.784872215647 "
        "|diff| 0.284872215647 FAIL\n"
        "thick-hook constant -0.739 closed form -0.737936313768 "
        "|diff| 0.00106368623212 PASS\n"
        "thick-hook finite-N extrapolation -0.5 "
        "|diff| 0.237936313768 FAIL\n"
        "ribbon constant -0.5 band [-0.3237, -0.0621] FAIL\n"
        "ribbon finite-N extrapolation -0.2 band [-0.3237, -0.0621] PASS\n")
