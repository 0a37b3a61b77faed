"""Every demo runs end to end: each `demos/*.py` is imported, its `OUT`
directory (where it has one) pointed at a temporary path, and its `main()`
run."""
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path / "out")
    demo.main()
    assert capsys.readouterr().out
    if hasattr(demo, "OUT"):
        assert any(demo.OUT.iterdir())
