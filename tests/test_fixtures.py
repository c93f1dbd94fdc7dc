"""The checked-in fixtures/ tree is exactly what scripts/regen_fixtures.py
writes from the builders in sprig.scenarios."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "regen_fixtures.py"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_regenerated_fixtures_match_the_checked_in_tree(monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("regen_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "ROOT", tmp_path / "fixtures")
    assert script.main() == 0
    written = _tree(tmp_path / "fixtures")
    checked_in = _tree(REPO / "fixtures")
    assert sorted(written) == sorted(checked_in)
    for name, data in checked_in.items():
        assert written[name] == data, f"fixtures/{name} differs from what its builder writes"
    assert len(capsys.readouterr().out.splitlines()) == len(written)
