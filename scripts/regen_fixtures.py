#!/usr/bin/env python3
"""Regenerate the checked-in fixtures/ tree from the builders in
sprig.scenarios, which are the single source of every fixture: proof
documents, move logs with their cascades, and the preset scenarios
(`fixtures/scenarios/` is `preset_scenario` written out). Output is canonical
JSON, so reruns are byte-stable; run this from a checkout after touching any
builder and commit the diff it produces:

    python3 scripts/regen_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sprig.formulas import canonical_json  # noqa: E402
from sprig.scenarios import (  # noqa: E402
    PRESET_NAMES,
    PROOF_DOCUMENTS,
    PROTOCOL_FIXTURES,
    preset_scenario,
)

ROOT = Path(__file__).resolve().parent.parent / "fixtures"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT.parent)}")


def main() -> int:
    for name, doc in PROOF_DOCUMENTS().items():
        _write(ROOT / "proofs" / f"{name}.json", canonical_json(doc))

    for name, build in PROTOCOL_FIXTURES.items():
        fixture = build()
        instance = fixture.instance
        _write(ROOT / "movelogs" / f"{name}.jsonl", "\n".join(instance.move_log_lines()))
        _write(ROOT / "cascades" / f"{name}.json", canonical_json(instance.cascade.to_json()))

    for name in PRESET_NAMES:
        _write(ROOT / "scenarios" / f"{name}.json", canonical_json(preset_scenario(name)))

    return 0


if __name__ == "__main__":
    sys.exit(main())
