"""The checkouts a timing script runs, their order, and their JSON sections.

`--label NAME` times this checkout and writes its points as section NAME.
`--checkout DIR` times DIR (section `before`) and this checkout (`after`),
alternating one repeat of each, DIR first in even repeats, so that every
before/after pair is measured back to back on the same machine state and
neither side always runs first. With `--label NAME` too, the sections are
`NAME.before` and `NAME.after`, so each comparison keeps its own. Sections
already in the file are kept.
"""

import argparse
import json
import os
import platform
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def parse_sides(description: str, out: str) -> tuple[argparse.Namespace, dict[str, Path]]:
    """The arguments, and the checkouts to time by section name, as the
    module docstring says, the first side first."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", help="this checkout's section, or the prefix of before/after")
    parser.add_argument("--checkout", type=Path,
                        help="time this checkout (section before) alternately with this one (after)")
    parser.add_argument("--out", type=Path, default=ROOT / out)
    args = parser.parse_args()
    if args.checkout is None:
        if args.label is None:
            parser.error("give --label, --checkout or both")
        return args, {args.label: ROOT}
    prefix = "" if args.label is None else f"{args.label}."
    return args, {f"{prefix}before": args.checkout.resolve(), f"{prefix}after": ROOT}


def interleave(sides: dict[str, Path], repeats: int, run: Callable[[Path], Any]) -> dict[str, list]:
    """`repeats` results of `run(checkout)` per side, one repeat of each in
    turn, the first side first in even repeats."""
    runs: dict[str, list] = {label: [] for label in sides}
    for repeat in range(repeats):
        for label in list(sides) if repeat % 2 == 0 else list(reversed(sides)):
            runs[label].append(run(sides[label]))
    return runs


def write_sections(out: Path, points: dict[str, list], **fields: Any) -> None:
    """Write each side's points as its section of the JSON file `out`,
    keeping the file's other sections."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    for label, section in points.items():
        doc[label] = {"python": platform.python_version(), "cpus": os.cpu_count(),
                      "interleaved": len(points) == 2, **fields, "points": section}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
