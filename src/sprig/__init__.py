"""Staked debates over structured proofs.

Claims post token-backed chains of sub-statements; questions dispute single
steps for a bounty; at the bottom a machine-checkable proof decides. The
package bundles the proof format, a toy proof checker, the escrowed debate
protocol with deterministic settlement, an agent simulator, and the
closed-form equilibrium analysis of the two-level entry game, all behind the
``sprig`` command-line tool.

The package re-exports nothing; import from its modules (``sprig.protocol``,
``sprig.equilibrium``, ...), so that each subcommand loads only its own layer.
It defines one function, `canonical_json`, the encoding every document and
every command's output is written in: it lives here so that the equilibrium
commands can print without loading ``sprig.formulas``.
"""

import json
from typing import Any

__version__ = "0.1.0"


def canonical_json(value: Any) -> str:
    """Sorted keys, no whitespace, UTF-8 text: equal values always encode to
    equal bytes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
