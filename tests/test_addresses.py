"""Output bytes do not depend on where formulas sit in memory.

A formula hashes by identity, so a set of formulas, such as a statement's
assumptions, iterates in an order that follows the formulas' addresses. The
bytes below are computed under two allocation histories: first as they
come, then after every formula the first run left alive has been dropped and
built again in reverse order, with a few thousand live dummy objects of a
formula's size in between. Each second history must give the same bytes,
and at least one assumption set must iterate in another order in one of
them, or the check would show nothing.
"""

import gc
import json
import sys
from pathlib import Path

from sprig import canonical_json, formulas
from sprig.formulas import Formula, Statement, atom
from sprig.proofs import ChainStep, ProofChain, validate_chain
from sprig.protocol import replay
from sprig.scenarios import preset_scenario, scenario_from_json
from sprig.simulator import run_scenario

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import wide_config  # noqa: E402


class _Dummy:
    """An object of a formula's size, which moves where the next one sits."""


def _mismatch_text():
    """`validate_chain`'s text for a step with two missing and two extra
    assumptions."""
    a, b, c, d, e, f = (atom(f"addr_{name}") for name in "abcdef")
    target = Statement(conclusion=a, assumptions=frozenset({a, b, c, d}), context="addr")
    step = Statement(conclusion=a, assumptions=frozenset({c, d, e, f}), context="addr")
    report = validate_chain(target, ProofChain(target=target, steps=(ChainStep(statement=step),)))
    return [v.detail for v in report.violations if v.code == "assumption mismatch"], report


def _preset(name):
    """A preset's trace and summary, as `sprig simulate --trace` writes them."""
    trace = run_scenario(scenario_from_json(preset_scenario(name)))
    return ["\n".join(trace.to_json_lines()), canonical_json(trace.summary())], trace


def _wide_replay():
    """A k = 4 wide debate's move log and snapshot, simulated and replayed."""
    trace = run_scenario(wide_config(4, 0))
    inst = trace.instance
    twin = replay(trace.move_lines, inst.cascade, balances=trace.initial_balances, mode=inst.mode)
    return [trace.move_lines, trace.final_snapshot, twin.move_log_lines(), twin.snapshot()], twin


def _produce():
    """Every output checked, the objects it was made of, the canonical
    text of each live formula and the iteration order of each live
    assumption set of two or more."""
    outputs, held = zip(_mismatch_text(), _preset("happy_path"), _preset("misleader_immediate"),
                        _wide_replay())
    live = [entry() for entry in list(formulas._interned.values())]
    texts = [f.canonical() for f in live if type(f) is Formula]
    orders = {s.canonical(): [f.canonical() for f in s.assumptions]
              for s in live if type(s) is Statement and len(s.assumptions) > 1}
    return list(outputs), held, texts, orders


def test_output_bytes_do_not_depend_on_the_addresses_of_formulas():
    gc.collect()
    expected, held, texts, orders = _produce()
    assert expected[0] == ["step assumptions must be the target's plus imported conclusions: "
                           "missing ['addr_a', 'addr_b']; extra ['addr_e', 'addr_f']"]
    del held
    gc.collect()
    reordered = 0
    for gap in (1, 2, 3):
        padding = [_Dummy() for _ in range(1000)]
        rebuilt = []
        for text in reversed(texts):
            padding.append([_Dummy() for _ in range(gap)])
            rebuilt.append(Formula.from_json(json.loads(text)))
        outputs, held, _, again = _produce()
        assert outputs == expected
        reordered += sum(orders[key] != order for key, order in again.items())
        del padding, rebuilt, held
        gc.collect()
    assert reordered
