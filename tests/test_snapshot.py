"""The state snapshot against its reference value.

`ProtocolInstance.snapshot()` composes its canonical JSON as text, with no
`json.dumps`. Each case here requires those bytes to be the `_canon`
encoding of `oracles.snapshot_json`, which builds the snapshot's value from
the instance's fields and hashes every statement and proof from its
`document_json`, sharing no code with the snapshot: random debates at every
prefix of their logs and at their end, the six fixtures, the presets, the
wide debate and built cases for the encodings a debate can reach (escaped
and non-ASCII names, both kinds of machine diagnostic, an early stop, held
escrow, no root and node ids of two digits).
"""

import json
import sys
from pathlib import Path

import pytest

from sprig.formulas import Statement, atom
from sprig.proofs import InferenceStep, MachineProof
from sprig.protocol import (
    EARLY_STOP,
    QUIESCENCE,
    LevelParameters,
    MachineParameters,
    ParameterCascade,
    ProtocolError,
    ProtocolInstance,
    advance_clock,
    create_root_claim,
    replay_line,
    settle,
)
from sprig.scenarios import (
    PRESET_NAMES,
    PROTOCOL_FIXTURES,
    identity_chain,
    preset_scenario,
    scenario_from_json,
)
from sprig.simulator import run_scenario
from sprig.verifier import Verdict

import oracles

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
sys.path.append(str(ROOT / "perfbench"))
from workloads import wide_config  # noqa: E402

MODES = [QUIESCENCE, EARLY_STOP]
RANDOM_FUNDS = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}
_P, _Q = atom("p"), atom("q")
IDENT = Statement(conclusion=_P, assumptions=frozenset({_P}), context="demo")


def _check(inst, case=None):
    assert inst.snapshot() == oracles._canon(oracles.snapshot_json(inst)), case


def _replayed(lines, cascade, balances, horizon, mode, every_prefix, case=None):
    """Replay `lines` into a fresh instance in `mode`, up to an early stop,
    then advance it to `horizon` and settle it, checking the snapshot with
    no root, after each move if `every_prefix`, and before and after
    settlement."""
    inst = ProtocolInstance(cascade, balances=balances, mode=mode)
    _check(inst, case)
    for line in lines:
        try:
            replay_line(inst, line, json.loads(line))
        except ProtocolError as exc:
            assert mode == EARLY_STOP and "interaction ended" in str(exc), case
            break
        if every_prefix:
            _check(inst, case)
    advance_clock(inst, horizon)
    _check(inst, case)
    settle(inst)
    _check(inst, case)
    return inst


def _random_log(seed):
    inst, horizon = oracles.random_debate(seed)
    return inst.move_log_lines(), inst.cascade, RANDOM_FUNDS, horizon


@pytest.mark.parametrize("mode", MODES)
def test_the_snapshot_encodes_the_reference_at_every_prefix_of_random_debates(mode):
    for seed in range(200):
        _replayed(*_random_log(seed), mode, every_prefix=True, case=seed)


def test_the_snapshot_encodes_the_reference_at_the_end_of_2000_random_debates():
    stopped = {mode: 0 for mode in MODES}
    for seed in range(2000):
        log = _random_log(seed)
        for mode in MODES:
            inst = _replayed(*log, mode, every_prefix=False, case=(seed, mode))
            stopped[mode] += inst.stopped_at is not None
    assert stopped[QUIESCENCE] == 0 and stopped[EARLY_STOP] > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PROTOCOL_FIXTURES))
def test_the_snapshot_encodes_the_reference_on_the_fixtures(name, mode):
    fx = PROTOCOL_FIXTURES[name]()
    horizon = max(fx.final_time, fx.instance.max_deadline())
    lines = (FIXTURE_DIR / "movelogs" / f"{name}.jsonl").read_text().splitlines()
    _replayed(lines, fx.instance.cascade, fx.balances, horizon, mode, every_prefix=True)
    built = fx.instance
    _check(built)
    advance_clock(built, horizon)
    _check(built)
    settle(built)
    _check(built)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_snapshot_encodes_the_reference_on_the_presets(name, seed, mode):
    config = scenario_from_json(preset_scenario(name))
    config.seed, config.mode = seed, mode
    trace = run_scenario(config)
    assert trace.final_snapshot == oracles._canon(oracles.snapshot_json(trace.instance))


@pytest.mark.parametrize("k", [4, 8])
def test_the_snapshot_encodes_the_reference_on_the_wide_debate(k):
    config = wide_config(k, 0)
    trace = run_scenario(config)
    _check(trace.instance)
    # Its log replayed and left unsettled, with every escrow still held.
    inst = ProtocolInstance(config.cascade, balances=trace.initial_balances, mode=config.mode)
    for line in trace.move_lines:
        replay_line(inst, line, json.loads(line))
    assert len(inst.ledger.escrowed) > 1 and not inst.settled
    _check(inst)


# -- built cases ------------------------------------------------------------------


def _cascade(root_level):
    levels = {
        level: LevelParameters(
            max_length=120, stake_up=0 if level == root_level else 4, stake_down=6,
            verification_time=4, bounty=5, response_time=3,
        )
        for level in range(1, root_level + 1)
    }
    machine = MachineParameters(max_length=80, stake_up=2, burn_cost=1, bounty=3, response_time=2)
    return ParameterCascade(root_level=root_level, levels=levels, machine=machine)


def _claim_root(root_level=2, balances=None, mode=QUIESCENCE):
    return create_root_claim(
        "amy", IDENT, identity_chain(IDENT), _cascade(root_level), 0,
        balances=balances or {"amy": 100, "quin": 100, "zed": 100}, mode=mode,
    )


def test_the_snapshot_escapes_names_as_the_reference_does():
    # A quote, a backslash, control characters and non-ASCII text, as the
    # actors of moves and as an account that never moves.
    odd = ['é "quoted"\\ \n', "ζ", "bell\x07", "tab\there"]
    funds = {"amy": 100, **{name: 100 for name in odd}, "idle\x1f ": 7}
    inst = _claim_root(balances=funds)
    q = inst.post_question(odd[0], inst.root_id, 1, 1)
    inst.post_answer_claim(odd[1], q, identity_chain(IDENT), 1)
    inst.post_question(odd[2], inst.root_id, 1, 2)
    inst.post_question(odd[3], inst.root_id, 1, 2)
    _check(inst)
    advance_clock(inst, inst.max_deadline())
    settle(inst)
    _check(inst)
    assert json.loads(inst.snapshot())["ledger"]["balances"]["idle\x1f "] == 7


def test_the_snapshot_writes_an_integer_and_a_null_machine_diagnostic():
    inst = _claim_root(root_level=1)
    q = inst.post_question("quin", inst.root_id, 1, 1)
    unsound = MachineProof(target=IDENT, steps=(InferenceStep(_Q, "assumption"),))
    sound = MachineProof(target=IDENT, steps=(InferenceStep(_P, "assumption"),))
    refuted = inst.post_answer_claim("zed", q, unsound, 2)
    held = inst.post_answer_claim("quin", q, sound, 2)
    assert inst.claim(refuted).verdict == Verdict(False, 1)
    assert inst.claim(held).verdict == Verdict(True, None)
    _check(inst)
    nodes = json.loads(inst.snapshot())["nodes"]
    assert nodes[refuted]["verdict"] == {"diagnostic": 1, "validated": False}
    assert nodes[held]["verdict"] == {"diagnostic": None, "validated": True}


def test_the_snapshot_of_an_early_stop_and_of_held_escrow():
    inst = _claim_root(mode=EARLY_STOP)
    q = inst.post_question("quin", inst.root_id, 1, 1)
    # Unsettled, with the root's stake and the question's bounty held.
    assert set(inst.ledger.escrowed) == {inst.root_id, q} and not inst.settled
    _check(inst)
    advance_clock(inst, inst.max_deadline())
    assert inst.stopped_at is not None
    _check(inst)
    settle(inst)
    _check(inst)


@pytest.mark.parametrize("mode", MODES)
def test_the_snapshot_of_a_fresh_instance_with_no_root(mode):
    for balances in (None, {"amy": 0, "zed": 3}):
        inst = ProtocolInstance(_cascade(2), balances=balances, mode=mode)
        _check(inst)
        assert json.loads(inst.snapshot())["root"] is None


def test_the_snapshot_orders_node_ids_as_strings():
    inst = _claim_root(balances={"amy": 100, "quin": 1000})
    for t in range(1, 12):
        inst.post_question("quin", inst.root_id, 1, min(t, 3))
    assert len(inst.nodes) == 12
    _check(inst)
    ids = list(json.loads(inst.snapshot())["nodes"])
    assert ids == sorted(inst.nodes) and ids.index("q10") < ids.index("q2")
