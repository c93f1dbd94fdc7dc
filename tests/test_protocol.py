"""Engine tests: posting rules, windows, resolution, settlement, replay.

The six scripted fixtures in sprig.scenarios carry frozen expectations
(status and determination time per node, net payoff per account); the tests
here replay them from disk too, so the movelog files and the builders are
pinned to each other.
"""

import gc
import json
import pickle
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sprig import protocol
from sprig.formulas import (
    MAX_FORMULA_DEPTH,
    DefinitionSet,
    ParseError,
    Statement,
    atom,
    conj,
    content_hash,
    neg,
)
from sprig.proofs import ChainStep, InferenceStep, MachineProof, ProofChain
from sprig.protocol import (
    EARLY_STOP,
    LevelParameters,
    MachineParameters,
    Move,
    ParameterCascade,
    PENDING,
    QUIESCENCE,
    ProtocolError,
    ProtocolInstance,
    Timestamp,
    advance_clock,
    create_root_claim,
    create_root_question,
    replay,
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
from sprig.verifier import ToyVerifier, Verdict

import oracles

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
_P, _Q = atom("p"), atom("q")

IDENT = Statement(conclusion=_P, assumptions=frozenset({_P}), context="demo")


def tiny_cascade(root_level: int = 2, top_stake_up: int = 0) -> ParameterCascade:
    levels = {
        level: LevelParameters(
            max_length=120,
            stake_up=top_stake_up if level == root_level else 4,
            stake_down=6,
            verification_time=4,
            bounty=5,
            response_time=3,
        )
        for level in range(1, root_level + 1)
    }
    return ParameterCascade(
        root_level=root_level,
        levels=levels,
        machine=MachineParameters(
            max_length=80, stake_up=2, burn_cost=1, bounty=3, response_time=2
        ),
    )


def machine_answer(statement: Statement) -> MachineProof:
    steps = tuple(
        InferenceStep(a, "assumption") for a in statement.sorted_assumptions()
    )
    if statement.conclusion not in statement.assumptions:
        pytest.fail("test helper only answers restatements")
    return MachineProof(target=statement, steps=steps or ())


def fresh_claim_root(**kwargs):
    cascade = kwargs.pop("cascade", tiny_cascade())
    balances = kwargs.pop("balances", {"amy": 100, "quin": 100, "zed": 100})
    return create_root_claim(
        "amy", IDENT, identity_chain(IDENT), cascade, 0, balances=balances, **kwargs
    )


# -- parameter validation ------------------------------------------------------


def test_level_parameters_reject_nonsense():
    with pytest.raises(ValueError):
        LevelParameters(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        LevelParameters(10, -1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        LevelParameters(10, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        LevelParameters(10, 1, 1, 1, 1, 0)


def test_machine_parameters_reject_nonsense():
    with pytest.raises(ValueError):
        MachineParameters(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        MachineParameters(10, 1, -1, 1, 1)


@pytest.mark.parametrize("balances, message", [
    ({"amy": -1}, "negative opening balance for 'amy'"),
    ({"amy": True}, "opening balance for 'amy' must be an integer"),
    ({"amy": 1.0}, "opening balance for 'amy' must be an integer"),
    ({"amy": float("nan")}, "opening balance for 'amy' must be an integer"),
    ({7: 1}, "account names must be strings, got 7"),
])
def test_opening_balances_map_account_names_to_non_negative_integers(balances, message):
    # The snapshot writes each balance as a JSON integer under its name.
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProtocolInstance(tiny_cascade(), balances=balances)


def test_cascade_levels_must_cover_one_through_root():
    good = tiny_cascade(2)
    assert sorted(good.levels) == [1, 2]
    with pytest.raises(ValueError):
        ParameterCascade(root_level=2, levels={2: good.levels[2]}, machine=good.machine)
    with pytest.raises(ValueError):
        ParameterCascade(
            root_level=1, levels={1: good.levels[1], 2: good.levels[2]}, machine=good.machine
        )


def test_cascade_lookups_fall_through_to_machine_row():
    cascade = tiny_cascade(2)
    assert cascade.bounty(0) == cascade.machine.bounty
    assert cascade.response_time(0) == cascade.machine.response_time
    assert cascade.max_length(0) == cascade.machine.max_length
    assert cascade.bounty(1) == cascade.levels[1].bounty
    # A claim locks both stakes, a machine claim its upward stake and burn.
    assert [cascade.deposit(level) for level in (0, 1, 2)] == [2 + 1, 4 + 6, 0 + 6]
    round_trip = ParameterCascade.from_json(json.loads(json.dumps(cascade.to_json())))
    assert round_trip == cascade


def test_timestamp_ordering_and_rendering():
    assert Timestamp(3, 1) < Timestamp(3, 2) < Timestamp(4) == Timestamp(4, 0)
    assert Timestamp(4, 0) <= Timestamp(4, 0) and Timestamp(5, 0) >= Timestamp(4, 9)
    assert max([Timestamp(4, 2), Timestamp(5, 0), Timestamp(4, 9)]) == Timestamp(5, 0)
    assert str(Timestamp(7, 2)) == "7.2"
    assert Timestamp(7, 2).to_json() == [7, 2]
    stamp = Timestamp(7, 2)
    with pytest.raises(AttributeError):
        stamp.seq = 3
    with pytest.raises(AttributeError):
        stamp.other = 1
    restored = pickle.loads(pickle.dumps(stamp))
    assert restored == stamp and restored.__class__ is Timestamp
    assert hash(restored) == hash(stamp)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        fresh_claim_root(mode="whenever")


# -- posting rules ---------------------------------------------------------------


def test_root_claim_needs_zero_upward_stake_on_top():
    with pytest.raises(ProtocolError, match="zero upward stake"):
        fresh_claim_root(cascade=tiny_cascade(top_stake_up=3))


def test_default_balances_cover_exactly_the_first_deposit():
    inst = create_root_claim("amy", IDENT, identity_chain(IDENT), tiny_cascade(), 0)
    assert inst.ledger.balance("amy") == 0
    assert inst.ledger.escrowed[inst.root_id] == tiny_cascade().levels[2].stake_down


def test_insufficient_funds_blocks_the_move():
    inst = fresh_claim_root(balances={"amy": 100, "quin": 1, "zed": 100})
    with pytest.raises(ProtocolError, match="insufficient funds"):
        inst.post_question("quin", inst.root_id, 1, 1)
    # nothing was escrowed for the failed move
    assert set(inst.ledger.escrowed) == {inst.root_id}


def test_question_step_must_exist():
    inst = fresh_claim_root()
    with pytest.raises(ProtocolError, match="no such step 4"):
        inst.post_question("quin", inst.root_id, 4, 1)
    with pytest.raises(ProtocolError, match="no such step 0"):
        inst.post_question("quin", inst.root_id, 0, 1)
    # A step that is not an integer would be written into the payload text
    # as Python writes it (`True`), which is no JSON.
    for step in (True, 1.0):
        with pytest.raises(ProtocolError, match="^step must be an integer, got "):
            inst.post_question("quin", inst.root_id, step, 1)
    assert len(inst.nodes) == 1


def test_question_window_closes_at_the_deadline():
    inst = fresh_claim_root()
    deadline = inst.claim(inst.root_id).deadline
    late = fresh_claim_root()
    with pytest.raises(ProtocolError, match="window closed"):
        late.post_question("quin", late.root_id, 1, deadline)
    ontime = fresh_claim_root()
    ontime.post_question("quin", ontime.root_id, 1, deadline - 1)


def test_answer_window_closes_at_the_deadline():
    inst = fresh_claim_root()
    q = inst.post_question("quin", inst.root_id, 1, 1)
    deadline = inst.question(q).deadline
    with pytest.raises(ProtocolError, match="window closed"):
        inst.post_answer_claim("zed", q, identity_chain(IDENT), deadline)
    inst2 = fresh_claim_root()
    q2 = inst2.post_question("quin", inst2.root_id, 1, 1)
    inst2.post_answer_claim("zed", q2, identity_chain(IDENT), deadline - 1)


def test_machine_claims_cannot_be_questioned():
    cascade = tiny_cascade(1)
    inst = create_root_claim(
        "amy", IDENT, identity_chain(IDENT), cascade, 0,
        balances={"amy": 100, "quin": 100, "zed": 100},
    )
    q = inst.post_question("quin", inst.root_id, 1, 1)
    c = inst.post_answer_claim("zed", q, machine_answer(IDENT), 2)
    with pytest.raises(ProtocolError, match="machine claims cannot be questioned"):
        inst.post_question("quin", c, 1, 2)


def test_level_zero_questions_reject_chains():
    cascade = tiny_cascade(1)
    inst = create_root_claim(
        "amy", IDENT, identity_chain(IDENT), cascade, 0,
        balances={"amy": 100, "quin": 100, "zed": 100},
    )
    q = inst.post_question("quin", inst.root_id, 1, 1)
    with pytest.raises(ProtocolError, match="machine proofs only"):
        inst.post_answer_claim("zed", q, identity_chain(IDENT), 2)


def test_machine_length_budget_is_enforced():
    cascade = tiny_cascade(1)
    tight = ParameterCascade(
        root_level=1,
        levels=cascade.levels,
        machine=MachineParameters(
            max_length=1, stake_up=2, burn_cost=1, bounty=3, response_time=2
        ),
    )
    wide = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({conj(_P, _Q)}), context="demo"
    )
    inst = create_root_claim(
        "amy", wide, identity_chain(wide), tight, 0,
        balances={"amy": 100, "quin": 100, "zed": 100},
    )
    q = inst.post_question("quin", inst.root_id, 1, 1)
    with pytest.raises(ProtocolError, match="length over budget"):
        inst.post_answer_claim("zed", q, machine_answer(wide), 2)


def test_chain_answers_must_target_the_question_statement():
    inst = fresh_claim_root()
    q = inst.post_question("quin", inst.root_id, 1, 1)
    other = Statement(conclusion=_Q, assumptions=frozenset({_Q}), context="demo")
    with pytest.raises(ProtocolError, match="targets a different statement"):
        inst.post_answer_claim("zed", q, identity_chain(other), 2)


def test_invalid_chain_answers_are_rejected_structurally():
    inst = fresh_claim_root()
    q = inst.post_question("quin", inst.root_id, 1, 1)
    bare = Statement(conclusion=_P, context="demo")
    wrong = identity_chain(IDENT)
    chain = type(wrong)(
        target=IDENT, steps=(type(wrong.steps[0])(statement=bare),), definitions=wrong.definitions
    )
    with pytest.raises(ProtocolError, match="structural violation"):
        inst.post_answer_claim("zed", q, chain, 2)


# -- each proof value judged once ----------------------------------------------
# `apply` keeps a proof's verdict, chain check and hash on the interned value,
# so these post one value more than once in one process: each later post must
# get what a first post of it would.


def _questioned_under(definitions, target=IDENT, root_level=2):
    """A debate whose root chain restates `target` declaring `definitions`,
    with its step questioned at t = 1."""
    root = ProofChain(target=target, steps=(ChainStep(statement=target),), definitions=definitions)
    inst = create_root_claim(
        "amy", target, root, tiny_cascade(root_level), 0,
        balances={"amy": 100, "quin": 100, "zed": 100},
    )
    return inst, inst.post_question("quin", inst.root_id, 1, 1)


@pytest.mark.parametrize("shadowed_first", [True, False])
def test_a_chain_check_is_kept_per_ambient(shadowed_first):
    # One answer chain at one level, under a root that declares its symbol
    # and under one that does not, in either order.
    answer = ProofChain(
        target=IDENT, steps=(ChainStep(statement=IDENT),),
        definitions=DefinitionSet(symbols=(("outer", _P),)),
    )
    roots = [DefinitionSet(symbols=(("outer", _Q),)), DefinitionSet()]
    for definitions in roots if shadowed_first else roots[::-1]:
        inst, q = _questioned_under(definitions)
        if definitions.names():
            with pytest.raises(ProtocolError, match="shadowed symbol"):
                inst.post_answer_claim("zed", q, answer, 2)
        else:
            assert inst.claim(inst.post_answer_claim("zed", q, answer, 2)).level == 1


def test_a_bad_chain_posted_twice_is_rejected_twice_alike():
    inst, q = _questioned_under(DefinitionSet())
    bad = ProofChain(target=IDENT, steps=(ChainStep(statement=Statement(_P, context="demo")),))
    messages = []
    for t in (2, 3):
        with pytest.raises(ProtocolError, match="structural violation: step 1: assumption") as exc:
            inst.post_answer_claim("zed", q, bad, t)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_an_unsound_machine_proof_posted_twice_gets_one_verdict():
    inst, q = _questioned_under(DefinitionSet(), root_level=1)
    unsound = MachineProof(target=IDENT, steps=(InferenceStep(_Q, "assumption"),))
    answers = [inst.post_answer_claim(name, q, unsound, 2) for name in ("zed", "quin")]
    assert [inst.claim(c).verdict for c in answers] == [Verdict(False, 1)] * 2
    assert inst.question(q).status == PENDING


@pytest.mark.parametrize("root_level", [1, 2])
def test_a_judged_proof_against_another_statement_is_still_a_structural_violation(root_level):
    # Judged first where it belongs, then posted at the same level, under
    # the same ambient, against a question on another statement.
    proof = machine_answer(IDENT) if root_level == 1 else identity_chain(IDENT)
    inst, q = _questioned_under(DefinitionSet(), root_level=root_level)
    inst.post_answer_claim("zed", q, proof, 2)
    other = Statement(conclusion=_Q, assumptions=frozenset({_Q}), context="demo")
    inst, q = _questioned_under(DefinitionSet(), target=other, root_level=root_level)
    with pytest.raises(ProtocolError, match="structural violation: .* a different statement"):
        inst.post_answer_claim("zed", q, proof, 2)
    assert len(inst.nodes) == 2


def _replayed_to(lines, cascade, balances, mode, horizon):
    """The instance replaying `lines` (up to the early stop, if there is
    one), its clock at `horizon`, and its snapshot, move log and
    settlement, each after the oracle's statuses are checked."""
    inst = ProtocolInstance(cascade, balances=balances, mode=mode)
    for line in lines:
        try:
            replay_line(inst, line, json.loads(line))
        except ProtocolError as exc:
            assert mode == EARLY_STOP and "interaction ended" in str(exc)
            break
    advance_clock(inst, horizon)
    now = inst.stopped_at.time if inst.stopped_at else inst.clock
    assert oracles.observed_statuses(inst) == oracles.brute_force_statuses(inst, now)
    return inst, (inst.snapshot(), inst.move_log_lines(), settle(inst), inst.snapshot())


@pytest.mark.parametrize("mode", [QUIESCENCE, EARLY_STOP])
def test_a_second_replay_in_one_process_gives_the_same_bytes(mode, monkeypatch):
    # The six fixture logs from disk and 200 random debates, each replayed
    # twice with the first replay alive, so the second finds every proof
    # judged: it runs no kernel verdict and no chain check.
    judged = [0]
    verdict, validate = ToyVerifier.verdict, protocol.validate_chain

    def counted(judge):
        def judging(*args, **kwargs):
            judged[0] += 1
            return judge(*args, **kwargs)
        return judging

    monkeypatch.setattr(ToyVerifier, "verdict", counted(verdict))
    monkeypatch.setattr(protocol, "validate_chain", counted(validate))
    cases = []
    for name in FIXTURE_LOGS:
        _, _, balances, horizon = _debate_moves(name)
        lines = (FIXTURE_DIR / "movelogs" / f"{name}.jsonl").read_text().splitlines()
        cascade = ParameterCascade.from_json(
            json.loads((FIXTURE_DIR / "cascades" / f"{name}.json").read_text())
        )
        cases.append((name, lines, cascade, balances, horizon))
    for seed in range(200):
        lines, cascade, balances, horizon = _debate_moves(seed)
        cases.append((seed, lines, cascade, balances, horizon))
    first_judged = 0
    for case, lines, cascade, balances, horizon in cases:
        judged[0] = 0
        first, played = _replayed_to(lines, cascade, balances, mode, horizon)
        first_judged, judged[0] = first_judged + judged[0], 0
        assert _replayed_to(lines, cascade, balances, mode, horizon)[1] == played, case
        assert judged[0] == 0, case
    assert first_judged > 0


def test_duplicate_questions_are_legal():
    inst = fresh_claim_root()
    a = inst.post_question("quin", inst.root_id, 1, 1)
    b = inst.post_question("quin", inst.root_id, 1, 1)
    assert a != b
    assert [q.id for q in inst.nodes[inst.root_id].children] == [a, b]


def test_machine_answers_burn_immediately_and_carry_a_verdict():
    cascade = tiny_cascade(1)
    inst = create_root_claim(
        "amy", IDENT, identity_chain(IDENT), cascade, 0,
        balances={"amy": 100, "quin": 100, "zed": 100},
    )
    q = inst.post_question("quin", inst.root_id, 1, 1)
    assert inst.ledger.burned == 0
    c = inst.post_answer_claim("zed", q, machine_answer(IDENT), 2)
    assert inst.ledger.burned == cascade.machine.burn_cost
    node = inst.claim(c)
    assert node.verdict is not None and node.verdict.validated
    # level-0 claims settle their status at post time
    assert node.status == "validated"
    assert node.determination == node.posted_at


def test_failed_machine_answers_still_burn():
    cascade = tiny_cascade(1)
    inst = create_root_claim(
        "amy", IDENT, identity_chain(IDENT), cascade, 0,
        balances={"amy": 100, "quin": 100, "zed": 100},
    )
    q = inst.post_question("quin", inst.root_id, 1, 1)
    junk = MachineProof(target=IDENT, steps=(InferenceStep(_Q, "assumption"),))
    c = inst.post_answer_claim("zed", q, junk, 2)
    node = inst.claim(c)
    assert node.status == "invalidated"
    assert not node.verdict.validated
    assert inst.ledger.burned == cascade.machine.burn_cost


# -- clock discipline -----------------------------------------------------------


def test_rejected_moves_still_advance_the_clock():
    inst = fresh_claim_root()
    with pytest.raises(ProtocolError):
        inst.post_question("quin", inst.root_id, 9, 2)
    assert inst.clock == 2


def test_time_cannot_move_backwards():
    inst = fresh_claim_root()
    advance_clock(inst, 3)
    with pytest.raises(ProtocolError, match="^time moving backwards: move at 2, clock at 3$"):
        advance_clock(inst, 2)
    with pytest.raises(ProtocolError, match="^time moving backwards: move at 1, clock at 3$"):
        inst.post_question("quin", inst.root_id, 1, 1)


@pytest.mark.parametrize(
    "t", [3.7, "5", True, Timestamp(3, 0)], ids=["float", "string", "boolean", "timestamp"]
)
@pytest.mark.parametrize(
    "move",
    [advance_clock, lambda inst, t: inst.post_question("quin", inst.root_id, 1, t)],
    ids=["advance-clock", "post-question"],
)
def test_times_must_be_integers(move, t):
    inst = fresh_claim_root()
    with pytest.raises(ProtocolError, match="^time must be an integer, got "):
        move(inst, t)
    assert inst.clock == 0 and len(inst.nodes) == 1


def test_resolve_is_idempotent():
    inst = fresh_claim_root()
    fresh = advance_clock(inst, inst.max_deadline())
    assert [st for _, st, _ in fresh] == ["validated"]
    assert inst.resolve() == []
    assert inst.claim(inst.root_id).status == "validated"


def test_statuses_are_committed_only_at_the_clock():
    inst = fresh_claim_root()
    with pytest.raises(TypeError):
        inst.resolve(10)  # no look-ahead: the clock is the only time
    # Legal while the root's window is open; left unanswered when its own
    # window closes at 4, the question defeats the root.
    inst.post_question("quin", inst.root_id, 1, 1)
    advance_clock(inst, 10)
    root = inst.claim(inst.root_id)
    assert (root.status, str(root.determination)) == ("invalidated", "4.0")
    assert oracles.observed_statuses(inst) == oracles.brute_force_statuses(inst, 10)


def test_settlement_guards():
    inst = fresh_claim_root()
    with pytest.raises(ProtocolError, match="windows still open"):
        settle(inst)
    advance_clock(inst, inst.max_deadline())
    settle(inst)
    with pytest.raises(ProtocolError, match="already settled"):
        settle(inst)
    with pytest.raises(ProtocolError, match="already settled"):
        inst.post_question("quin", inst.root_id, 1, 99)


def test_a_settled_instance_refuses_to_move_its_clock():
    inst = fresh_claim_root()
    advance_clock(inst, inst.max_deadline())
    settle(inst)
    before = (inst.clock, inst.snapshot())
    for t in (inst.clock, inst.clock + 1):
        with pytest.raises(ProtocolError, match="^instance already settled$"):
            advance_clock(inst, t)
    assert (inst.clock, inst.snapshot()) == before


def test_early_stop_settlement_waits_for_the_root():
    inst = fresh_claim_root(mode=EARLY_STOP)
    with pytest.raises(ProtocolError, match="root not yet determined"):
        settle(inst)
    advance_clock(inst, inst.max_deadline())
    assert inst.stopped_at is not None
    settle(inst)


def test_moves_after_the_stop_are_rejected():
    fx = PROTOCOL_FIXTURES["early_stop_question_root"]()
    inst = fx.instance
    advance_clock(inst, fx.final_time)
    assert inst.stopped_at == Timestamp(11, 0)
    with pytest.raises(ProtocolError, match="interaction ended"):
        inst.post_answer_claim(
            "dee", fx.node("root"), identity_chain(inst.nodes[fx.node("root")].statement), 12
        )


def test_early_stop_commits_nothing_after_a_root_determined_before_the_clock():
    inst = create_root_claim(
        "amy", IDENT, ProofChain(target=IDENT, steps=(ChainStep(IDENT),) * 2),
        tiny_cascade(), 0, balances={"amy": 100, "quin": 100, "zed": 100}, mode=EARLY_STOP,
    )
    q1 = inst.post_question("quin", inst.root_id, 1, 1)
    q2 = inst.post_question("quin", inst.root_id, 2, 1)
    c = inst.post_answer_claim("zed", q2, identity_chain(IDENT), 2)
    # At 10, q1 has been unanswered since its deadline 4, which kills the
    # root at (4, 0); c's window closes at 6, after the stop.
    changed = advance_clock(inst, 10)
    assert changed == [
        (inst.root_id, "invalidated", Timestamp(4, 0)),
        (q1, "unanswered", Timestamp(4, 0)),
    ]
    assert inst.stopped_at == Timestamp(4, 0)
    assert inst.nodes[c].status == inst.nodes[q2].status == PENDING
    assert oracles.observed_statuses(inst) == oracles.brute_force_statuses(inst, 4)
    assert advance_clock(inst, 20) == []


def test_a_machine_leaf_in_a_wide_tree_evaluates_only_its_ancestors(monkeypatch):
    k = 10
    cascade = ParameterCascade(
        root_level=2,
        levels={
            2: LevelParameters(10**6, 0, 6, 100, 5, 100),
            1: LevelParameters(10**6, 4, 6, 100, 5, 100),
        },
        machine=MachineParameters(10**6, 2, 1, 3, 100),
    )
    wide = ProofChain(target=IDENT, steps=(ChainStep(IDENT),) * k)
    inst = create_root_claim(
        "amy", IDENT, wide, cascade, 0, balances={"amy": 10**6, "quin": 10**6}
    )
    open_leaves = []
    for j in range(1, k + 1):
        q = inst.post_question("quin", inst.root_id, j, 1)
        c = inst.post_answer_claim("amy", q, wide, 1)
        for i in range(1, k + 1):
            open_leaves.append(inst.post_question("quin", c, i, 1))
    for q in open_leaves[:-1]:
        inst.post_answer_claim("amy", q, machine_answer(IDENT), 1)
    assert len(inst.nodes) == 2 * k * k + 2 * k  # all but the last leaf

    calls = []
    close = ProtocolInstance._close

    def counted(self, node, decided):
        calls.append(node.id)
        return close(self, node, decided)

    monkeypatch.setattr(ProtocolInstance, "_close", counted)
    now = 2
    expired = sum(inst.clock < n.deadline <= now for n in inst.nodes.values())
    leaf = inst.post_answer_claim("amy", open_leaves[-1], machine_answer(IDENT), now)
    depth, node = 0, inst.nodes[leaf]
    while node.origin is not None:
        depth, node = depth + 1, inst.nodes[node.origin]
    assert (depth, expired) == (4, 0)
    assert len(calls) <= depth + expired
    assert inst.nodes[open_leaves[-1]].status == "answered"


def test_an_800_level_debate_resolves():
    # A cascade file sets `root_level`, so the determinations of one instant
    # can climb 1,601 nodes: the push up must not recurse.
    levels = 800
    row = LevelParameters(10**6, 0, 1, 10, 1, 10)
    cascade = ParameterCascade(
        root_level=levels, levels=dict.fromkeys(range(1, levels + 1), row),
        machine=MachineParameters(10**6, 0, 0, 1, 10),
    )
    inst = create_root_claim(
        "amy", IDENT, identity_chain(IDENT), cascade, 0, balances={"amy": 10**6, "quin": 10**6}
    )
    claim = inst.root_id
    for level in range(levels, 0, -1):
        question = inst.post_question("quin", claim, 1, 1)
        claim = inst.post_answer_claim(
            "amy", question, identity_chain(IDENT) if level > 1 else machine_answer(IDENT), 1
        )
    assert len(inst.nodes) == 2 * levels + 1
    advance_clock(inst, inst.max_deadline())
    assert {n.status for n in oracles.claims(inst)} == {"validated"}
    assert {n.status for n in oracles.questions(inst)} == {"answered"}
    assert inst.nodes[inst.root_id].determination == Timestamp(11, 0)
    settle(inst)
    assert inst.ledger.balances == {"amy": 10**6 + levels, "quin": 10**6 - levels}


# -- the six scripted fixtures ----------------------------------------------------


@pytest.fixture(params=sorted(PROTOCOL_FIXTURES), name="fx")
def _fx(request):
    return PROTOCOL_FIXTURES[request.param]()


def test_fixture_statuses_and_determinations(fx):
    inst = fx.instance
    advance_clock(inst, fx.final_time)
    assert oracles.stored_deadlines(inst) == oracles.deadlines(inst)
    for label, (status, det_time) in fx.expected.items():
        node = inst.nodes[fx.node(label)]
        assert node.status == status, f"{fx.name}:{label}"
        if status == PENDING:
            assert node.determination is None
        else:
            assert node.determination.time == det_time, f"{fx.name}:{label}"


def test_fixture_payoffs_and_conservation(fx):
    inst = fx.instance
    total_before = inst.ledger.total()
    assert total_before == sum(fx.balances.values())
    advance_clock(inst, fx.final_time)
    settle(inst)
    assert inst.ledger.total() == total_before
    assert not inst.ledger.escrowed
    nets = {
        name: inst.ledger.balance(name) - start for name, start in fx.balances.items()
    }
    assert nets == fx.expected_payoffs
    assert sum(nets.values()) == -inst.ledger.burned


def test_settlement_reasons_route_every_token():
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    inst = fx.instance
    advance_clock(inst, fx.final_time)
    transfers = settle(inst)
    by_node = {}
    for t in transfers:
        by_node.setdefault(t.node_id, []).append((t.account, t.amount, t.reason))
    lvl1 = fx.instance.cascade.levels[1]
    assert by_node[fx.node("root")] == [
        ("ann", fx.instance.cascade.levels[2].stake_down, "stake returned")
    ]
    assert by_node[fx.node("c_b")] == [
        ("bea", lvl1.stake_up + lvl1.stake_down, "stake returned")
    ]
    assert by_node[fx.node("c_a")] == [
        ("sam", lvl1.stake_up, "stake forfeited to questioner"),
        ("sam", lvl1.stake_down, "stake paid to defeating question"),
    ]
    assert by_node[fx.node("q1")] == [("bea", lvl1.bounty, "bounty paid to answer")]
    machine_bounty = fx.instance.cascade.machine.bounty
    assert by_node[fx.node("q2")] == [("sam", machine_bounty, "bounty reimbursed")]
    assert by_node[fx.node("q3")] == [("sam", machine_bounty, "bounty reimbursed")]


def test_pending_nodes_are_refunded_at_early_stop():
    fx = PROTOCOL_FIXTURES["early_stop_question_root"]()
    inst = fx.instance
    advance_clock(inst, fx.final_time)
    deposit = inst.ledger.escrowed[fx.node("c4")]
    transfers = settle(inst)
    refunds = [t for t in transfers if t.node_id == fx.node("c4")]
    assert refunds == [
        type(transfers[0])(fx.node("c4"), "dee", deposit, "escrow refunded")
    ]


def _replayed_until_refused(lines, cascade, balances, mode):
    """The instance replaying the longest prefix of `lines` that `mode`
    accepts: an early stop refuses every move after the root determines."""
    for n in range(1, len(lines) + 1):
        try:
            twin = replay(lines[:n], cascade, balances=balances, mode=mode)
        except ProtocolError as exc:
            assert mode == EARLY_STOP and "interaction ended" in str(exc)
            break
    return twin


def _routes(transfers):
    return [(t.node_id, t.account, t.amount, t.reason) for t in transfers]


@pytest.mark.parametrize("mode", [QUIESCENCE, EARLY_STOP])
def test_fixture_settlement_routes_every_escrow_as_the_oracle_does(fx, mode):
    lines = fx.instance.move_log_lines()
    twin = _replayed_until_refused(lines, fx.instance.cascade, fx.balances, mode)
    advance_clock(twin, max(fx.final_time, twin.max_deadline()))
    expected = oracles.settlement_routes(twin)
    assert expected
    assert _routes(settle(twin)) == expected


def test_fixture_movelogs_on_disk_match_the_builders(fx):
    recorded = (FIXTURE_DIR / "movelogs" / f"{fx.name}.jsonl").read_text().splitlines()
    assert recorded == fx.instance.move_log_lines()
    cascade_doc = json.loads((FIXTURE_DIR / "cascades" / f"{fx.name}.json").read_text())
    assert cascade_doc == fx.instance.cascade.to_json()


def test_fixture_replay_reaches_the_same_state(fx):
    lines = (FIXTURE_DIR / "movelogs" / f"{fx.name}.jsonl").read_text().splitlines()
    cascade = ParameterCascade.from_json(
        json.loads((FIXTURE_DIR / "cascades" / f"{fx.name}.json").read_text())
    )
    twin = replay(lines, cascade, balances=fx.balances, mode=fx.mode)
    direct = fx.instance
    advance_clock(direct, fx.final_time)
    advance_clock(twin, fx.final_time)
    assert twin.snapshot() == direct.snapshot()
    settle(direct)
    settle(twin)
    assert twin.snapshot() == direct.snapshot()


def _odd_actor_debate():
    odd = ('é "quoted"\\ \n', "ζ")  # escapes and non-ASCII in move-log lines
    inst = fresh_claim_root(balances={"amy": 100, odd[0]: 100, odd[1]: 100})
    q = inst.post_question(odd[0], inst.root_id, 1, 1)
    inst.post_answer_claim(odd[1], q, identity_chain(IDENT), 1)
    inst.post_answer_claim(odd[1], q, machine_answer(IDENT), 2)
    return inst


def _reference_move(node):
    """The kind and payload of the move that posted `node`, rebuilt through
    `oracles.document_json`: the reference its log line must encode."""
    if node.kind == "question":
        if node.origin is None:
            return "root_question", {"statement": oracles.document_json(node.statement)}
        return "question", {"origin": node.origin, "step": node.step_index}
    if node.origin is None:
        return "root_claim", {"chain": oracles.document_json(node.proof)}
    return "answer_claim", {"origin": node.origin, "proof": oracles.document_json(node.proof)}


@pytest.mark.parametrize("case", [None, *range(0, 100, 9), *PRESET_NAMES], ids=str)
def test_moves_keep_the_one_encoding_of_their_payload(case):
    # The move log and a simulation trace's `move` records are both read off
    # the nodes; each must be the canonical JSON of the reference record.
    if isinstance(case, str):
        trace = run_scenario(scenario_from_json(preset_scenario(case)))
        inst = trace.instance
        tagged = [line for line in trace.to_json_lines() if json.loads(line)["record"] == "move"]
    else:
        inst = _odd_actor_debate() if case is None else oracles.random_debate(case)[0]
        tagged = inst.move_log_lines(record="move")
    records = []
    for node in inst.nodes.values():
        kind, payload = _reference_move(node)
        records.append(
            {"actor": node.owner, "kind": kind, "payload": payload,
             "payload_hash": content_hash(payload), "seq": node.posted_at.seq,
             "time": node.posted_at.time}
        )
    assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
    assert inst.move_log_lines() == [oracles._canon(r) for r in records]
    assert tagged == [oracles._canon({"record": "move", **r}) for r in records]
    snapshot = json.loads(inst.snapshot())
    for node in oracles.claims(inst):
        assert snapshot["nodes"][node.id]["proof"] == content_hash(oracles.document_json(node.proof))


def test_replay_rejects_tampered_payloads():
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    lines = fx.instance.move_log_lines()
    record = json.loads(lines[1])
    record["payload"]["step"] = 2
    lines[1] = json.dumps(record)
    with pytest.raises(ProtocolError, match="payload hash mismatch at seq 2"):
        replay(lines, fx.instance.cascade, balances=fx.balances)


def _tampered(edit):
    lines = (FIXTURE_DIR / "movelogs" / "full_run_claim_root.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    edit(records)
    for record in records:
        record["payload_hash"] = content_hash(record["payload"])
    return [json.dumps(record) for record in records]


def _renumber(records):
    for record in records:
        record["seq"] += 100


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r[1].update(time=3.5), "time must be an integer, got 3.5"),
        (lambda r: r[1].update(time="3"), "time must be an integer, got '3'"),
        (lambda r: r[1].update(time=True), "time must be an integer, got True"),
        (lambda r: r[1]["payload"].update(step=True), "step must be an integer, got True"),
        (lambda r: r[2].update(seq=True), "seq must be an integer, got True"),
        (_renumber, "seq 101 out of order, expected 1"),
        (lambda r: r[3].update(seq=3), "seq 3 out of order, expected 4"),
        (lambda r: r[1].update(actor=7), "actor must be a string, got 7"),
        (lambda r: r[0].update(actor=True), "actor must be a string, got True"),
    ],
    ids=["float-time", "string-time", "bool-time", "bool-step", "bool-seq",
         "renumbered", "repeated-seq", "integer-actor", "boolean-root-actor"],
)
def test_replay_decodes_move_records_strictly(edit, message):
    cascade = ParameterCascade.from_json(
        json.loads((FIXTURE_DIR / "cascades" / "full_run_claim_root.json").read_text())
    )
    balances = {name: 10**6 for name in ("ann", "sam", "bea", "cat", "kim")}
    replay(_tampered(lambda r: None), cascade, balances=balances)
    with pytest.raises(ProtocolError, match=message):
        replay(_tampered(edit), cascade, balances=balances)


def test_replay_rejects_empty_and_rootless_logs():
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    with pytest.raises(ProtocolError, match="empty move log"):
        replay([], fx.instance.cascade)
    lines = fx.instance.move_log_lines()
    with pytest.raises(ProtocolError, match="must start with a root move"):
        replay(lines[1:], fx.instance.cascade, balances=fx.balances)
    second_root = {**json.loads(lines[0]), "seq": 2}
    with pytest.raises(ProtocolError, match="^unknown move kind 'root_claim'$"):
        replay([lines[0], json.dumps(second_root)], fx.instance.cascade, balances=fx.balances)


# -- one transition ---------------------------------------------------------------
# Every move goes through `ProtocolInstance.apply`, whether a method posts it or
# `replay_line` reads it. Each rejection below is pinned through both entry
# points: its exact text, whether the clock moved to the move's time, and that
# nothing else changed, so the order of the checks is pinned too. An instance
# whose clock moved must equal a twin that only advanced its clock there.

_OTHER = Statement(conclusion=_Q, assumptions=frozenset({_Q}), context="demo")
_WIDE = Statement(conclusion=conj(_P, _Q), assumptions=frozenset({conj(_P, _Q)}), context="demo")
_PLAYERS = {"amy": 100, "quin": 100, "zed": 100}


def _rootless(cascade=None):
    return ProtocolInstance(cascade or tiny_cascade(), balances=_PLAYERS)


def _questioned(root_level=2, **kwargs):
    """amy's root claim c1 at 0 (window to 4), quin's question q2 on its step
    1 at 1 (window to 4)."""
    inst = fresh_claim_root(cascade=tiny_cascade(root_level), **kwargs)
    inst.post_question("quin", inst.root_id, 1, 1)
    return inst


def _machine_answered():
    """`_questioned` at level 1, then zed's machine answer c3 to q2 at 2."""
    inst = _questioned(root_level=1)
    inst.post_answer_claim("zed", "q2", machine_answer(IDENT), 2)
    return inst


def _clock_at(t):
    def setup():
        inst = fresh_claim_root()
        advance_clock(inst, t)
        return inst
    return setup


def _settled():
    inst = fresh_claim_root()
    advance_clock(inst, inst.max_deadline())
    settle(inst)
    return inst


def _stopped():
    """Early stop: q2 goes unanswered at 4, which kills the root at 4.0."""
    inst = _questioned(mode=EARLY_STOP)
    advance_clock(inst, 10)
    return inst


def _tight_budget():
    cascade = tiny_cascade(1)
    tight = ParameterCascade(
        root_level=1, levels=cascade.levels,
        machine=MachineParameters(max_length=1, stake_up=2, burn_cost=1, bounty=3, response_time=2),
    )
    inst = create_root_claim("amy", _WIDE, identity_chain(_WIDE), tight, 0, balances=_PLAYERS)
    inst.post_question("quin", inst.root_id, 1, 1)
    return inst


def _poor_questioner():
    return fresh_claim_root(balances={"amy": 100, "quin": 1})


def _question(t, origin="c1", step=1):
    return Move("question", "quin", t, origin, step)


def _answer(t, proof, origin="q2"):
    return Move("answer_claim", "zed", t, origin, proof=proof)


def _root_claim(t):
    return Move("root_claim", "amy", t, statement=IDENT, proof=identity_chain(IDENT))


REJECTIONS = [
    # (id, setup, move, message, whether the clock moves to the move's time)
    ("unknown-kind", fresh_claim_root, Move("x", "quin", 1), "unknown move kind 'x'", False),
    ("second-root-claim", fresh_claim_root, _root_claim(1), "unknown move kind 'root_claim'",
     False),
    ("second-root-question", fresh_claim_root, Move("root_question", "quin", 1, statement=IDENT),
     "unknown move kind 'root_question'", False),
    ("rootless-unknown-kind", _rootless, Move("x", "quin", 1), "unknown move kind 'x'", False),
    ("rootless-question", _rootless, _question(1),
     "log must start with a root move, got 'question'", False),
    ("rootless-answer", _rootless, _answer(1, identity_chain(IDENT)),
     "log must start with a root move, got 'answer_claim'", False),
    ("bad-step-type", fresh_claim_root, _question(1, step=True),
     "step must be an integer, got True", False),
    ("bad-actor-type", fresh_claim_root, Move("question", ["quin"], 1, "c1", 1),
     "actor must be a string, got ['quin']", False),
    ("time-backwards", _clock_at(3), _question(2), "time moving backwards: move at 2, clock at 3",
     False),
    ("settled", _settled, _question(9), "instance already settled", False),
    ("past-the-early-stop", _stopped, _answer(11, identity_chain(IDENT)),
     "interaction ended at 4.0", True),
    ("no-such-claim", fresh_claim_root, _question(1, origin="c9"), "no such claim 'c9'", True),
    ("machine-claim-questioned", _machine_answered, _question(3, origin="c3"),
     "machine claims cannot be questioned", True),
    ("no-such-step", fresh_claim_root, _question(1, step=4), "no such step 4 in claim 'c1' (has 1)",
     True),
    ("closed-claim-window", fresh_claim_root, _question(4),
     "window closed: claim 'c1' accepted questions before 4", True),
    ("no-such-question", _questioned, _answer(2, identity_chain(IDENT), origin="q9"),
     "no such question 'q9'", True),
    ("question-on-a-question", _questioned, _question(2, origin="q2"), "no such claim 'q2'",
     True),
    ("answer-to-a-claim", _questioned, _answer(2, identity_chain(IDENT), origin="c1"),
     "no such question 'c1'", True),
    ("closed-question-window", _questioned, _answer(4, identity_chain(IDENT)),
     "window closed: question 'q2' accepted answers before 4", True),
    ("level-0-chain", lambda: _questioned(root_level=1), _answer(2, identity_chain(IDENT)),
     "level-0 questions take machine proofs only", True),
    ("chain-wrong-target", _questioned, _answer(2, identity_chain(_OTHER)),
     "structural violation: chain targets a different statement", True),
    ("machine-wrong-target", _questioned, _answer(2, machine_answer(_OTHER)),
     "structural violation: proof targets a different statement", True),
    ("machine-over-budget", _tight_budget, _answer(2, machine_answer(_WIDE)),
     "length over budget: 4 > 1", True),
    ("insufficient-funds", _poor_questioner, _question(1),
     "insufficient funds: 'quin' has 1, needs 5", True),
    ("root-stake-up", lambda: _rootless(tiny_cascade(top_stake_up=3)), _root_claim(2),
     "root claim requires a zero upward stake at the top level", True),
]


def _by_method(inst, move):
    if move.kind == "question":
        return inst.post_question(move.actor, move.origin, move.step, move.time)
    if move.kind == "answer_claim":
        return inst.post_answer_claim(move.actor, move.origin, move.proof, move.time)
    return inst.apply(move)


def _by_replay_line(inst, move):
    """Post `move` as the next line of a move log, with its payload hashed."""
    if move.kind == "root_claim":
        payload = {"chain": json.loads(move.proof.canonical())}
    elif move.kind == "root_question":
        payload = {"statement": json.loads(move.statement.canonical())}
    elif move.kind == "question":
        payload = {"origin": move.origin, "step": move.step}
    elif move.kind == "answer_claim":
        payload = {"origin": move.origin, "proof": json.loads(move.proof.canonical())}
    else:
        payload = {}
    record = {"actor": move.actor, "kind": move.kind, "payload": payload,
              "payload_hash": content_hash(payload), "seq": len(inst.nodes) + 1,
              "time": move.time}
    raw = json.dumps(record)
    return replay_line(inst, raw, json.loads(raw))


@pytest.mark.parametrize("post", [_by_method, _by_replay_line], ids=["method", "replay-line"])
@pytest.mark.parametrize(
    "setup, move, message, moved", [c[1:] for c in REJECTIONS], ids=[c[0] for c in REJECTIONS]
)
def test_every_posting_rejection_through_both_entry_points(setup, move, message, moved, post):
    inst, twin = setup(), setup()
    clock = inst.clock
    if moved:
        assert move.time > clock
        advance_clock(twin, move.time)
    with pytest.raises(ProtocolError) as caught:
        post(inst, move)
    assert str(caught.value) == message
    assert inst.clock == (move.time if moved else clock)
    assert inst.snapshot() == twin.snapshot()
    assert inst.move_log_lines() == twin.move_log_lines()


def _nested(depth):
    """A formula `depth` levels deep, the atom p counting as 1: negations
    of p."""
    formula = _P
    for _ in range(depth - 1):
        formula = neg(formula)
    return formula


def _restating(formula):
    return Statement(conclusion=formula, assumptions=frozenset({formula}), context="demo")


# Moves whose text would hold a formula nested one level deeper than a
# replay decodes, anywhere in what they post: (id, setup, move).
_TOO_DEEP = [
    ("root-claim-target", _rootless,
     lambda deep: Move("root_claim", "amy", 1, statement=_restating(deep),
                       proof=identity_chain(_restating(deep)))),
    ("root-question-assumption", _rootless,
     lambda deep: Move("root_question", "amy", 1, statement=Statement(
         conclusion=_P, assumptions=frozenset({_P, deep}), context="demo"))),
    ("chain-answer-step", _questioned,
     lambda deep: _answer(2, ProofChain(IDENT, (ChainStep(_restating(deep)),)))),
    ("chain-answer-definition", _questioned,
     lambda deep: _answer(2, ProofChain(
         IDENT, identity_chain(IDENT).steps, DefinitionSet((("d", deep),))))),
    ("machine-answer-step", _questioned,
     lambda deep: _answer(2, MachineProof(IDENT, (InferenceStep(deep, "assumption"),)))),
]


@pytest.mark.parametrize("setup, move", [c[1:] for c in _TOO_DEEP], ids=[c[0] for c in _TOO_DEEP])
def test_a_move_too_deep_to_replay_is_rejected_before_it_posts(setup, move):
    # Only decoding bounds a formula's depth, so a move that posted one of
    # these would write a log line that no replay reads back.
    move = move(_nested(MAX_FORMULA_DEPTH + 1))
    inst, twin = setup(), setup()
    advance_clock(twin, move.time)
    with pytest.raises(ProtocolError) as caught:
        inst.apply(move)
    assert str(caught.value) == f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
    assert inst.clock == move.time
    assert inst.snapshot() == twin.snapshot()
    assert inst.move_log_lines() == twin.move_log_lines()


def test_a_debate_at_the_deepest_formula_replays():
    deepest = _restating(_nested(MAX_FORMULA_DEPTH))
    roomy = ParameterCascade(
        root_level=2,
        levels={level: LevelParameters(**{**params._asdict(), "max_length": 500})
                for level, params in tiny_cascade().levels.items()},
        machine=MachineParameters(500, stake_up=2, burn_cost=1, bounty=3, response_time=2),
    )
    inst = create_root_claim("amy", deepest, identity_chain(deepest), roomy, 0, balances=_PLAYERS)
    inst.post_question("quin", inst.root_id, 1, 1)
    inst.post_answer_claim("zed", "q2", machine_answer(deepest), 2)
    asked = create_root_question("amy", deepest, roomy, 0, balances=_PLAYERS)
    for debate in (inst, asked):
        twin = replay(debate.move_log_lines(), debate.cascade, balances=_PLAYERS)
        assert twin.move_log_lines() == debate.move_log_lines()
        for instance in (debate, twin):
            advance_clock(instance, debate.max_deadline())
            settle(instance)
        assert twin.snapshot() == debate.snapshot()


def test_a_proof_s_depth_is_judged_once_per_value(monkeypatch):
    gc.collect()
    judged = []
    nested_too_deeply = protocol.nested_too_deeply

    def counted(formulas):
        judged.append(True)
        return nested_too_deeply(formulas)

    monkeypatch.setattr(protocol, "nested_too_deeply", counted)
    too_deep = MachineProof(IDENT, (InferenceStep(_nested(MAX_FORMULA_DEPTH + 1), "assumption"),))
    inst = _questioned()
    for t in (2, 3):
        with pytest.raises(ProtocolError, match="^formula nested deeper than"):
            inst.post_answer_claim("zed", "q2", too_deep, t)
    assert judged == [True]


def test_apply_posts_what_the_methods_post_and_ignores_the_fields_a_kind_does_not_read():
    by_apply, by_methods = _rootless(), fresh_claim_root()
    proof = machine_answer(IDENT)
    root = Move("root_claim", "amy", 0, "c9", 7, IDENT, identity_chain(IDENT))
    assert by_apply.apply(root) == "c1"
    question = Move("question", "quin", 1, "c1", 1, _OTHER, proof)
    assert by_apply.apply(question) == by_methods.post_question("quin", "c1", 1, 1) == "q2"
    answer = Move("answer_claim", "zed", 2, "q2", 7, _OTHER, proof)
    assert by_apply.apply(answer) == by_methods.post_answer_claim("zed", "q2", proof, 2) == "c3"
    asked = _rootless()
    asked.apply(Move("root_question", "quin", 0, "c9", 7, IDENT, proof))
    expected = create_root_question("quin", IDENT, tiny_cascade(), 0, balances=_PLAYERS)
    assert asked.snapshot() == expected.snapshot()
    assert asked.move_log_lines() == expected.move_log_lines()
    assert by_apply.snapshot() == by_methods.snapshot()
    assert by_apply.move_log_lines() == by_methods.move_log_lines()


# A field a kind reads, given a value of the wrong type, is a ProtocolError
# that names the field (an origin as `no such ...`, as an unknown id is) and
# leaves the instance as an `advance_clock` to the move's time leaves it (the
# actor's before the clock moves, as a log's is).

_BAD_VALUES = [None, 7, 2.5, ["c1"], {"c1": 1}, ("c1",), b"c1"]
_READ_FIELDS = [
    # (setup, move, the fields the move's kind reads, extra bad values)
    (_rootless, _root_claim(1), ("actor", "statement", "proof"),
     {"statement": ["x", identity_chain(IDENT)], "proof": ["x", IDENT, machine_answer(IDENT)]}),
    (_rootless, Move("root_question", "quin", 1, statement=IDENT), ("actor", "statement"),
     {"statement": ["x", IDENT.conclusion, identity_chain(IDENT)]}),
    (fresh_claim_root, _question(1), ("actor", "origin"), {"origin": ["q2", 1]}),
    (_questioned, _answer(2, identity_chain(IDENT)), ("actor", "origin", "proof"),
     {"origin": ["c1", 2], "proof": ["x", IDENT]}),
]


def _short(value):
    return repr(value) if len(repr(value)) < 12 else type(value).__name__


_BAD_FIELDS = [
    pytest.param(setup, move, field, bad, id=f"{move.kind}-{field}-{_short(bad)}")
    for setup, move, fields, extra in _READ_FIELDS
    for field in fields
    for bad in _BAD_VALUES + extra.get(field, [])
]


@pytest.mark.parametrize("setup, move, field, bad", _BAD_FIELDS)
def test_apply_rejects_a_field_of_the_wrong_type_before_any_effect(setup, move, field, bad):
    inst, twin = setup(), setup()
    if field != "actor":
        advance_clock(twin, move.time)
    with pytest.raises(ProtocolError) as caught:
        inst.apply(Move(**{**move._asdict(), field: bad}))
    assert str(caught.value).startswith("no such " if field == "origin" else f"{field} must be ")
    assert inst.snapshot() == twin.snapshot()  # the ledger and every node
    assert inst.move_log_lines() == twin.move_log_lines()


# -- second names -----------------------------------------------------------------
# Names are free, and settlement pays a dead claim's down-stake to its first
# unanswered question. These pin what that pays today; they are measurements,
# not the rule the stake structure should have.


def _root_claim_nets(names, play):
    """Net payoffs of `names`, 200 each, when `ann` posts the
    validated_root_claim root chain at t = 0 and `play(inst)` posts the rest."""
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    chain = fx.instance.nodes[fx.node("root")].proof
    balances = dict.fromkeys(names, 200)
    inst = create_root_claim("ann", chain.target, chain, fx.instance.cascade, 0, balances=balances)
    play(inst)
    advance_clock(inst, inst.max_deadline())
    settle(inst)
    assert inst.ledger.burned == 0
    return {name: inst.ledger.balance(name) - start for name, start in balances.items()}


def _dead_root_claim_nets(questioners):
    """Each of `questioners`, in order, questions the root's step 1 at t = 1,
    unanswered."""
    def play(inst):
        for name in questioners:
            inst.post_question(name, inst.root_id, 1, 1)

    return _root_claim_nets(["ann", "ann2", "sam"], play)


def _dead_answer_nets(questioners):
    """`sam` questions the root's step 1 at t = 1, `bea` answers with
    `identity_chain` at t = 2, and each of `questioners`, in order, questions
    the answer's step 1 at t = 3, unanswered."""
    def play(inst):
        question = inst.post_question("sam", inst.root_id, 1, 1)
        statement = inst.nodes[question].statement
        answer = inst.post_answer_claim("bea", question, identity_chain(statement), 2)
        for name in questioners:
            inst.post_question(name, answer, 1, 3)

    return _root_claim_nets(["ann", "bea", "bea2", "sam"], play)


@pytest.mark.parametrize(
    "questioners, nets",
    [
        (["sam"], {"ann": -10, "ann2": 0, "sam": 10}),
        # ann's second name asks first: ann and ann2 together net 0, and sam,
        # who was right as well, nets 0.
        (["ann2", "sam"], {"ann": -10, "ann2": 10, "sam": 0}),
    ],
    ids=["honest-questioner", "second-name-first"],
)
def test_a_dead_root_claims_down_stake_goes_to_the_first_question(questioners, nets):
    assert _dead_root_claim_nets(questioners) == nets


@pytest.mark.parametrize(
    "questioners, nets",
    [
        (["sam"], {"ann": -10, "bea": -10, "bea2": 0, "sam": 20}),
        # bea's second name asks first and takes the answer's down-stake of 6:
        # bea and bea2 together lose 4, the answer's up-stake, not 10.
        (["bea2", "sam"], {"ann": -10, "bea": -10, "bea2": 6, "sam": 14}),
    ],
    ids=["honest-questioner", "second-name-first"],
)
def test_a_dead_answers_down_stake_goes_to_the_first_question(questioners, nets):
    assert _dead_answer_nets(questioners) == nets


def test_an_earlier_question_that_dies_later_in_the_instant_takes_the_down_stake():
    # Both root questions go unanswered at 7.0. q4 pops first and kills the
    # root; q2 dies later in the same instant, when its answer c3 falls to
    # q5. The first question is first by determination, then by posting
    # order, so q2 decides the root and qa takes its down-stake of 10.
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    chain = fx.instance.nodes[fx.node("root")].proof
    balances = dict.fromkeys(["ann", "qa", "bea", "qb", "qc"], 200)
    inst = create_root_claim("ann", chain.target, chain, fx.instance.cascade, 0, balances=balances)
    q2 = inst.post_question("qa", inst.root_id, 1, 1)
    c3 = inst.post_answer_claim("bea", q2, identity_chain(inst.nodes[q2].statement), 2)
    q4 = inst.post_question("qb", inst.root_id, 2, 3)
    q5 = inst.post_question("qc", c3, 1, 3)
    advance_clock(inst, inst.max_deadline())
    root = inst.nodes[inst.root_id]
    assert [(inst.nodes[q].status, inst.nodes[q].determination) for q in (q2, q4, q5)] == [
        ("unanswered", Timestamp(7, 0))
    ] * 3
    assert (root.status, root.determination, root.decider.id) == (
        "invalidated", Timestamp(7, 0), q2
    )
    paid = [t for t in settle(inst) if t.node_id == root.id]
    assert [(t.account, t.amount, t.reason) for t in paid] == [
        ("qa", 10, "stake paid to defeating question")
    ]


# -- mutated move logs ------------------------------------------------------------
# Each case edits fixtures/movelogs/full_run_claim_root.jsonl. A line that is
# not exactly the line the replaying instance records for its move has its
# payload hashed as read, and a tampered line reports the hash mismatch ahead
# of whatever else the tampering broke. The outcomes are pinned: replay
# accepts exactly these logs and reports exactly these errors.

_FULL_RUN = FIXTURE_DIR / "movelogs" / "full_run_claim_root.jsonl"


def _canonical_lines(records):
    return [oracles._canon(r) for r in records]


def _stale(edit):
    """Edit records, keeping the recorded payload hashes."""
    def mutate(records):
        edit(records)
        return _canonical_lines(records)
    return mutate


def _respaced(records):
    # spaces after separators and every object's keys in reverse order
    return [json.dumps(_reversed_keys(r)) for r in records]


def _reversed_keys(doc):
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in sorted(doc, reverse=True)}
    if isinstance(doc, list):
        return [_reversed_keys(v) for v in doc]
    return doc


def _with_subproof(rehash):
    """Give the first step of an answer chain the machine proof another
    answer posted for that statement. Posting strips it, so the posted
    payload hashes differently from the payload in the log."""
    def mutate(records):
        answer, machine = records[4], records[14]["payload"]["proof"]
        step = answer["payload"]["proof"]["steps"][0]
        assert step["statement"] == machine["target"]
        step["subproof"] = machine
        if rehash:
            answer["payload_hash"] = content_hash(answer["payload"])
        return _canonical_lines(records)
    return mutate


def _without(field, index):
    def mutate(records):
        del records[index][field]
        return _canonical_lines(records)
    return mutate


def _set(index, **fields):
    def mutate(records):
        records[index].update(fields)
        return _canonical_lines(records)
    return mutate


def _full_run_setup():
    cascade = ParameterCascade.from_json(
        json.loads((FIXTURE_DIR / "cascades" / "full_run_claim_root.json").read_text())
    )
    return cascade, {name: 10**6 for name in ("ann", "sam", "bea", "cat", "kim")}


def _replay_outcome(lines, cascade, balances):
    """The error that replaying `lines` raises, as its type and text, or the
    settled snapshot and the move log."""
    try:
        inst = replay(lines, cascade, balances=balances)
    except (ProtocolError, ParseError) as exc:
        return type(exc).__name__, str(exc)
    advance_clock(inst, inst.max_deadline())
    settle(inst)
    return inst.snapshot(), inst.move_log_lines()


def _at_answer(edit):
    """Edit the canonical text of line 3, bea's chain answering q2, given
    that text and its record."""
    def mutate(records):
        lines = _canonical_lines(records)
        lines[2] = edit(lines[2], records[2])
        return lines
    return mutate


def _junk_payload(record):
    """An answer payload with a machine proof of no steps for the target of
    `record`'s proof."""
    proof = record["payload"]["proof"]
    junk = {"kind": "machine_proof", "steps": [], "target": proof["target"]}
    return {"origin": record["payload"]["origin"], "proof": junk}


def _duplicate_proof_key(raw, record):
    # The later key wins, so the line posts the junk proof, hashed as such.
    junk = _junk_payload(record)
    raw = raw.replace(record["payload_hash"], content_hash(junk))
    head, tail = raw.split(',"payload_hash":')
    return f'{head[:-1]},"proof":{oracles._canon(junk["proof"])}}},"payload_hash":{tail}'


def _second_payload(raw, record):
    # The canonical line holds the proof, a later payload the junk proof.
    junk = _junk_payload(record)
    raw = raw.replace(record["payload_hash"], content_hash(junk))
    return f'{raw[:-1]},"payload":{oracles._canon(junk)}}}'


def _actor_last(raw, record):
    record["actor"] = record.pop("actor")
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False)


def _machine_proof_as_root_chain(records):
    records[0]["payload"] = {"chain": records[14]["payload"]["proof"]}
    records[0]["payload_hash"] = content_hash(records[0]["payload"])
    return _canonical_lines(records)


MUTATED_LOGS = [
    ("untouched", _canonical_lines, None),
    ("stale-hash", _stale(lambda r: r[1]["payload"].update(step=2)),
     (ProtocolError, "payload hash mismatch at seq 2")),
    ("stale-hash-no-such-step", _stale(lambda r: r[1]["payload"].update(step=99)),
     (ProtocolError, "payload hash mismatch at seq 2")),
    ("stale-hash-unknown-origin", _stale(lambda r: r[3]["payload"].update(origin="c99")),
     (ProtocolError, "payload hash mismatch at seq 4")),
    ("stale-hash-array-origin", _stale(lambda r: r[3]["payload"].update(origin=[1])),
     (ProtocolError, "payload hash mismatch at seq 4")),
    ("stale-hash-undecodable-proof",
     _stale(lambda r: r[2]["payload"]["proof"].update(junk=1)),
     (ProtocolError, "payload hash mismatch at seq 3")),
    ("stale-hash-integer-actor",
     _stale(lambda r: (r[1].update(actor=7), r[1]["payload"].update(step=2))),
     (ProtocolError, "payload hash mismatch at seq 2")),
    ("stale-hash-out-of-order",
     _stale(lambda r: (r[5].update(seq=9), r[5]["payload"].update(step=2))),
     (ProtocolError, "payload hash mismatch at seq 9")),
    ("respaced-and-shuffled", _respaced, None),
    ("extra-record-field", _set(6, note="unhashed"), None),
    ("subproofs-hashed-as-logged", _with_subproof(rehash=True), None),
    ("subproofs-hashed-as-posted", _with_subproof(rehash=False),
     (ProtocolError, "payload hash mismatch at seq 5")),
    ("missing-payload-hash", _without("payload_hash", 1), (ParseError, "move needs payload_hash")),
    ("missing-root-payload-hash", _without("payload_hash", 0),
     (ParseError, "move needs payload_hash")),
    ("integer-payload-hash", _set(2, payload_hash=5),
     (ProtocolError, "payload hash mismatch at seq 3")),
    ("duplicate-proof-key", _at_answer(_duplicate_proof_key),
     (ProtocolError, "machine claims cannot be questioned")),
    ("second-payload", _at_answer(_second_payload),
     (ProtocolError, "machine claims cannot be questioned")),
    ("respaced-proof", _at_answer(lambda raw, r: raw.replace(
        oracles._canon(r["payload"]["proof"]), json.dumps(r["payload"]["proof"]))), None),
    ("actor-last", _at_answer(_actor_last), None),
    ("wrong-payload-hash", _at_answer(lambda raw, r: raw.replace(r["payload_hash"], "0" * 64)),
     (ProtocolError, "payload hash mismatch at seq 3")),
    ("boolean-time", _at_answer(lambda raw, r: raw.replace('"time":2}', '"time":true}')),
     (ProtocolError, "time must be an integer, got True")),
    ("escaped-actor", _at_answer(lambda raw, r: raw.replace('"bea"', '"\\u0062ea"')), None),
    ("record-tag", _at_answer(lambda raw, r: raw.replace(',"seq":', ',"record":"move","seq":')),
     None),
    ("machine-proof-as-root-chain", _machine_proof_as_root_chain,
     (ParseError, "nested proof kind must be chain, got 'machine_proof'")),
]


@pytest.mark.parametrize(
    "mutate, expected", [case[1:] for case in MUTATED_LOGS], ids=[case[0] for case in MUTATED_LOGS]
)
def test_mutated_move_logs_are_accepted_or_rejected_as_pinned(mutate, expected):
    # Each log is replayed next to a live instance that posted the original
    # log's values, where decoding finds each formula and proof record in
    # the intern table, and again once they are dropped, where it builds
    # them. Both give the pinned outcome.
    cascade, balances = _full_run_setup()
    original = _FULL_RUN.read_text().splitlines()
    lines = mutate([json.loads(line) for line in original])
    live = replay(original, cascade, balances=balances)
    near = _replay_outcome(lines, cascade, balances)
    del live
    gc.collect()
    assert _replay_outcome(lines, cascade, balances) == near
    if expected is None:
        # the instance records each move as posted, in canonical form
        assert near[1] == original
        assert near == _replay_outcome(original, cascade, balances)
    else:
        error, message = expected
        assert near == (error.__name__, message)


# Every JSON type but a string, as a payload `origin`.
NON_STRING_ORIGINS = [[1], {"c": 1}, 1, 1.5, True, None]
NON_STRING_ORIGIN_IDS = ["array", "object", "integer", "number", "boolean", "null"]


@pytest.mark.parametrize("index, kind", [(1, "question"), (2, "answer claim")],
                         ids=["question", "answer-claim"])
@pytest.mark.parametrize("origin", NON_STRING_ORIGINS, ids=NON_STRING_ORIGIN_IDS)
def test_replay_line_reads_a_payload_origin_as_a_string(index, kind, origin):
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    lines = (FIXTURE_DIR / "movelogs" / "validated_root_claim.jsonl").read_text().splitlines()
    inst = replay(lines[:index], fx.instance.cascade, balances=fx.balances)
    before = inst.snapshot()
    record = json.loads(lines[index])
    stale_hash = record["payload_hash"]
    record["payload"]["origin"] = origin
    record["payload_hash"] = content_hash(record["payload"])
    with pytest.raises(ParseError) as caught:
        replay_line(inst, json.dumps(record), record)
    assert str(caught.value) == f"{kind} payload origin must be a string, got {origin!r}"
    # tampered with, the same line reports the hash first
    record["payload_hash"] = stale_hash
    with pytest.raises(ProtocolError) as caught:
        replay_line(inst, json.dumps(record), record)
    assert str(caught.value) == f"payload hash mismatch at seq {index + 1}"
    assert inst.snapshot() == before


@pytest.mark.parametrize("index", [True, 1.0], ids=["true", "float"])
def test_replay_line_rejects_a_premise_index_equal_to_a_live_twins(index):
    # The answer at line 8 concludes by `and_intro` from premises [1, 2].
    # With that proof alive, `[true, 2]` and `[1.0, 2]` must not decode to
    # it: they equal `(1, 2)` and hash as it does.
    fx = PROTOCOL_FIXTURES["invalidated_root_claim"]()
    lines = (FIXTURE_DIR / "movelogs" / "invalidated_root_claim.jsonl").read_text().splitlines()
    twin = replay(lines, fx.instance.cascade, balances=fx.balances)
    live = twin.claim("c8").proof
    assert live.steps[2].premises == (1, 2)
    inst = replay(lines[:7], fx.instance.cascade, balances=fx.balances)
    record = json.loads(lines[7])
    record["payload"]["proof"]["steps"][2]["premises"][0] = index
    record["payload_hash"] = content_hash(record["payload"])
    with pytest.raises(ParseError, match="premise indices must be nonzero integers"):
        replay_line(inst, json.dumps(record), record)
    assert twin.claim("c8").proof is live


# Any value a JSON document can hold, no lone surrogates (UTF-8 cannot hold
# one, and `parse_json` rejects its escape) and no NaN or infinities, with
# the move kinds and node ids among the strings so that a value can reach
# the decoders.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
    | st.sampled_from(["root_claim", "root_question", "question", "answer_claim", "c1", "q2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "origin", "step", "proof", "chain", "x"]), inner,
                      max_size=3),
    max_leaves=8,
)
FIXTURE_LOGS = sorted(PROTOCOL_FIXTURES)


def _fixture_records(name):
    lines = (FIXTURE_DIR / "movelogs" / f"{name}.jsonl").read_text().splitlines()
    return [json.loads(raw) for raw in lines]


def _replayed_prefix(name, n, mode):
    """The instance of fixture `name` after its first `n` logged moves."""
    fx = PROTOCOL_FIXTURES[name]()
    inst = ProtocolInstance(fx.instance.cascade, balances=fx.balances, mode=mode)
    for record in _fixture_records(name)[:n]:
        replay_line(inst, json.dumps(record), record)
    return inst


def _replays_or_names_the_fault(inst, record):
    try:
        replay_line(inst, json.dumps(record), record)
    except (ProtocolError, ParseError):
        pass


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIXTURE_LOGS), st.sampled_from([QUIESCENCE, EARLY_STOP]), st.data())
def test_replay_line_raises_only_protocol_or_parse_errors_on_a_mutated_record(name, mode, data):
    # A record of a fixture log, at its place in the log, with one field or
    # one payload field replaced by any JSON value, its payload hash
    # recomputed or not.
    records = _fixture_records(name)
    n = data.draw(st.integers(0, len(records) - 1))
    inst, record = _replayed_prefix(name, n, mode), records[n]
    fields = [("record", key) for key in record] + [("payload", key) for key in record["payload"]]
    where, key = data.draw(st.sampled_from(fields))
    (record if where == "record" else record["payload"])[key] = data.draw(JSON_VALUES)
    if isinstance(record.get("payload"), dict) and data.draw(st.booleans()):
        record["payload_hash"] = content_hash(record["payload"])
    _replays_or_names_the_fault(inst, record)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIXTURE_LOGS), st.integers(0, 1), st.data())
def test_replay_line_raises_only_protocol_or_parse_errors_on_any_json_record(name, n, data):
    # Any JSON value, or an object with the move fields set to any values,
    # to an instance with no root and to one after its root move.
    inst = _replayed_prefix(name, n, QUIESCENCE)
    fields = st.sampled_from(["payload", "kind", "actor", "time", "seq", "payload_hash"])
    record = data.draw(JSON_VALUES | st.dictionaries(fields, JSON_VALUES))
    _replays_or_names_the_fault(inst, record)


# -- randomized cross-checks ------------------------------------------------------

FUZZ_SEEDS = range(100)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_debates_match_the_declarative_oracle(seed):
    inst, horizon = oracles.random_debate(seed)
    balances = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}
    total = sum(balances.values())
    # The debate's own move log replays to the same state.
    twin = replay(inst.move_log_lines(), inst.cascade, balances=balances)
    assert twin.move_log_lines() == inst.move_log_lines()
    advance_clock(inst, horizon)
    advance_clock(twin, horizon)
    assert twin.snapshot() == inst.snapshot()
    assert oracles.observed_statuses(inst) == oracles.brute_force_statuses(inst, horizon)
    assert oracles.stored_deadlines(inst) == oracles.deadlines(inst)
    assert inst.ledger.total() == total
    expected = oracles.settlement_routes(inst)
    assert _routes(settle(inst)) == expected
    assert inst.ledger.total() == total
    assert not inst.ledger.escrowed
    assert _routes(settle(twin)) == expected
    assert twin.snapshot() == inst.snapshot()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_debates_match_the_declarative_oracle_after_every_move(seed):
    inst, _ = oracles.random_debate(seed)
    lines = inst.move_log_lines()
    balances = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}
    for n in range(1, len(lines) + 1):
        twin = replay(lines[:n], inst.cascade, balances=balances)
        assert oracles.observed_statuses(twin) == oracles.brute_force_statuses(twin, twin.clock)
        assert list(twin.open_nodes()) == oracles.scan_open_nodes(twin)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_debates_match_the_declarative_oracle_in_early_stop_mode(seed):
    inst, horizon = oracles.random_debate(seed)
    lines = inst.move_log_lines()
    balances = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}

    def matches_the_oracle(twin):
        now = twin.stopped_at.time if twin.stopped_at else twin.clock
        return oracles.observed_statuses(twin) == oracles.brute_force_statuses(twin, now)

    for n in range(1, len(lines) + 1):
        try:
            twin = replay(lines[:n], inst.cascade, balances=balances, mode=EARLY_STOP)
        except ProtocolError as exc:
            assert "interaction ended" in str(exc)
            break
        assert matches_the_oracle(twin)
    advance_clock(twin, horizon)
    assert twin.stopped_at is not None
    assert matches_the_oracle(twin)
    assert advance_clock(twin, horizon + 1) == []
    expected = oracles.settlement_routes(twin)
    assert _routes(settle(twin)) == expected


def test_2000_random_debates_match_the_declarative_oracle():
    # One test over many small debates: seed 247 is one where an
    # earlier-posted question dies later in the instant than its sibling.
    for seed in range(2000):
        inst, horizon = oracles.random_debate(seed)
        advance_clock(inst, horizon)
        observed = oracles.observed_statuses(inst)
        assert observed == oracles.brute_force_statuses(inst, horizon), seed
        expected = oracles.settlement_routes(inst)
        assert _routes(settle(inst)) == expected, seed


@pytest.mark.parametrize("seed", range(0, 100, 7))
def test_tick_by_tick_resolution_equals_jumping(seed):
    inst, horizon = oracles.random_debate(seed)
    balances = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}
    lines = inst.move_log_lines()
    stepper = replay(lines, inst.cascade, balances=balances)
    jumper = replay(lines, inst.cascade, balances=balances)
    for t in range(stepper.clock, horizon + 1):
        advance_clock(stepper, t)
    advance_clock(jumper, horizon)
    assert stepper.snapshot() == jumper.snapshot()


def _debate_moves(case):
    """(move-log lines, cascade, balances, horizon) of a fixture, by name,
    or of a random debate, by seed."""
    if isinstance(case, str):
        fx = PROTOCOL_FIXTURES[case]()
        horizon = max(fx.final_time, fx.instance.max_deadline())
        return fx.instance.move_log_lines(), fx.instance.cascade, fx.balances, horizon
    inst, horizon = oracles.random_debate(case)
    balances = {"ava": 150, "bo": 150, "cy": 150, "dot": 150}
    return inst.move_log_lines(), inst.cascade, balances, horizon


@pytest.mark.parametrize("mode", [QUIESCENCE, EARLY_STOP])
@pytest.mark.parametrize("case", [*sorted(PROTOCOL_FIXTURES), *range(0, 100, 7)], ids=str)
def test_resolve_with_no_window_due_or_after_a_stop_changes_nothing(case, mode):
    # Replayed one tick at a time: after each tick's moves, either the game
    # has stopped early or no window is due at the clock, and then
    # `resolve()` returns [] and changes nothing; once the game has stopped,
    # no later tick commits anything either.
    stopped, determined = None, []
    for inst, changed in _replay_by_tick(*_debate_moves(case), mode):
        if stopped is not None:
            assert changed == [] and _commit_order(inst) == determined
            assert inst.stopped_at == stopped
        due = any(node.deadline <= inst.clock for node in inst.open_nodes())
        assert inst.stopped_at is not None or not due
        before = (inst.snapshot(), _commit_order(inst), inst.stopped_at)
        assert inst.resolve() == []
        assert (inst.snapshot(), _commit_order(inst), inst.stopped_at) == before
        stopped, determined = inst.stopped_at, _commit_order(inst)


def _commit_order(inst):
    """Each determined node as `resolve` returns it, (id, status,
    determination), sorted by (determination, posted_at)."""
    determined = [n for n in inst.nodes.values() if n.determination is not None]
    determined.sort(key=lambda n: (n.determination, n.posted_at))
    return [(n.id, n.status, n.determination) for n in determined]


@pytest.fixture
def commits(monkeypatch):
    """Every return value of `ProtocolInstance.resolve`, `apply`'s own
    calls included, concatenated per instance; after each call the
    concatenation must equal the instance's `_commit_order`."""
    returned = weakref.WeakKeyDictionary()
    resolve = ProtocolInstance.resolve

    def recorded(self):
        changed = resolve(self)
        returned.setdefault(self, []).extend(changed)
        assert returned[self] == _commit_order(self)
        return changed

    monkeypatch.setattr(ProtocolInstance, "resolve", recorded)
    return returned


def _replay_by_tick(lines, cascade, balances, horizon, mode):
    """Replay `lines` one tick at a time up to `horizon`: each tick's moves,
    then `advance_clock` to it, yielding the instance and what that returned.
    After an early stop the refused rest of the log is dropped."""
    inst = ProtocolInstance(cascade, balances=balances, mode=mode)
    records = [json.loads(line) for line in lines]
    for t in range(horizon + 1):
        while records and records[0]["time"] == t:
            record = records.pop(0)
            try:
                replay_line(inst, json.dumps(record), record)
            except ProtocolError as exc:
                assert inst.stopped_at is not None and "interaction ended" in str(exc)
                records.clear()
        yield inst, inst.advance_clock(t)
    assert not records


def test_resolve_commits_in_determination_then_posting_order_on_random_debates(commits):
    for seed in range(2000):
        lines, cascade, balances, horizon = _debate_moves(seed)
        for mode in (QUIESCENCE, EARLY_STOP):
            *_, (inst, _) = _replay_by_tick(lines, cascade, balances, horizon, mode)
            assert commits[inst] and commits[inst] == _commit_order(inst), (seed, mode)


@pytest.mark.parametrize("mode", [QUIESCENCE, EARLY_STOP])
@pytest.mark.parametrize("name", sorted(PROTOCOL_FIXTURES))
def test_resolve_commits_in_determination_then_posting_order_on_the_fixtures(
    commits, name, mode
):
    lines = (FIXTURE_DIR / "movelogs" / f"{name}.jsonl").read_text().splitlines()
    cascade = ParameterCascade.from_json(
        json.loads((FIXTURE_DIR / "cascades" / f"{name}.json").read_text())
    )
    fx = PROTOCOL_FIXTURES[name]()
    horizon = max(fx.final_time, fx.instance.max_deadline())
    *_, (inst, _) = _replay_by_tick(lines, cascade, fx.balances, horizon, mode)
    settle(inst)
    assert commits[inst] and commits[inst] == _commit_order(inst)


@pytest.mark.parametrize("mode", [QUIESCENCE, EARLY_STOP])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_resolve_commits_in_determination_then_posting_order_on_the_presets(
    commits, name, seed, mode
):
    config = scenario_from_json(preset_scenario(name))
    config.seed, config.mode = seed, mode
    trace = run_scenario(config)
    inst = trace.instance
    assert commits[inst] and commits[inst] == _commit_order(inst)
    events = [json.loads(line) for line in trace.to_json_lines()]
    assert [
        (e["node"], e["status"], Timestamp(*e["determination"]))
        for e in events if e["record"] == "event"
    ] == commits[inst]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=10_000, max_value=1_000_000))
def test_conservation_holds_at_every_tick(seed):
    inst, horizon = oracles.random_debate(seed)
    total = 600
    twin = replay(
        inst.move_log_lines(), inst.cascade,
        balances={"ava": 150, "bo": 150, "cy": 150, "dot": 150},
    )
    for t in range(twin.clock, horizon + 1):
        advance_clock(twin, t)
        assert twin.ledger.total() == total


# -- module-level wrappers ---------------------------------------------------------


def test_functional_wrappers_mirror_the_methods():
    inst = fresh_claim_root()
    q = inst.post_question("quin", inst.root_id, 1, 1)
    c = inst.post_answer_claim("zed", q, identity_chain(IDENT), 2)
    assert inst.question(q).id == q
    assert inst.claim(c).id == c
    advance_clock(inst, inst.max_deadline())
    transfers = settle(inst)
    assert transfers  # at least the root deposit comes home


def test_create_root_question_defaults():
    cascade = tiny_cascade(2)
    inst = create_root_question("quin", IDENT, cascade, 0)
    assert inst.ledger.balance("quin") == 0
    assert inst.ledger.escrowed[inst.root_id] == cascade.bounty(2)
    node = inst.question(inst.root_id)
    assert node.level == 2 and node.step_index is None
