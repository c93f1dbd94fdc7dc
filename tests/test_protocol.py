"""Engine tests: posting rules, windows, resolution, settlement, replay.

The six scripted fixtures in sprig.scenarios carry frozen expectations
(status and determination time per node, net payoff per account); the tests
here replay them from disk too, so the movelog files and the builders are
pinned to each other.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sprig.formulas import Statement, atom, conj, content_hash
from sprig.proofs import ChainStep, InferenceStep, MachineProof, ProofChain
from sprig.protocol import (
    EARLY_STOP,
    LevelParameters,
    MachineParameters,
    ParameterCascade,
    PENDING,
    ProtocolError,
    ProtocolInstance,
    Timestamp,
    advance_clock,
    create_root_claim,
    create_root_question,
    post_answer_claim,
    post_question,
    replay,
    resolve,
    settle,
)
from sprig.scenarios import PROTOCOL_FIXTURES, identity_chain

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
    round_trip = ParameterCascade.from_json(json.loads(json.dumps(cascade.to_json())))
    assert round_trip == cascade


def test_timestamp_ordering_and_rendering():
    assert Timestamp(3, 1) < Timestamp(3, 2) < Timestamp(4, 0)
    assert str(Timestamp(7, 2)) == "7.2"
    assert Timestamp(7, 2).to_json() == [7, 2]


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
    assert len(inst.moves) == 1


def test_question_window_closes_at_the_deadline():
    inst = fresh_claim_root()
    deadline = inst.claim_deadline(inst.claim(inst.root_id))
    late = fresh_claim_root()
    with pytest.raises(ProtocolError, match="window closed"):
        late.post_question("quin", late.root_id, 1, deadline)
    ontime = fresh_claim_root()
    ontime.post_question("quin", ontime.root_id, 1, deadline - 1)


def test_answer_window_closes_at_the_deadline():
    inst = fresh_claim_root()
    q = inst.post_question("quin", inst.root_id, 1, 1)
    deadline = inst.question_deadline(inst.question(q))
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


def test_duplicate_questions_are_legal():
    inst = fresh_claim_root()
    a = inst.post_question("quin", inst.root_id, 1, 1)
    b = inst.post_question("quin", inst.root_id, 1, 1)
    assert a != b
    assert [q.id for q in inst.questions_on(inst.root_id)] == [a, b]


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
    with pytest.raises(ProtocolError, match="backwards"):
        advance_clock(inst, 2)
    with pytest.raises(ProtocolError, match="backwards"):
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
    assert inst.clock == 0 and len(inst.moves) == 1


def test_resolve_is_idempotent():
    inst = fresh_claim_root()
    fresh = advance_clock(inst, inst.max_deadline())
    assert [st for _, st, _ in fresh] == ["validated"]
    assert resolve(inst) == []
    assert inst.claim(inst.root_id).status == "validated"


def test_statuses_are_committed_only_at_the_clock():
    inst = fresh_claim_root()
    with pytest.raises(TypeError):
        resolve(inst, 10)  # no look-ahead: the clock is the only time
    # Legal while the root's window is open; left unanswered when its own
    # window closes at 4, the question defeats the root.
    post_question(inst, "quin", inst.root_id, 1, 1)
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
    q1 = post_question(inst, "quin", inst.root_id, 1, 1)
    q2 = post_question(inst, "quin", inst.root_id, 2, 1)
    c = post_answer_claim(inst, "zed", q2, identity_chain(IDENT), 2)
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
        q = post_question(inst, "quin", inst.root_id, j, 1)
        c = post_answer_claim(inst, "amy", q, wide, 1)
        for i in range(1, k + 1):
            open_leaves.append(post_question(inst, "quin", c, i, 1))
    for q in open_leaves[:-1]:
        post_answer_claim(inst, "amy", q, machine_answer(IDENT), 1)
    assert len(inst.nodes) == 2 * k * k + 2 * k  # all but the last leaf

    calls = []
    decide = ProtocolInstance._decide

    def counted(self, node, instant):
        calls.append(node.id)
        return decide(self, node, instant)

    monkeypatch.setattr(ProtocolInstance, "_decide", counted)
    now = 2
    expired = sum(inst.clock < inst._deadline(n) <= now for n in inst.nodes.values())
    leaf = post_answer_claim(inst, "amy", open_leaves[-1], machine_answer(IDENT), now)
    depth, node = 0, inst.nodes[leaf]
    while node.origin is not None:
        depth, node = depth + 1, inst.nodes[node.origin]
    assert (depth, expired) == (4, 0)
    assert len(calls) <= depth + expired
    assert inst.nodes[open_leaves[-1]].status == "answered"


# -- the six scripted fixtures ----------------------------------------------------


@pytest.fixture(params=sorted(PROTOCOL_FIXTURES), name="fx")
def _fx(request):
    return PROTOCOL_FIXTURES[request.param]()


def test_fixture_statuses_and_determinations(fx):
    inst = fx.instance
    advance_clock(inst, fx.final_time)
    for label, (status, det_time) in fx.expected.items():
        node = inst.nodes[fx.node(label)]
        assert node.status == status, f"{fx.name}:{label}"
        if status == PENDING:
            assert node.determination is None
        else:
            assert node.determination.time == det_time, f"{fx.name}:{label}"


def test_fixture_payoffs_and_conservation(fx):
    inst = fx.instance
    total_before = inst.conservation_total()
    assert total_before == sum(fx.balances.values())
    advance_clock(inst, fx.final_time)
    settle(inst)
    assert inst.conservation_total() == total_before
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
    lvl1 = fx.cascade.levels[1]
    assert by_node[fx.node("root")] == [
        ("ann", fx.cascade.levels[2].stake_down, "stake returned")
    ]
    assert by_node[fx.node("c_b")] == [
        ("bea", lvl1.stake_up + lvl1.stake_down, "stake returned")
    ]
    assert by_node[fx.node("c_a")] == [
        ("sam", lvl1.stake_up, "stake forfeited to questioner"),
        ("sam", lvl1.stake_down, "stake paid to defeating question"),
    ]
    assert by_node[fx.node("q1")] == [("bea", lvl1.bounty, "bounty paid to answer")]
    machine_bounty = fx.cascade.machine.bounty
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


def test_fixture_movelogs_on_disk_match_the_builders(fx):
    recorded = (FIXTURE_DIR / "movelogs" / f"{fx.name}.jsonl").read_text().splitlines()
    assert recorded == fx.instance.move_log_lines()
    cascade_doc = json.loads((FIXTURE_DIR / "cascades" / f"{fx.name}.json").read_text())
    assert cascade_doc == fx.cascade.to_json()


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


def _reference_payload(inst, move):
    """The payload of `move`, rebuilt through `to_json` from the node it
    posted: the reference the composed payload text must encode."""
    [node] = [n for n in inst.nodes.values() if n.posted_at.seq == move.seq]
    if move.kind == "root_claim":
        return {"chain": node.proof.to_json()}
    if move.kind == "root_question":
        return {"statement": node.statement.to_json()}
    if move.kind == "question":
        return {"origin": node.origin, "step": node.step_index}
    return {"origin": node.origin, "proof": node.proof.to_json()}


@pytest.mark.parametrize("seed", [None, *range(0, 100, 9)])
def test_moves_keep_the_one_encoding_of_their_payload(seed):
    inst = _odd_actor_debate() if seed is None else oracles.random_debate(seed)[0]
    records = []
    for move in inst.moves:
        payload = _reference_payload(inst, move)
        assert move.payload_json == oracles._canon(payload)
        assert move.payload_hash == content_hash(payload)
        records.append(
            {"actor": move.actor, "kind": move.kind, "payload": payload,
             "payload_hash": move.payload_hash, "seq": move.seq, "time": move.time}
        )
    assert inst.move_log_lines() == [oracles._canon(r) for r in records]
    assert [m.line(record="move") for m in inst.moves] == [
        oracles._canon({"record": "move", **r}) for r in records
    ]
    snapshot = json.loads(inst.snapshot())
    for node in inst.claims():
        assert snapshot["nodes"][node.id]["proof"] == content_hash(node.proof.to_json())


def test_replay_rejects_tampered_payloads():
    fx = PROTOCOL_FIXTURES["validated_root_claim"]()
    lines = fx.instance.move_log_lines()
    record = json.loads(lines[1])
    record["payload"]["step"] = 2
    lines[1] = json.dumps(record)
    with pytest.raises(ProtocolError, match="payload hash mismatch at seq 2"):
        replay(lines, fx.cascade, balances=fx.balances)


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
        replay([], fx.cascade)
    lines = fx.instance.move_log_lines()
    with pytest.raises(ProtocolError, match="must start with a root move"):
        replay(lines[1:], fx.cascade, balances=fx.balances)


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


MUTATED_LOGS = [
    ("untouched", _canonical_lines, None),
    ("stale-hash", _stale(lambda r: r[1]["payload"].update(step=2)),
     (ProtocolError, "payload hash mismatch at seq 2")),
    ("stale-hash-no-such-step", _stale(lambda r: r[1]["payload"].update(step=99)),
     (ProtocolError, "payload hash mismatch at seq 2")),
    ("stale-hash-unknown-origin", _stale(lambda r: r[3]["payload"].update(origin="c99")),
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
    ("missing-payload-hash", _without("payload_hash", 1), (KeyError, "'payload_hash'")),
    ("missing-root-payload-hash", _without("payload_hash", 0), (KeyError, "'payload_hash'")),
    ("integer-payload-hash", _set(2, payload_hash=5),
     (ProtocolError, "payload hash mismatch at seq 3")),
]


@pytest.mark.parametrize(
    "mutate, expected", [case[1:] for case in MUTATED_LOGS], ids=[case[0] for case in MUTATED_LOGS]
)
def test_mutated_move_logs_are_accepted_or_rejected_as_pinned(mutate, expected):
    cascade = ParameterCascade.from_json(
        json.loads((FIXTURE_DIR / "cascades" / "full_run_claim_root.json").read_text())
    )
    balances = {name: 10**6 for name in ("ann", "sam", "bea", "cat", "kim")}
    original = _FULL_RUN.read_text().splitlines()
    lines = mutate([json.loads(line) for line in original])
    if expected is None:
        twin = replay(lines, cascade, balances=balances)
        # the instance records each move as posted, in canonical form
        assert twin.move_log_lines() == original
        reference = replay(original, cascade, balances=balances)
        for inst in (twin, reference):
            advance_clock(inst, inst.max_deadline())
            settle(inst)
        assert twin.snapshot() == reference.snapshot()
        return
    error, message = expected
    with pytest.raises(error) as caught:
        replay(lines, cascade, balances=balances)
    assert type(caught.value) is error and str(caught.value) == message


# -- randomized cross-checks ------------------------------------------------------

FUZZ_SEEDS = range(100)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_debates_match_the_declarative_oracle(seed):
    inst, horizon = oracles.random_debate(seed)
    total = sum({"ava": 150, "bo": 150, "cy": 150, "dot": 150}.values())
    advance_clock(inst, horizon)
    assert oracles.observed_statuses(inst) == oracles.brute_force_statuses(inst, horizon)
    assert inst.conservation_total() == total
    settle(inst)
    assert inst.conservation_total() == total
    assert not inst.ledger.escrowed


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
        assert twin.conservation_total() == total


# -- module-level wrappers ---------------------------------------------------------


def test_functional_wrappers_mirror_the_methods():
    inst = fresh_claim_root()
    q = post_question(inst, "quin", inst.root_id, 1, 1)
    c = post_answer_claim(inst, "zed", q, identity_chain(IDENT), 2)
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
