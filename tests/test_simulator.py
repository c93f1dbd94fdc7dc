"""Agent simulation tests, mostly pinned against the nine shipped presets."""

import hashlib
import json
import random

import pytest

from sprig.formulas import Statement, atom
from sprig.proofs import InferenceStep, MachineProof, ProofChain
from sprig.protocol import (
    LevelParameters,
    MachineParameters,
    ParameterCascade,
    create_root_claim,
)
from sprig.scenarios import (
    PRESET_NAMES,
    flat_tree,
    identity_chain,
    infinite_primes,
    preset_scenario,
    rotten_tree,
    scenario_from_json,
    solid_tree,
)
from sprig.simulator import (
    MAX_RUN_TICKS,
    AgentContext,
    AgentSpec,
    AnswerIntent,
    CarpetBomber,
    IdleStrategy,
    Misleader,
    Plagiarist,
    QuestionIntent,
    Sandbagger,
    ScenarioConfig,
    ScriptedStrategy,
    Knowledge,
    build_knowledge,
    pad_chain,
    run_scenario,
)
from sprig.verifier import ScriptedVerifier, ToyVerifier


def run_preset(name):
    return run_scenario(scenario_from_json(preset_scenario(name)))


# (root status, determination, burned, final clock, payoffs per agent)
PRESET_OUTCOMES = {
    "happy_path": ("validated", "4.0", 0, 8, {"alice": 0}),
    "invalid_leaf": ("invalidated", "5.0", 0, 20, {"alice": -20, "kate": 20}),
    "carpet_bomber": ("validated", "4.0", 4, 25, {"alice": 0, "bomber": -22, "carol": 18}),
    "nitpicker": ("validated", "5.0", 1, 25, {"alice": 7, "nick": -8}),
    "evasive_prover": ("validated", "5.0", 1, 25, {"alice": 7, "nick": -8}),
    "sandbagger": ("unanswered", "6.0", 0, 30, {"kate": 36, "org": 12, "sandy": -48}),
    "misleader_immediate": ("invalidated", "5.0", 0, 25, {"mia": 0}),
    "misleader_deadline": ("invalidated", "8.0", 0, 25, {"mia": 0}),
    "plagiarist_defense": ("validated", "4.0", 2, 25, {"alice": 3, "bob": -5, "charlie": 0}),
}


def test_preset_catalogue_is_exactly_the_frozen_table():
    assert sorted(PRESET_OUTCOMES) == sorted(PRESET_NAMES)


@pytest.mark.parametrize("name", sorted(PRESET_OUTCOMES))
def test_preset_outcomes(name):
    status, det, burned, clock, payoffs = PRESET_OUTCOMES[name]
    trace = run_preset(name)
    root = trace.instance.nodes[trace.instance.root_id]
    assert (root.status, str(root.determination)) == (status, det)
    assert trace.burned == burned
    assert trace.final_clock == clock
    assert trace.payoffs == payoffs
    assert sum(trace.payoffs.values()) == -trace.burned


@pytest.mark.parametrize("name", sorted(PRESET_OUTCOMES))
def test_preset_runs_replay_cleanly(name):
    run_preset(name).verify_replay()


@pytest.mark.parametrize("name", ["carpet_bomber", "sandbagger", "plagiarist_defense"])
def test_preset_runs_are_deterministic(name):
    assert run_preset(name).to_json_lines() == run_preset(name).to_json_lines()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_agent_context_queries_agree_with_a_rescan_of_the_tree(name):
    inst = run_preset(name).instance
    owners = sorted({n.owner for n in inst.nodes.values()} | {"nobody"})
    for me in owners:
        ctx = AgentContext(inst, me, Knowledge(), inst.clock, random.Random(0))
        for q in inst.questions() + [None]:
            qid = q.id if q else "q999"
            mine = [c for c in inst.answers_to(qid) if c.owner == me] if q else []
            assert (ctx.answered_by_me(qid), ctx.my_answers(qid)) == (bool(mine), len(mine))
        for c in inst.claims() + [None]:
            cid = c.id if c else "c999"
            mine = [q for q in inst.questions_on(cid) if q.owner == me] if c else []
            assert ctx.questioned_by_me(cid) == bool(mine)
            for step in range(1, (len(c.proof.steps) if c else 0) + 2):
                assert ctx.questioned_by_me(cid, step) == any(q.step_index == step for q in mine)


def test_payoffs_sum_to_minus_the_burn():
    trace = run_preset("nitpicker")
    assert sum(trace.payoffs.values()) == -trace.burned


def test_attacks_lose_money_and_defenders_profit():
    assert run_preset("carpet_bomber").payoffs["bomber"] < 0
    assert run_preset("sandbagger").payoffs["sandy"] < 0
    evasive = run_preset("evasive_prover").payoffs
    assert evasive["nick"] < 0 < evasive["alice"]


def test_plagiarist_is_beaten_to_the_bounty():
    trace = run_preset("plagiarist_defense")
    inst = trace.instance
    question = next(q for q in inst.questions() if q.owner == "bob")
    answers = sorted(inst.answers_to(question.id), key=lambda c: c.posted_at)
    copied, original = answers[0], answers[1]
    assert copied.owner == "charlie" and original.owner == "alice"
    assert copied.status == original.status == "validated"
    # the defender's answer lands first, so the stolen proof earns nothing
    assert original.determination < copied.determination
    bounty = [t for t in trace.transfers if t.node_id == question.id]
    assert [(t.account, t.reason) for t in bounty] == [("alice", "bounty paid to answer")]


def test_plagiarist_copies_the_first_proof_posted_for_a_statement():
    p = atom("p")
    ident = Statement(conclusion=p, assumptions=frozenset({p}), context="demo")
    levels = {
        level: LevelParameters(max_length=120, stake_up=4 * (level == 1), stake_down=6,
                               verification_time=4, bounty=5, response_time=3)
        for level in (1, 2)
    }
    cascade = ParameterCascade(root_level=2, levels=levels, machine=MachineParameters(
        max_length=80, stake_up=2, burn_cost=1, bounty=3, response_time=2))
    inst = create_root_claim("amy", ident, identity_chain(ident), cascade, 0,
                             balances={name: 100 for name in ("amy", "quin", "ann", "ben", "pla")})
    asked = [inst.post_question("quin", inst.root_id, 1, 1) for _ in range(2)]
    plagiarist = Plagiarist()

    def copies():
        ctx = AgentContext(inst, "pla", Knowledge(), inst.clock, random.Random(0))
        return {i.origin: i.proof for i in plagiarist.decide(ctx)}

    chain = inst.claim(inst.post_answer_claim("ann", asked[0], identity_chain(ident), 1)).proof
    assert copies() == dict.fromkeys(asked, chain)
    # a later proof of the same statement does not displace the first one seen
    machine = MachineProof(target=ident, steps=(InferenceStep(p, "assumption"),))
    inst.post_answer_claim("ben", asked[0], machine, 2)  # and answers the first question
    assert copies() == {asked[1]: chain}


def test_a_plagiarist_reused_for_a_second_run_starts_reading_afresh():
    config = scenario_from_json(preset_scenario("plagiarist_defense"))
    assert run_scenario(config).to_json_lines() == run_scenario(config).to_json_lines()


def test_misleader_variants_differ_only_in_timing():
    immediate = run_preset("misleader_immediate")
    deadline = run_preset("misleader_deadline")
    shape = lambda tr: [
        (json.loads(m)["kind"], json.loads(m)["seq"]) for m in tr.move_lines
    ]
    assert shape(immediate) == shape(deadline)
    times = lambda tr: [json.loads(m)["time"] for m in tr.move_lines]
    assert times(immediate) == [0, 0, 0, 1]
    # the deadline variant answers its own question one tick before it expires
    assert times(deadline) == [0, 0, 3, 4]
    assert immediate.payoffs == deadline.payoffs == {"mia": 0}


# -- knowledge and padding -------------------------------------------------------


def test_knowledge_marks_undefendable_branches_dubious():
    solid = build_knowledge(solid_tree())
    assert not solid.dubious
    assert all(solid.truth.values())

    tree = rotten_tree()
    rotten = build_knowledge(tree)
    weak_step = tree.steps[1].statement
    inner_gap = tree.steps[1].subproof.steps[1].statement
    assert inner_gap.hash() in rotten.dubious
    assert weak_step.hash() in rotten.dubious
    assert tree.target.hash() in rotten.dubious
    sound_step = tree.steps[0].statement
    assert rotten.truth[sound_step.hash()]
    # the weak statement still has a chain to post (it restates itself one
    # level down), but no bottom-level proof: it can stall, not win
    assert rotten.can_answer(weak_step, 1)
    assert not rotten.can_answer(weak_step, 0)
    assert rotten.can_answer(tree.target, 1)


def test_build_knowledge_of_nothing_is_empty():
    know = build_knowledge(None)
    assert not know.answers and not know.machine_proofs
    assert not know.can_answer(Statement(conclusion=atom("p")), 1)


def test_pad_chain_prepends_defendable_decoys():
    tree = flat_tree()
    padded, proofs = pad_chain(tree, 2)
    assert len(padded.steps) == len(tree.steps) + 2
    for decoy in padded.steps[:2]:
        assert decoy.statement.conclusion in decoy.statement.assumptions
        verdict = ToyVerifier().verdict(decoy.statement, proofs[decoy.statement.hash()])
        assert verdict.validated
    # imports into the original steps shift past the decoys
    originals = padded.steps[2:]
    for before, after in zip(tree.steps, originals):
        assert after.imports == tuple(i + 2 for i in before.imports)
    assert padded.target == tree.target


def test_pad_chain_skips_assumption_free_targets():
    tree = infinite_primes()
    padded, proofs = pad_chain(tree, 3)
    assert padded is tree and proofs == {}


# -- strategy construction ---------------------------------------------------------


def _strategy_from_json(kind, **params):
    doc = preset_scenario("happy_path")
    doc["agents"][0]["strategy"] = {"kind": kind, "params": params}
    return scenario_from_json(doc).agents[0].strategy


def test_attack_factory_builds_each_kind():
    assert isinstance(_strategy_from_json("carpet_bomber"), CarpetBomber)
    sandbagger = _strategy_from_json("sandbagger", copies=3)
    assert isinstance(sandbagger, Sandbagger) and sandbagger.copies == 3
    misleader = _strategy_from_json("misleader", variant="deadline")
    assert isinstance(misleader, Misleader) and misleader.variant == "deadline"
    assert isinstance(_strategy_from_json("plagiarist"), Plagiarist)
    with pytest.raises(ValueError, match="impatient_prover"):
        _strategy_from_json("impatient_prover")
    with pytest.raises(ValueError) as caught:
        _strategy_from_json("plagiarist", mirror_questions=True)
    assert str(caught.value) == (
        "unknown plagiarist params of agent 'alice' fields ['mirror_questions']"
    )


def test_boolean_strategy_params_must_be_booleans():
    for kind in ("honest_claimer", "honest_defender"):
        for flag in ("defend_others", "machine_first"):
            for value in (True, False):
                assert getattr(_strategy_from_json(kind, **{flag: value}), flag) is value
            for value, shown in ((1, "1"), ("no", "'no'"), (None, "None")):
                with pytest.raises(ValueError) as caught:
                    _strategy_from_json(kind, **{flag: value})
                assert str(caught.value) == f"{flag} must be a boolean, got {shown}"


def _tiny_cascade():
    return ParameterCascade(
        root_level=1,
        levels={1: LevelParameters(120, 0, 6, 4, 5, 4)},
        machine=MachineParameters(80, 2, 1, 3, 4),
    )


def test_scripted_strategy_fires_at_its_cue():
    tree = flat_tree()
    config = ScenarioConfig(
        cascade=_tiny_cascade(),
        agents=[
            AgentSpec("amy", 100, IdleStrategy(), tree=tree),
            AgentSpec("quin", 100, ScriptedStrategy([(2, QuestionIntent("c1", 1))])),
        ],
        root_owner="amy",
        horizon=12,
        root_tree=tree,
    )
    trace = run_scenario(config)
    moves = [json.loads(m) for m in trace.move_lines]
    assert [(m["kind"], m["time"], m["actor"]) for m in moves] == [
        ("root_claim", 0, "amy"),
        ("question", 2, "quin"),
    ]
    # nobody answers, the decoy question defeats the idle owner's root
    root = trace.instance.nodes["c1"]
    assert root.status == "invalidated"


def test_rejected_intents_are_logged_and_harmless():
    tree = flat_tree()
    config = ScenarioConfig(
        cascade=_tiny_cascade(),
        agents=[
            AgentSpec("amy", 100, IdleStrategy(), tree=tree),
            AgentSpec("quin", 100, ScriptedStrategy([(1, QuestionIntent("c1", 99))])),
        ],
        root_owner="amy",
        horizon=10,
        root_tree=tree,
    )
    trace = run_scenario(config)
    assert trace.metrics["rejections"] == 1
    rejection = trace.rejections[0]
    assert rejection.actor == "quin"
    assert "no such step" in rejection.reason
    assert trace.instance.nodes["c1"].status == "validated"


def test_scenario_config_validation():
    tree = flat_tree()
    agents = [AgentSpec("amy", 100, IdleStrategy())]
    with pytest.raises(ValueError, match="duplicate agent names"):
        ScenarioConfig(
            cascade=_tiny_cascade(),
            agents=agents + [AgentSpec("amy", 1, IdleStrategy())],
            root_owner="amy",
            horizon=5,
            root_tree=tree,
        )
    with pytest.raises(ValueError, match="root owner"):
        ScenarioConfig(
            cascade=_tiny_cascade(), agents=agents, root_owner="ghost",
            horizon=5, root_tree=tree,
        )
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioConfig(
            cascade=_tiny_cascade(), agents=agents, root_owner="amy",
            horizon=5, root_tree=tree, root_statement=tree.target,
        )
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioConfig(cascade=_tiny_cascade(), agents=agents, root_owner="amy", horizon=5)


def test_a_scenario_spans_at_most_max_run_ticks():
    def config(root_time, horizon):
        return ScenarioConfig(
            cascade=_tiny_cascade(), agents=[AgentSpec("amy", 100, IdleStrategy())],
            root_owner="amy", horizon=horizon, root_tree=flat_tree(), root_time=root_time,
        )

    # Built, not run: a run of the full span polls for seconds.
    for root_time in (0, 7):
        config(root_time, root_time + MAX_RUN_TICKS)
        with pytest.raises(ValueError) as caught:
            config(root_time, root_time + MAX_RUN_TICKS + 1)
        assert str(caught.value) == (
            f"horizon {root_time + MAX_RUN_TICKS + 1} is more than {MAX_RUN_TICKS} "
            f"ticks after root time {root_time}"
        )
    config(10**12, 5)  # a horizon before the root move: a run of no ticks
    doc = preset_scenario("happy_path")
    doc["horizon"] = 10**12
    with pytest.raises(ValueError, match="is more than"):
        scenario_from_json(doc)


def test_scenario_json_builds_a_scripted_verifier():
    doc = preset_scenario("happy_path")
    doc["verifier"] = {"kind": "scripted", "tree": "solid", "overrides": {"1": False}}
    config = scenario_from_json(doc)
    assert isinstance(config.verifier, ScriptedVerifier)
    tree = solid_tree()
    honest = build_knowledge(tree)
    flagged = tree.steps[0].statement
    dummy = MachineProof(target=flagged)
    assert honest.truth[flagged.hash()]  # ground truth says sound
    assert not config.verifier.verdict(flagged, dummy).validated  # override wins
    assert config.verifier.verdict(tree.target, dummy).validated


def test_evasive_prover_posts_padded_answers():
    trace = run_preset("evasive_prover")
    inst = trace.instance
    answers = [
        c for c in inst.claims()
        if c.owner == "alice" and c.id != inst.root_id and isinstance(c.proof, ProofChain)
    ]
    assert answers, "the evasive preset should force a defended answer"
    for claim in answers:
        decoys = [
            s for s in claim.proof.steps
            if s.statement.conclusion in s.statement.assumptions and not s.imports
        ]
        assert len(decoys) >= 2


def test_trace_exports():
    trace = run_preset("invalid_leaf")
    csv = trace.metrics_csv()
    assert csv[0] == "agent,initial,final,net"
    assert csv[-1] == f"__burned__,0,{trace.burned},{-trace.burned}"
    assert {r.split(",")[0] for r in csv[1:-1]} == set(trace.payoffs)
    lines = trace.to_json_lines()
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    assert first["record"] == "run" and first["seed"] == trace.seed
    assert last["record"] == "summary" and last["burned"] == trace.burned
    kinds = {json.loads(l)["record"] for l in lines}
    assert {"run", "move", "event", "transfer", "summary"} <= kinds


# sha256 of each preset's full `to_json_lines()` (newline terminated) in
# quiescence and early-stop mode, at the preset's own seed. Any change to a
# move, a rejection, the event order or a transfer changes them.
PRESET_TRACE_DIGESTS = {
    "happy_path": (
        "ee26cb7417fca24052a13d711029b39751664613c8bdc9bef7919af479dc53a1",
        "62a803c5236a54aa51554f7d2ce711f5e0871eaa26047ff2db0ded9f1d70cac4",
    ),
    "invalid_leaf": (
        "1116d2b50bd582191a879babdf4646e8304512177eca682d32682b1b7a0e3aaf",
        "056ed6cd918e84fcfd1bb167b0186ab578ba0f9131bd501f94d3c9ce2f68286f",
    ),
    "carpet_bomber": (
        "224bffd8afc710b555d52f7d3e0d495958c11211802c3d637c3f9dec276c281a",
        "2c84527726aaa76148f27e69e62c797c6624838151b55dc1a4a6b3418f3bfb95",
    ),
    "nitpicker": (
        "e9472614fd716f320a80c5bde3b0a60a4df62dfcebb11279d6f59a511cd18cc6",
        "1ac92bb740d88e60139a796a63043472204bb10760bcb8a8b20f325ef2707fcc",
    ),
    "evasive_prover": (
        "155a172d55fc9e047e914433d6e2c909fc723ae20a61321b2228238d570a2ba9",
        "7b18be318ad93f8d2f288c6c788e4979e1672d459298e47a2bc283667df41117",
    ),
    "sandbagger": (
        "883f51a2d9bf0a3acd892dcf2d00e9db96acc8b9ff4baf3742b8ea3a3167a597",
        "22c124baa25d9094e5b25fb3cbc322b571f27f4f2711a1b2f60751b855865fcd",
    ),
    "misleader_immediate": (
        "7b2950ed5064959007d1acb00400d0700a1e6f65ceeb30f125eb0452ca18fa16",
        "5ae1438e67eacc7eb1788dd7a8dba215124848f49d0e61680781ce365df28541",
    ),
    "misleader_deadline": (
        "b67623420377838d51d91f00c6871d92cdb009f7de26566e62604b8747f1c4a9",
        "218d5f3dbe80a03a10d74f0a565320f92a3018b6b45163e8645d36dc05c7e052",
    ),
    "plagiarist_defense": (
        "d28eaffa12c984886515d38946e3faa710314a3d37b3aae5e4a18a42077538c6",
        "9eb96526b5fd12c98dc2222bdecd724753e821b1527bcb1f625c0b41398bf9e7",
    ),
}


@pytest.mark.parametrize("mode", ["quiescence", "early-stop"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_traces_are_pinned_and_events_come_in_determination_order(name, mode):
    trace = run_scenario(scenario_from_json({**preset_scenario(name), "mode": mode}))
    lines = trace.to_json_lines()
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == PRESET_TRACE_DIGESTS[name][mode == "early-stop"]

    # A node's id carries the sequence number of the move that posted it.
    records = [json.loads(line) for line in lines]
    posted = {m["seq"]: [m["time"], m["seq"]] for m in records if m["record"] == "move"}
    order = [
        (e["determination"], posted[int(e["node"][1:])])
        for e in records
        if e["record"] == "event"
    ]
    assert order
    assert order == sorted(order)
