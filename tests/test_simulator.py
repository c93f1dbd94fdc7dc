"""Agent simulation tests, mostly pinned against the nine shipped presets."""

import hashlib
import json
import random

import pytest

import sprig.scenarios as scenarios
import sprig.simulator as simulator
from sprig.formulas import Statement, atom
from sprig.proofs import InferenceStep, MachineProof, ProofChain
from sprig.protocol import (
    LevelParameters,
    MachineParameters,
    Move,
    ParameterCascade,
    ProtocolInstance,
    create_root_claim,
)
from sprig.scenarios import (
    PRESET_NAMES,
    StepPlan,
    flat_tree,
    identity_chain,
    infinite_primes,
    plan_chain,
    preset_scenario,
    rotten_tree,
    scenario_from_json,
    solid_tree,
)
from sprig.simulator import (
    MAX_RUN_TICKS,
    AgentContext,
    AgentSpec,
    AgentStrategy,
    CarpetBomber,
    IdleStrategy,
    Misleader,
    Nitpicker,
    Plagiarist,
    Sandbagger,
    ScenarioConfig,
    ScriptedStrategy,
    Knowledge,
    build_knowledge,
    pad_chain,
    run_scenario,
)
from sprig.verifier import ToyVerifier

import oracles


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_is_its_table_entry_with_its_trees_built_and_fresh_each_call(name):
    entry = scenarios._PRESETS[name]
    trees = {t: json.loads(scenarios._TREES[t]().canonical()) for t in entry["trees"]}
    expected = {**entry, "trees": trees}
    doc = preset_scenario(name)
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)  # same key order, at every depth
    doc["agents"][0]["balance"] = -1
    doc["trees"].clear()
    assert preset_scenario(name) == expected


@pytest.mark.parametrize("name", sorted(PRESET_OUTCOMES))
def test_preset_outcomes(name):
    status, det, burned, clock, payoffs = PRESET_OUTCOMES[name]
    trace = run_preset(name)
    root = trace.instance.nodes[trace.instance.root_id]
    assert (root.status, str(root.determination)) == (status, det)
    summary = trace.summary()
    assert summary["burned"] == trace.instance.ledger.burned == burned
    assert summary["final_clock"] == trace.final_clock == clock
    assert summary["payoffs"] == payoffs
    assert sum(payoffs.values()) == -burned


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
        ctx = AgentContext(inst, me, Knowledge(), random.Random(0))
        for q in oracles.questions(inst) + [None]:
            qid = q.id if q else "q999"
            mine = [c for c in q.children if c.owner == me] if q else []
            assert (ctx.answered_by_me(qid), ctx.my_answers(qid)) == (bool(mine), len(mine))
        for c in oracles.claims(inst) + [None]:
            cid = c.id if c else "c999"
            mine = [q for q in c.children if q.owner == me] if c else []
            assert ctx.questioned_by_me(cid) == bool(mine)
            for step in range(1, (len(c.proof.steps) if c else 0) + 2):
                assert ctx.questioned_by_me(cid, step) == any(q.step_index == step for q in mine)


def test_payoffs_sum_to_minus_the_burn():
    summary = run_preset("nitpicker").summary()
    assert sum(summary["payoffs"].values()) == -summary["burned"]


def test_attacks_lose_money_and_defenders_profit():
    assert run_preset("carpet_bomber").summary()["payoffs"]["bomber"] < 0
    assert run_preset("sandbagger").summary()["payoffs"]["sandy"] < 0
    evasive = run_preset("evasive_prover").summary()["payoffs"]
    assert evasive["nick"] < 0 < evasive["alice"]


def test_plagiarist_is_beaten_to_the_bounty():
    trace = run_preset("plagiarist_defense")
    inst = trace.instance
    question = next(q for q in oracles.questions(inst) if q.owner == "bob")
    copied, original = question.children
    assert copied.owner == "charlie" and original.owner == "alice"
    assert copied.status == original.status == "validated"
    # the defender's answer lands first, so the stolen proof earns nothing
    assert original.determination < copied.determination
    bounty = [t for t in trace.transfers if t.node_id == question.id]
    assert [(t.account, t.reason) for t in bounty] == [("alice", "bounty paid to answer")]


def _plagiarist_cascade():
    levels = {
        level: LevelParameters(max_length=120, stake_up=4 * (level == 1), stake_down=6,
                               verification_time=4, bounty=5, response_time=3)
        for level in (1, 2)
    }
    return ParameterCascade(root_level=2, levels=levels, machine=MachineParameters(
        max_length=80, stake_up=2, burn_cost=1, bounty=3, response_time=2))


def test_plagiarist_copies_the_first_proof_posted_for_a_statement():
    p, q = atom("p"), atom("q")
    target = Statement(conclusion=p, assumptions=frozenset({p, q}), context="demo")
    root_chain = plan_chain(target, (StepPlan(q), StepPlan(p, imports=(1,))))
    step = root_chain.steps[0].statement
    inst = create_root_claim("amy", target, root_chain, _plagiarist_cascade(), 0,
                             balances={name: 100 for name in ("amy", "quin", "ann", "ben", "pla")})
    asked = [inst.post_question("quin", inst.root_id, 1, 1) for _ in range(2)]
    plagiarist = Plagiarist()

    def copies():
        ctx = AgentContext(inst, "pla", Knowledge(), random.Random(0))
        return {i.origin: i.proof for i in plagiarist.decide(ctx)}

    # having seen no proof of the step, it restates it
    assert copies() == dict.fromkeys(asked, identity_chain(step))
    answer = plan_chain(step, (StepPlan(p), StepPlan(q, imports=(1,))))
    chain = inst.claim(inst.post_answer_claim("ann", asked[0], answer, 1)).proof
    assert copies() == dict.fromkeys(asked, chain)
    # a later proof of the same statement does not displace the first one seen
    machine = MachineProof(target=step, steps=(InferenceStep(q, "assumption"),))
    inst.post_answer_claim("ben", asked[0], machine, 2)  # and answers the first question
    assert copies() == {asked[1]: chain}


def test_a_plagiarist_reads_each_node_once():
    # A question on the plagiarist's answer is mirrored onto each other open
    # claim with the same step, once however often the plagiarist is polled.
    p = atom("p")
    ident = Statement(conclusion=p, assumptions=frozenset({p}), context="demo")
    cascade = _plagiarist_cascade()
    inst = create_root_claim("amy", ident, identity_chain(ident), cascade, 0,
                             balances={name: 100 for name in ("amy", "quin", "ann", "pla")})
    asked = inst.post_question("quin", inst.root_id, 1, 1)
    copied = inst.post_answer_claim("pla", asked, identity_chain(ident), 1)
    rival = inst.post_answer_claim("ann", asked, identity_chain(ident), 1)
    inst.post_question("quin", copied, 1, 2)
    plagiarist = Plagiarist()
    ctx = AgentContext(inst, "pla", Knowledge(), random.Random(0))
    mirrored = [(m.kind, m.origin, m.step) for m in plagiarist.decide(ctx)]
    assert mirrored == [("question", inst.root_id, 1), ("question", rival, 1)]
    assert [(m.kind, m.origin, m.step) for m in plagiarist.decide(ctx)] == mirrored


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
    assert immediate.summary()["payoffs"] == deadline.summary()["payoffs"] == {"mia": 0}


@pytest.mark.parametrize(
    "name, balance, payoffs",
    [("misleader_immediate", 25, {"bob": 16, "mia": -16}),
     ("misleader_deadline", 20, {"bob": 10, "mia": -10})],
)
def test_a_misleader_short_of_funds_proposes_only_what_it_holds(name, balance, payoffs):
    # A bomber's questions leave the misleader answers to field besides its
    # own questions: one walk prices both against one balance, so the
    # protocol rejects none of its moves.
    doc = preset_scenario(name)
    doc["agents"][0]["balance"] = balance
    doc["agents"].append({"name": "bob", "balance": 1000, "strategy": {"kind": "carpet_bomber"}})
    trace = run_scenario(scenario_from_json(doc))
    assert trace.rejections == []
    assert trace.summary()["payoffs"] == payoffs


# -- knowledge and padding -------------------------------------------------------


def test_knowledge_marks_undefendable_branches_dubious():
    solid = build_knowledge(solid_tree())
    assert solid.truth and all(solid.truth.values())

    tree = rotten_tree()
    rotten = build_knowledge(tree)
    weak_step = tree.steps[1].statement
    inner_gap = tree.steps[1].subproof.steps[1].statement
    assert rotten.truth[inner_gap] is False
    assert rotten.truth[weak_step] is False
    assert rotten.truth[tree.target] is False
    sound_step = tree.steps[0].statement
    assert rotten.truth[sound_step]
    # the weak statement still has a chain to post (it restates itself one
    # level down), but no bottom-level proof: it can stall, not win
    assert rotten.can_answer(weak_step, 1)
    assert not rotten.can_answer(weak_step, 0)
    assert rotten.can_answer(tree.target, 1)


def _count_verdicts(monkeypatch):
    """A one-element list that counts kernel verdicts from now on."""
    calls = [0]
    verdict = ToyVerifier.verdict

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return verdict(self, *args, **kwargs)

    monkeypatch.setattr(ToyVerifier, "verdict", counted)
    return calls


def _trees():
    """The solid and rotten trees and every tree a preset agent holds."""
    trees = {"solid": solid_tree(), "rotten": rotten_tree()}
    for name in PRESET_NAMES:
        config = scenario_from_json(preset_scenario(name))
        trees.update((f"{name}/{a.name}", a.tree) for a in config.agents if a.tree is not None)
    return trees


def _machine_leaves(chain):
    return sum(
        _machine_leaves(s.subproof) if isinstance(s.subproof, ProofChain)
        else isinstance(s.subproof, MachineProof)
        for s in chain.steps
    )


TREES = _trees()


@pytest.mark.parametrize("tree", list(TREES.values()), ids=list(TREES))
def test_soundness_is_judged_once_on_the_first_read_of_truth(tree, monkeypatch):
    expected = list(oracles.eager_truth(tree).items())
    verdicts = _count_verdicts(monkeypatch)
    know = build_knowledge(tree)
    assert know.can_answer(tree.target, 1)
    assert verdicts[0] == 0

    truth = know.truth
    assert verdicts[0] == _machine_leaves(tree)
    assert list(truth.items()) == expected
    # a second read judges nothing
    assert know.truth is truth
    assert verdicts[0] == _machine_leaves(tree)


def test_a_given_truth_is_used_as_is(monkeypatch):
    verdicts = _count_verdicts(monkeypatch)
    given = {"h": False}
    assert Knowledge(truth=given).truth is given
    know = build_knowledge(rotten_tree())
    know.truth = given
    assert know.truth is given and verdicts[0] == 0


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
        verdict = ToyVerifier().verdict(decoy.statement, proofs[decoy.statement])
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
            AgentSpec("quin", 100, ScriptedStrategy([Move("question", "quin", 2, "c1", 1)])),
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


class _Proposer(AgentStrategy):
    """Proposes the same priced moves at every poll."""

    def __init__(self, priced):
        self.priced = priced

    def proposals(self, ctx):
        return self.priced


def _context_on_a_root_claim(name, balance):
    """`name`'s context, holding `balance`, once amy has posted a root claim."""
    tree = flat_tree()
    inst = create_root_claim(
        "amy", tree.target, tree, _tiny_cascade(), 0, balances={"amy": 100, name: balance}
    )
    return AgentContext(inst, name, Knowledge(), random.Random(0))


def test_decide_keeps_each_proposal_that_fits_the_balance_the_kept_ones_leave():
    ctx = _context_on_a_root_claim("quin", 7)
    moves = [Move("question", "quin", 0, "c1", j) for j in (1, 2, 3)]
    assert _Proposer(list(zip(moves, (5, 4, 2)))).decide(ctx) == [moves[0], moves[2]]


def test_a_nitpicker_draws_a_step_only_for_a_question_it_can_afford():
    # A question on the level-1 root costs the machine bounty, 3.
    for balance, draws in ((2, False), (3, True)):
        ctx = _context_on_a_root_claim("nick", balance)
        before = ctx.rng.getstate()
        moves = Nitpicker().decide(ctx)
        assert len(moves) == draws
        assert (ctx.rng.getstate() != before) == draws


def test_rejected_intents_are_logged_and_harmless():
    tree = flat_tree()
    # Machine proofs of the root's two steps: the first answers a question
    # on step 1, the second targets another statement there.
    proof1, proof2 = tree.steps[0].subproof, tree.steps[1].subproof
    config = ScenarioConfig(
        cascade=_tiny_cascade(),
        agents=[
            AgentSpec("amy", 100, ScriptedStrategy([
                Move("answer_claim", "amy", 4, "q2", proof=proof2),
                Move("answer_claim", "amy", 5, "q2", proof=proof1),
            ]), tree=tree),
            AgentSpec("quin", 100, ScriptedStrategy([
                Move("question", "quin", 1, "c1", 99),
                # The question posts as q2 and stays; its answer fails.
                Move("question", "quin", 2, "c1", 1, proof=proof2),
                Move("question", "quin", 3, "c1", 99, proof=proof1),
            ])),
        ],
        root_owner="amy",
        horizon=10,
        root_tree=tree,
    )
    trace = run_scenario(config)
    assert trace.summary()["metrics"]["rejections"] == 4
    no_such_step = "no such step 99 in claim 'c1' (has 2)"
    wrong_target = "structural violation: proof targets a different statement"
    expected = [
        (1, "quin", "question", "question c1 step 99", no_such_step),
        (2, "quin", "question", "question c1 step 1+answer", wrong_target),
        (3, "quin", "question", "question c1 step 99+answer", no_such_step),
        (4, "amy", "answer", "answer q2", wrong_target),
    ]
    lines = [line for line in trace.to_json_lines() if '"record":"rejection"' in line]
    assert lines == [
        json.dumps({"actor": actor, "detail": detail, "kind": kind, "reason": reason,
                    "record": "rejection", "time": time}, separators=(",", ":"))
        for time, actor, kind, detail, reason in expected
    ]
    assert _played(trace) == [
        ("root_claim", "amy", 0), ("question", "quin", 2), ("answer_claim", "amy", 5),
    ]
    assert trace.instance.nodes["c1"].status == "validated"
    trace.verify_replay()


def _played(trace):
    """(kind, actor, time) of each move in the trace's move log."""
    return [(m["kind"], m["actor"], m["time"]) for m in map(json.loads, trace.move_lines)]


class _AtTickOne(ScriptedStrategy):
    """Plays every move at tick 1, whatever its `time`."""

    def decide(self, ctx):
        return self.moves if ctx.now == 1 else []


@pytest.mark.parametrize("strategy", [
    ScriptedStrategy([Move("question", "amy", 1, "c1", 1)]),
    _AtTickOne([Move("question", "quin", 9, "c1", 1)]),
], ids=["another-actor", "a-later-time"])
def test_a_move_stamped_for_another_agent_or_tick_is_rejected_before_apply(
    strategy, monkeypatch
):
    applied = []
    apply = ProtocolInstance.apply

    def spy(self, move):
        applied.append(move)
        return apply(self, move)

    monkeypatch.setattr(ProtocolInstance, "apply", spy)
    tree = flat_tree()
    config = ScenarioConfig(
        cascade=_tiny_cascade(),
        agents=[
            AgentSpec("amy", 100, IdleStrategy(), tree=tree),
            AgentSpec("ned", 100, ScriptedStrategy([Move("question", "ned", 3, "c1", 2)])),
            AgentSpec("quin", 100, strategy),
        ],
        root_owner="amy",
        horizon=10,
        root_tree=tree,
    )
    trace = run_scenario(config)
    [stamped] = strategy.moves
    # Applied, the move stamped 9 would have moved the clock to 9, and the
    # run would have stopped at tick 2 with the clock moving backwards.
    assert all(move is not stamped for move in applied)
    assert [r._asdict() for r in trace.rejections] == [{
        "time": 1, "actor": "quin", "kind": "question", "detail": "question c1 step 1",
        "reason": f"move by {stamped.actor!r} at {stamped.time} from the poll of 'quin' at 1",
    }]
    assert _played(trace) == [
        ("root_claim", "amy", 0), ("question", "ned", 3),
    ]
    trace.verify_replay()


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


def test_evasive_prover_posts_padded_answers():
    trace = run_preset("evasive_prover")
    inst = trace.instance
    answers = [
        c for c in oracles.claims(inst)
        if c.owner == "alice" and c.id != inst.root_id and isinstance(c.proof, ProofChain)
    ]
    assert answers, "the evasive preset should force a defended answer"
    for claim in answers:
        decoys = [
            s for s in claim.proof.steps
            if s.statement.conclusion in s.statement.assumptions and not s.imports
        ]
        assert len(decoys) >= 2


def test_the_evasive_prover_judges_no_soundness(monkeypatch):
    """No strategy in the evasive preset reads `truth`, so its run judges no
    tree, and plays the pinned trace."""
    judge, judged = simulator._judge, []

    def counted(*args):
        judged.append(args[1])
        return judge(*args)

    monkeypatch.setattr(simulator, "_judge", counted)
    lines = run_preset("evasive_prover").to_json_lines()
    assert judged == []
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == PRESET_TRACE_DIGESTS["evasive_prover"][False]


def test_trace_exports():
    trace = run_preset("invalid_leaf")
    csv = trace.metrics_csv()
    assert csv[0] == "agent,initial,final,net"
    summary = trace.summary()
    assert csv[-1] == f"__burned__,0,{summary['burned']},{-summary['burned']}"
    assert {r.split(",")[0] for r in csv[1:-1]} == set(summary["payoffs"])
    lines = trace.to_json_lines()
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    assert first["record"] == "run" and first["seed"] == trace.seed
    assert last == {"record": "summary", **summary}
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
