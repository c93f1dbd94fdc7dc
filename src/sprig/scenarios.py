"""Ready-made proof documents, protocol fixtures and simulation presets.

Three families live here:

* classic proof trees encoded over opaque atoms (Euclid's infinitude of
  primes, the fundamental theorem of algebra as a proof by contradiction,
  and a deep inverse-function argument nested three chains down), used as
  parser and validator fixtures and shipped as JSON documents;
* six hand-scripted protocol runs covering every terminal status a debate
  can reach, including the full multi-question tree and an early-stop run,
  each frozen with its expected statuses and determination times;
* simulation presets: an honest happy path, an invalid-leaf hunt, and one
  scenario per abuse strategy, with the parameter regimes that make the
  abuse unprofitable.

Scenario presets are plain JSON-able dicts (see `preset_scenario`) fed
through `scenario_from_json`, so the command line and the test suite build
identical runs.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Iterable, NamedTuple

from . import Record
from .formulas import DefinitionSet, Formula, Statement, atom, conj, disj, impl
from .formulas import lookup, read_int, read_object
from .proofs import ChainStep, InferenceStep, MachineProof, ProofChain, chain_from_json
from .proofs import serialize_proof_document
from .protocol import (
    EARLY_STOP,
    QUIESCENCE,
    LevelParameters,
    MachineParameters,
    ParameterCascade,
    ProtocolInstance,
    create_root_claim,
    create_root_question,
)
from .simulator import (
    AgentSpec,
    ScenarioConfig,
    CarpetBomber,
    CopycatDefender,
    EvasiveProver,
    HonestClaimer,
    HonestDefender,
    HonestSkeptic,
    IdleStrategy,
    Misleader,
    Nitpicker,
    Plagiarist,
    Sandbagger,
)

__all__ = [
    "quick_proof",
    "StepPlan",
    "plan_chain",
    "infinite_primes",
    "polynomial_root",
    "polynomial_root_broken_import",
    "inverse_function",
    "identity_chain",
    "modus_ponens_example",
    "PROOF_DOCUMENTS",
    "solid_tree",
    "rotten_tree",
    "flat_tree",
    "ProtocolFixture",
    "validated_root_claim",
    "invalidated_root_claim",
    "answered_root_question",
    "unanswered_root_question",
    "full_run_claim_root",
    "early_stop_question_root",
    "PROTOCOL_FIXTURES",
    "preset_scenario",
    "scenario_from_json",
    "PRESET_NAMES",
    "STRATEGY_KINDS",
]


# --------------------------------------------------------------------------
# small honest prover and tree builders


def quick_proof(statement: Statement) -> MachineProof | None:
    """Find a short bottom-level proof for the easy shapes: a conclusion that
    restates an assumption, a conjunction of two assumptions, or a
    disjunction with one assumed side. Returns None when out of its depth."""
    c = statement.conclusion
    assumed = statement.assumptions
    if c in assumed:
        return MachineProof(target=statement, steps=(InferenceStep(c, "assumption"),))
    if c.op == "and" and c.args[0] in assumed and c.args[1] in assumed:
        return MachineProof(
            target=statement,
            steps=(
                InferenceStep(c.args[0], "assumption"),
                InferenceStep(c.args[1], "assumption"),
                InferenceStep(c, "and_intro", (1, 2)),
            ),
        )
    if c.op == "or":
        for side, rule in ((0, "or_intro_left"), (1, "or_intro_right")):
            if c.args[side] in assumed:
                return MachineProof(
                    target=statement,
                    steps=(
                        InferenceStep(c.args[side], "assumption"),
                        InferenceStep(c, rule, (1,)),
                    ),
                )
    return None


class StepPlan(NamedTuple):
    """One planned step: its conclusion, which earlier conclusions it
    imports, and what sits beneath it (nothing, "machine", or nested plans)."""

    conclusion: Formula
    imports: tuple[int, ...] = ()
    sub: tuple[StepPlan, ...] | str | None = None


def plan_chain(target: Statement, plans: Iterable[StepPlan]) -> ProofChain:
    """Expand step plans into a chain: assumption sets are computed from the
    imports, "machine" leaves get a proof from `quick_proof`, nested plans
    become subchains."""
    steps: list[ChainStep] = []
    conclusions: list[Formula] = []
    for plan in plans:
        assumed = set(target.assumptions)
        for i in plan.imports:
            assumed.add(conclusions[i - 1])
        stmt = Statement(
            conclusion=plan.conclusion,
            assumptions=frozenset(assumed),
            context=target.context,
        )
        sub: ProofChain | MachineProof | None
        if plan.sub == "machine":
            sub = quick_proof(stmt)
            if sub is None:
                raise ValueError(f"no quick proof for {stmt}")
        elif isinstance(plan.sub, tuple):
            sub = plan_chain(stmt, plan.sub)
        else:
            sub = None
        steps.append(ChainStep(statement=stmt, imports=plan.imports, subproof=sub))
        conclusions.append(plan.conclusion)
    return ProofChain(target=target, steps=tuple(steps))


def identity_chain(target: Statement) -> ProofChain:
    """The one-step chain restating its own target. Always structurally
    valid; the incentive layer, not the validator, is what punishes it."""
    return ProofChain(target=target, steps=(ChainStep(statement=target),))


# --------------------------------------------------------------------------
# classic proof trees over opaque atoms


def infinite_primes() -> ProofChain:
    """Euclid's argument, three steps with the middle step expanded one
    level down."""
    goal = atom("infinitely_many_primes")
    c1 = atom("factorial_successor_has_no_small_divisor")
    c2 = atom("some_prime_exceeds_any_bound")
    c21 = atom("prime_factor_of_factorial_successor_is_large")
    target = Statement(conclusion=goal, context="arithmetic")
    return plan_chain(
        target,
        (
            StepPlan(c1),
            StepPlan(
                c2,
                imports=(1,),
                sub=(StepPlan(c21), StepPlan(c2, imports=(1,))),
            ),
            StepPlan(goal, imports=(2,)),
        ),
    )


def polynomial_root() -> ProofChain:
    """Every nonconstant complex polynomial has a root, argued by
    contradiction through the no-nonzero-minimum lemma."""
    alpha = atom("nonconstant_complex_polynomial")
    goal = atom("root_exists")
    c1 = atom("modulus_large_outside_some_disk")
    c2 = atom("modulus_has_no_nonzero_minimum")
    c21 = atom("nonzero_value_admits_smaller_modulus")
    c22 = atom("nonzero_minimum_is_contradictory")
    target = Statement(
        conclusion=goal, assumptions=frozenset({alpha}), context="complex_analysis"
    )
    return plan_chain(
        target,
        (
            StepPlan(c1),
            StepPlan(
                c2,
                sub=(
                    StepPlan(c21),
                    StepPlan(c22, imports=(1,)),
                    StepPlan(c2, imports=(2,)),
                ),
            ),
            StepPlan(goal, imports=(1, 2)),
        ),
    )


def polynomial_root_broken_import() -> dict[str, Any]:
    """The same document with the last step importing a future index; used
    as the canonical import-out-of-range fixture. Returned as raw JSON
    because the constructor itself has nothing against it."""
    doc = json.loads(polynomial_root().canonical())
    doc["steps"][2]["imports"] = [4]
    return doc


def inverse_function() -> ProofChain:
    """A local inverse from an invertible derivative: two top steps, a
    six-step middle chain, and a four-step bottom chain (document height 3).
    The reduction step concludes an implication from the normalized setup."""
    alpha = atom("smooth_map_with_invertible_derivative")
    goal = atom("local_inverse_exists")
    normalized = atom("normalized_setup")

    def reduces(claim: Formula) -> Formula:
        return impl(normalized, claim)

    g11 = atom("derivative_near_identity_on_ball")
    g12 = atom("perturbations_contract_on_ball")
    g13 = atom("unique_preimage_in_half_ball")
    g14 = atom("bijection_between_neighborhoods")
    g15 = atom("inverse_differentiable_at_origin")
    g151 = atom("preimage_norm_ratio_tends_to_one")
    g152 = atom("image_defect_ratio_tends_to_zero")
    g153 = atom("inverse_defect_ratio_tends_to_zero")

    c1 = reduces(goal)
    target = Statement(
        conclusion=goal, assumptions=frozenset({alpha}), context="analysis"
    )
    sub_sub = (
        StepPlan(reduces(g151)),
        StepPlan(reduces(g152), imports=(1,)),
        StepPlan(reduces(g153), imports=(2,)),
        StepPlan(reduces(g15), imports=(3,)),
    )
    sub = (
        StepPlan(reduces(g11)),
        StepPlan(reduces(g12), imports=(1,)),
        StepPlan(reduces(g13), imports=(2,)),
        StepPlan(reduces(g14), imports=(3,)),
        StepPlan(reduces(g15), imports=(4,), sub=sub_sub),
        StepPlan(c1, imports=(5,)),
    )
    return plan_chain(
        target,
        (StepPlan(c1, sub=sub), StepPlan(goal, imports=(1,))),
    )


def modus_ponens_example() -> tuple[Statement, MachineProof]:
    """A statement proved by one implication elimination, with both premises
    drawn straight from the assumptions."""
    p, q = atom("p"), atom("q")
    stmt = Statement(conclusion=q, assumptions=frozenset({p, impl(p, q)}))
    # assumptions sort canonically: the bare atom precedes the implication
    proof = MachineProof(
        target=stmt, steps=(InferenceStep(q, "impl_elim", (-2, -1)),)
    )
    return stmt, proof


def defined_symbol_chain() -> ProofChain:
    """A chain that introduces a named symbol and uses it; exercises the
    declaration checks."""
    p = atom("p")
    s = Formula("sym", name="shorthand")
    target = Statement(conclusion=s, assumptions=frozenset({p}), context="demo")
    defs = DefinitionSet(symbols=(("shorthand", conj(p, p)),))
    return ProofChain(
        target=target,
        steps=(
            ChainStep(statement=Statement(conclusion=p, assumptions=frozenset({p}), context="demo")),
            ChainStep(
                statement=Statement(conclusion=s, assumptions=frozenset({p}), context="demo"),
                imports=(),
            ),
        ),
        definitions=defs,
    )


def PROOF_DOCUMENTS() -> dict[str, Any]:
    """Name -> JSON document for everything shipped under fixtures/proofs."""
    mp_stmt, mp_proof = modus_ponens_example()

    def decoded(doc: Statement | ProofChain | MachineProof) -> Any:
        return json.loads(serialize_proof_document(doc))

    return {
        "infinite_primes": decoded(infinite_primes()),
        "polynomial_root": decoded(polynomial_root()),
        "polynomial_root_broken_import": polynomial_root_broken_import(),
        "inverse_function": decoded(inverse_function()),
        "identity_chain": decoded(identity_chain(
            Statement(conclusion=atom("goal"), assumptions=frozenset({atom("lemma")}))
        )),
        "modus_ponens_statement": decoded(mp_stmt),
        "modus_ponens_proof": decoded(mp_proof),
        "defined_symbol_chain": decoded(defined_symbol_chain()),
    }


# --------------------------------------------------------------------------
# knowledge trees for simulations

_P, _Q, _R, _Z = atom("p"), atom("q"), atom("r"), atom("z")


def solid_tree() -> ProofChain:
    """Fully defendable two-step tree: chains one level down, honest machine
    proofs at every leaf."""
    target = Statement(
        conclusion=disj(conj(_P, _Q), _R),
        assumptions=frozenset({_P, _Q}),
        context="demo",
    )
    return plan_chain(
        target,
        (
            StepPlan(
                conj(_P, _Q),
                sub=(StepPlan(_Q, sub="machine"), StepPlan(conj(_P, _Q), imports=(1,), sub="machine")),
            ),
            StepPlan(
                disj(conj(_P, _Q), _R),
                imports=(1,),
                sub=(
                    StepPlan(conj(_P, _Q), sub="machine"),
                    StepPlan(disj(conj(_P, _Q), _R), imports=(1,), sub="machine"),
                ),
            ),
        ),
    )


def rotten_tree() -> ProofChain:
    """Same shape, but the second branch bottoms out in a step nobody can
    prove (a fresh atom with no support). The whole tree is unsound."""
    target = Statement(
        conclusion=_Z, assumptions=frozenset({_P, _Q}), context="demo"
    )
    return plan_chain(
        target,
        (
            StepPlan(
                conj(_P, _Q),
                sub=(StepPlan(_Q, sub="machine"), StepPlan(conj(_P, _Q), imports=(1,), sub="machine")),
            ),
            StepPlan(
                _Z,
                imports=(1,),
                sub=(
                    StepPlan(conj(_P, _Q), sub="machine"),
                    StepPlan(_Z, imports=(1,)),
                ),
            ),
        ),
    )


def flat_tree() -> ProofChain:
    """Two steps, both machine-provable directly; the owner can answer any
    question on them instantly at the bottom level."""
    target = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo"
    )
    return plan_chain(
        target,
        (StepPlan(_P, sub="machine"), StepPlan(conj(_P, _Q), imports=(1,), sub="machine")),
    )


# --------------------------------------------------------------------------
# protocol fixtures: one per terminal shape


def _claim_cascade(levels: int) -> ParameterCascade:
    """Fixture cascade for claim-rooted runs: zero top-level upward stake,
    four-tick windows, token amounts distinct enough to read in a trace."""
    per_level = {
        5: LevelParameters(400, 0, 10, 20, 9, 20),
        4: LevelParameters(400, 5, 7, 20, 8, 20),
        3: LevelParameters(300, 0, 12, 4, 9, 4),
        2: LevelParameters(200, 5, 7, 4, 7, 4),
        1: LevelParameters(120, 4, 6, 4, 5, 4),
    }
    if levels == 5:
        table = {
            5: per_level[5],
            4: per_level[4],
            3: LevelParameters(300, 5, 7, 20, 7, 20),
            2: LevelParameters(200, 4, 6, 20, 6, 20),
            1: LevelParameters(120, 4, 6, 20, 5, 20),
        }
        machine = MachineParameters(80, 2, 1, 3, 20)
    elif levels == 3:
        table = {3: per_level[3], 2: per_level[2], 1: per_level[1]}
        machine = MachineParameters(80, 2, 1, 3, 4)
    else:
        table = {
            2: LevelParameters(200, 0, 10, 4, 8, 4),
            1: per_level[1],
        }
        machine = MachineParameters(80, 2, 1, 3, 4)
    return ParameterCascade(root_level=levels, levels=table, machine=machine)


def _question_cascade() -> ParameterCascade:
    """Question-rooted fixture cascade; the top level carries an upward
    stake since answers there have an origin to forfeit it to."""
    return ParameterCascade(
        root_level=2,
        levels={
            2: LevelParameters(200, 6, 8, 4, 9, 4),
            1: LevelParameters(120, 4, 6, 4, 5, 4),
        },
        machine=MachineParameters(80, 2, 1, 3, 4),
    )


class ProtocolFixture(Record):
    """A scripted run plus everything a test needs to judge it."""

    def __init__(
        self,
        name: str,
        instance: ProtocolInstance,
        balances: dict[str, int],
        final_time: int,
        labels: dict[str, str],
        expected: dict[str, tuple[str, int]],
        expected_payoffs: dict[str, int] | None = None,
        notes: str = "",
    ) -> None:
        self.name = name
        self.instance = instance
        self.balances = balances
        self.final_time = final_time
        self.labels = labels
        self.expected = expected
        self.expected_payoffs = expected_payoffs
        self.notes = notes

    @property
    def mode(self) -> str:
        """The mode the run was played in, its instance's."""
        return self.instance.mode

    def node(self, label: str) -> str:
        return self.labels[label]


_FIXTURE_FUNDS = 200


def _funds(*names: str) -> dict[str, int]:
    return {n: _FIXTURE_FUNDS for n in names}


def validated_root_claim() -> ProtocolFixture:
    """One question on the root; its first answer dies to two unanswered
    sub-questions, its second stands unchallenged, so the root validates."""
    cascade = _claim_cascade(2)
    balances = _funds("ann", "sam", "bea")
    root_target = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo"
    )
    root_chain = plan_chain(
        root_target, (StepPlan(_P), StepPlan(conj(_P, _Q)))
    )
    inst = create_root_claim(
        "ann", root_target, root_chain, cascade, 0, balances=balances
    )
    labels = {"root": inst.root_id}
    step1 = root_chain.steps[0].statement
    labels["q1"] = inst.post_question("sam", labels["root"], 1, 1)
    answer_a = plan_chain(step1, (StepPlan(_Q), StepPlan(_P, imports=(1,))))
    labels["c_a"] = inst.post_answer_claim("bea", labels["q1"], answer_a, 2)
    labels["q2"] = inst.post_question("sam", labels["c_a"], 1, 3)
    labels["q3"] = inst.post_question("sam", labels["c_a"], 2, 3)
    labels["c_b"] = inst.post_answer_claim("bea", labels["q1"], identity_chain(step1), 4)
    sigma_up1, sigma_dn1 = 4, 6
    beta1 = 5
    return ProtocolFixture(
        name="validated_root_claim",
        instance=inst,
        balances=balances,
        final_time=8,
        labels=labels,
        expected={
            "root": ("validated", 8),
            "q1": ("answered", 8),
            "c_a": ("invalidated", 7),
            "q2": ("unanswered", 7),
            "q3": ("unanswered", 7),
            "c_b": ("validated", 8),
        },
        expected_payoffs={
            "ann": 0,
            "sam": sigma_up1 + sigma_dn1 - beta1,
            "bea": beta1 - sigma_up1 - sigma_dn1,
        },
        notes="first unanswered sub-question (by determination) collects the dead answer's down-stake",
    )


def invalidated_root_claim() -> ProtocolFixture:
    """A three-level run where the only defense of the root dies at the
    bottom: one sub-question is never answered even though its sibling gets
    a valid bottom-level answer, so invalidation climbs back to the root."""
    cascade = _claim_cascade(3)
    balances = _funds("ann", "sam", "kim", "bea")
    root_target = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo"
    )
    root_chain = plan_chain(root_target, (StepPlan(conj(_P, _Q)),))
    inst = create_root_claim("ann", root_target, root_chain, cascade, 0, balances=balances)
    labels = {"root": inst.root_id}
    s1 = root_chain.steps[0].statement
    labels["q1"] = inst.post_question("sam", labels["root"], 1, 1)
    labels["c_a"] = inst.post_answer_claim("bea", labels["q1"], identity_chain(s1), 2)
    labels["q2"] = inst.post_question("sam", labels["c_a"], 1, 3)
    answer_b = plan_chain(s1, (StepPlan(_P), StepPlan(conj(_P, _Q), imports=(1,))))
    labels["c_b"] = inst.post_answer_claim("bea", labels["q2"], answer_b, 4)
    labels["q3"] = inst.post_question("sam", labels["c_b"], 1, 5)
    labels["q4"] = inst.post_question("kim", labels["c_b"], 2, 6)
    machine = quick_proof(answer_b.steps[1].statement)
    assert machine is not None
    labels["m"] = inst.post_answer_claim("bea", labels["q4"], machine, 7)
    return ProtocolFixture(
        name="invalidated_root_claim",
        instance=inst,
        balances=balances,
        final_time=11,
        labels=labels,
        expected={
            "root": ("invalidated", 9),
            "q1": ("unanswered", 9),
            "c_a": ("invalidated", 9),
            "q2": ("unanswered", 9),
            "c_b": ("invalidated", 9),
            "q3": ("unanswered", 9),
            "q4": ("answered", 7),
            "m": ("validated", 7),
        },
        expected_payoffs={
            "ann": -12,
            "sam": 34,
            "kim": -3,
            "bea": -20,
        },
        notes="burn 1 (one machine claim); kim's bounty funds the machine answer",
    )


def answered_root_question() -> ProtocolFixture:
    """A bounty question whose first answer is invalidated by silence but
    whose second answer survives a challenge, so the question is answered."""
    cascade = _question_cascade()
    balances = _funds("orla", "bob", "ben", "sam")
    target = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo"
    )
    inst = create_root_question("orla", target, cascade, 0, balances=balances)
    labels = {"root": inst.root_id}
    labels["c_a"] = inst.post_answer_claim("bob", labels["root"], identity_chain(target), 1)
    labels["qa"] = inst.post_question("sam", labels["c_a"], 1, 2)
    labels["c_b"] = inst.post_answer_claim("ben", labels["root"], identity_chain(target), 3)
    labels["qb"] = inst.post_question("sam", labels["c_b"], 1, 4)
    labels["c_c"] = inst.post_answer_claim("ben", labels["qb"], identity_chain(target), 5)
    return ProtocolFixture(
        name="answered_root_question",
        instance=inst,
        balances=balances,
        final_time=9,
        labels=labels,
        expected={
            "root": ("answered", 9),
            "c_a": ("invalidated", 6),
            "qa": ("unanswered", 6),
            "c_b": ("validated", 9),
            "qb": ("answered", 9),
            "c_c": ("validated", 9),
        },
        expected_payoffs={"orla": -3, "bob": -14, "ben": 14, "sam": 3},
    )


def unanswered_root_question() -> ProtocolFixture:
    """A bounty question whose lone answer survives one challenge but loses
    a second deeper one, leaving the question unanswered."""
    cascade = _question_cascade()
    balances = _funds("orla", "bob", "sam")
    target = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo"
    )
    inst = create_root_question("orla", target, cascade, 0, balances=balances)
    labels = {"root": inst.root_id}
    answer = plan_chain(target, (StepPlan(_P), StepPlan(conj(_P, _Q), imports=(1,))))
    labels["c_a"] = inst.post_answer_claim("bob", labels["root"], answer, 1)
    labels["q1"] = inst.post_question("sam", labels["c_a"], 1, 2)
    labels["c_b"] = inst.post_answer_claim("bob", labels["q1"], identity_chain(answer.steps[0].statement), 3)
    labels["q2"] = inst.post_question("sam", labels["c_a"], 2, 4)
    labels["c_c"] = inst.post_answer_claim("bob", labels["q2"], identity_chain(answer.steps[1].statement), 5)
    labels["q3"] = inst.post_question("sam", labels["c_c"], 1, 6)
    return ProtocolFixture(
        name="unanswered_root_question",
        instance=inst,
        balances=balances,
        final_time=10,
        labels=labels,
        expected={
            "root": ("unanswered", 10),
            "c_a": ("invalidated", 10),
            "q1": ("answered", 7),
            "c_b": ("validated", 7),
            "q2": ("unanswered", 10),
            "c_c": ("invalidated", 10),
            "q3": ("unanswered", 10),
        },
        expected_payoffs={"orla": 6, "bob": -19, "sam": 13},
    )


def full_run_claim_root() -> ProtocolFixture:
    """The big one: a level-five root with four questions, an answer that
    dies three levels down, a sibling saved by a machine-level skip, and a
    second doomed answer on the last question."""
    cascade = _claim_cascade(5)
    balances = {"ann": 300, "bea": 300, "cat": 300, "sam": 300, "kim": 300}
    a, b = atom("a"), atom("b")
    root_target = Statement(
        conclusion=conj(a, b), assumptions=frozenset({a, b}), context="demo"
    )
    root_chain = plan_chain(
        root_target,
        (
            StepPlan(a),
            StepPlan(b),
            StepPlan(conj(a, b), imports=(1, 2)),
            StepPlan(conj(a, b), imports=(3,)),
        ),
    )
    inst = create_root_claim("ann", root_target, root_chain, cascade, 0, balances=balances)
    L = {"root": inst.root_id}
    r1 = root_chain.steps[0].statement

    L["q1"] = inst.post_question("sam", L["root"], 1, 1)
    L["c1a"] = inst.post_answer_claim("bea", L["q1"], identity_chain(r1), 2)
    L["kq1"] = inst.post_question("kim", L["c1a"], 1, 3)
    c1b_chain = plan_chain(r1, (StepPlan(b), StepPlan(a, imports=(1,))))
    L["c1b"] = inst.post_answer_claim("bea", L["q1"], c1b_chain, 4)
    v1 = c1b_chain.steps[0].statement
    L["q1b1"] = inst.post_question("kim", L["c1b"], 1, 5)
    L["d1"] = inst.post_answer_claim("cat", L["q1b1"], identity_chain(v1), 6)
    L["qd1"] = inst.post_question("kim", L["d1"], 1, 7)
    L["e"] = inst.post_answer_claim("cat", L["qd1"], identity_chain(v1), 8)
    L["qe"] = inst.post_question("kim", L["e"], 1, 9)
    L["f"] = inst.post_answer_claim("cat", L["qe"], identity_chain(v1), 10)
    L["qf"] = inst.post_question("kim", L["f"], 1, 11)
    L["d2"] = inst.post_answer_claim("bea", L["q1b1"], identity_chain(v1), 12)
    L["qd2"] = inst.post_question("kim", L["d2"], 1, 13)
    machine = quick_proof(v1)
    assert machine is not None
    L["m"] = inst.post_answer_claim("bea", L["qd2"], machine, 14)

    L["q2"] = inst.post_question("sam", L["root"], 2, 15)
    L["c2"] = inst.post_answer_claim("bea", L["q2"], identity_chain(root_chain.steps[1].statement), 16)
    L["q3"] = inst.post_question("sam", L["root"], 3, 17)
    L["c3"] = inst.post_answer_claim("bea", L["q3"], identity_chain(root_chain.steps[2].statement), 18)
    L["q4"] = inst.post_question("sam", L["root"], 4, 19)
    L["c4a"] = inst.post_answer_claim("cat", L["q4"], identity_chain(root_chain.steps[3].statement), 20)
    L["kq4"] = inst.post_question("kim", L["c4a"], 1, 21)
    L["c4b"] = inst.post_answer_claim("bea", L["q4"], identity_chain(root_chain.steps[3].statement), 22)

    return ProtocolFixture(
        name="full_run_claim_root",
        instance=inst,
        balances=balances,
        final_time=42,
        labels=L,
        expected={
            "root": ("validated", 42),
            "q1": ("answered", 32),
            "c1a": ("invalidated", 23),
            "kq1": ("unanswered", 23),
            "c1b": ("validated", 32),
            "q1b1": ("answered", 32),
            "d1": ("invalidated", 31),
            "qd1": ("unanswered", 31),
            "e": ("invalidated", 31),
            "qe": ("unanswered", 31),
            "f": ("invalidated", 31),
            "qf": ("unanswered", 31),
            "d2": ("validated", 32),
            "qd2": ("answered", 14),
            "m": ("validated", 14),
            "q2": ("answered", 36),
            "c2": ("validated", 36),
            "q3": ("answered", 38),
            "c3": ("validated", 38),
            "q4": ("answered", 42),
            "c4a": ("invalidated", 41),
            "kq4": ("unanswered", 41),
            "c4b": ("validated", 42),
        },
        expected_payoffs={"ann": 0, "bea": 32, "cat": -44, "sam": -22, "kim": 33},
        notes="machine skip answers a level-2 question; burn equals one machine cost",
    )


def early_stop_question_root() -> ProtocolFixture:
    """Early-stop run: two answers die fast, the third validates and ends
    the interaction, the fourth is still open when the music stops."""
    cascade = ParameterCascade(
        root_level=1,
        levels={1: LevelParameters(120, 4, 6, 6, 5, 8)},
        machine=MachineParameters(80, 2, 1, 3, 2),
    )
    balances = _funds("orla", "bob", "ben", "cal", "dee", "sam")
    target = Statement(
        conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo"
    )
    inst = create_root_question(
        "orla", target, cascade, 0, balances=balances, mode=EARLY_STOP
    )
    labels = {"root": inst.root_id}
    labels["c1"] = inst.post_answer_claim("bob", labels["root"], identity_chain(target), 1)
    labels["q1"] = inst.post_question("sam", labels["c1"], 1, 2)
    labels["c2"] = inst.post_answer_claim("ben", labels["root"], identity_chain(target), 3)
    labels["q2"] = inst.post_question("sam", labels["c2"], 1, 4)
    labels["c3"] = inst.post_answer_claim("cal", labels["root"], identity_chain(target), 5)
    labels["c4"] = inst.post_answer_claim("dee", labels["root"], identity_chain(target), 6)
    return ProtocolFixture(
        name="early_stop_question_root",
        instance=inst,
        balances=balances,
        final_time=11,
        labels=labels,
        expected={
            "root": ("answered", 11),
            "c1": ("invalidated", 4),
            "q1": ("unanswered", 4),
            "c2": ("invalidated", 6),
            "q2": ("unanswered", 6),
            "c3": ("validated", 11),
            "c4": ("pending", -1),
        },
        expected_payoffs={
            "orla": 3,
            "bob": -10,
            "ben": -10,
            "cal": 5,
            "dee": 0,
            "sam": 12,
        },
        notes="the pending fourth answer is refunded in full at settlement",
    )


PROTOCOL_FIXTURES = {
    "validated_root_claim": validated_root_claim,
    "invalidated_root_claim": invalidated_root_claim,
    "answered_root_question": answered_root_question,
    "unanswered_root_question": unanswered_root_question,
    "full_run_claim_root": full_run_claim_root,
    "early_stop_question_root": early_stop_question_root,
}


# --------------------------------------------------------------------------
# simulation scenario presets

STRATEGY_KINDS = {
    "idle": IdleStrategy,
    "honest_claimer": HonestClaimer,
    "honest_defender": HonestDefender,
    "honest_skeptic": HonestSkeptic,
    "copycat_defender": CopycatDefender,
    "carpet_bomber": CarpetBomber,
    "nitpicker": Nitpicker,
    "evasive_prover": EvasiveProver,
    "sandbagger": Sandbagger,
    "misleader": Misleader,
    "plagiarist": Plagiarist,
}

_TREES = {
    "solid": solid_tree,
    "rotten": rotten_tree,
    "flat": flat_tree,
}


# Name -> scenario with its trees still to be built; the order is PRESET_NAMES.
_PRESETS: dict[str, dict[str, Any]] = {
    "happy_path": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 8,
        "seed": 7,
        "trees": {"solid": None},
        "root": {"kind": "claim", "owner": "alice", "tree": "solid"},
        "agents": [
            {"name": "alice", "balance": 100, "strategy": {"kind": "honest_claimer"}, "knows": "solid"},
        ],
    },
    "invalid_leaf": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 20,
        "seed": 7,
        "trees": {"rotten": None},
        "root": {"kind": "claim", "owner": "alice", "tree": "rotten"},
        "agents": [
            {"name": "alice", "balance": 100, "strategy": {"kind": "honest_claimer"}, "knows": "rotten"},
            {"name": "kate", "balance": 100, "strategy": {"kind": "honest_skeptic"}, "knows": "rotten"},
        ],
    },
    "carpet_bomber": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 25,
        "seed": 11,
        "trees": {"solid": None},
        "root": {"kind": "claim", "owner": "alice", "tree": "solid"},
        "agents": [
            {"name": "alice", "balance": 100, "strategy": {"kind": "idle"}},
            {"name": "carol", "balance": 200, "strategy": {"kind": "honest_defender"}, "knows": "solid"},
            {"name": "bomber", "balance": 200, "strategy": {"kind": "carpet_bomber"}},
        ],
    },
    "nitpicker": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 25,
        "seed": 5,
        "trees": {"solid": None},
        "root": {"kind": "claim", "owner": "alice", "tree": "solid"},
        "agents": [
            {"name": "alice", "balance": 150, "strategy": {"kind": "honest_claimer"}, "knows": "solid"},
            {"name": "nick", "balance": 100, "strategy": {"kind": "nitpicker"}},
        ],
    },
    "evasive_prover": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 25,
        "seed": 3,
        "trees": {"solid": None},
        "root": {"kind": "claim", "owner": "alice", "tree": "solid"},
        "agents": [
            {
                "name": "alice",
                "balance": 200,
                "strategy": {"kind": "evasive_prover", "params": {"pad": 2}},
                "knows": "solid",
            },
            {"name": "nick", "balance": 100, "strategy": {"kind": "nitpicker"}},
        ],
    },
    "sandbagger": {
        "cascade": _question_cascade().to_json(),
        "mode": QUIESCENCE,
        "horizon": 30,
        "seed": 13,
        "trees": {"rotten": None},
        "root": {"kind": "question", "owner": "org", "tree_target": "rotten"},
        "agents": [
            {"name": "org", "balance": 100, "strategy": {"kind": "idle"}},
            {
                "name": "sandy",
                "balance": 300,
                "strategy": {"kind": "sandbagger", "params": {"copies": 2}},
                "knows": "rotten",
            },
            {"name": "kate", "balance": 100, "strategy": {"kind": "honest_skeptic"}, "knows": "rotten"},
        ],
    },
    "misleader_immediate": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 25,
        "seed": 2,
        "trees": {"rotten": None},
        "root": {"kind": "claim", "owner": "mia", "tree": "rotten"},
        "agents": [
            {
                "name": "mia",
                "balance": 200,
                "strategy": {"kind": "misleader", "params": {"variant": "immediate"}},
                "knows": "rotten",
            },
        ],
    },
    "misleader_deadline": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 25,
        "seed": 2,
        "trees": {"rotten": None},
        "root": {"kind": "claim", "owner": "mia", "tree": "rotten"},
        "agents": [
            {
                "name": "mia",
                "balance": 200,
                "strategy": {"kind": "misleader", "params": {"variant": "deadline"}},
                "knows": "rotten",
            },
        ],
    },
    "plagiarist_defense": {
        "cascade": _claim_cascade(2).to_json(),
        "mode": QUIESCENCE,
        "horizon": 25,
        "seed": 17,
        "trees": {"flat": None},
        "root": {"kind": "claim", "owner": "alice", "tree": "flat"},
        "agents": [
            {
                "name": "alice",
                "balance": 200,
                "strategy": {"kind": "copycat_defender", "params": {"delay": 2}},
                "knows": "flat",
            },
            {"name": "bob", "balance": 5, "strategy": {"kind": "nitpicker"}},
            {"name": "charlie", "balance": 200, "strategy": {"kind": "plagiarist"}},
        ],
    },
}

PRESET_NAMES = tuple(_PRESETS)


def preset_scenario(name: str) -> dict[str, Any]:
    """The named scenario as a JSON-able config dict, fresh on every call."""
    if name not in _PRESETS:
        raise KeyError(f"unknown scenario preset {name!r}")
    return json.loads(_preset_text(name))


@functools.cache
def _preset_text(name: str) -> str:
    """The named scenario's JSON text with its trees built, once per process."""
    doc = _PRESETS[name]
    return json.dumps({**doc, "trees": {t: json.loads(_tree_text(t)) for t in doc["trees"]}})


@functools.cache
def _tree_text(name: str) -> str:
    """The named knowledge tree's canonical text, built once per process."""
    return _TREES[name]().canonical()


# Fields of the objects in a scenario file; a root's depend on its kind.
_SCENARIO_FIELDS = frozenset({"agents", "cascade", "horizon", "mode", "root", "seed", "trees"})
_ROOT_FIELDS = {
    "claim": (frozenset({"kind", "owner", "time", "tree"}), ("owner", "tree")),
    "question": (frozenset({"kind", "owner", "statement", "time", "tree_target"}), ("owner",)),
}
_AGENT_FIELDS = frozenset({"balance", "knows", "name", "strategy"})
_STRATEGY_FIELDS = frozenset({"kind", "params"})


def _build_strategy(spec: Any, agent: str):
    spec = read_object(spec, "strategy", _STRATEGY_FIELDS, ("kind",))
    kind = spec["kind"]
    strategy = lookup(STRATEGY_KINDS, kind, "strategy kind")
    params = spec.get("params", {})
    return strategy(**read_object(params, f"{kind} params of agent {agent!r}", strategy.PARAMS))


def scenario_from_json(doc: Any) -> ScenarioConfig:
    """Build a runnable scenario from its JSON form. Trees are shared by
    name; an agent's `knows` entry grants it the full tree as knowledge.
    Decoding is strict: every object must have only its own fields and
    every required one, every count must be an integer (booleans are not),
    every agent name a string and every name a known one, or this raises a
    ValueError."""
    doc = read_object(doc, "scenario", _SCENARIO_FIELDS, ("cascade", "root", "agents", "horizon"))
    cascade = ParameterCascade.from_json(doc["cascade"])
    trees = {
        name: chain_from_json(tree_doc)
        for name, tree_doc in read_object(doc.get("trees", {}), "trees").items()
    }
    root = read_object(doc["root"], "root")
    root = read_object(root, "root", *lookup(_ROOT_FIELDS, root.get("kind"), "root kind"))
    root_tree = root_statement = None
    if root["kind"] == "claim":
        tree = root["tree"]
        root_tree = lookup(trees, tree, "tree") if isinstance(tree, str) else chain_from_json(tree)
    elif "tree_target" in root:
        root_statement = lookup(trees, root["tree_target"], "tree").target
    elif "statement" in root:
        root_statement = Statement.from_json(root["statement"])
    else:
        raise ValueError("root needs statement or tree_target")

    if not isinstance(doc["agents"], list):
        raise ValueError(f"agents must be an array, not {type(doc['agents']).__name__}")
    agents = []
    for spec in doc["agents"]:
        spec = read_object(spec, "agent", _AGENT_FIELDS, ("name", "balance", "strategy"))
        name, knows = spec["name"], spec.get("knows")
        if not isinstance(name, str):
            raise ValueError(f"agent name must be a string, got {name!r}")
        agents.append(
            AgentSpec(
                name=name,
                balance=read_int(spec["balance"], "balance"),
                strategy=_build_strategy(spec["strategy"], name),
                tree=None if knows is None else lookup(trees, knows, "tree"),
            )
        )

    return ScenarioConfig(
        cascade=cascade,
        agents=agents,
        root_owner=root["owner"],
        horizon=read_int(doc["horizon"], "horizon"),
        seed=read_int(doc.get("seed", 0), "seed"),
        mode=doc.get("mode", QUIESCENCE),
        root_tree=root_tree,
        root_statement=root_statement,
        root_time=read_int(root.get("time", 0), "root.time"),
    )
