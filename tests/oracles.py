"""Independent re-derivations used to cross-check the package.

Everything here works from raw JSON or first principles and avoids the
library code paths under test: `document_json` is the reference encoder of
proof documents, read off the objects' fields and checked against their
`canonical()` text, `decode_alone` the reference decoder, which decodes
every statement of a proof on its own, `validate_walking` the structural
validator as it walks every formula for its symbols at each use,
`snapshot_json` is the reference value of an instance's
snapshot, built the same way from its fields, the tokenizer walks plain
dicts, the status evaluator is a direct recursive reading of the resolution
rules rather than the engine's incremental push up, the equilibrium oracle
runs on `Fraction` so the frozen spot values in the tests carry no float
noise, and the Monte Carlo reference draws all of its uniforms at once
instead of streaming them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from typing import Any, Iterator, Mapping

from sprig.equilibrium import EquilibriumSolution, McEstimate
from sprig.formulas import (
    MAX_PROOF_DEPTH,
    DefinitionSet,
    Formula,
    ParseError,
    Statement,
    atom,
    conj,
    disj,
    impl,
    neg,
    read_object,
    sym,
)
from sprig.proofs import ChainStep, InferenceStep, MachineProof, ProofChain
from sprig.protocol import ProtocolError, ProtocolInstance
from sprig.verifier import ToyVerifier

# -- raw-JSON tokenizer (length measure oracle) ------------------------------

_CONNECTIVES = ("not", "and", "or", "imp")


def _canon(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def document_json(doc: Any) -> Any:
    """The JSON value of a proof document or of any part of one, written
    from its fields: a formula is a single-key object, a statement sorts its
    assumptions by their `_canon` text and leaves out an empty context, a
    chain step leaves out a missing subproof, and chains and machine proofs
    carry their "kind". A statement has no "kind" here; a posted statement
    document adds it."""
    if isinstance(doc, Formula):
        if doc.op in ("atom", "sym"):
            return {doc.op: doc.name}
        args = [document_json(a) for a in doc.args]
        return {doc.op: args[0] if doc.op == "not" else args}
    if isinstance(doc, Statement):
        out = {
            "assumptions": sorted((document_json(f) for f in doc.assumptions), key=_canon),
            "conclusion": document_json(doc.conclusion),
        }
        if doc.context:
            out["context"] = doc.context
        return out
    if isinstance(doc, DefinitionSet):
        return {
            "imports": list(doc.imports),
            "symbols": [[name, document_json(f)] for name, f in doc.symbols],
        }
    if isinstance(doc, InferenceStep):
        return {"formula": document_json(doc.formula), "premises": list(doc.premises), "rule": doc.rule}
    if isinstance(doc, ChainStep):
        out = {"imports": list(doc.imports), "statement": document_json(doc.statement)}
        if doc.subproof is not None:
            out["subproof"] = document_json(doc.subproof)
        return out
    steps = [document_json(s) for s in doc.steps]
    if isinstance(doc, MachineProof):
        return {"kind": "machine_proof", "steps": steps, "target": document_json(doc.target)}
    assert isinstance(doc, ProofChain), type(doc)
    return {
        "definitions": document_json(doc.definitions),
        "kind": "chain",
        "steps": steps,
        "target": document_json(doc.target),
    }


def formula_tokens(doc: Mapping[str, Any]) -> Iterator[str]:
    (op, body), = doc.items()
    if op in ("atom", "sym"):
        yield body
    elif op == "not":
        yield op
        yield from formula_tokens(body)
    else:
        assert op in _CONNECTIVES, op
        yield op
        yield from formula_tokens(body[0])
        yield from formula_tokens(body[1])


def statement_tokens(doc: Mapping[str, Any]) -> Iterator[str]:
    for assumption in sorted(doc.get("assumptions", []), key=_canon):
        yield from formula_tokens(assumption)
    yield from formula_tokens(doc["conclusion"])


def chain_tokens(doc: Mapping[str, Any]) -> Iterator[str]:
    """Tokens the protocol charges for: definitions, step statements and
    import indices. The target and any nested subproofs stay off the bill."""
    definitions = doc.get("definitions", {})
    yield from definitions.get("imports", [])
    for name, formula in definitions.get("symbols", []):
        yield name
        yield from formula_tokens(formula)
    for step in doc["steps"]:
        yield from statement_tokens(step["statement"])
        for i in step.get("imports", []):
            yield str(i)


def machine_tokens(doc: Mapping[str, Any]) -> Iterator[str]:
    for step in doc["steps"]:
        yield from formula_tokens(step["formula"])
        yield step["rule"]
        for p in step.get("premises", []):
            yield str(p)


def token_count(doc: Mapping[str, Any]) -> int:
    kind = doc.get("kind", "statement")
    if kind == "chain":
        return sum(1 for _ in chain_tokens(doc))
    if kind == "machine_proof":
        return sum(1 for _ in machine_tokens(doc))
    return sum(1 for _ in statement_tokens(doc))


# -- truth tables and single-step proof search (kernel oracle) ---------------


def eval_formula(doc: Mapping[str, Any], valuation: Mapping[str, bool]) -> bool:
    """Classical truth value with `sym` leaves valued like atoms."""
    (op, body), = doc.items()
    if op in ("atom", "sym"):
        return valuation[body]
    if op == "not":
        return not eval_formula(body, valuation)
    if op == "and":
        return eval_formula(body[0], valuation) and eval_formula(body[1], valuation)
    if op == "or":
        return eval_formula(body[0], valuation) or eval_formula(body[1], valuation)
    if op == "imp":
        return (not eval_formula(body[0], valuation)) or eval_formula(body[1], valuation)
    raise AssertionError(op)


def single_step_proofs(statement: Statement) -> list[tuple[str, tuple[int, ...]]]:
    """Every one-step machine proof of the statement, by exhaustion.

    Premises can only be assumptions (there are no earlier steps), addressed
    by negative index into the canonical assumption order. Returns (rule,
    premises) pairs whose single step would verify.
    """
    assumptions = statement.sorted_assumptions()
    refs = {formula: -(i + 1) for i, formula in enumerate(assumptions)}
    goal = statement.conclusion
    found: list[tuple[str, tuple[int, ...]]] = []

    for formula, idx in refs.items():
        if formula == goal:
            found.append(("assumption", ()))
            break
    for a, ia in refs.items():
        if a.op == "and" and a.args[0] == goal:
            found.append(("and_elim_left", (ia,)))
        if a.op == "and" and a.args[1] == goal:
            found.append(("and_elim_right", (ia,)))
        if goal.op == "or" and a == goal.args[0]:
            found.append(("or_intro_left", (ia,)))
        if goal.op == "or" and a == goal.args[1]:
            found.append(("or_intro_right", (ia,)))
        if a.op == "not" and a.args[0].op == "not" and a.args[0].args[0] == goal:
            found.append(("double_neg_elim", (ia,)))
        for b, ib in refs.items():
            if goal.op == "and" and goal.args == (a, b):
                found.append(("and_intro", (ia, ib)))
            if a.op == "imp" and a.args[0] == b and a.args[1] == goal:
                found.append(("impl_elim", (ia, ib)))
            if b.op == "not" and b.args[0] == a:
                found.append(("neg_elim", (ia, ib)))
    return found


# -- declarative status evaluator (resolution oracle) -----------------------


def deadline(cascade, node) -> int:
    """When the node's window closes, worked out from the cascade rather than
    read off the node: a question's after its response time, a chain
    claim's after its verification time, a machine claim's at once."""
    if node.kind == "question":
        return node.posted_at.time + cascade.response_time(node.level)
    if node.level == 0:
        return node.posted_at.time
    return node.posted_at.time + cascade.verification_time(node.level)


def deadlines(instance: ProtocolInstance) -> dict[str, int]:
    return {n.id: deadline(instance.cascade, n) for n in instance.nodes.values()}


def stored_deadlines(instance: ProtocolInstance) -> dict[str, int]:
    """The package's own view, shaped like `deadlines` output."""
    return {n.id: n.deadline for n in instance.nodes.values()}


def brute_force_statuses(
    instance: ProtocolInstance, now: int
) -> dict[str, tuple[str, tuple[int, int] | None]]:
    """Re-derive every node's status and determination time from scratch.

    Walks the debate tree top down, applying the resolution rules as written:
    no incremental bookkeeping, no event ordering, just the recursive
    definition evaluated at one instant. Determinations are (time, seq)
    pairs; pending nodes map to None.
    """
    cascade = instance.cascade
    out: dict[str, tuple[str, tuple[int, int] | None]] = {}

    def ts(node) -> tuple[int, int]:
        return (node.posted_at.time, node.posted_at.seq)

    def eval_claim(c) -> tuple[str, tuple[int, int] | None]:
        if c.level == 0:
            if c.posted_at.time > now:
                return ("pending", None)
            ok = c.verdict is not None and c.verdict.validated
            return ("validated" if ok else "invalidated", ts(c))
        closes = deadline(cascade, c)
        results = [eval_question(q) for q in c.children]
        unanswered = [det for status, det in results if status == "unanswered"]
        if unanswered:
            return ("invalidated", min(unanswered))
        if closes <= now and all(status == "answered" for status, _ in results):
            dets = [det for _, det in results if det is not None]
            return ("validated", max(dets + [(closes, 0)]))
        return ("pending", None)

    def eval_question(q) -> tuple[str, tuple[int, int] | None]:
        closes = deadline(cascade, q)
        answers = q.children
        results = {a.id: eval_claim(a) for a in answers}
        validated = [
            (det, ts(a))
            for a in answers
            for status, det in [results[a.id]]
            if status == "validated"
        ]
        if validated:
            return ("answered", min(validated)[0])
        if closes <= now and all(status == "invalidated" for status, _ in results.values()):
            dets = [det for _, det in results.values() if det is not None]
            return ("unanswered", max(dets + [(closes, 0)]))
        return ("pending", None)

    for node in instance.nodes.values():
        if node.kind == "claim":
            result = eval_claim(node)
        else:
            result = eval_question(node)
        out[node.id] = result
    return out


def observed_statuses(
    instance: ProtocolInstance,
) -> dict[str, tuple[str, tuple[int, int] | None]]:
    """The package's own view, shaped like `brute_force_statuses` output."""
    out = {}
    for node in instance.nodes.values():
        det = None
        if node.determination is not None:
            det = (node.determination.time, node.determination.seq)
        out[node.id] = (node.status, det)
    return out


# -- settlement routing (settlement oracle) -------------------------------------


def settlement_routes(instance: ProtocolInstance) -> list[tuple[str, str, int, str]]:
    """Every transfer `settle()` should make, as (node, account, amount,
    reason), restated from the routing rules.

    Amounts come from the cascade, not the ledger, and the deciding child of
    a node is found by scanning every node for its children: the unanswered
    question, or the validated answer, with the least (determination, posted
    at). A pending node (left by an early stop) refunds its owner; a
    validated claim returns its stake; an invalidated machine claim forfeits
    its stake to the questioner; an invalidated chain claim forfeits its
    upward stake to the questioner (the root has none) and its downward
    stake to the defeating question; an answered question pays its bounty to
    the winning answer and an unanswered one reimburses it. Nodes go in
    posting order, and zero amounts are not paid.
    """
    cascade = instance.cascade
    nodes = sorted(instance.nodes.values(), key=lambda n: n.posted_at)

    def first_child(node, status):
        children = [n for n in nodes if n.origin == node.id and n.status == status]
        return min(children, key=lambda n: (n.determination, n.posted_at))

    routes: list[tuple[str, str, int, str]] = []

    def pay(node, account, amount, reason):
        if amount > 0:
            routes.append((node.id, account, amount, reason))

    for node in nodes:
        if node.kind == "question":
            held = cascade.bounty(node.level)
        elif node.level == 0:
            held = cascade.machine.stake_up
        else:
            stake_up = cascade.levels[node.level].stake_up if node.origin else 0
            held = stake_up + cascade.levels[node.level].stake_down
        if node.status == "pending":
            pay(node, node.owner, held, "escrow refunded")
        elif node.status == "validated":
            pay(node, node.owner, held, "stake returned")
        elif node.status == "invalidated" and node.level == 0:
            pay(node, instance.nodes[node.origin].owner, held, "stake forfeited to questioner")
        elif node.status == "invalidated":
            if node.origin:
                pay(node, instance.nodes[node.origin].owner, stake_up,
                    "stake forfeited to questioner")
            pay(node, first_child(node, "unanswered").owner, held - stake_up,
                "stake paid to defeating question")
        elif node.status == "answered":
            pay(node, first_child(node, "validated").owner, held, "bounty paid to answer")
        else:
            pay(node, node.owner, held, "bounty reimbursed")
    return routes


# -- the state snapshot, built as a value ----------------------------------------


def _digest(doc: Any) -> str:
    return hashlib.sha256(_canon(doc).encode("utf-8")).hexdigest()


def _stamp(stamp) -> list[int] | None:
    return None if stamp is None else [stamp.time, stamp.seq]


def snapshot_json(instance: ProtocolInstance) -> dict[str, Any]:
    """The JSON value that `instance.snapshot()` must encode, built from the
    instance's fields as one dict per node, the way the snapshot was built
    before it was composed as text. Statement and proof hashes are the
    sha256 of the `_canon` text of their `document_json`, so the value
    shares no code with the snapshot."""
    nodes = {}
    for node in instance.nodes.values():
        doc: dict[str, Any] = {
            "determination": _stamp(node.determination),
            "escrow": node.escrow,
            "kind": node.kind,
            "level": node.level,
            "origin": node.origin,
            "owner": node.owner,
            "posted_at": _stamp(node.posted_at),
            "statement": _digest(document_json(node.statement)),
            "status": node.status,
        }
        if node.kind == "claim":
            doc["proof"] = _digest(document_json(node.proof))
            if node.verdict is not None:
                doc["verdict"] = {
                    "diagnostic": node.verdict.diagnostic,
                    "validated": node.verdict.validated,
                }
        else:
            doc["step"] = node.step_index
        nodes[node.id] = doc
    ledger = instance.ledger
    return {
        "clock": instance.clock,
        "ledger": {
            "balances": dict(ledger.balances),
            "burned": ledger.burned,
            "escrowed": dict(ledger.escrowed),
        },
        "mode": instance.mode,
        "nodes": nodes,
        "root": instance.root_id,
        "settled": instance.settled,
        "stopped_at": _stamp(instance.stopped_at),
    }


# -- open windows by full-tree scan --------------------------------------------
#
# The simulator's open views used to be these scans; they now read the
# instance's open-window index, and the tests compare the two. Deadlines come
# from `deadline`, not from the nodes.


def claims(instance: ProtocolInstance) -> list:
    """Every claim of `instance`, in posting order."""
    return [n for n in instance.nodes.values() if n.kind == "claim"]


def questions(instance: ProtocolInstance) -> list:
    """Every question of `instance`, in posting order."""
    return [n for n in instance.nodes.values() if n.kind == "question"]


def scan_open_nodes(instance: ProtocolInstance) -> list:
    """Every node whose window closes after the clock, in posting order."""
    return [
        n for n in instance.nodes.values() if deadline(instance.cascade, n) > instance.clock
    ]


def scan_open_claims(instance: ProtocolInstance, now: int) -> list:
    return [
        c for c in claims(instance) if c.level >= 1 and deadline(instance.cascade, c) > now
    ]


def scan_open_questions(instance: ProtocolInstance, now: int) -> list:
    return [
        q for q in questions(instance)
        if q.status == "pending" and deadline(instance.cascade, q) > now
    ]


# -- soundness by eager walk ---------------------------------------------------
#
# `build_knowledge` used to judge a tree's soundness as it indexed it; it now
# leaves that to the first read of `truth`, and the tests compare the two.


def eager_truth(tree: ProofChain) -> dict[Statement, bool]:
    """Each statement in `tree` mapped to its soundness, entered as a
    post-order walk finishes the statement: a machine leaf is sound when the
    kernel validates it, a chain step when every step of its subchain is, a
    step with no subproof never, and a chain's target when all its steps
    are."""
    truth: dict[Statement, bool] = {}
    kernel = ToyVerifier()

    def sound(step: ChainStep) -> bool:
        if isinstance(step.subproof, MachineProof):
            return kernel.verdict(step.statement, step.subproof).validated
        if isinstance(step.subproof, ProofChain):
            return chain_sound(step.subproof, step.statement)
        return False

    def chain_sound(chain: ProofChain, target: Statement) -> bool:
        verdicts = []
        for step in chain.steps:
            verdicts.append(sound(step))
            truth[step.statement] = verdicts[-1]
        truth[target] = all(verdicts)
        return truth[target]

    chain_sound(tree, tree.target)
    return truth


# -- random debate generator (fuzzing) ---------------------------------------


_FORMULA_POOL = [
    atom("x"), atom("y"), atom("z"),
    conj(atom("x"), atom("y")), disj(atom("y"), atom("z")),
    impl(atom("x"), atom("z")), neg(atom("z")),
]


def _tiny_statement(rng: random.Random, context: str = "fuzz") -> Statement:
    assumptions = frozenset(rng.sample(_FORMULA_POOL, rng.randint(1, 3)))
    if rng.random() < 0.7:
        conclusion = rng.choice(sorted(assumptions, key=lambda f: f.canonical()))
    else:
        conclusion = rng.choice(_FORMULA_POOL)
    return Statement(context=context, assumptions=assumptions, conclusion=conclusion)


def _random_chain(rng: random.Random, target: Statement) -> ProofChain:
    """A structurally valid chain for the target: every step keeps the
    target's assumption set (the occasional import adds the imported
    conclusion), and the last step restates the conclusion."""
    steps: list[ChainStep] = []
    for j in range(rng.randint(0, 2)):
        imports: tuple[int, ...] = ()
        assumptions = set(target.assumptions)
        if steps and rng.random() < 0.5:
            i = rng.randint(1, len(steps))
            imports = (i,)
            assumptions.add(steps[i - 1].statement.conclusion)
        steps.append(
            ChainStep(
                statement=Statement(
                    conclusion=rng.choice(_FORMULA_POOL),
                    assumptions=frozenset(assumptions),
                    context=target.context,
                ),
                imports=imports,
            )
        )
    steps.append(ChainStep(statement=target))
    return ProofChain(target=target, steps=tuple(steps))


def _identity_chain(statement: Statement) -> ProofChain:
    return ProofChain(target=statement, steps=(ChainStep(statement=statement),))


def _machine_answer(rng: random.Random, statement: Statement) -> MachineProof:
    """Sometimes a sound single step, sometimes junk the kernel will refuse."""
    sorted_assumptions = statement.sorted_assumptions()
    if statement.conclusion in sorted_assumptions and rng.random() < 0.8:
        index = sorted_assumptions.index(statement.conclusion) + 1
        step = InferenceStep(statement.conclusion, "assumption", (-index,))
    else:
        step = InferenceStep(statement.conclusion, "double_neg_elim", (-1,))
    return MachineProof(target=statement, steps=(step,))


def random_debate(
    seed: int,
    *,
    max_moves: int = 50,
    max_nodes: int = 8,
) -> tuple[ProtocolInstance, int]:
    """Drive a random legal-ish move sequence; returns (instance, horizon).

    Moves that the protocol rejects still advance the clock, mirroring a
    hostile environment. The returned horizon covers every window.
    """
    from sprig.protocol import (
        LevelParameters,
        MachineParameters,
        ParameterCascade,
        create_root_claim,
        create_root_question,
    )

    rng = random.Random(seed)
    root_level = rng.randint(1, 3)
    levels = {
        level: LevelParameters(
            max_length=400,
            stake_up=0 if level == root_level else rng.randint(1, 4),
            stake_down=rng.randint(1, 5),
            verification_time=rng.randint(2, 5),
            bounty=rng.randint(1, 4),
            response_time=rng.randint(2, 5),
        )
        for level in range(1, root_level + 1)
    }
    cascade = ParameterCascade(
        root_level=root_level,
        levels=levels,
        machine=MachineParameters(
            max_length=200,
            stake_up=rng.randint(1, 3),
            burn_cost=1,
            bounty=rng.randint(1, 3),
            response_time=rng.randint(2, 4),
        ),
    )
    actors = ["ava", "bo", "cy", "dot"]
    balances = {name: 150 for name in actors}
    target = _tiny_statement(rng)
    t = 0
    if rng.random() < 0.5:
        chain = _random_chain(rng, target)
        instance = create_root_claim("ava", target, chain, cascade, t, balances=balances)
    else:
        instance = create_root_question("ava", target, cascade, t, balances=balances)

    for _ in range(rng.randint(0, max_moves)):
        if len(instance.nodes) >= max_nodes:
            break
        t += rng.randint(0, 2)
        actor = rng.choice(actors)
        try:
            if rng.random() < 0.5:
                chains = [c for c in claims(instance) if c.proof.kind == "chain"]
                if not chains:
                    continue
                c = rng.choice(chains)
                step = rng.randint(1, max(1, len(c.proof.steps)))
                instance.post_question(actor, c.id, step, t)
            else:
                asked = questions(instance)
                if not asked:
                    continue
                q = rng.choice(asked)
                if q.level >= 1 and rng.random() < 0.6:
                    proof: ProofChain | MachineProof = (
                        _identity_chain(q.statement)
                        if rng.random() < 0.5
                        else _random_chain(rng, q.statement)
                    )
                else:
                    proof = _machine_answer(rng, q.statement)
                instance.post_answer_claim(actor, q.id, proof, t)
        except ProtocolError:
            pass
    horizon = instance.max_deadline()
    return instance, horizon


# -- structural mutations (validator fuzzing) ---------------------------------


def mutate_chain(doc: Mapping[str, Any], rng: random.Random) -> tuple[str, dict[str, Any]]:
    """One random structural mutation that provably breaks the chain.

    Every entry in the menu is chosen so that validation must report at
    least one violation afterwards: import indices get shifted out of range,
    conclusions are swapped or replaced with formulas that nothing imports,
    assumption sets are grown or shrunk away from the bookkeeping identity,
    and contexts are retargeted. Returns (mutation name, mutated copy).
    """
    out = json.loads(json.dumps(doc))
    steps = out["steps"]
    last = len(steps) - 1

    def conclusion_of(step: Mapping[str, Any]) -> str:
        return _canon(step["statement"]["conclusion"])

    menu: list[tuple[str, Any]] = []

    def self_import() -> None:
        j = rng.randrange(len(steps))
        steps[j].setdefault("imports", []).append(j + 1)

    menu.append(("self_import", self_import))

    imported = sorted({i for s in steps for i in s.get("imports", [])})
    fresh = {"atom": "mutant_conclusion"}

    def fresh_conclusion() -> None:
        victims = [i - 1 for i in imported] + [last]
        steps[rng.choice(victims)]["statement"]["conclusion"] = fresh

    if _canon(out["target"]["conclusion"]) != _canon(fresh):
        menu.append(("fresh_conclusion", fresh_conclusion))

    swappable = [j for j in range(last) if conclusion_of(steps[j]) != conclusion_of(steps[last])]

    def swap_final_conclusion() -> None:
        j = rng.choice(swappable)
        a, b = steps[j]["statement"], steps[last]["statement"]
        a["conclusion"], b["conclusion"] = b["conclusion"], a["conclusion"]

    if swappable:
        menu.append(("swap_final_conclusion", swap_final_conclusion))

    def foreign_context() -> None:
        steps[rng.randrange(len(steps))]["statement"]["context"] = "mutant_context"

    if out["target"].get("context", "") != "mutant_context":
        menu.append(("foreign_context", foreign_context))

    droppable = [j for j, s in enumerate(steps) if s["statement"].get("assumptions")]

    def drop_assumption() -> None:
        assumptions = steps[rng.choice(droppable)]["statement"]["assumptions"]
        assumptions.pop(rng.randrange(len(assumptions)))

    if droppable:
        menu.append(("drop_assumption", drop_assumption))

    extra = {"atom": "mutant_assumption"}

    def add_assumption() -> None:
        stmt = steps[rng.randrange(len(steps))]["statement"]
        stmt.setdefault("assumptions", []).append(extra)

    if all(
        _canon(extra) not in {_canon(f) for f in s["statement"].get("assumptions", [])}
        for s in steps
    ):
        menu.append(("add_assumption", add_assumption))

    name, apply = rng.choice(menu)
    apply()
    return name, out


# -- decoding each part on its own (decode-sharing oracle) --------------------


def decode_alone(doc: Any, levels: int = MAX_PROOF_DEPTH) -> ProofChain | MachineProof:
    """A chain, or a machine proof if its kind says so, decoded with every
    statement in it decoded on its own by `Statement.from_json`, so that no
    part takes the value of another part it restates. The checks, their
    order and their texts are those of `proof_from_json` for a document
    whose nested proofs name their kind, so a failing document raises the
    same error."""
    if levels < 1:
        raise ParseError("document nested too deeply")
    if isinstance(doc, dict) and doc.get("kind") == "machine_proof":
        doc = read_object(doc, "machine proof", frozenset({"kind", "steps", "target"}), ("target",))
        steps = doc.get("steps", [])
        if not isinstance(steps, list):
            raise ParseError("steps must be an array")
        target = Statement.from_json(doc["target"])
        return MachineProof(target, tuple([InferenceStep.from_json(s) for s in steps]))
    doc = read_object(doc, "chain", frozenset({"definitions", "kind", "steps", "target"}),
                      ("target",))
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise ParseError("steps must be an array")
    definitions = DefinitionSet.from_json(doc["definitions"]) if "definitions" in doc else None
    target = Statement.from_json(doc["target"])
    return ProofChain(target, tuple([_step_alone(s, levels) for s in steps]), definitions)


def _step_alone(doc: Any, levels: int) -> ChainStep:
    doc = read_object(doc, "chain step", frozenset({"imports", "statement", "subproof"}),
                      ("statement",))
    imports = doc.get("imports", [])
    if not isinstance(imports, list):
        raise ParseError("imports must be an array")
    statement = Statement.from_json(doc["statement"])
    subproof = decode_alone(doc["subproof"], levels - 1) if "subproof" in doc else None
    return ChainStep(statement, tuple(imports), subproof)


# -- the structural validator, walking symbols each time ------------------------


def walk_symbols(formula: Formula) -> Iterator[str]:
    """The names of a formula's `sym` leaves, repeats included, by a
    depth-first walk that visits the last argument first."""
    stack = [formula]
    while stack:
        f = stack.pop()
        if f.op == "sym":
            yield f.name  # type: ignore[misc]
        else:
            stack.extend(f.args)


def walk_statement_symbols(statement: Statement) -> Iterator[str]:
    for f in statement.sorted_assumptions():
        yield from walk_symbols(f)
    yield from walk_symbols(statement.conclusion)


def validate_walking(
    target: Statement, chain: ProofChain, level_limit: int = 1,
    ambient: frozenset[str] = frozenset(),
) -> list[tuple[str, str, str]]:
    """`validate_chain`'s violations as (code, path, detail), found by
    walking every formula for its symbols at every use and building each
    assumption set it compares: no memoized symbol set is read."""
    out: list[tuple[str, str, str]] = []
    _check_walking(target, chain, level_limit, ambient, "", out)
    return out


def _check_walking(
    target: Statement, chain: ProofChain, level_limit: int, ambient: frozenset[str], path: str,
    out: list[tuple[str, str, str]],
) -> None:
    if chain.target != target:
        out.append(("target mismatch", path, "chain target differs from the disputed statement"))
    declared = frozenset(name for name, _ in chain.definitions.symbols)
    for name in sorted(declared & ambient):
        out.append(("shadowed symbol", path,
                    f"{name!r} is already defined in an enclosing scope"))
    scope = ambient | declared
    seen: set[str] = set()
    for name, f in chain.definitions.symbols:
        for ref in walk_symbols(f):
            if ref not in ambient and ref not in seen:
                out.append(("undeclared symbol", path,
                            f"definition of {name!r} references {ref!r}"))
        seen.add(name)
    for ref in sorted(set(walk_statement_symbols(target)) - scope):
        out.append(("undeclared symbol", path, f"target references {ref!r}"))
    k = len(chain.steps)
    for j, step in enumerate(chain.steps, start=1):
        where = f"{path}step {j}" if not path else f"{path} > step {j}"
        bad = [i for i in step.imports if not 1 <= i <= j - 1]
        if bad:
            out.append(("import out of range", where, f"indices {bad} not in 1..{j - 1}"))
        expected = set(target.assumptions)
        for i in step.imports:
            if 1 <= i <= j - 1:
                expected.add(chain.steps[i - 1].statement.conclusion)
        if set(step.statement.assumptions) != expected:
            missing = expected - set(step.statement.assumptions)
            extra = set(step.statement.assumptions) - expected
            parts = []
            if missing:
                parts.append(f"missing {sorted(str(f) for f in missing)}")
            if extra:
                parts.append(f"extra {sorted(str(f) for f in extra)}")
            out.append(("assumption mismatch", where,
                        "step assumptions must be the target's plus imported conclusions: "
                        + "; ".join(parts)))
        if step.statement.context != target.context:
            out.append(("context mismatch", where,
                        f"step context {step.statement.context!r} differs from target "
                        f"context {target.context!r}"))
        for ref in sorted(set(walk_statement_symbols(step.statement)) - scope):
            out.append(("undeclared symbol", where, f"step references {ref!r}"))
        if step.subproof is None:
            continue
        sub_path = f"{where} subproof"
        if isinstance(step.subproof, ProofChain):
            if level_limit <= 1:
                out.append(("subproof too deep", sub_path,
                            "only machine proofs may appear below this level"))
            else:
                _check_walking(step.statement, step.subproof, level_limit - 1, scope, sub_path,
                               out)
        elif step.subproof.target != step.statement:
            out.append(("target mismatch", sub_path,
                        "machine subproof targets a different statement"))
    if chain.steps[k - 1].statement.conclusion != target.conclusion:
        out.append(("conclusion mismatch", f"{path}step {k}" if not path else f"{path} > step {k}",
                    "final step must conclude exactly the target's conclusion"))


_SYMBOL_NAMES = ("s0", "s1", "s2", "s3", "s4")


def _symbol_formula(rng: random.Random, depth: int = 3) -> Formula:
    """A formula over two atoms and `_SYMBOL_NAMES`, often repeating a
    symbol under one connective."""
    if depth == 0 or rng.random() < 0.3:
        return atom(rng.choice("ab")) if rng.random() < 0.3 else sym(rng.choice(_SYMBOL_NAMES))
    left = _symbol_formula(rng, depth - 1)
    shape = rng.randrange(4)
    if shape == 0:
        return neg(left)
    right = left if rng.random() < 0.2 else _symbol_formula(rng, depth - 1)
    return (conj, disj, impl)[shape - 1](left, right)


def _symbol_statement(rng: random.Random, assumptions: frozenset[Formula] | None = None,
                      context: str = "sym") -> Statement:
    if assumptions is None:
        assumptions = frozenset(_symbol_formula(rng) for _ in range(rng.randint(0, 3)))
    return Statement(_symbol_formula(rng), assumptions, context)


def _symbol_definitions(rng: random.Random) -> DefinitionSet:
    names = rng.sample(_SYMBOL_NAMES, rng.randint(0, 3))
    return DefinitionSet(tuple((name, _symbol_formula(rng)) for name in names))


def symbol_chain(rng: random.Random, target: Statement | None = None,
                 levels: int = 3) -> ProofChain:
    """A chain of 1-4 steps whose definitions, target and steps refer to
    symbols declared, declared later, declared in an enclosing chain or
    never declared, with repeats, and whose steps now and then import out
    of range, change their assumptions or context, or carry a chain
    subproof (up to `levels` deep, with definitions of its own that may
    shadow) or a machine subproof, for the statement or another one."""
    if target is None:
        target = _symbol_statement(rng)
    steps: list[ChainStep] = []
    for j in range(rng.randint(1, 4)):
        imports: tuple[int, ...] = ()
        assumptions = set(target.assumptions)
        if rng.random() < 0.4:
            i = rng.randint(1, j + 1)
            imports = (i,)
            if i <= j:
                assumptions.add(steps[i - 1].statement.conclusion)
        if rng.random() < 0.2:
            assumptions.add(_symbol_formula(rng))
        context = target.context if rng.random() < 0.9 else "other"
        statement = _symbol_statement(rng, frozenset(assumptions), context)
        if j == 0 and rng.random() < 0.3:
            statement = target
        subproof: ProofChain | MachineProof | None = None
        roll = rng.random()
        if roll < 0.3 and levels > 1:
            subproof = symbol_chain(
                rng, statement if rng.random() < 0.8 else _symbol_statement(rng), levels - 1)
        elif roll < 0.5:
            proved = statement if rng.random() < 0.8 else _symbol_statement(rng)
            subproof = MachineProof(proved, (InferenceStep(proved.conclusion, "assumption", (-1,)),))
        steps.append(ChainStep(statement, imports, subproof))
    if rng.random() < 0.7:
        last = steps[-1]
        closing = Statement(target.conclusion, last.statement.assumptions, last.statement.context)
        steps[-1] = ChainStep(closing, last.imports)
    return ProofChain(target if rng.random() < 0.9 else _symbol_statement(rng), tuple(steps),
                      _symbol_definitions(rng))


# -- exact-rational equilibrium oracle ---------------------------------------


def exact_solution(
    b0: Fraction, b1: Fraction, b2: Fraction,
    sigma1: Fraction, sigma2: Fraction, beta0: Fraction, beta1: Fraction,
) -> dict[str, Fraction | int]:
    """Closed-form equilibrium in exact arithmetic.

    Derived from the two-challenge entry game by backward induction; the
    residual checks in `indifference_residuals` pin these formulas to the
    players' actual indifference conditions, so this function and the float
    solver cannot drift apart unnoticed.
    """
    pi1 = (sigma2 + sigma1 + beta1) / (sigma2 + sigma1 + beta1 + beta0)
    q1 = (b1 + sigma2 + beta1) / (b1 + sigma2 + beta1 + sigma1)
    gain = q1 * (b0 + beta1 + beta0) + (1 - q1) * (b1 + beta1)
    slope = (
        -q1 * (beta1 + beta0)
        - (1 - q1) * beta1
        - sigma2
        - (1 - pi1) * (sigma2 + beta1) / pi1
    )

    def reply_prob(pi_e: Fraction) -> Fraction:
        return pi_e * (1 - pi1) / (pi1 * (1 - pi_e))

    # Type 1: challenging is worthwhile even at the always-challenge threshold.
    pi_star = sigma2 / (gain + sigma2)
    pi_e = (1 + pi_star) / 2
    if sigma2 + pi_e * slope >= 0 and reply_prob(pi_e) <= 1:
        return {
            "eq_type": 1, "pi_star": pi_star, "pi_e": pi_e, "pi1_star": pi1,
            "p": reply_prob(pi_e), "q1": q1, "q2": Fraction(1),
        }

    # Type 2: the challenge value has an interior root.
    if slope == 0:
        pi_e = Fraction(1, 2)
    else:
        pi_e = sigma2 / (-slope)
    pi_star = 2 * pi_e - 1
    if pi_star > 0 and reply_prob(pi_e) <= 1:
        q2 = b2 / (b2 - pi_star * gain + (1 - pi_star) * sigma2)
        if 0 < q2 <= 1:
            return {
                "eq_type": 2, "pi_star": pi_star, "pi_e": pi_e, "pi1_star": pi1,
                "p": reply_prob(pi_e), "q1": q1, "q2": q2,
            }

    # Type 3: never challenge, everyone enters. When the indifference
    # posterior sits at or below the uninformed prior 1/2, no bluff rate can
    # drag the reply posterior down to it; the subgame lands on the corner
    # where replies are free (never re-challenged) and therefore certain.
    pi_e = Fraction(1, 2)
    if pi1 <= Fraction(1, 2):
        return {
            "eq_type": 3, "pi_star": Fraction(0), "pi_e": pi_e, "pi1_star": pi1,
            "p": Fraction(1), "q1": Fraction(0), "q2": Fraction(0),
        }
    return {
        "eq_type": 3, "pi_star": Fraction(0), "pi_e": pi_e, "pi1_star": pi1,
        "p": reply_prob(pi_e), "q1": q1, "q2": Fraction(0),
    }


def indifference_residuals(
    b0: Fraction, b1: Fraction, b2: Fraction,
    sigma1: Fraction, sigma2: Fraction, beta0: Fraction, beta1: Fraction,
    sol: Mapping[str, Fraction | int],
) -> dict[str, Fraction]:
    """Exact residuals of the equilibrium's defining equations.

    All should be zero (where the regime makes them binding):

    * reply: a bluffing claimer is indifferent between folding (-sigma2) and
      replying, which wins (b1 + beta1) when the skeptic concedes and loses
      the reply stake on top otherwise.
    * posterior: the skeptic's second-challenge indifference holds at belief
      pi1_star, weighing the bounty spent against the stakes collected.
    * bayes: the entry signal plus bluffing rate reproduce that posterior.
    * entry (type 2): a marginal claimer at the entry threshold is
      indifferent between staying out and posting.
    """
    pi1 = Fraction(sol["pi1_star"])
    q1 = Fraction(sol["q1"])
    q2 = Fraction(sol["q2"])
    p = Fraction(sol["p"])
    pi_star = Fraction(sol["pi_star"])
    pi_e = Fraction(sol["pi_e"])

    residuals: dict[str, Fraction] = {}
    reply_value = (1 - q1) * (b1 + beta1) - q1 * (sigma2 + sigma1)
    residuals["reply"] = reply_value - (-sigma2)
    challenge_win = (1 - pi1) * (sigma2 + sigma1 + beta1)
    challenge_loss = pi1 * beta0
    residuals["posterior"] = challenge_win - challenge_loss
    if pi_e < 1:
        residuals["bayes"] = pi_e - pi1 * (pi_e + (1 - pi_e) * p)
    else:
        residuals["bayes"] = Fraction(0)
    if sol["eq_type"] == 2 and 0 < q2 < 1:
        gain = q1 * (b0 + beta1 + beta0) + (1 - q1) * (b1 + beta1)
        entry_value = q2 * (pi_star * gain - (1 - pi_star) * sigma2) + (1 - q2) * b2
        residuals["entry"] = entry_value
    else:
        residuals["entry"] = Fraction(0)
    return residuals


# -- whole-array Monte Carlo reference ---------------------------------------


def monte_carlo_reference(sol: EquilibriumSolution, n: int, seed: int) -> dict[str, McEstimate]:
    """The game-tree Monte Carlo with every draw held in memory at once.

    Five consecutive `random(n)` calls of one generator (signal,
    provability, entry challenge, bluff, second challenge), one boolean mask
    per event and one masked sum per row: O(n) memory, and the definition
    that the streamed `monte_carlo_estimate` must reproduce exactly.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    signal = rng.random(n)
    u_valid = rng.random(n)
    u_entry = rng.random(n)
    u_bluff = rng.random(n)
    u_second = rng.random(n)

    posted = signal >= sol.pi_star
    valid = u_valid < signal
    challenged = u_entry < sol.q2
    replied = valid | (u_bluff < sol.p)
    rechallenged = u_second < sol.q1

    unchallenged_accept = posted & ~challenged
    replied_accept = posted & challenged & replied & ~rechallenged
    machine_accept = posted & challenged & replied & rechallenged & valid
    accepted = unchallenged_accept | replied_accept | machine_accept

    def est(num: Any, den: Any) -> McEstimate:
        draws = int(den.sum())
        hits = int((num & den).sum())
        if draws == 0:
            return McEstimate(None, None, 0, 0)
        v = hits / draws
        return McEstimate(v, math.sqrt(v * (1 - v) / draws), hits, draws)

    everyone = np.ones(n, dtype=bool)
    accepted_valid = accepted & valid
    return {
        "accept_rate": est(accepted, everyone),
        "valid_accept_rate": est(accepted_valid, everyone),
        "accept_given_valid": est(accepted, valid),
        "accept_given_invalid": est(accepted, ~valid),
        "valid_given_accept": est(valid, accepted),
        "valid_given_reject": est(valid, ~accepted),
        "unchallenged_share": est(unchallenged_accept, accepted_valid),
        "replied_share": est(replied_accept, accepted_valid),
        "reliability": est(valid, accepted),
        "enter_given_valid": est(posted, valid),
    }
