"""Agent-based simulation of whole debates.

Agents hold private knowledge (a proof tree with machine proofs at the leaves
they can actually defend, plus the ground-truth soundness of every statement
in it) and act through small strategy objects polled once per tick in a
seeded random order. Intents that break protocol rules are rejected and
logged, never fatal. When the horizon is reached the clock jumps past every
open window, the instance settles, and the run is packaged as a trace: every
accepted move, every rejection, every status event, the settlement transfers
and per-agent net payoffs. A trace can re-drive the protocol from its own
move log and must land on a byte-identical snapshot.

The bundled strategies cover honest play (claimer, third-party defender,
ground-truth skeptic) and the classic abuse patterns: carpet bombing every
step, nitpicking one question per claim all the way down, padding answers
with decoy steps, stalling with duplicate answers, self-questioning to
pre-empt real scrutiny, and plagiarising other agents' answers, plus the
copy-the-question defense that beats the plagiarist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable

from .formulas import Statement, canonical_json, read_bool, read_int
from .proofs import ChainStep, MachineProof, ProofChain
from .protocol import (
    EARLY_STOP,
    PENDING,
    QUIESCENCE,
    VALIDATED,
    ClaimNode,
    MoveRecord,
    ParameterCascade,
    ProtocolError,
    ProtocolInstance,
    QuestionNode,
    SettlementTransfer,
    Timestamp,
    create_root_claim,
    create_root_question,
    replay,
)
from .verifier import ToyVerifier, UnscriptedVerdictError, VerifierBackend

# Most ticks from the root move to the horizon that a scenario may span.
# `run_scenario` polls every agent at every tick (~2 µs a tick for the
# presets), so this keeps a run to seconds; the presets span at most 30
# ticks and the wide benchmark debate 4k <= 256.
MAX_RUN_TICKS = 10**6

__all__ = [
    "MAX_RUN_TICKS",
    "Knowledge",
    "build_knowledge",
    "QuestionIntent",
    "AnswerIntent",
    "AgentContext",
    "AgentStrategy",
    "IdleStrategy",
    "ScriptedStrategy",
    "HonestClaimer",
    "HonestDefender",
    "HonestSkeptic",
    "CarpetBomber",
    "Nitpicker",
    "EvasiveProver",
    "Sandbagger",
    "Misleader",
    "Plagiarist",
    "CopycatDefender",
    "AgentSpec",
    "ScenarioConfig",
    "RejectedIntent",
    "SimulationTrace",
    "run_scenario",
    "pad_chain",
]


@dataclass
class Knowledge:
    """An agent's private material: defendable proofs and soundness beliefs.

    `answers` maps a statement hash to the chain that proves it one level
    down; `machine_proofs` to a bottom-level proof. `truth` records which
    statements the agent believes sound; `dubious` marks its own weak spots.
    """

    answers: dict[str, ProofChain] = field(default_factory=dict)
    machine_proofs: dict[str, MachineProof] = field(default_factory=dict)
    truth: dict[str, bool] = field(default_factory=dict)
    dubious: set[str] = field(default_factory=set)

    def can_answer(self, statement: Statement, level: int) -> bool:
        h = statement.hash()
        if level >= 1 and h in self.answers:
            return True
        return h in self.machine_proofs


def build_knowledge(tree: ProofChain | None) -> Knowledge:
    """Index a proof tree: subchains become answers, machine subproofs become
    bottom-level material, soundness is judged bottom-up (a step with no
    subproof is unsound: its owner has nothing to defend it with)."""
    know = Knowledge()
    if tree is None:
        return know
    checker = ToyVerifier()

    def walk(chain: ProofChain, target: Statement) -> bool:
        sound_all = True
        for step in chain.steps:
            h = step.statement.hash()
            if isinstance(step.subproof, ProofChain):
                know.answers[h] = step.subproof
                sound = walk(step.subproof, step.statement)
            elif isinstance(step.subproof, MachineProof):
                know.machine_proofs[h] = step.subproof
                sound = checker.verdict(step.statement, step.subproof).validated
            else:
                sound = False
            know.truth[h] = sound
            if not sound:
                know.dubious.add(h)
            sound_all = sound_all and sound
        know.truth[target.hash()] = sound_all
        if not sound_all:
            know.dubious.add(target.hash())
        return sound_all

    know.answers[tree.target.hash()] = tree
    walk(tree, tree.target)
    return know


@dataclass(frozen=True)
class QuestionIntent:
    origin: str
    step: int
    then_answer: ProofChain | MachineProof | None = None

    kind = "question"


@dataclass(frozen=True)
class AnswerIntent:
    origin: str
    proof: ProofChain | MachineProof

    kind = "answer"


Intent = QuestionIntent | AnswerIntent


@dataclass
class AgentContext:
    """Read-only view handed to a strategy when it is polled."""

    instance: ProtocolInstance
    me: str
    knowledge: Knowledge
    now: int
    rng: random.Random

    def balance(self) -> int:
        return self.instance.ledger.balance(self.me)

    # The open views read the instance's open-window index, so a poll costs
    # the number of open windows, not the size of the tree. `now` is the
    # instance clock, and every node with a deadline after it is in the index.

    def open_questions(self) -> list[QuestionNode]:
        return [
            q
            for q in self.instance.open_nodes()
            if isinstance(q, QuestionNode)
            and q.status == PENDING
            and self.instance.question_deadline(q) > self.now
        ]

    def open_claims(self) -> list[ClaimNode]:
        return [
            c
            for c in self.instance.open_nodes()
            if isinstance(c, ClaimNode)
            and c.level >= 1
            and self.instance.claim_deadline(c) > self.now
        ]

    def answered_by_me(self, question_id: str) -> bool:
        return self.instance.posted_by(question_id, self.me) > 0

    def my_answers(self, question_id: str) -> int:
        return self.instance.posted_by(question_id, self.me)

    def questioned_by_me(self, claim_id: str, step: int | None = None) -> bool:
        return self.instance.posted_by(claim_id, self.me, step) > 0

    def on_my_claim(self, q: QuestionNode) -> bool:
        if q.origin is None:
            return False
        return self.instance.claim(q.origin).owner == self.me

    def question_cost(self, level: int) -> int:
        return self.instance.cascade.bounty(level)

    def answer_cost(self, proof: ProofChain | MachineProof, level: int) -> int:
        if isinstance(proof, MachineProof):
            return self.instance.cascade.machine.stake_up + self.instance.cascade.machine.burn_cost
        params = self.instance.cascade.levels[level]
        return params.stake_up + params.stake_down


class AgentStrategy:
    """Base strategy: do nothing. Subclasses override decide(). `PARAMS`
    names the constructor's keyword parameters that a scenario may set."""

    PARAMS: frozenset[str] = frozenset()

    def decide(self, ctx: AgentContext) -> list[Intent]:
        return []


class IdleStrategy(AgentStrategy):
    pass


class ScriptedStrategy(AgentStrategy):
    """Plays back (time, intent) pairs; useful for fixed test traces."""

    def __init__(self, plays: Iterable[tuple[int, Intent]]):
        self.plays = list(plays)

    def decide(self, ctx: AgentContext) -> list[Intent]:
        return [intent for when, intent in self.plays if when == ctx.now]


class HonestClaimer(AgentStrategy):
    """Defends its own tree: answers questions on its claims (and root
    questions it holds a proof for), with the subchain one level down, or a
    machine proof when the question sits at the bottom. `delay` postpones
    each reply that many ticks past the question, leaving room for
    free-riders to show their hand first."""

    PARAMS = frozenset({"defend_others", "machine_first", "delay"})

    def __init__(
        self, *, defend_others: bool = False, machine_first: bool = False, delay: int = 0
    ):
        self.defend_others = read_bool(defend_others, "defend_others")
        self.machine_first = read_bool(machine_first, "machine_first")
        self.delay = read_int(delay, "delay")

    def _mine_to_defend(self, ctx: AgentContext, q: QuestionNode) -> bool:
        if self.defend_others:
            return True
        if q.origin is None:
            return ctx.knowledge.can_answer(q.statement, q.level)
        return ctx.on_my_claim(q)

    def pick_proof(self, ctx: AgentContext, q: QuestionNode) -> ProofChain | MachineProof | None:
        h = q.statement.hash()
        machine = ctx.knowledge.machine_proofs.get(h)
        chain = ctx.knowledge.answers.get(h) if q.level >= 1 else None
        if q.level < 1:
            return machine
        if self.machine_first and machine is not None:
            return machine
        return chain if chain is not None else machine

    def answer_intents(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()
        for q in ctx.open_questions():
            if not self._mine_to_defend(ctx, q) or ctx.answered_by_me(q.id):
                continue
            if ctx.now < q.posted_at.time + self.delay:
                continue
            proof = self.pick_proof(ctx, q)
            if proof is None:
                continue
            level = 0 if isinstance(proof, MachineProof) else q.level
            cost = ctx.answer_cost(proof, level)
            if cost <= budget:
                intents.append(AnswerIntent(q.id, proof))
                budget -= cost
        return intents

    def decide(self, ctx: AgentContext) -> list[Intent]:
        return self.answer_intents(ctx)


class HonestDefender(HonestClaimer):
    """Answers any question it holds material for, not just its own."""

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("defend_others", True)
        super().__init__(**kwargs)


class HonestSkeptic(AgentStrategy):
    """Questions every step it knows to be unsound, wherever it appears."""

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()
        for c in ctx.open_claims():
            if c.owner == ctx.me or not isinstance(c.proof, ProofChain):
                continue
            for j, step in enumerate(c.proof.steps, start=1):
                h = step.statement.hash()
                if ctx.knowledge.truth.get(h, True):
                    continue
                if ctx.questioned_by_me(c.id, j):
                    continue
                cost = ctx.question_cost(c.level - 1)
                if cost <= budget:
                    intents.append(QuestionIntent(c.id, j))
                    budget -= cost
        return intents


class CarpetBomber(AgentStrategy):
    """Questions every step of every claim it can afford, immediately."""

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()
        for c in ctx.open_claims():
            if c.owner == ctx.me or not isinstance(c.proof, ProofChain):
                continue
            cost = ctx.question_cost(c.level - 1)
            for j in range(1, len(c.proof.steps) + 1):
                if ctx.questioned_by_me(c.id, j):
                    continue
                if cost <= budget:
                    intents.append(QuestionIntent(c.id, j))
                    budget -= cost
        return intents


class Nitpicker(AgentStrategy):
    """One question per claim, chasing every answer down to the machine."""

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()
        for c in ctx.open_claims():
            if c.owner == ctx.me or not isinstance(c.proof, ProofChain):
                continue
            if ctx.questioned_by_me(c.id):
                continue
            cost = ctx.question_cost(c.level - 1)
            if cost <= budget:
                j = ctx.rng.randrange(len(c.proof.steps)) + 1
                intents.append(QuestionIntent(c.id, j))
                budget -= cost
        return intents


def pad_chain(
    chain: ProofChain, pad: int
) -> tuple[ProofChain, dict[str, MachineProof]]:
    """Prepend `pad` decoy steps restating the target's assumptions.

    Decoys are individually machine-provable (one assumption application), so
    a skeptic who bites wastes a bounty. Returns the padded chain and the
    machine proofs for the decoys. Targets without assumptions stay unpadded.
    """
    from .proofs import InferenceStep

    assumptions = chain.target.sorted_assumptions()
    if not assumptions or pad <= 0:
        return chain, {}
    decoys = []
    proofs: dict[str, MachineProof] = {}
    for i in range(pad):
        formula = assumptions[i % len(assumptions)]
        stmt = Statement(
            conclusion=formula,
            assumptions=chain.target.assumptions,
            context=chain.target.context,
        )
        decoys.append(ChainStep(statement=stmt))
        proofs[stmt.hash()] = MachineProof(
            target=stmt, steps=(InferenceStep(formula, "assumption"),)
        )
    shifted = [
        ChainStep(
            statement=s.statement,
            imports=tuple(i + pad for i in s.imports),
            subproof=s.subproof,
        )
        for s in chain.steps
    ]
    return (
        ProofChain(target=chain.target, steps=tuple(decoys + shifted), definitions=chain.definitions),
        proofs,
    )


class EvasiveProver(HonestClaimer):
    """Honest about content, evasive about shape: pads every chain answer
    with decoy steps it can defend, spreading a challenger thin."""

    PARAMS = HonestClaimer.PARAMS | {"pad"}

    def __init__(self, pad: int = 2, **kwargs: Any):
        super().__init__(**kwargs)
        self.pad = read_int(pad, "pad")

    def pick_proof(self, ctx: AgentContext, q: QuestionNode) -> ProofChain | MachineProof | None:
        proof = super().pick_proof(ctx, q)
        if isinstance(proof, ProofChain):
            padded, decoy_proofs = pad_chain(proof, self.pad)
            ctx.knowledge.machine_proofs.update(decoy_proofs)
            for h in decoy_proofs:
                ctx.knowledge.truth.setdefault(h, True)
            return padded
        return proof


class Sandbagger(HonestClaimer):
    """Stalls by answering other people's questions with several duplicate
    claims, each separately staked (and separately killable)."""

    PARAMS = HonestClaimer.PARAMS | {"copies"}

    def __init__(self, copies: int = 2, **kwargs: Any):
        kwargs.setdefault("defend_others", True)
        super().__init__(**kwargs)
        self.copies = read_int(copies, "copies")

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()
        for q in ctx.open_questions():
            proof = self.pick_proof(ctx, q)
            if proof is None:
                continue
            want = 1 if ctx.on_my_claim(q) else self.copies
            have = ctx.my_answers(q.id)
            level = 0 if isinstance(proof, MachineProof) else q.level
            cost = ctx.answer_cost(proof, level)
            for _ in range(max(0, want - have)):
                if cost <= budget:
                    intents.append(AnswerIntent(q.id, proof))
                    budget -= cost
        return intents


class Misleader(HonestClaimer):
    """Questions its own dubious steps and answers itself, hoping the
    self-answered question passes for scrutiny. Variant "immediate" asks and
    answers in the same breath; variant "deadline" sits on the answer until
    the last legal tick."""

    PARAMS = HonestClaimer.PARAMS | {"variant"}

    def __init__(self, variant: str = "immediate", **kwargs: Any):
        super().__init__(**kwargs)
        if variant not in ("immediate", "deadline"):
            raise ValueError(f"unknown misleader variant {variant!r}")
        self.variant = variant

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()

        for c in ctx.open_claims():
            if c.owner != ctx.me or not isinstance(c.proof, ProofChain):
                continue
            for j, step in enumerate(c.proof.steps, start=1):
                h = step.statement.hash()
                if h not in ctx.knowledge.dubious or ctx.questioned_by_me(c.id, j):
                    continue
                answer = ctx.knowledge.answers.get(h) if c.level - 1 >= 1 else None
                cost = ctx.question_cost(c.level - 1)
                if self.variant == "immediate" and answer is not None:
                    cost += ctx.answer_cost(answer, c.level - 1)
                    if cost <= budget:
                        intents.append(QuestionIntent(c.id, j, then_answer=answer))
                        budget -= cost
                elif cost <= budget:
                    intents.append(QuestionIntent(c.id, j))
                    budget -= cost

        for q in ctx.open_questions():
            if q.owner != ctx.me or not ctx.on_my_claim(q) or ctx.answered_by_me(q.id):
                continue
            if self.variant == "deadline":
                if ctx.now != ctx.instance.question_deadline(q) - 1:
                    continue
            proof = self.pick_proof(ctx, q)
            if proof is None:
                continue
            level = 0 if isinstance(proof, MachineProof) else q.level
            cost = ctx.answer_cost(proof, level)
            if cost <= budget:
                intents.append(AnswerIntent(q.id, proof))
                budget -= cost

        # The honest-claimer base still fields other people's questions, but
        # must keep its hands off the self-posed ones timed above.
        base = [
            i
            for i in super().decide(ctx)
            if not (
                isinstance(i, AnswerIntent)
                and ctx.instance.question(i.origin).owner == ctx.me
            )
        ]
        return intents + base


class Plagiarist(AgentStrategy):
    """Free-rides on other people's proofs: answers open questions with
    verbatim copies of answers it has seen (or a one-step restatement when it
    has seen nothing), and mirrors questions asked of it onto claims by
    others that contain the same step."""

    def __init__(self) -> None:
        self._reading: tuple[ProtocolInstance, str] | None = None

    def _catch_up(self, ctx: AgentContext) -> None:
        """Read the nodes posted since the last poll into `_seen` (the first
        proof of each statement claimed by others) and `_asked_of_me` (the
        questions others posed on my claims), both in posting order, so that
        a poll costs the new nodes rather than the tree. A poll of another
        instance or for another agent starts over."""
        if self._reading != (ctx.instance, ctx.me):
            self._reading = (ctx.instance, ctx.me)
            self._read = 0
            self._seen: dict[str, ProofChain | MachineProof] = {}
            self._asked_of_me: list[QuestionNode] = []
        new = ctx.instance.posted_since(self._read)
        self._read += len(new)
        for node in new:
            if node.owner == ctx.me:
                continue
            if isinstance(node, ClaimNode):
                self._seen.setdefault(node.statement.hash(), node.proof)
            elif node.origin is not None and ctx.instance.claim(node.origin).owner == ctx.me:
                self._asked_of_me.append(node)

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = []
        budget = ctx.balance()
        self._catch_up(ctx)

        for q in ctx.open_questions():
            if ctx.answered_by_me(q.id):
                continue
            proof = self._seen.get(q.statement.hash())
            if proof is None and q.level >= 1:
                proof = ProofChain(
                    target=q.statement, steps=(ChainStep(statement=q.statement),)
                )
            if proof is None:
                continue
            if isinstance(proof, ProofChain) and q.level < 1:
                continue
            level = 0 if isinstance(proof, MachineProof) else q.level
            cost = ctx.answer_cost(proof, level)
            if cost <= budget:
                intents.append(AnswerIntent(q.id, proof))
                budget -= cost

        open_claims = ctx.open_claims()
        for q in self._asked_of_me:
            for c in open_claims:
                if c.owner == ctx.me or not isinstance(c.proof, ProofChain):
                    continue
                for j, step in enumerate(c.proof.steps, start=1):
                    if step.statement != q.statement or ctx.questioned_by_me(c.id, j):
                        continue
                    cost = ctx.question_cost(c.level - 1)
                    if cost <= budget:
                        intents.append(QuestionIntent(c.id, j))
                        budget -= cost
        return intents


class CopycatDefender(HonestClaimer):
    """Honest claimer that turns a plagiarist's mirror around: once it has
    answered a question, it poses the same question to every rival answer of
    that question and immediately answers its own copy, so the copycat's
    claim can never determine first."""

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("machine_first", True)
        super().__init__(**kwargs)

    def decide(self, ctx: AgentContext) -> list[Intent]:
        intents: list[Intent] = list(self.answer_intents(ctx))
        budget = ctx.balance() - sum(
            ctx.answer_cost(i.proof, 0 if isinstance(i.proof, MachineProof) else
                            ctx.instance.question(i.origin).level)
            for i in intents
            if isinstance(i, AnswerIntent)
        )
        # Rival answers to the questions I answered, by question and then
        # by answer in posting order. A rival is worth questioning only while
        # its window is open, so the open claims hold all of them.
        rivals = sorted(
            (
                c
                for c in ctx.open_claims()
                if c.origin is not None
                and c.owner != ctx.me
                and isinstance(c.proof, ProofChain)
                and ctx.answered_by_me(c.origin)
            ),
            key=lambda c: (ctx.instance.question(c.origin).posted_at, c.posted_at),
        )
        for rival in rivals:
            for j, step in enumerate(rival.proof.steps, start=1):
                h = step.statement.hash()
                if h not in ctx.knowledge.machine_proofs:
                    continue
                if ctx.questioned_by_me(rival.id, j):
                    continue
                proof = ctx.knowledge.machine_proofs[h]
                cost = ctx.question_cost(rival.level - 1) + ctx.answer_cost(proof, 0)
                if cost <= budget:
                    intents.append(QuestionIntent(rival.id, j, then_answer=proof))
                    budget -= cost
        return intents


@dataclass
class AgentSpec:
    name: str
    balance: int
    strategy: AgentStrategy
    tree: ProofChain | None = None


@dataclass
class ScenarioConfig:
    cascade: ParameterCascade
    agents: list[AgentSpec]
    root_owner: str
    horizon: int
    seed: int = 0
    mode: str = QUIESCENCE
    root_tree: ProofChain | None = None
    root_statement: Statement | None = None
    root_time: int = 0
    verifier: VerifierBackend | None = None

    def __post_init__(self) -> None:
        names = [a.name for a in self.agents]
        if len(set(names)) != len(names):
            raise ValueError("duplicate agent names")
        if self.root_owner not in names:
            raise ValueError("root owner must be one of the agents")
        if (self.root_tree is None) == (self.root_statement is None):
            raise ValueError("exactly one of root_tree / root_statement must be given")
        if self.mode not in (QUIESCENCE, EARLY_STOP):
            raise ValueError(f"unknown mode {self.mode!r}")
        for a in self.agents:
            if a.balance < 0:
                raise ValueError(f"negative opening balance for {a.name!r}")
        if self.root_time < 0:
            raise ValueError(f"negative root time {self.root_time}")
        if self.horizon - self.root_time > MAX_RUN_TICKS:
            raise ValueError(
                f"horizon {self.horizon} is more than {MAX_RUN_TICKS} ticks "
                f"after root time {self.root_time}"
            )


@dataclass(frozen=True)
class RejectedIntent:
    time: int
    actor: str
    kind: str
    detail: str
    reason: str

    def to_json(self) -> Any:
        return {
            "actor": self.actor,
            "detail": self.detail,
            "kind": self.kind,
            "reason": self.reason,
            "time": self.time,
        }


@dataclass
class SimulationTrace:
    cascade: ParameterCascade
    mode: str
    seed: int
    horizon: int
    initial_balances: dict[str, int]
    moves: list[MoveRecord]
    move_lines: list[str]
    rejections: list[RejectedIntent]
    events: list[tuple[str, str, Timestamp]]
    transfers: list[SettlementTransfer]
    final_balances: dict[str, int]
    payoffs: dict[str, int]
    burned: int
    final_clock: int
    final_snapshot: str
    metrics: dict[str, Any]
    instance: ProtocolInstance
    verifier: VerifierBackend

    def to_json_lines(self) -> list[str]:
        lines = [
            canonical_json(
                {
                    "record": "run",
                    "seed": self.seed,
                    "mode": self.mode,
                    "horizon": self.horizon,
                    "balances": dict(sorted(self.initial_balances.items())),
                }
            )
        ]
        for m in self.moves:
            lines.append(m.line(record="move"))
        for r in self.rejections:
            lines.append(canonical_json({"record": "rejection", **r.to_json()}))
        for node_id, status, det in self.events:
            lines.append(
                canonical_json(
                    {
                        "record": "event",
                        "determination": det.to_json(),
                        "node": node_id,
                        "status": status,
                    }
                )
            )
        for t in self.transfers:
            lines.append(
                canonical_json(
                    {
                        "record": "transfer",
                        "account": t.account,
                        "amount": t.amount,
                        "node": t.node_id,
                        "reason": t.reason,
                    }
                )
            )
        lines.append(canonical_json({"record": "summary", **self.summary()}))
        return lines

    def summary(self) -> dict[str, Any]:
        return {
            "burned": self.burned,
            "final_clock": self.final_clock,
            "metrics": self.metrics,
            "payoffs": dict(sorted(self.payoffs.items())),
        }

    def metrics_csv(self) -> list[str]:
        lines = ["agent,initial,final,net"]
        for name in sorted(self.initial_balances):
            lines.append(
                f"{name},{self.initial_balances[name]},"
                f"{self.final_balances.get(name, 0)},{self.payoffs[name]}"
            )
        lines.append(f"__burned__,0,{self.burned},{-self.burned}")
        return lines

    def verify_replay(self) -> None:
        """Drive a fresh instance from the move log; snapshots must match."""
        twin = replay(
            self.move_lines,
            self.cascade,
            balances=self.initial_balances,
            mode=self.mode,
            verifier=self.verifier,
        )
        twin.advance_clock(self.final_clock)
        twin.settle()
        if twin.snapshot() != self.final_snapshot:
            raise AssertionError("replayed snapshot differs from the recorded run")


def _intent_detail(intent: Intent) -> str:
    if isinstance(intent, QuestionIntent):
        extra = "+answer" if intent.then_answer is not None else ""
        return f"question {intent.origin} step {intent.step}{extra}"
    return f"answer {intent.origin}"


def run_scenario(config: ScenarioConfig) -> SimulationTrace:
    """Play a scenario to the end and settle it. Fully deterministic in the
    seed: agent polling order, every strategy's randomness and therefore the
    whole move log depend only on the configuration."""
    verifier = config.verifier if config.verifier is not None else ToyVerifier()
    balances = {a.name: a.balance for a in config.agents}
    if config.root_tree is not None:
        instance = create_root_claim(
            config.root_owner,
            config.root_tree.target,
            config.root_tree,
            config.cascade,
            config.root_time,
            balances=balances,
            mode=config.mode,
            verifier=verifier,
        )
    else:
        assert config.root_statement is not None
        instance = create_root_question(
            config.root_owner,
            config.root_statement,
            config.cascade,
            config.root_time,
            balances=balances,
            mode=config.mode,
            verifier=verifier,
        )

    knowledge = {a.name: build_knowledge(a.tree) for a in config.agents}
    strategies = {a.name: a.strategy for a in config.agents}
    rngs = {a.name: random.Random(f"{config.seed}/{a.name}") for a in config.agents}
    poll_rng = random.Random(f"{config.seed}/poll")

    rejections: list[RejectedIntent] = []
    for now in range(config.root_time, config.horizon + 1):
        instance.advance_clock(now)
        if config.mode == EARLY_STOP and instance.stopped_at is not None:
            break
        order = sorted(strategies)
        poll_rng.shuffle(order)
        for name in order:
            ctx = AgentContext(
                instance=instance,
                me=name,
                knowledge=knowledge[name],
                now=now,
                rng=rngs[name],
            )
            for intent in strategies[name].decide(ctx):
                try:
                    if isinstance(intent, QuestionIntent):
                        qid = instance.post_question(name, intent.origin, intent.step, now)
                        if intent.then_answer is not None:
                            instance.post_answer_claim(name, qid, intent.then_answer, now)
                    else:
                        instance.post_answer_claim(name, intent.origin, intent.proof, now)
                except (ProtocolError, UnscriptedVerdictError) as exc:
                    rejections.append(
                        RejectedIntent(now, name, intent.kind, _intent_detail(intent), str(exc))
                    )

    instance.advance_clock(instance.max_deadline())
    transfers = instance.settle()
    final_balances = dict(instance.ledger.balances)
    payoffs = {a.name: final_balances.get(a.name, 0) - a.balance for a in config.agents}

    claims = instance.claims()
    questions = instance.questions()

    def depth(node_id: str) -> int:
        d, node = 0, instance.nodes[node_id]
        while node.origin is not None:
            node = instance.nodes[node.origin]
            d += 1
        return d

    metrics = {
        "claims": len(claims),
        "questions": len(questions),
        "machine_claims": sum(1 for c in claims if c.level == 0),
        "max_depth": max((depth(n) for n in instance.nodes), default=0),
        "moves": len(instance.moves),
        "rejections": len(rejections),
        "validated_claims": sum(1 for c in claims if c.status == VALIDATED),
    }

    return SimulationTrace(
        cascade=config.cascade,
        mode=config.mode,
        seed=config.seed,
        horizon=config.horizon,
        initial_balances={a.name: a.balance for a in config.agents},
        moves=list(instance.moves),
        move_lines=instance.move_log_lines(),
        rejections=rejections,
        events=[
            (n.id, n.status, n.determination)
            for n in (instance.nodes[i] for i in instance.determined)
        ],
        transfers=transfers,
        final_balances=final_balances,
        payoffs=payoffs,
        burned=instance.ledger.burned,
        final_clock=instance.clock,
        final_snapshot=instance.snapshot(),
        metrics=metrics,
        instance=instance,
        verifier=verifier,
    )
