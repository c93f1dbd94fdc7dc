"""Agent-based simulation of whole debates.

Agents hold private knowledge (a proof tree with machine proofs at the leaves
they can actually defend, plus the ground-truth soundness of every statement
in it, which the kernel judges when the agent's strategy first reads it, so an
agent that never reads it never pays for it) and act through small strategy
objects polled once per tick in a seeded random order. A strategy proposes
protocol `Move`s with their costs, keeps those its balance covers, and the
run posts each through `ProtocolInstance.apply`, as it posts the root move;
a move that breaks protocol rules is rejected and logged, never fatal.
When the horizon is reached the clock jumps past every
open window and the instance settles. The trace of a run is the settled
instance plus what the instance does not hold: the seed, the horizon, the
opening balances, the rejected moves and the settlement transfers. Every
other reading (move log, status events, payoffs, snapshot, metrics) is taken
from the instance when asked for. A trace can re-drive the protocol from its
own move log and must land on a byte-identical snapshot.

The bundled strategies cover honest play (claimer, third-party defender,
ground-truth skeptic) and the classic abuse patterns: carpet bombing every
step, nitpicking one question per claim all the way down, padding answers
with decoy steps, stalling with duplicate answers, self-questioning to
pre-empt real scrutiny, and plagiarising other agents' answers, plus the
copy-the-question defense that beats the plagiarist.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import islice
from typing import Any, Iterable, Iterator, NamedTuple

from . import Record
from .formulas import Statement, canonical_json, read_bool, read_int
from .proofs import ChainStep, InferenceStep, MachineProof, ProofChain
from .protocol import (
    EARLY_STOP,
    PENDING,
    QUIESCENCE,
    VALIDATED,
    Move,
    Node,
    ParameterCascade,
    ProtocolError,
    ProtocolInstance,
    SettlementTransfer,
    replay,
)
from .verifier import ToyVerifier

# Most ticks from the root move to the horizon that a scenario may span.
# `run_scenario` polls every agent at every tick (~2 µs a tick for the
# presets), so this keeps a run to seconds; the presets span at most 30
# ticks and the wide benchmark debate 4k <= 256.
MAX_RUN_TICKS = 10**6

__all__ = [
    "MAX_RUN_TICKS",
    "Knowledge",
    "build_knowledge",
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


class Knowledge(Record):
    """An agent's private material: defendable proofs and soundness beliefs.

    `answers` maps a statement, the one interned object of its value, to the
    chain that proves it one level down; `machine_proofs` maps it to a
    bottom-level proof. `truth` records which statements the agent believes
    sound. A `truth` given here is used as is;
    one left out is judged on its first read, from the tree `build_knowledge`
    indexed, and kept."""

    # The tree whose soundness a first read of `truth` judges, if any.
    _unjudged: ProofChain | None = None

    def __init__(
        self,
        answers: dict[Statement, ProofChain] | None = None,
        machine_proofs: dict[Statement, MachineProof] | None = None,
        truth: dict[Statement, bool] | None = None,
    ) -> None:
        self.answers = {} if answers is None else answers
        self.machine_proofs = {} if machine_proofs is None else machine_proofs
        if truth is not None:
            self.truth = truth

    @cached_property
    def truth(self) -> dict[Statement, bool]:
        truth: dict[Statement, bool] = {}
        if self._unjudged is not None:
            _judge(self._unjudged, self._unjudged.target, truth)
        return truth

    def can_answer(self, statement: Statement, level: int) -> bool:
        if level >= 1 and statement in self.answers:
            return True
        return statement in self.machine_proofs


def _judge(chain: ProofChain, target: Statement, truth: dict[Statement, bool]) -> bool:
    """Record in `truth` whether each step of `chain`, and `target`, is sound,
    bottom-up (a step with no subproof is unsound: its owner has nothing to
    defend it with), and return the target's soundness."""
    sound_all = True
    for step in chain.steps:
        if isinstance(step.subproof, ProofChain):
            sound = _judge(step.subproof, step.statement, truth)
        elif isinstance(step.subproof, MachineProof):
            sound = ToyVerifier().verdict(step.statement, step.subproof).validated
        else:
            sound = False
        truth[step.statement] = sound
        sound_all = sound_all and sound
    truth[target] = sound_all
    return sound_all


def build_knowledge(tree: ProofChain | None) -> Knowledge:
    """Index a proof tree: subchains become answers, machine subproofs become
    bottom-level material. Soundness is judged on the first read of the
    result's `truth`, not here: the kernel checks each machine leaf then, and
    never for an agent whose strategy does not read it."""
    know = Knowledge()
    if tree is None:
        return know

    def index(chain: ProofChain) -> None:
        for step in chain.steps:
            if isinstance(step.subproof, ProofChain):
                know.answers[step.statement] = step.subproof
                index(step.subproof)
            elif isinstance(step.subproof, MachineProof):
                know.machine_proofs[step.statement] = step.subproof

    know.answers[tree.target] = tree
    index(tree)
    know._unjudged = tree
    return know


class AgentContext(Record):
    """Read-only view handed to a strategy when it is polled."""

    def __init__(
        self, instance: ProtocolInstance, me: str, knowledge: Knowledge, rng: random.Random
    ) -> None:
        self.instance = instance
        self.me = me
        self.knowledge = knowledge
        self.rng = rng

    @property
    def now(self) -> int:
        """The instance clock: the time of any move posted from this poll."""
        return self.instance.clock

    def balance(self) -> int:
        return self.instance.ledger.balance(self.me)

    # The open views read the instance's open-window index, so a poll costs
    # the number of open windows, not the size of the tree. Every node with a
    # deadline after the clock is in the index; after an early stop the index
    # also keeps windows that closed since, which the deadline test drops.

    def open_questions(self) -> list[Node]:
        now = self.instance.clock
        return [
            q
            for q in self.instance.open_nodes()
            if q.kind == "question" and q.status == PENDING and q.deadline > now
        ]

    def open_claims(self) -> list[Node]:
        """The open claims at level 1 or above, each of which holds a
        `ProofChain` (`apply` posts no other claim there)."""
        now = self.instance.clock
        return [
            c
            for c in self.instance.open_nodes()
            if c.kind == "claim" and c.level >= 1 and c.deadline > now
        ]

    def answered_by_me(self, question_id: str) -> bool:
        return self.instance.posted_by(question_id, self.me) > 0

    def my_answers(self, question_id: str) -> int:
        return self.instance.posted_by(question_id, self.me)

    def questioned_by_me(self, claim_id: str, step: int | None = None) -> bool:
        return self.instance.posted_by(claim_id, self.me, step) > 0

    def on_my_claim(self, q: Node) -> bool:
        if q.origin is None:
            return False
        return self.instance.claim(q.origin).owner == self.me

    def question_cost(self, level: int) -> int:
        return self.instance.cascade.bounty(level)

    def answer_cost(self, proof: ProofChain | MachineProof, level: int) -> int:
        return self.instance.cascade.deposit(0 if isinstance(proof, MachineProof) else level)


def _affordable(budget: int, proposals: Iterable[tuple[Move, int]]) -> list[Move]:
    """The proposed moves, in order, that each fit `budget` less the cost
    of the moves kept before them; a move that does not fit is skipped."""
    kept: list[Move] = []
    for move, cost in proposals:
        if cost <= budget:
            kept.append(move)
            budget -= cost
    return kept


class AgentStrategy:
    """Base strategy: propose nothing. A strategy proposes and `decide`
    affords: a subclass overrides `proposals`, which yields each candidate
    move with its cost, and `decide` keeps those the agent can lock from its
    balance, as the paper's agents post only what they can stake. One that
    picks its moves otherwise, as `ScriptedStrategy` does, overrides
    `decide`. `PARAMS` names the constructor's keyword parameters that a
    scenario may set."""

    PARAMS: frozenset[str] = frozenset()

    def proposals(self, ctx: AgentContext) -> Iterable[tuple[Move, int]]:
        """Candidate moves, each by `ctx.me` at `ctx.now`, with the tokens
        each locks, in posting order."""
        return ()

    def decide(self, ctx: AgentContext) -> list[Move]:
        """The moves to post now, in order: each proposal whose cost fits the
        balance left by the proposals kept before it. A move stamped with
        another actor or time is rejected unposted. A `question` move with
        a `proof` asks and answers in one breath: the question is posted,
        then, if it posted, an `answer_claim` with that proof; either failing
        gives one rejection record for the pair."""
        return _affordable(ctx.balance(), self.proposals(ctx))


class IdleStrategy(AgentStrategy):
    pass


class ScriptedStrategy(AgentStrategy):
    """Plays back moves, each at its `time`; useful for fixed test traces."""

    def __init__(self, moves: Iterable[Move]):
        self.moves = list(moves)

    def decide(self, ctx: AgentContext) -> list[Move]:
        return [move for move in self.moves if move.time == ctx.now]


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

    def _mine_to_defend(self, ctx: AgentContext, q: Node) -> bool:
        if self.defend_others:
            return True
        if q.origin is None:
            return ctx.knowledge.can_answer(q.statement, q.level)
        return ctx.on_my_claim(q)

    def pick_proof(self, ctx: AgentContext, q: Node) -> ProofChain | MachineProof | None:
        machine = ctx.knowledge.machine_proofs.get(q.statement)
        chain = ctx.knowledge.answers.get(q.statement) if q.level >= 1 else None
        if q.level < 1:
            return machine
        if self.machine_first and machine is not None:
            return machine
        return chain if chain is not None else machine

    def answers(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        for q in ctx.open_questions():
            if not self._mine_to_defend(ctx, q) or ctx.answered_by_me(q.id):
                continue
            if ctx.now < q.posted_at.time + self.delay:
                continue
            proof = self.pick_proof(ctx, q)
            if proof is not None:
                cost = ctx.answer_cost(proof, q.level)
                yield Move("answer_claim", ctx.me, ctx.now, q.id, proof=proof), cost

    def proposals(self, ctx: AgentContext) -> Iterable[tuple[Move, int]]:
        return self.answers(ctx)


class HonestDefender(HonestClaimer):
    """Answers any question it holds material for, not just its own."""

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("defend_others", True)
        super().__init__(**kwargs)


class HonestSkeptic(AgentStrategy):
    """Questions every step it knows to be unsound, wherever it appears."""

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        for c in ctx.open_claims():
            if c.owner == ctx.me:
                continue
            for j, step in enumerate(c.proof.steps, start=1):
                if ctx.knowledge.truth.get(step.statement, True):
                    continue
                if not ctx.questioned_by_me(c.id, j):
                    cost = ctx.question_cost(c.level - 1)
                    yield Move("question", ctx.me, ctx.now, c.id, j), cost


class CarpetBomber(AgentStrategy):
    """Questions every step of every claim it can afford, immediately."""

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        for c in ctx.open_claims():
            if c.owner == ctx.me:
                continue
            steps = len(c.proof.steps)
            # It asks at most once per step: as many questions as steps is all.
            if ctx.instance.posted_by(c.id, ctx.me) == steps:
                continue
            cost = ctx.question_cost(c.level - 1)
            for j in range(1, steps + 1):
                if not ctx.questioned_by_me(c.id, j):
                    yield Move("question", ctx.me, ctx.now, c.id, j), cost


class Nitpicker(AgentStrategy):
    """One question per claim, chasing every answer down to the machine."""

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        # It draws a step from `ctx.rng` only for a question it can afford,
        # so it counts its budget itself: a draw for every candidate would
        # shift its seeded picks whenever the budget binds.
        budget = ctx.balance()
        for c in ctx.open_claims():
            if c.owner == ctx.me or ctx.questioned_by_me(c.id):
                continue
            cost = ctx.question_cost(c.level - 1)
            if cost <= budget:
                budget -= cost
                j = ctx.rng.randrange(len(c.proof.steps)) + 1
                yield Move("question", ctx.me, ctx.now, c.id, j), cost


def pad_chain(
    chain: ProofChain, pad: int
) -> tuple[ProofChain, dict[Statement, MachineProof]]:
    """Prepend `pad` decoy steps restating the target's assumptions.

    Decoys are individually machine-provable (one assumption application), so
    a skeptic who bites wastes a bounty. Returns the padded chain and the
    machine proofs for the decoys. Targets without assumptions stay unpadded.
    """
    assumptions = chain.target.sorted_assumptions()
    if not assumptions or pad <= 0:
        return chain, {}
    decoys = []
    proofs: dict[Statement, MachineProof] = {}
    for i in range(pad):
        formula = assumptions[i % len(assumptions)]
        stmt = Statement(
            conclusion=formula,
            assumptions=chain.target.assumptions,
            context=chain.target.context,
        )
        decoys.append(ChainStep(statement=stmt))
        proofs[stmt] = MachineProof(
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

    def pick_proof(self, ctx: AgentContext, q: Node) -> ProofChain | MachineProof | None:
        proof = super().pick_proof(ctx, q)
        if isinstance(proof, ProofChain):
            padded, decoy_proofs = pad_chain(proof, self.pad)
            ctx.knowledge.machine_proofs.update(decoy_proofs)
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

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        for q in ctx.open_questions():
            proof = self.pick_proof(ctx, q)
            if proof is None:
                continue
            want = 1 if ctx.on_my_claim(q) else self.copies
            cost = ctx.answer_cost(proof, q.level)
            for _ in range(want - ctx.my_answers(q.id)):
                yield Move("answer_claim", ctx.me, ctx.now, q.id, proof=proof), cost


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

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        for c in ctx.open_claims():
            if c.owner != ctx.me:
                continue
            for j, step in enumerate(c.proof.steps, start=1):
                statement = step.statement
                if ctx.knowledge.truth.get(statement, True) or ctx.questioned_by_me(c.id, j):
                    continue
                answer = ctx.knowledge.answers.get(statement) if c.level - 1 >= 1 else None
                cost = ctx.question_cost(c.level - 1)
                if self.variant == "immediate" and answer is not None:
                    cost += ctx.answer_cost(answer, c.level - 1)
                    yield Move("question", ctx.me, ctx.now, c.id, j, proof=answer), cost
                else:
                    yield Move("question", ctx.me, ctx.now, c.id, j), cost

        for q in ctx.open_questions():
            if q.owner != ctx.me or not ctx.on_my_claim(q) or ctx.answered_by_me(q.id):
                continue
            if self.variant == "deadline" and ctx.now != q.deadline - 1:
                continue
            proof = self.pick_proof(ctx, q)
            if proof is not None:
                cost = ctx.answer_cost(proof, q.level)
                yield Move("answer_claim", ctx.me, ctx.now, q.id, proof=proof), cost

        # Then, as an honest claimer, it fields other people's questions on
        # its claims, keeping its hands off the self-posed ones timed above.
        for move, cost in self.answers(ctx):
            if ctx.instance.question(move.origin).owner != ctx.me:
                yield move, cost


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
        questions others posed on my claims), both in posting order. `_read`
        counts the nodes read, and the instance's `nodes` are in posting
        order, so skipping that many leaves the new ones. A poll of another
        instance or for another agent starts over."""
        if self._reading != (ctx.instance, ctx.me):
            self._reading = (ctx.instance, ctx.me)
            self._read = 0
            self._seen: dict[Statement, ProofChain | MachineProof] = {}
            self._asked_of_me: list[Node] = []
        nodes = ctx.instance.nodes
        for node in islice(nodes.values(), self._read, None):
            if node.owner == ctx.me:
                continue
            if node.kind == "claim":
                self._seen.setdefault(node.statement, node.proof)
            elif node.origin is not None and ctx.instance.claim(node.origin).owner == ctx.me:
                self._asked_of_me.append(node)
        self._read = len(nodes)

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        self._catch_up(ctx)

        for q in ctx.open_questions():
            if ctx.answered_by_me(q.id):
                continue
            proof = self._seen.get(q.statement)
            if proof is None and q.level >= 1:
                proof = ProofChain(
                    target=q.statement, steps=(ChainStep(statement=q.statement),)
                )
            if proof is None:
                continue
            if isinstance(proof, ProofChain) and q.level < 1:
                continue
            cost = ctx.answer_cost(proof, q.level)
            yield Move("answer_claim", ctx.me, ctx.now, q.id, proof=proof), cost

        open_claims = ctx.open_claims()
        for q in self._asked_of_me:
            for c in open_claims:
                if c.owner == ctx.me:
                    continue
                for j, step in enumerate(c.proof.steps, start=1):
                    if step.statement != q.statement or ctx.questioned_by_me(c.id, j):
                        continue
                    cost = ctx.question_cost(c.level - 1)
                    yield Move("question", ctx.me, ctx.now, c.id, j), cost


class CopycatDefender(HonestClaimer):
    """Honest claimer that turns a plagiarist's mirror around: once it has
    answered a question, it poses the same question to every rival answer of
    that question and immediately answers its own copy, so the copycat's
    claim can never determine first."""

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("machine_first", True)
        super().__init__(**kwargs)

    def proposals(self, ctx: AgentContext) -> Iterator[tuple[Move, int]]:
        yield from self.answers(ctx)
        # Rival answers to the questions I answered, by question and then
        # by answer in posting order. A rival is worth questioning only while
        # its window is open, so the open claims hold all of them.
        rivals = sorted(
            (
                c
                for c in ctx.open_claims()
                if c.origin is not None
                and c.owner != ctx.me
                and ctx.answered_by_me(c.origin)
            ),
            key=lambda c: (ctx.instance.question(c.origin).posted_at, c.posted_at),
        )
        for rival in rivals:
            for j, step in enumerate(rival.proof.steps, start=1):
                proof = ctx.knowledge.machine_proofs.get(step.statement)
                if proof is None or ctx.questioned_by_me(rival.id, j):
                    continue
                cost = ctx.question_cost(rival.level - 1) + ctx.answer_cost(proof, 0)
                yield Move("question", ctx.me, ctx.now, rival.id, j, proof=proof), cost


class AgentSpec(Record):
    def __init__(
        self, name: str, balance: int, strategy: AgentStrategy, tree: ProofChain | None = None
    ) -> None:
        self.name = name
        self.balance = balance
        self.strategy = strategy
        self.tree = tree


class ScenarioConfig(Record):
    def __init__(
        self,
        cascade: ParameterCascade,
        agents: list[AgentSpec],
        root_owner: str,
        horizon: int,
        seed: int = 0,
        mode: str = QUIESCENCE,
        root_tree: ProofChain | None = None,
        root_statement: Statement | None = None,
        root_time: int = 0,
    ) -> None:
        names = [a.name for a in agents]
        if len(set(names)) != len(names):
            raise ValueError("duplicate agent names")
        if root_owner not in names:
            raise ValueError("root owner must be one of the agents")
        if (root_tree is None) == (root_statement is None):
            raise ValueError("exactly one of root_tree / root_statement must be given")
        if mode not in (QUIESCENCE, EARLY_STOP):
            raise ValueError(f"unknown mode {mode!r}")
        for a in agents:
            if a.balance < 0:
                raise ValueError(f"negative opening balance for {a.name!r}")
        if root_time < 0:
            raise ValueError(f"negative root time {root_time}")
        if horizon - root_time > MAX_RUN_TICKS:
            raise ValueError(
                f"horizon {horizon} is more than {MAX_RUN_TICKS} ticks "
                f"after root time {root_time}"
            )
        self.cascade = cascade
        self.agents = agents
        self.root_owner = root_owner
        self.horizon = horizon
        self.seed = seed
        self.mode = mode
        self.root_tree = root_tree
        self.root_statement = root_statement
        self.root_time = root_time


class RejectedIntent(NamedTuple):
    time: int
    actor: str
    kind: str
    detail: str
    reason: str


class SimulationTrace(Record):
    """A settled run: what the instance does not hold, and the instance,
    which every other reading of the run comes from."""

    def __init__(
        self,
        seed: int,
        horizon: int,
        initial_balances: dict[str, int],
        rejections: list[RejectedIntent],
        transfers: list[SettlementTransfer],
        instance: ProtocolInstance,
    ) -> None:
        self.seed = seed
        self.horizon = horizon
        self.initial_balances = initial_balances
        self.rejections = rejections
        self.transfers = transfers
        self.instance = instance

    @property
    def move_lines(self) -> list[str]:
        return self.instance.move_log_lines()

    @property
    def final_clock(self) -> int:
        return self.instance.clock

    @property
    def final_snapshot(self) -> str:
        return self.instance.snapshot()

    def to_json_lines(self) -> list[str]:
        """The trace as JSON lines: the run, the moves, the rejections, an
        `event` per determined node in commit order (the nodes sorted by
        determination, then posted_at; see `ProtocolInstance.resolve`), the
        transfers and the summary."""
        inst = self.instance
        lines = [
            canonical_json(
                {
                    "record": "run",
                    "seed": self.seed,
                    "mode": inst.mode,
                    "horizon": self.horizon,
                    "balances": dict(sorted(self.initial_balances.items())),
                }
            )
        ]
        lines += inst.move_log_lines(record="move")
        for r in self.rejections:
            lines.append(canonical_json({"record": "rejection", **r._asdict()}))
        determined = [n for n in inst.nodes.values() if n.determination is not None]
        determined.sort(key=lambda n: (n.determination, n.posted_at))
        for node in determined:
            lines.append(
                canonical_json(
                    {
                        "record": "event",
                        "determination": node.determination.to_json(),  # type: ignore[union-attr]
                        "node": node.id,
                        "status": node.status,
                    }
                )
            )
        for t in self.transfers:
            lines.append(canonical_json({"record": "transfer", **t.to_json()}))
        lines.append(canonical_json({"record": "summary", **self.summary()}))
        return lines

    def summary(self) -> dict[str, Any]:
        inst = self.instance
        claims = [n for n in inst.nodes.values() if n.kind == "claim"]
        depth: dict[str, int] = {}
        for node in inst.nodes.values():  # posting order: origins first
            depth[node.id] = 0 if node.origin is None else depth[node.origin] + 1
        return {
            "burned": inst.ledger.burned,
            "final_clock": inst.clock,
            "metrics": {
                "claims": len(claims),
                "questions": len(inst.nodes) - len(claims),
                "machine_claims": sum(1 for c in claims if c.level == 0),
                "max_depth": max(depth.values(), default=0),
                "moves": len(inst.nodes),
                "rejections": len(self.rejections),
                "validated_claims": sum(1 for c in claims if c.status == VALIDATED),
            },
            "payoffs": {
                name: inst.ledger.balance(name) - start
                for name, start in sorted(self.initial_balances.items())
            },
        }

    def metrics_csv(self) -> list[str]:
        ledger = self.instance.ledger
        lines = ["agent,initial,final,net"]
        for name, start in sorted(self.initial_balances.items()):
            final = ledger.balance(name)
            lines.append(f"{name},{start},{final},{final - start}")
        lines.append(f"__burned__,0,{ledger.burned},{-ledger.burned}")
        return lines

    def verify_replay(self) -> None:
        """Drive a fresh instance from the move log; snapshots must match."""
        inst = self.instance
        twin = replay(
            self.move_lines, inst.cascade, balances=self.initial_balances, mode=inst.mode
        )
        twin.advance_clock(inst.clock)
        twin.settle()
        if twin.snapshot() != inst.snapshot():
            raise AssertionError("replayed snapshot differs from the recorded run")


def _rejection(now: int, name: str, move: Move, reason: str) -> RejectedIntent:
    """The record of `move`, from `name`'s poll at `now`, rejected for `reason`."""
    if move.kind == "question":
        extra = "+answer" if move.proof is not None else ""
        detail = f"question {move.origin} step {move.step}{extra}"
        return RejectedIntent(now, name, "question", detail, reason)
    kind = "answer" if move.kind == "answer_claim" else move.kind
    return RejectedIntent(now, name, kind, f"{kind} {move.origin}", reason)


def run_scenario(config: ScenarioConfig) -> SimulationTrace:
    """Play a scenario to the end and settle it. Fully deterministic in the
    seed: agent polling order, every strategy's randomness and therefore the
    whole move log depend only on the configuration."""
    balances = {a.name: a.balance for a in config.agents}
    instance = ProtocolInstance(config.cascade, balances=balances, mode=config.mode)
    tree = config.root_tree
    instance.apply(Move(
        "root_question" if tree is None else "root_claim", config.root_owner, config.root_time,
        statement=config.root_statement if tree is None else tree.target, proof=tree,
    ))

    # Each agent's name, strategy and context, built once and sorted by name:
    # every tick shuffles a fresh copy of this order.
    agents = [
        (a.name, a.strategy, AgentContext(
            instance, a.name, build_knowledge(a.tree), random.Random(f"{config.seed}/{a.name}")
        ))
        for a in sorted(config.agents, key=lambda a: a.name)
    ]
    poll_rng = random.Random(f"{config.seed}/poll")

    rejections: list[RejectedIntent] = []
    for now in range(config.root_time, config.horizon + 1):
        instance.advance_clock(now)
        if config.mode == EARLY_STOP and instance.stopped_at is not None:
            break
        order = agents.copy()
        poll_rng.shuffle(order)
        for name, strategy, ctx in order:
            for move in strategy.decide(ctx):
                try:
                    # Checked here, before `apply` could move the clock.
                    if move.actor != name or move.time != now:
                        raise ProtocolError(
                            f"move by {move.actor!r} at {move.time} from the poll of "
                            f"{name!r} at {now}"
                        )
                    posted = instance.apply(move)
                    if move.kind == "question" and move.proof is not None:
                        instance.apply(Move("answer_claim", name, now, posted, proof=move.proof))
                except ProtocolError as exc:
                    rejections.append(_rejection(now, name, move, str(exc)))

    instance.advance_clock(instance.max_deadline())
    return SimulationTrace(
        seed=config.seed,
        horizon=config.horizon,
        initial_balances=balances,
        rejections=rejections,
        transfers=instance.settle(),
        instance=instance,
    )
