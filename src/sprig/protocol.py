"""The debate protocol: staked claims, bounty-carrying questions, resolution.

A claim at level ``l >= 1`` posts a proof chain and locks an upward and a
downward stake. Anyone may dispute one of its steps with a question, locking a
bounty; a question is met by answer claims one level down (or directly at the
machine level). Machine claims burn a fixed execution cost and are judged
instantly by the verifier backend. Statuses propagate: a question is answered
as soon as one of its claims validates, a claim dies as soon as one of its
questions times out unanswered, and surviving nodes are confirmed when their
windows close. Resolution is incremental and goes one instant at a time: a
pending node can change only when it is posted, when its own window closes,
or when one of its children determines, so each instant up to the clock
re-evaluates just those nodes and their ancestors (children first) instead of
the whole tree, and commits each status as soon as it is decided; an early
stop ends at the instant where the root determines. Settlement then routes
every escrowed token: stakes of dead claims pay the defeating side, bounties
of answered questions pay the earliest validated answer, and anything still
held by pending nodes (possible only when the game stops early at the root's
determination) is refunded.

Time is integer ticks; within a tick, moves are ordered by a per-instance
sequence number, so the full order of play is the pair (time, seq). Windows
are strict: a node posted at time T with window W accepts challenges or
answers at times t with t < T + W. An attempted move at time t advances the
clock to t even when the move itself is rejected.

All money is integer tokens; balances plus escrow plus burned is constant
after every operation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from typing import Any, Iterable, Mapping, Union

from .formulas import (
    Statement,
    canonical_json,
    content_hash,
    is_int,
    parse_json,
    read_object,
    text_hash,
)
from .proofs import MachineProof, ProofChain, measure_length, proof_from_json, validate_chain
from .verifier import ToyVerifier, Verdict, VerifierBackend

__all__ = [
    "PENDING",
    "VALIDATED",
    "INVALIDATED",
    "ANSWERED",
    "UNANSWERED",
    "QUIESCENCE",
    "EARLY_STOP",
    "ProtocolError",
    "Timestamp",
    "LevelParameters",
    "MachineParameters",
    "ParameterCascade",
    "ClaimNode",
    "QuestionNode",
    "Ledger",
    "MoveRecord",
    "SettlementTransfer",
    "ProtocolInstance",
    "create_root_claim",
    "create_root_question",
    "post_question",
    "post_answer_claim",
    "advance_clock",
    "resolve",
    "settle",
    "replay",
]

PENDING = "pending"
VALIDATED = "validated"
INVALIDATED = "invalidated"
ANSWERED = "answered"
UNANSWERED = "unanswered"

QUIESCENCE = "quiescence"
EARLY_STOP = "early-stop"


class ProtocolError(Exception):
    """An operation violated the protocol rules."""


@dataclass(frozen=True, order=True)
class Timestamp:
    time: int
    seq: int = 0

    def __str__(self) -> str:
        return f"{self.time}.{self.seq}"

    def to_json(self) -> list[int]:
        return [self.time, self.seq]


def _check_time(t: Any) -> None:
    if not is_int(t):
        raise ProtocolError(f"time must be an integer, got {t!r}")


def _level_number(key: str) -> int:
    if not (key.isdecimal() and key == str(int(key))):
        raise ValueError(f"level keys must be decimal level numbers, got {key!r}")
    return int(key)


def _check_integers(params: Any, **least: int) -> None:
    """Each named field of `params`, in order, must be an integer of at
    least 1 (positive) or 0 (non-negative)."""
    for name, low in least.items():
        v = getattr(params, name)
        if not is_int(v) or v < low:
            raise ValueError(f"{name} must be a {'positive' if low else 'non-negative'} integer")


@dataclass(frozen=True)
class LevelParameters:
    """Knobs for one debate level: proof budget, stakes, windows, bounty."""

    max_length: int
    stake_up: int
    stake_down: int
    verification_time: int
    bounty: int
    response_time: int

    def __post_init__(self) -> None:
        _check_integers(
            self, max_length=1, stake_up=0, stake_down=0, bounty=0,
            verification_time=1, response_time=1,
        )

    def to_json(self) -> Any:
        return {
            "bounty": self.bounty,
            "max_length": self.max_length,
            "response_time": self.response_time,
            "stake_down": self.stake_down,
            "stake_up": self.stake_up,
            "verification_time": self.verification_time,
        }


@dataclass(frozen=True)
class MachineParameters:
    """Bottom-level knobs: posting a machine proof burns `burn_cost`."""

    max_length: int
    stake_up: int
    burn_cost: int
    bounty: int
    response_time: int

    def __post_init__(self) -> None:
        _check_integers(self, max_length=1, stake_up=0, burn_cost=0, bounty=0, response_time=1)

    def to_json(self) -> Any:
        return {
            "bounty": self.bounty,
            "burn_cost": self.burn_cost,
            "max_length": self.max_length,
            "response_time": self.response_time,
            "stake_up": self.stake_up,
        }


def _every_field(cls: Any) -> tuple[frozenset[str], tuple[str, ...]]:
    """`read_object`'s fields and required fields for a dataclass that needs
    every one of its fields, a missing one reported in declaration order."""
    names = tuple(f.name for f in fields(cls))
    return frozenset(names), names


_LEVEL_FIELDS = _every_field(LevelParameters)
_MACHINE_FIELDS = _every_field(MachineParameters)


@dataclass(frozen=True)
class ParameterCascade:
    """Per-level parameters for levels root_level..1 plus the machine level."""

    root_level: int
    levels: Mapping[int, LevelParameters]
    machine: MachineParameters

    def __post_init__(self) -> None:
        if not is_int(self.root_level) or self.root_level < 1:
            raise ValueError("root_level must be an integer of at least 1")
        expected = range(1, self.root_level + 1)
        if len(self.levels) != len(expected) or set(self.levels) != set(expected):
            raise ValueError(f"levels must cover exactly 1 to {self.root_level}")
        object.__setattr__(self, "levels", dict(self.levels))

    def max_length(self, level: int) -> int:
        return self.levels[level].max_length if level >= 1 else self.machine.max_length

    def bounty(self, level: int) -> int:
        return self.levels[level].bounty if level >= 1 else self.machine.bounty

    def response_time(self, level: int) -> int:
        return self.levels[level].response_time if level >= 1 else self.machine.response_time

    def verification_time(self, level: int) -> int:
        return self.levels[level].verification_time

    def to_json(self) -> Any:
        return {
            "levels": {str(k): v.to_json() for k, v in sorted(self.levels.items())},
            "machine": self.machine.to_json(),
            "root_level": self.root_level,
        }

    @staticmethod
    def from_json(doc: Any) -> "ParameterCascade":
        """Decode a cascade file strictly: `levels` must be an object, the
        cascade, each level and `machine` objects with exactly their fields,
        and every parameter and `root_level` an integer."""
        doc = read_object(doc, "cascade", *_CASCADE_FIELDS)
        levels = {
            _level_number(k): LevelParameters(**read_object(v, f"level {k}", *_LEVEL_FIELDS))
            for k, v in read_object(doc["levels"], "levels").items()
        }
        machine = MachineParameters(**read_object(doc["machine"], "machine", *_MACHINE_FIELDS))
        return ParameterCascade(root_level=doc["root_level"], levels=levels, machine=machine)


_CASCADE_FIELDS = _every_field(ParameterCascade)


@dataclass
class ClaimNode:
    id: str
    owner: str
    level: int
    statement: Statement
    proof: ProofChain | MachineProof
    # Hash of the proof's canonical JSON, taken from the move's payload text.
    proof_hash: str
    posted_at: Timestamp
    escrow: int
    origin: str | None = None
    status: str = PENDING
    determination: Timestamp | None = None
    verdict: Verdict | None = None

    kind = "claim"


@dataclass
class QuestionNode:
    id: str
    owner: str
    level: int
    statement: Statement
    posted_at: Timestamp
    escrow: int
    origin: str | None = None
    step_index: int | None = None
    status: str = PENDING
    determination: Timestamp | None = None

    kind = "question"


Node = Union[ClaimNode, QuestionNode]


class Ledger:
    """Integer token accounts plus per-node escrow and a burn counter."""

    def __init__(self, balances: Mapping[str, int] | None = None) -> None:
        self.balances: dict[str, int] = dict(balances or {})
        for account, amount in self.balances.items():
            if amount < 0:
                raise ValueError(f"negative opening balance for {account!r}")
        self.escrowed: dict[str, int] = {}
        self.burned: int = 0

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def lock(self, account: str, node_id: str, amount: int) -> None:
        if amount < 0:
            raise ValueError("cannot lock a negative amount")
        if self.balance(account) < amount:
            raise ProtocolError(
                f"insufficient funds: {account!r} has {self.balance(account)}, needs {amount}"
            )
        self.balances[account] = self.balance(account) - amount
        if amount:
            self.escrowed[node_id] = self.escrowed.get(node_id, 0) + amount

    def burn_from_escrow(self, node_id: str, amount: int) -> None:
        if amount > self.escrowed.get(node_id, 0):
            raise ValueError("burn exceeds escrow")
        self._draw(node_id, amount)
        self.burned += amount

    def pay_from_escrow(self, node_id: str, account: str, amount: int) -> None:
        if amount > self.escrowed.get(node_id, 0):
            raise ValueError("payout exceeds escrow")
        self._draw(node_id, amount)
        self.balances[account] = self.balance(account) + amount

    def _draw(self, node_id: str, amount: int) -> None:
        held = self.escrowed.get(node_id, 0) - amount
        if held:
            self.escrowed[node_id] = held
        else:
            self.escrowed.pop(node_id, None)

    def total(self) -> int:
        return sum(self.balances.values()) + sum(self.escrowed.values()) + self.burned

    def to_json(self) -> Any:
        return {
            "balances": dict(sorted(self.balances.items())),
            "burned": self.burned,
            "escrowed": dict(sorted(self.escrowed.items())),
        }


@dataclass(frozen=True)
class MoveRecord:
    seq: int
    time: int
    actor: str
    kind: str
    payload_hash: str
    # The payload's canonical JSON, composed once when the move was
    # committed from the memoized text of what it posts; the payload itself
    # is not kept as a value.
    payload_json: str

    def line(self, record: str | None = None) -> str:
        """The move's canonical JSON line: fields `actor`, `kind`, `payload`,
        `payload_hash`, `seq` and `time`, in that sorted order, plus a
        `record` tag between `payload_hash` and `seq` when one is given (a
        simulation trace tags its lines). Built around the stored payload
        text: `kind` and `record` are plain identifiers, `seq` and `time`
        integers, and the actor a string, which `encode_basestring` writes
        as `canonical_json` does, so the line costs no `json.dumps`."""
        tag = "" if record is None else f'"record":"{record}",'
        return (
            f'{{"actor":{encode_basestring(self.actor)},"kind":"{self.kind}",'
            f'"payload":{self.payload_json},"payload_hash":"{self.payload_hash}",'
            f'{tag}"seq":{self.seq},"time":{self.time}}}'
        )


@dataclass(frozen=True)
class SettlementTransfer:
    node_id: str
    account: str
    amount: int
    reason: str


class ProtocolInstance:
    """One debate: a root node, the tree beneath it, a ledger and a clock.

    Build instances through `create_root_claim` / `create_root_question`.
    """

    def __init__(
        self,
        cascade: ParameterCascade,
        *,
        balances: Mapping[str, int] | None = None,
        mode: str = QUIESCENCE,
        verifier: VerifierBackend | None = None,
    ) -> None:
        if mode not in (QUIESCENCE, EARLY_STOP):
            raise ValueError(f"unknown mode {mode!r}")
        self.cascade = cascade
        self.mode = mode
        self.verifier: VerifierBackend = verifier if verifier is not None else ToyVerifier()
        self.ledger = Ledger(balances)
        self.nodes: dict[str, Node] = {}
        # The nodes again, in a list for `posted_since`.
        self._posted: list[Node] = []
        self.root_id: str | None = None
        self.clock: int = 0
        self.moves: list[MoveRecord] = []
        self.settled = False
        self.stopped_at: Timestamp | None = None
        self._questions_on: dict[str, list[str]] = {}
        self._answers_to: dict[str, list[str]] = {}
        # Children counted per (origin, owner, None) and, for questions, per
        # (origin, owner, step); see `posted_by`.
        self._posted_by: dict[tuple[str, str, int | None], int] = {}
        self._next_seq = 1
        # Ids of determined nodes, in commit order; append-only. Statuses are
        # committed one instant at a time, so this is (determination,
        # posted_at) order across all resolves: the trace's event order.
        self.determined: list[str] = []
        # Resolution work queues: nodes to evaluate at the next instant, and
        # (deadline, seq, id) for every window still open at the last
        # instant resolved (the clock, or the root's instant after an early
        # stop). `_open` holds the nodes of exactly those entries, in posting
        # order; see `open_nodes`.
        self._dirty: set[str] = set()
        self._deadlines: list[tuple[int, int, str]] = []
        self._open: dict[str, Node] = {}

    # -- reading ----------------------------------------------------------

    def claim(self, node_id: str) -> ClaimNode:
        node = self.nodes.get(node_id)
        if not isinstance(node, ClaimNode):
            raise ProtocolError(f"no such claim {node_id!r}")
        return node

    def question(self, node_id: str) -> QuestionNode:
        node = self.nodes.get(node_id)
        if not isinstance(node, QuestionNode):
            raise ProtocolError(f"no such question {node_id!r}")
        return node

    def questions_on(self, claim_id: str) -> list[QuestionNode]:
        return [self.question(q) for q in self._questions_on.get(claim_id, [])]

    def answers_to(self, question_id: str) -> list[ClaimNode]:
        return [self.claim(c) for c in self._answers_to.get(question_id, [])]

    def posted_by(self, origin: str, owner: str, step: int | None = None) -> int:
        """How many children of `origin` `owner` has posted: answers to a
        question, or questions on a claim (with `step`, on that step only)."""
        return self._posted_by.get((origin, owner, step), 0)

    def claims(self) -> list[ClaimNode]:
        """Every claim, in posting order (as are `questions` and `nodes`)."""
        return [n for n in self.nodes.values() if isinstance(n, ClaimNode)]

    def questions(self) -> list[QuestionNode]:
        return [n for n in self.nodes.values() if isinstance(n, QuestionNode)]

    def posted_since(self, count: int) -> list[Node]:
        """The nodes posted after the first `count`, in posting order: a
        reader that keeps how many it has read gets only the new ones."""
        return self._posted[count:]

    def open_nodes(self) -> Iterable[Node]:
        """The nodes whose window was still open at the last instant
        resolved, in posting order. With the clock resolved, this holds every
        node whose deadline is after the clock, so a reader filtering on
        `deadline > now` for a `now` at or after the clock sees the same
        nodes as a scan of the whole tree, without touching the closed ones."""
        return self._open.values()

    def question_deadline(self, q: QuestionNode) -> int:
        return q.posted_at.time + self.cascade.response_time(q.level)

    def claim_deadline(self, c: ClaimNode) -> int:
        if c.level == 0:
            return c.posted_at.time
        return c.posted_at.time + self.cascade.verification_time(c.level)

    def _deadline(self, node: Node) -> int:
        if isinstance(node, ClaimNode):
            return self.claim_deadline(node)
        return self.question_deadline(node)

    def max_deadline(self) -> int:
        return max([self.clock] + [self._deadline(node) for node in self._open.values()])

    # -- move plumbing ----------------------------------------------------

    def _begin_move(self, time: int) -> int:
        _check_time(time)
        if self.settled:
            raise ProtocolError("instance already settled")
        if time < self.clock:
            raise ProtocolError(f"time moving backwards: move at {time}, clock at {self.clock}")
        self.clock = time
        self.resolve()
        if self.stopped_at is not None and Timestamp(time, self._next_seq) > self.stopped_at:
            raise ProtocolError(f"interaction ended at {self.stopped_at}")
        return time

    def _commit_move(self, time: int, actor: str, kind: str, payload_json: str) -> Timestamp:
        """Record a move. `payload_json` is the payload's canonical JSON,
        composed by the caller from the canonical text of what it posts: the
        one encoding of the payload, which the payload hash and the move-log
        line are both taken from."""
        stamp = Timestamp(time, self._next_seq)
        self._next_seq += 1
        self.moves.append(
            MoveRecord(
                seq=stamp.seq,
                time=time,
                actor=actor,
                kind=kind,
                payload_hash=text_hash(payload_json),
                payload_json=payload_json,
            )
        )
        return stamp

    def _add_node(self, node: Node) -> None:
        """Link a freshly posted node into the tree and queue it for the next
        resolve. Its origin needs no visit: a pending child cannot decide it,
        and a child that determines queues its origin itself."""
        self.nodes[node.id] = node
        self._posted.append(node)
        if isinstance(node, QuestionNode):
            self._answers_to[node.id] = []
            if node.origin is not None:
                self._questions_on[node.origin].append(node.id)
        else:
            if node.level >= 1:
                self._questions_on[node.id] = []
            if node.origin is not None:
                self._answers_to[node.origin].append(node.id)
        if node.origin is not None:
            keys = [(node.origin, node.owner, None)]
            if isinstance(node, QuestionNode):
                keys.append((node.origin, node.owner, node.step_index))
            for key in keys:
                self._posted_by[key] = self._posted_by.get(key, 0) + 1
        self._dirty.add(node.id)
        heapq.heappush(self._deadlines, (self._deadline(node), node.posted_at.seq, node.id))
        self._open[node.id] = node

    # -- posting ----------------------------------------------------------

    def _post_root_claim(self, owner: str, statement: Statement, chain: ProofChain, t: int) -> str:
        time = self._begin_move(t)
        top = self.cascade.root_level
        params = self.cascade.levels[top]
        if params.stake_up != 0:
            raise ProtocolError("root claim requires a zero upward stake at the top level")
        posted = chain.stripped()
        self._check_chain_answer(statement, posted, top, ambient=frozenset())
        node_id = f"c{self._next_seq}"
        self.ledger.lock(owner, node_id, params.stake_down)
        proof_json = posted.canonical()
        stamp = self._commit_move(time, owner, "root_claim", f'{{"chain":{proof_json}}}')
        node = ClaimNode(
            id=node_id,
            owner=owner,
            level=top,
            statement=statement,
            proof=posted,
            proof_hash=text_hash(proof_json),
            posted_at=stamp,
            escrow=params.stake_down,
        )
        self._add_node(node)
        self.root_id = node_id
        self.resolve()
        return node_id

    def _post_root_question(self, owner: str, statement: Statement, t: int) -> str:
        time = self._begin_move(t)
        top = self.cascade.root_level
        bounty = self.cascade.bounty(top)
        node_id = f"q{self._next_seq}"
        self.ledger.lock(owner, node_id, bounty)
        stamp = self._commit_move(
            time, owner, "root_question", f'{{"statement":{statement.canonical()}}}'
        )
        node = QuestionNode(
            id=node_id,
            owner=owner,
            level=top,
            statement=statement,
            posted_at=stamp,
            escrow=bounty,
        )
        self._add_node(node)
        self.root_id = node_id
        self.resolve()
        return node_id

    def post_question(self, owner: str, origin: str, step_index: int, t: int) -> str:
        """Dispute step `step_index` (1-based) of the claim `origin`."""
        if not is_int(step_index):
            raise ProtocolError(f"step must be an integer, got {step_index!r}")
        time = self._begin_move(t)
        claim = self.claim(origin)
        if claim.level < 1 or not isinstance(claim.proof, ProofChain):
            raise ProtocolError("machine claims cannot be questioned")
        if not 1 <= step_index <= len(claim.proof.steps):
            raise ProtocolError(
                f"no such step {step_index} in claim {origin!r} "
                f"(has {len(claim.proof.steps)})"
            )
        if time >= self.claim_deadline(claim):
            raise ProtocolError(
                f"window closed: claim {origin!r} accepted questions before "
                f"{self.claim_deadline(claim)}"
            )
        level = claim.level - 1
        node_id = f"q{self._next_seq}"
        self.ledger.lock(owner, node_id, self.cascade.bounty(level))
        stamp = self._commit_move(
            time, owner, "question", f'{{"origin":"{claim.id}","step":{step_index}}}'
        )
        node = QuestionNode(
            id=node_id,
            owner=owner,
            level=level,
            statement=claim.proof.steps[step_index - 1].statement,
            posted_at=stamp,
            escrow=self.cascade.bounty(level),
            origin=origin,
            step_index=step_index,
        )
        self._add_node(node)
        self.resolve()
        return node_id

    def post_answer_claim(
        self, owner: str, origin: str, proof: ProofChain | MachineProof, t: int
    ) -> str:
        """Answer the question `origin` with a chain at its level or a machine proof."""
        time = self._begin_move(t)
        q = self.question(origin)
        if time >= self.question_deadline(q):
            raise ProtocolError(
                f"window closed: question {origin!r} accepted answers before "
                f"{self.question_deadline(q)}"
            )
        node_id = f"c{self._next_seq}"
        verdict: Verdict | None = None
        if isinstance(proof, ProofChain):
            if q.level < 1:
                raise ProtocolError("level-0 questions take machine proofs only")
            level = q.level
            posted: ProofChain | MachineProof = proof.stripped()
            self._check_chain_answer(q.statement, posted, level, ambient=self._ambient(q))
            params = self.cascade.levels[level]
            deposit = params.stake_up + params.stake_down
        else:
            level = 0
            posted = proof
            if proof.target != q.statement:
                raise ProtocolError("structural violation: proof targets a different statement")
            used = measure_length(posted)
            if used > self.cascade.machine.max_length:
                raise ProtocolError(
                    f"length over budget: {used} > {self.cascade.machine.max_length}"
                )
            deposit = self.cascade.machine.stake_up + self.cascade.machine.burn_cost
            verdict = self.verifier.verdict(q.statement, posted, node_id)
        self.ledger.lock(owner, node_id, deposit)
        proof_json = posted.canonical()
        stamp = self._commit_move(
            time, owner, "answer_claim", f'{{"origin":"{q.id}","proof":{proof_json}}}'
        )
        node = ClaimNode(
            id=node_id,
            owner=owner,
            level=level,
            statement=q.statement,
            proof=posted,
            proof_hash=text_hash(proof_json),
            posted_at=stamp,
            escrow=deposit,
            origin=origin,
            verdict=verdict,
        )
        if level == 0:
            self.ledger.burn_from_escrow(node_id, self.cascade.machine.burn_cost)
        self._add_node(node)
        self.resolve()
        return node_id

    def _ambient(self, q: QuestionNode) -> frozenset[str]:
        """Symbols already declared by the chains enclosing this question."""
        names: set[str] = set()
        node: Node | None = q
        while node is not None and node.origin is not None:
            parent = self.nodes[node.origin]
            if isinstance(parent, ClaimNode) and isinstance(parent.proof, ProofChain):
                names |= parent.proof.definitions.names()
            node = parent
        return frozenset(names)

    def _check_chain_answer(
        self, statement: Statement, chain: ProofChain, level: int, ambient: frozenset[str]
    ) -> None:
        if chain.target != statement:
            raise ProtocolError("structural violation: chain targets a different statement")
        report = validate_chain(statement, chain, level_limit=level, ambient=ambient)
        if not report.ok:
            raise ProtocolError(f"structural violation: {report}")
        used = measure_length(chain)
        if used > self.cascade.max_length(level):
            raise ProtocolError(
                f"length over budget: {used} > {self.cascade.max_length(level)}"
            )

    # -- clock and resolution ---------------------------------------------

    def advance_clock(self, time: int) -> list[tuple[str, str, Timestamp]]:
        _check_time(time)
        if time < self.clock:
            raise ProtocolError(f"time moving backwards: clock at {self.clock}, asked for {time}")
        self.clock = time
        return self.resolve()

    def resolve(self) -> list[tuple[str, str, Timestamp]]:
        """Commit the statuses visible at the clock and return the new
        determinations in (determination, posted_at) order. Expired windows
        are taken one instant at a time, earliest first, up to the clock, so
        no later legal move can contradict a committed status; commit order
        across calls is therefore the trace's event order, and `determined`
        records it. Idempotent: a node determined once never changes, later
        calls only add. In early-stop mode the game ends at the instant where
        the root determines, and nothing later is committed.
        """
        changed: list[tuple[str, str, Timestamp]] = []
        while self.stopped_at is None:
            instant = self.clock
            if self._deadlines and self._deadlines[0][0] < instant:
                instant = self._deadlines[0][0]
            while self._deadlines and self._deadlines[0][0] == instant:
                node_id = heapq.heappop(self._deadlines)[2]
                del self._open[node_id]
                self._dirty.add(node_id)
            changed += self._fixpoint(instant)
            if self.mode == EARLY_STOP and self.root_id is not None:
                self.stopped_at = self.nodes[self.root_id].determination
            if instant == self.clock:
                break
        return changed

    def _fixpoint(self, instant: int) -> list[tuple[str, str, Timestamp]]:
        """Commit the determinations at `instant` among the queued nodes and
        their ancestors; return them in (determination, posted_at) order. A
        pending node can change only when it is posted, when its window
        closes, or when a child determines, so only those nodes are queued.
        A node left undecided needs no new queue entry: if its window is
        still open, its deadline entry is still in `_deadlines`; if not, it
        waits on a pending child, which queues it on determining.

        Nodes are evaluated in descending posting order. A child is always
        posted after its parent, so every child is final before its parent
        reads it. Every earlier instant is already committed, so a node
        decided here is determined exactly at `instant`, and each status is
        committed as soon as it is decided: the "first" in "first unanswered
        question defeats the claim" and "first validated answer wins" means
        first in debate time. A node that determines queues its origin.
        """
        queued, self._dirty = self._dirty, set()
        queue = [(-self.nodes[node_id].posted_at.seq, node_id) for node_id in queued]
        heapq.heapify(queue)
        decided: list[Node] = []
        while queue:
            node = self.nodes[heapq.heappop(queue)[1]]
            if node.status != PENDING:
                continue
            outcome = self._decide(node, instant)
            if outcome is None:
                continue
            node.status, node.determination = outcome
            decided.append(node)
            origin = node.origin
            if origin is not None and origin not in queued:
                queued.add(origin)
                heapq.heappush(queue, (-self.nodes[origin].posted_at.seq, origin))
        decided.sort(key=lambda n: (n.determination, n.posted_at))
        self.determined += [n.id for n in decided]
        return [(n.id, n.status, n.determination) for n in decided]

    def _decide(self, node: Node, instant: int) -> tuple[str, Timestamp] | None:
        if isinstance(node, ClaimNode):
            if node.level == 0:  # queued only at its posting instant
                ok = node.verdict is not None and node.verdict.validated
                return (VALIDATED if ok else INVALIDATED, node.posted_at)
            questions = [self.nodes[q] for q in self._questions_on[node.id]]
            dead = [q.determination for q in questions if q.status == UNANSWERED]
            if dead:
                return (INVALIDATED, min(dead))  # type: ignore[type-var]
            deadline = Timestamp(self.claim_deadline(node), 0)
            if deadline.time <= instant and all(q.status == ANSWERED for q in questions):
                return (VALIDATED, max([deadline] + [q.determination for q in questions]))
            return None
        answers = [self.nodes[c] for c in self._answers_to[node.id]]
        won = [c.determination for c in answers if c.status == VALIDATED]
        if won:
            return (ANSWERED, min(won))  # type: ignore[type-var]
        deadline = Timestamp(self.question_deadline(node), 0)
        if deadline.time <= instant and all(c.status == INVALIDATED for c in answers):
            return (UNANSWERED, max([deadline] + [c.determination for c in answers]))
        return None

    # -- settlement ---------------------------------------------------------

    def settle(self) -> list[SettlementTransfer]:
        """Route every escrowed token. Requires final statuses: in quiescence
        mode all windows closed and all nodes determined, in early-stop mode a
        determined root."""
        if self.settled:
            raise ProtocolError("instance already settled")
        self.resolve()
        if self.mode == EARLY_STOP:
            if self.stopped_at is None:
                raise ProtocolError("unresolved nodes: root not yet determined")
        else:
            still_open = list(self._open)
            if still_open:
                raise ProtocolError(f"windows still open for {sorted(still_open)}")
            unresolved = [n.id for n in self.nodes.values() if n.status == PENDING]
            if unresolved:
                raise ProtocolError(f"unresolved nodes: {sorted(unresolved)}")

        transfers: list[SettlementTransfer] = []

        def pay(node_id: str, account: str, amount: int, reason: str) -> None:
            if amount > 0:
                self.ledger.pay_from_escrow(node_id, account, amount)
                transfers.append(SettlementTransfer(node_id, account, amount, reason))

        for node in self.nodes.values():
            held = self.ledger.escrowed.get(node.id, 0)
            if node.status == PENDING:
                pay(node.id, node.owner, held, "escrow refunded")
            elif isinstance(node, ClaimNode):
                if node.status == VALIDATED:
                    pay(node.id, node.owner, held, "stake returned")
                elif node.level == 0:
                    assert node.origin is not None
                    pay(node.id, self.question(node.origin).owner, held,
                        "stake forfeited to questioner")
                else:
                    stake_up = self.cascade.levels[node.level].stake_up
                    if node.origin is not None:
                        pay(node.id, self.question(node.origin).owner, stake_up,
                            "stake forfeited to questioner")
                    else:
                        pay(node.id, node.owner, stake_up, "stake returned")
                    defeater = self._earliest_unanswered(node)
                    pay(node.id, defeater.owner, held - stake_up,
                        "stake paid to defeating question")
            else:
                if node.status == ANSWERED:
                    winner = self._earliest_validated(node)
                    pay(node.id, winner.owner, held, "bounty paid to answer")
                else:
                    pay(node.id, node.owner, held, "bounty reimbursed")

        self.settled = True
        if self.ledger.escrowed:
            raise AssertionError(f"escrow left after settlement: {self.ledger.escrowed}")
        return transfers

    def _earliest_unanswered(self, claim: ClaimNode) -> QuestionNode:
        candidates = [q for q in self.questions_on(claim.id) if q.status == UNANSWERED]
        return min(candidates, key=lambda q: (q.determination, q.posted_at))

    def _earliest_validated(self, q: QuestionNode) -> ClaimNode:
        candidates = [c for c in self.answers_to(q.id) if c.status == VALIDATED]
        return min(candidates, key=lambda c: (c.determination, c.posted_at))

    # -- serialization ------------------------------------------------------

    def snapshot(self) -> str:
        """Canonical JSON of the full observable state (proofs by hash)."""
        nodes = {}
        for node in self.nodes.values():
            doc: dict[str, Any] = {
                "determination": node.determination.to_json() if node.determination else None,
                "escrow": node.escrow,
                "kind": node.kind,
                "level": node.level,
                "origin": node.origin,
                "owner": node.owner,
                "posted_at": node.posted_at.to_json(),
                "statement": node.statement.hash(),
                "status": node.status,
            }
            if isinstance(node, ClaimNode):
                doc["proof"] = node.proof_hash
                if node.verdict is not None:
                    doc["verdict"] = {
                        "diagnostic": node.verdict.diagnostic,
                        "validated": node.verdict.validated,
                    }
            else:
                doc["step"] = node.step_index
            nodes[node.id] = doc
        return canonical_json(
            {
                "clock": self.clock,
                "ledger": self.ledger.to_json(),
                "mode": self.mode,
                "nodes": nodes,
                "root": self.root_id,
                "settled": self.settled,
                "stopped_at": self.stopped_at.to_json() if self.stopped_at else None,
            }
        )

    def move_log_lines(self) -> list[str]:
        return [m.line() for m in self.moves]

    def conservation_total(self) -> int:
        return self.ledger.total()


# -- module-level operations (the documented functional API) ---------------


def create_root_claim(
    owner: str,
    statement: Statement,
    chain: ProofChain,
    cascade: ParameterCascade,
    t: int,
    *,
    balances: Mapping[str, int] | None = None,
    mode: str = QUIESCENCE,
    verifier: VerifierBackend | None = None,
) -> ProtocolInstance:
    """New debate rooted in a staked claim. With `balances=None` the owner
    starts with exactly the required deposit."""
    if balances is None:
        balances = {owner: cascade.levels[cascade.root_level].stake_down}
    instance = ProtocolInstance(cascade, balances=balances, mode=mode, verifier=verifier)
    instance._post_root_claim(owner, statement, chain, t)
    return instance


def create_root_question(
    owner: str,
    statement: Statement,
    cascade: ParameterCascade,
    t: int,
    *,
    balances: Mapping[str, int] | None = None,
    mode: str = QUIESCENCE,
    verifier: VerifierBackend | None = None,
) -> ProtocolInstance:
    """New debate rooted in a bounty-carrying question."""
    if balances is None:
        balances = {owner: cascade.bounty(cascade.root_level)}
    instance = ProtocolInstance(cascade, balances=balances, mode=mode, verifier=verifier)
    instance._post_root_question(owner, statement, t)
    return instance


def post_question(
    instance: ProtocolInstance, owner: str, origin: str, step_index: int, t: int
) -> str:
    return instance.post_question(owner, origin, step_index, t)


def post_answer_claim(
    instance: ProtocolInstance, owner: str, origin: str, proof: ProofChain | MachineProof, t: int
) -> str:
    return instance.post_answer_claim(owner, origin, proof, t)


def advance_clock(instance: ProtocolInstance, to: int) -> list[tuple[str, str, Timestamp]]:
    return instance.advance_clock(to)


def resolve(instance: ProtocolInstance) -> list[tuple[str, str, Timestamp]]:
    return instance.resolve()


def settle(instance: ProtocolInstance) -> list[SettlementTransfer]:
    return instance.settle()


def _int_field(doc: Mapping[str, Any], name: str) -> int:
    value = doc[name]
    if not is_int(value):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


def replay(
    lines: Iterable[str],
    cascade: ParameterCascade,
    *,
    balances: Mapping[str, int] | None = None,
    mode: str = QUIESCENCE,
    verifier: VerifierBackend | None = None,
) -> ProtocolInstance:
    """Rebuild an instance from its move log. Verifies payload hashes and
    decodes strictly: `seq` must be the next sequence number, `seq`, `time`
    and a question's `step` must be integers (booleans are not), and `actor`
    must be a string.

    Each move's payload text is composed once, by the instance that posts
    it, from the memoized canonical text of the decoded proof or statement,
    with no `json.dumps`. A line that is exactly the line the instance
    records for the move carries that text and its hash, so its hash holds;
    any other line (other spacing or key order, or a payload the posted move
    differs from, such as a chain with subproofs) has its payload encoded
    and its hash checked as read. A line whose move fails has its hash
    checked first, so a tampered line reports the mismatch rather than what
    the tampering broke."""
    instance: ProtocolInstance | None = None
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        record = parse_json(raw)
        payload = record["payload"]
        try:
            instance = _replay_move(instance, record, payload, cascade, balances, mode, verifier)
        except Exception:
            _check_payload_hash(record, payload)
            raise
        if raw != instance.moves[-1].line():
            _check_payload_hash(record, payload)
    if instance is None:
        raise ProtocolError("empty move log")
    return instance


def _check_payload_hash(record: Mapping[str, Any], payload: Any) -> None:
    if content_hash(payload) != record["payload_hash"]:
        raise ProtocolError(f"payload hash mismatch at seq {record.get('seq')}")


def _replay_move(
    instance: ProtocolInstance | None,
    record: Mapping[str, Any],
    payload: Any,
    cascade: ParameterCascade,
    balances: Mapping[str, int] | None,
    mode: str,
    verifier: VerifierBackend | None,
) -> ProtocolInstance:
    """Apply one decoded move-log record; the instance, created by a root move."""
    kind, actor, time = record["kind"], record["actor"], _int_field(record, "time")
    if not isinstance(actor, str):
        raise ProtocolError(f"actor must be a string, got {actor!r}")
    if instance is None and kind not in ("root_claim", "root_question"):
        raise ProtocolError(f"log must start with a root move, got {kind!r}")
    seq = _int_field(record, "seq")
    expected = 1 if instance is None else instance._next_seq
    if seq != expected:
        raise ProtocolError(f"seq {seq} out of order, expected {expected}")
    if instance is None:
        if kind == "root_claim":
            chain = ProofChain.from_json(payload["chain"])
            return create_root_claim(
                actor, chain.target, chain, cascade, time,
                balances=balances, mode=mode, verifier=verifier,
            )
        return create_root_question(
            actor, Statement.from_json(payload["statement"]), cascade, time,
            balances=balances, mode=mode, verifier=verifier,
        )
    if kind == "question":
        instance.post_question(actor, payload["origin"], payload["step"], time)
    elif kind == "answer_claim":
        proof = proof_from_json(payload["proof"])
        instance.post_answer_claim(actor, payload["origin"], proof, time)
    else:
        raise ProtocolError(f"unknown move kind {kind!r}")
    return instance
