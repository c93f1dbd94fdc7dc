"""The debate protocol: staked claims, bounty-carrying questions, resolution.

A claim at level ``l >= 1`` posts a proof chain and locks an upward and a
downward stake. Anyone may dispute one of its steps with a question, locking a
bounty; a question is met by answer claims one level down (or directly at the
machine level). Machine claims burn a fixed execution cost and are judged
instantly by the one machine checker, `ToyVerifier`. The contract is one
transition: every move, posted by a method, opening a debate or read from a log
by `replay_line`, is a `Move` that `ProtocolInstance.apply` checks and posts.
Each node carries the deadline of its window, fixed when it is posted. Statuses
propagate by one rule that claims and questions mirror (`_RULES`): a question
is answered as soon as one of its claims validates, a claim dies as soon as one
of its questions times out unanswered, and surviving nodes are confirmed when
their windows close. Resolution goes one instant at a time and pushes each
determination up to its origin as it commits: a window that closes closes its
node if every child already has the status the rule needs (a machine claim
closes by its verdict, at once), and a child that commits decides a pending
origin if it is decisive, or else closes an origin whose window has closed once
every child is in. So a determination costs one step up the tree, not a rescan
of the children, and each status is committed with the child that decided it;
an early stop ends at the instant where the root determines. Settlement then
routes every escrowed token: stakes of dead claims pay the defeating question,
bounties of answered questions pay the earliest validated answer (each the
node's recorded decider), and anything still held by pending nodes (possible
only when the game stops early at the root's determination) is refunded.

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
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from . import Frozen, Record
from .formulas import (
    MAX_FORMULA_DEPTH,
    Statement,
    content_hash,
    is_int,
    nested_too_deeply,
    parse_json,
    read_object,
    read_str,
    text_hash,
)
from .proofs import (
    MachineProof,
    ProofChain,
    chain_from_json,
    measure_length,
    proof_from_json,
    validate_chain,
)
from .verifier import ToyVerifier, Verdict

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
    "Node",
    "Ledger",
    "Move",
    "SettlementTransfer",
    "ProtocolInstance",
    "create_root_claim",
    "create_root_question",
    "advance_clock",
    "settle",
    "replay",
    "replay_line",
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


class Timestamp(NamedTuple):
    """A move's place in the order of play: by time, then by seq."""

    time: int
    seq: int = 0

    def __str__(self) -> str:
        return f"{self.time}.{self.seq}"

    def to_json(self) -> list[int]:
        return [self.time, self.seq]


def _integer(name: str, value: Any) -> int:
    """`value` if it is an integer (booleans are not), else a ProtocolError."""
    if not is_int(value):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


def _typed(name: str, value: Any, cls: type | tuple[type, ...], what: str) -> Any:
    """`value` if it is a `cls`, else a ProtocolError saying it must be `what`."""
    if not isinstance(value, cls):
        raise ProtocolError(f"{name} must be {what}, got {value!r}")
    return value


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


class LevelParameters(Frozen):
    """Knobs for one debate level: proof budget, stakes, windows, bounty."""

    def __init__(
        self,
        max_length: int,
        stake_up: int,
        stake_down: int,
        verification_time: int,
        bounty: int,
        response_time: int,
    ) -> None:
        self._set_field("max_length", max_length)
        self._set_field("stake_up", stake_up)
        self._set_field("stake_down", stake_down)
        self._set_field("verification_time", verification_time)
        self._set_field("bounty", bounty)
        self._set_field("response_time", response_time)
        _check_integers(
            self, max_length=1, stake_up=0, stake_down=0, bounty=0,
            verification_time=1, response_time=1,
        )


class MachineParameters(Frozen):
    """Bottom-level knobs: posting a machine proof burns `burn_cost`."""

    def __init__(
        self, max_length: int, stake_up: int, burn_cost: int, bounty: int, response_time: int
    ) -> None:
        self._set_field("max_length", max_length)
        self._set_field("stake_up", stake_up)
        self._set_field("burn_cost", burn_cost)
        self._set_field("bounty", bounty)
        self._set_field("response_time", response_time)
        _check_integers(self, max_length=1, stake_up=0, burn_cost=0, bounty=0, response_time=1)


def _every_field(cls: Any) -> tuple[frozenset[str], tuple[str, ...]]:
    """`read_object`'s fields and required fields for a record class that
    needs every one of its fields, a missing one reported in signature order."""
    return frozenset(cls._fields), cls._fields


_LEVEL_FIELDS = _every_field(LevelParameters)
_MACHINE_FIELDS = _every_field(MachineParameters)


class ParameterCascade(Frozen):
    """Per-level parameters for levels root_level..1 plus the machine level."""

    def __init__(
        self, root_level: int, levels: Mapping[int, LevelParameters], machine: MachineParameters
    ) -> None:
        if not is_int(root_level) or root_level < 1:
            raise ValueError("root_level must be an integer of at least 1")
        expected = range(1, root_level + 1)
        if len(levels) != len(expected) or set(levels) != set(expected):
            raise ValueError(f"levels must cover exactly 1 to {root_level}")
        self._set_field("root_level", root_level)
        self._set_field("levels", dict(levels))
        self._set_field("machine", machine)

    def max_length(self, level: int) -> int:
        return self.levels[level].max_length if level >= 1 else self.machine.max_length

    def bounty(self, level: int) -> int:
        return self.levels[level].bounty if level >= 1 else self.machine.bounty

    def response_time(self, level: int) -> int:
        return self.levels[level].response_time if level >= 1 else self.machine.response_time

    def verification_time(self, level: int) -> int:
        return self.levels[level].verification_time

    def deposit(self, level: int) -> int:
        """What a claim at `level` locks: both stakes, or at the machine
        level the upward stake plus the execution cost it burns."""
        if level >= 1:
            return self.levels[level].stake_up + self.levels[level].stake_down
        return self.machine.stake_up + self.machine.burn_cost

    def to_json(self) -> Any:
        """The cascade file's object: each level and `machine` are their
        fields, the same field lists `from_json` requires."""
        return {
            "levels": {str(k): v._asdict() for k, v in sorted(self.levels.items())},
            "machine": self.machine._asdict(),
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


class Node(Record):
    """A posted claim or question, as its `kind` says. `deadline` is the
    time its window closes: a claim's for questions (a machine claim's is its
    posting time, since the verifier judges it at once), a question's for
    answers. `children` are the questions on a claim or the answers to a
    question, in posting order, and the `decider` is the child that decided
    it: the question that defeated an invalidated claim, the answer that won
    an answered question; equality and repr leave both out. Only a claim has
    a `proof` (as posted, without subproofs) and, at the machine level, a
    `verdict`; only a question on a claim has a `step_index`.

    A node is also the record of the move that posted it, the one place that
    move is kept: `owner` is its actor, `posted_at` its time and sequence
    number, `origin` (None for a root) and `kind` its kind, and the proof,
    the statement or the step its payload (see `_move_line`)."""

    _uncompared = ("children", "decider")

    def __init__(
        self,
        kind: str,
        id: str,
        owner: str,
        level: int,
        statement: Statement,
        posted_at: Timestamp,
        deadline: int,
        escrow: int,
        origin: str | None = None,
        status: str = PENDING,
        determination: Timestamp | None = None,
        children: list[Node] | None = None,
        decider: Node | None = None,
        proof: ProofChain | MachineProof | None = None,
        verdict: Verdict | None = None,
        step_index: int | None = None,
    ) -> None:
        self.kind = kind
        self.id = id
        self.owner = owner
        self.level = level
        self.statement = statement
        self.posted_at = posted_at
        self.deadline = deadline
        self.escrow = escrow
        self.origin = origin
        self.status = status
        self.determination = determination
        self.children = [] if children is None else children
        self.decider = decider
        self.proof = proof
        self.verdict = verdict
        self.step_index = step_index


# The resolution rule of each kind of node, which the two kinds mirror:
# (decisive child status, the node's status then, the status every child
# needs once the window closes, the node's status then). A claim falls to
# its first unanswered question and stands when its window closes with every
# question answered; a question is won by its first validated answer and
# goes unanswered when its window closes with every answer invalidated.
_RULES = {
    "claim": (UNANSWERED, INVALIDATED, ANSWERED, VALIDATED),
    "question": (VALIDATED, ANSWERED, INVALIDATED, UNANSWERED),
}


class Ledger:
    """Integer token accounts plus per-node escrow and a burn counter. The
    opening balances map account strings to non-negative integers."""

    def __init__(self, balances: Mapping[str, int] | None = None) -> None:
        self.balances: dict[str, int] = dict(balances or {})
        for account, amount in self.balances.items():
            if not isinstance(account, str):
                raise ValueError(f"account names must be strings, got {account!r}")
            if not is_int(amount):
                raise ValueError(f"opening balance for {account!r} must be an integer")
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


class Move(NamedTuple):
    """One move, the input of `ProtocolInstance.apply`. Its `kind` is
    `root_claim` (a chain `proof` of `statement`), `root_question` (a
    bounty on `statement`), `question` (dispute `step`, 1-based, of the
    claim `origin`) or `answer_claim` (a chain or machine `proof` answering
    the question `origin`), posted by `actor` at `time`. `apply` ignores the
    fields a kind does not read."""

    kind: str
    actor: str
    time: int
    origin: str | None = None
    step: int | None = None
    statement: Statement | None = None
    proof: ProofChain | MachineProof | None = None


class SettlementTransfer(NamedTuple):
    node_id: str
    account: str
    amount: int
    reason: str

    def to_json(self) -> dict[str, Any]:
        """The transfer as `sprig run` and a simulation trace write it."""
        return {
            "account": self.account,
            "amount": self.amount,
            "node": self.node_id,
            "reason": self.reason,
        }


class ProtocolInstance:
    """One debate: a root node, the tree beneath it, a ledger and a clock.

    A fresh instance has no root: its first `apply` must be a root move,
    as `create_root_claim`, `create_root_question` and `replay` make it.
    """

    def __init__(
        self,
        cascade: ParameterCascade,
        *,
        balances: Mapping[str, int] | None = None,
        mode: str = QUIESCENCE,
    ) -> None:
        if mode not in (QUIESCENCE, EARLY_STOP):
            raise ValueError(f"unknown mode {mode!r}")
        self.cascade = cascade
        self.mode = mode
        self.ledger = Ledger(balances)
        self.nodes: dict[str, Node] = {}
        self.root_id: str | None = None
        self.clock: int = 0
        self.settled = False
        self.stopped_at: Timestamp | None = None
        # Children counted per (origin, owner, None) and, for questions, per
        # (origin, owner, step); see `posted_by`.
        self._posted_by: dict[tuple[str, str, int | None], int] = {}
        # Every window still open at the last instant resolved (the clock, or
        # the root's instant after an early stop): a heap of (deadline, seq,
        # id), popped as each window closes, and in `_open` the nodes of
        # exactly those entries, in posting order; see `open_nodes`.
        self._deadlines: list[tuple[int, int, str]] = []
        self._open: dict[str, Node] = {}

    # -- reading ----------------------------------------------------------

    def claim(self, node_id: str) -> Node:
        return self._node("claim", node_id)

    def question(self, node_id: str) -> Node:
        return self._node("question", node_id)

    def _node(self, kind: str, node_id: Any) -> Node:
        node = self.nodes.get(node_id) if isinstance(node_id, str) else None
        if node is None or node.kind != kind:
            raise ProtocolError(f"no such {kind} {node_id!r}")
        return node

    def posted_by(self, origin: str, owner: str, step: int | None = None) -> int:
        """How many children of `origin` `owner` has posted: answers to a
        question, or questions on a claim (with `step`, on that step only)."""
        return self._posted_by.get((origin, owner, step), 0)

    def open_nodes(self) -> Iterable[Node]:
        """The nodes whose window was still open at the last instant
        resolved, in posting order. With the clock resolved, this holds every
        node whose `deadline` is after the clock, so a reader filtering on
        `node.deadline > now` for a `now` at or after the clock sees the same
        nodes as a scan of the whole tree, without touching the closed ones.
        After an early stop the index stays as it was at the root's instant,
        so only that filter drops the windows that closed since."""
        return self._open.values()

    def max_deadline(self) -> int:
        return max([self.clock] + [node.deadline for node in self._open.values()])

    # -- move plumbing ----------------------------------------------------

    def _add_node(self, node: Node) -> None:
        """Link a freshly posted node into the tree and open its window. It
        has no children, so only its window closing can change it, and a
        pending child changes no origin."""
        self.nodes[node.id] = node
        if node.origin is not None:
            self.nodes[node.origin].children.append(node)
            keys = [(node.origin, node.owner, None)]
            if node.kind == "question":
                keys.append((node.origin, node.owner, node.step_index))
            for key in keys:
                self._posted_by[key] = self._posted_by.get(key, 0) + 1
        heapq.heappush(self._deadlines, (node.deadline, node.posted_at.seq, node.id))
        self._open[node.id] = node

    # -- posting ----------------------------------------------------------

    def apply(self, move: Move) -> str:
        """Post `move` and return the new node's id. Each rule of the kind is
        checked in a fixed order, the actor's and a question's `step` types
        before the clock moves and every other after `advance_clock` to the
        move's time and the early-stop check; then the deposit (a question's
        bounty, a claim's `ParameterCascade.deposit`) is locked (a machine
        answer gets its verdict first), the node linked and the tree
        resolved. The node is the move's only record: its log line is
        composed from it when the log is read (`move_log_lines`). A rejected
        move does at most what `advance_clock` to its time does. A field the
        kind reads is checked before it is used: the actor is a string, a
        root's statement a `Statement`, an origin the id of a node of its
        kind, and a proof a chain (or an answer's machine proof), so every
        claim at level 1 or above holds a chain. A root statement and a
        proof hold no formula nested deeper than MAX_FORMULA_DEPTH, so that
        every posted move's line can be replayed. That depth, a machine
        proof's verdict and a chain's structural check (per level and
        ambient names) are judged once per value (`_judged`); a later post
        repeats every check."""
        kind, proof = move.kind, move.proof
        root = self._check_kind(kind)
        origin, step = (None, None) if root else (move.origin, move.step)
        actor = _typed("actor", move.actor, str, "a string")
        if kind == "question":
            _integer("step", step)
        time = move.time
        self.advance_clock(time)
        stamp = Timestamp(time, len(self.nodes) + 1)
        if self.stopped_at is not None and stamp > self.stopped_at:
            raise ProtocolError(f"interaction ended at {self.stopped_at}")
        cascade, level, statement = self.cascade, self.cascade.root_level, move.statement
        if root:
            _check_depth(_typed("statement", statement, Statement, "a Statement"))
        asks = kind.endswith("question")
        node_id = f"{'q' if asks else 'c'}{stamp.seq}"
        verdict: Verdict | None = None
        if kind == "question":
            claim = self.claim(origin)
            if claim.level < 1:
                raise ProtocolError("machine claims cannot be questioned")
            steps = claim.proof.steps
            if not 1 <= step <= len(steps):
                raise ProtocolError(f"no such step {step} in claim {origin!r} (has {len(steps)})")
            if time >= claim.deadline:
                raise ProtocolError(
                    f"window closed: claim {origin!r} accepted questions before {claim.deadline}"
                )
            level, statement = claim.level - 1, steps[step - 1].statement
        elif kind == "answer_claim":
            q = self.question(origin)
            if time >= q.deadline:
                raise ProtocolError(
                    f"window closed: question {origin!r} accepted answers before {q.deadline}"
                )
            level, statement = q.level, q.statement
        if asks:
            deadline = time + cascade.response_time(level)
        elif root or isinstance(proof, ProofChain):
            _typed("proof", proof, ProofChain, "a chain")
            if level < 1:
                raise ProtocolError("level-0 questions take machine proofs only")
            if root and cascade.levels[level].stake_up != 0:
                raise ProtocolError("root claim requires a zero upward stake at the top level")
            proof = proof.stripped()
            _check_depth(proof)
            self._check_chain_answer(statement, proof, level, self._ambient(origin))
            deadline = time + cascade.verification_time(level)
        else:
            _check_depth(_typed("proof", proof, MachineProof, "a chain or a machine proof"))
            if proof.target != statement:
                raise ProtocolError("structural violation: proof targets a different statement")
            _check_length(proof, cascade.machine.max_length)
            level, deadline = 0, time
            verdict = _judged(proof, "verdict", _KERNEL.verdict, statement, proof)
        deposit = cascade.bounty(level) if asks else cascade.deposit(level)
        self.ledger.lock(actor, node_id, deposit)
        if asks:
            kind_fields = {"step_index": step}
        else:
            kind_fields = {"proof": proof, "verdict": verdict}
            if level == 0:
                self.ledger.burn_from_escrow(node_id, cascade.machine.burn_cost)
        node = Node(
            "question" if asks else "claim", node_id, actor, level, statement, stamp,
            deadline, deposit, origin, **kind_fields,
        )
        self._add_node(node)
        if root:
            self.root_id = node_id
        self.resolve()
        return node_id

    def _check_kind(self, kind: Any) -> bool:
        """Whether a move of `kind` is a root move, if the instance takes it
        now: a root move while it has no root, a question or an answer after."""
        root, rooted = kind in ("root_claim", "root_question"), self.root_id is not None
        if root and rooted or not (root or kind in ("question", "answer_claim")):
            raise ProtocolError(f"unknown move kind {kind!r}")
        if not (root or rooted):
            raise ProtocolError(f"log must start with a root move, got {kind!r}")
        return root

    def post_question(self, owner: str, origin: str, step_index: int, t: int) -> str:
        """Dispute step `step_index` (1-based) of the claim `origin`."""
        return self.apply(Move("question", owner, t, origin, step_index))

    def post_answer_claim(
        self, owner: str, origin: str, proof: ProofChain | MachineProof, t: int
    ) -> str:
        """Answer the question `origin` with a chain at its level or a machine proof."""
        return self.apply(Move("answer_claim", owner, t, origin, proof=proof))

    def _ambient(self, origin: str | None) -> frozenset[str]:
        """Symbols already declared by the chains above a node posted under
        `origin`."""
        names: set[str] = set()
        while origin is not None:
            node = self.nodes[origin]
            if isinstance(node.proof, ProofChain):
                names |= node.proof.definitions.names()
            origin = node.origin
        return frozenset(names)

    def _check_chain_answer(
        self, statement: Statement, chain: ProofChain, level: int, ambient: frozenset[str]
    ) -> None:
        if chain.target != statement:
            raise ProtocolError("structural violation: chain targets a different statement")
        violation = _judged(chain, (level, ambient), _violation, statement, chain, level, ambient)
        if violation is not None:
            raise ProtocolError(f"structural violation: {violation}")
        _check_length(chain, self.cascade.max_length(level))

    # -- clock and resolution ---------------------------------------------

    def advance_clock(self, time: int) -> list[tuple[str, str, Timestamp]]:
        """Move the clock to `time` and `resolve`; the clock never runs back."""
        _integer("time", time)
        if self.settled:
            raise ProtocolError("instance already settled")
        if time < self.clock:
            raise ProtocolError(f"time moving backwards: move at {time}, clock at {self.clock}")
        self.clock = time
        return self.resolve()

    def resolve(self) -> list[tuple[str, str, Timestamp]]:
        """Commit the statuses visible at the clock and return the new
        determinations in (determination, posted_at) order. Expired windows
        are taken one instant at a time, earliest first, up to the clock, so
        no later legal move can contradict a committed status, and the
        returns of all calls, concatenated, are every determined node sorted
        by (determination, posted_at): the trace's event order, which is
        read from the nodes rather than kept. Idempotent: a node determined
        once never changes, later calls only add. In early-stop mode the
        game ends at the instant where the root determines, and nothing
        later is committed.

        Only closing a window commits a status, so a call with no deadline
        at or before the clock, or after an early stop, returns at once.
        """
        deadlines = self._deadlines
        changed: list[tuple[str, str, Timestamp]] = []
        while self.stopped_at is None and deadlines and deadlines[0][0] <= self.clock:
            instant = deadlines[0][0]
            decided: list[Node] = []
            while deadlines and deadlines[0][0] == instant:
                self._close(self._open.pop(heapq.heappop(deadlines)[2]), decided)
            decided.sort(key=lambda n: (n.determination, n.posted_at))
            changed += [(n.id, n.status, n.determination) for n in decided]
            if self.mode == EARLY_STOP and self.root_id is not None:
                self.stopped_at = self.nodes[self.root_id].determination
        return changed

    def _close(self, node: Node, decided: list[Node]) -> None:
        """Close `node`'s window, at its deadline: a machine claim commits its
        verdict, and any other pending node its closing status under `_RULES`
        if every child already has the status the rule needs. A node with a
        decisive child was decided when that child committed, and one with a
        pending child is closed by the last of its children to commit."""
        if node.kind == "claim" and node.level == 0:
            status = VALIDATED if node.verdict.validated else INVALIDATED
            self._commit(node, status, node.posted_at, decided)
        elif node.status == PENDING:
            _, _, needed, closed_as = _RULES[node.kind]
            if all(c.status == needed for c in node.children):
                self._commit(node, closed_as, Timestamp(node.deadline, 0), decided)

    def _commit(
        self, node: Node, status: str, determination: Timestamp, decided: list[Node]
    ) -> None:
        """Commit `status` at `determination` to `node` and push it up, in a
        loop, as a cascade may be hundreds of levels deep. A decisive child
        decides a pending origin as its decider; any other child closes an
        origin whose window has closed once every child has the status the
        rule needs. The origin takes the child's determination, the current
        instant's. The decider is the first decisive child by determination,
        then by posting order: an earlier-posted sibling that commits later
        in the same instant, through its own subtree, takes over (only a
        decisive child finds its origin decided, as a closed one waited for
        every child)."""
        decider: Node | None = None
        while True:
            node.status, node.determination, node.decider = status, determination, decider
            decided.append(node)
            if node.origin is None:
                return
            child, node = node, self.nodes[node.origin]
            decisive, decided_as, needed, closed_as = _RULES[node.kind]
            if node.status != PENDING:
                if (child.status == decisive and node.determination == determination
                        and child.posted_at < node.decider.posted_at):
                    node.decider = child
                return
            if child.status == decisive:
                status, decider = decided_as, child
            elif node.id not in self._open and all(c.status == needed for c in node.children):
                status, decider = closed_as, None
            else:
                return

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
            elif node.kind == "claim":
                if node.status == VALIDATED:
                    pay(node.id, node.owner, held, "stake returned")
                elif node.level == 0:
                    assert node.origin is not None
                    pay(node.id, self.question(node.origin).owner, held,
                        "stake forfeited to questioner")
                else:
                    # Only the root claim has no origin, and `apply` holds
                    # its upward stake at zero, so it forfeits none.
                    stake_up = self.cascade.levels[node.level].stake_up
                    if stake_up:
                        pay(node.id, self.question(node.origin).owner, stake_up,
                            "stake forfeited to questioner")
                    assert node.decider is not None
                    pay(node.id, node.decider.owner, held - stake_up,
                        "stake paid to defeating question")
            else:
                if node.status == ANSWERED:
                    assert node.decider is not None
                    pay(node.id, node.decider.owner, held, "bounty paid to answer")
                else:
                    pay(node.id, node.owner, held, "bounty reimbursed")

        self.settled = True
        if self.ledger.escrowed:
            raise AssertionError(f"escrow left after settlement: {self.ledger.escrowed}")
        return transfers

    # -- serialization ------------------------------------------------------

    def snapshot(self) -> str:
        """Canonical JSON of the full observable state, proofs and
        statements by hash, composed as text as `_move_line` composes a log
        line: keys in sorted order as literals, node ids, kinds and statuses
        as plain identifiers, and owners, accounts and the mode through
        `encode_basestring`, so a snapshot calls no `json.dumps`.

        The object holds `clock` (integer); `ledger`, an object of
        `balances` (account string to integer), `burned` (integer) and
        `escrowed` (node id to integer); `mode` (string); `nodes` (node id
        to node, in string order, so "c10" comes before "c2"); `root` (node
        id or null); `settled` (boolean); and `stopped_at` (timestamp or
        null), where a timestamp is the array [time, seq]. A node holds
        `determination` (timestamp or null), `escrow` and `level`
        (integers), `kind`, `owner` and `status` (strings), `origin` (node
        id or null), `posted_at` (timestamp) and `statement` (the hex sha256
        of its canonical text, its memoized `hash()`). A claim adds `proof`
        (hex sha256, the proof's memoized `hash()`) and, at the machine
        level, `verdict`, an object of `diagnostic` (integer or null) and
        `validated` (boolean); a question adds `step` (integer, or null for
        a root question)."""
        ledger = self.ledger
        balances = ",".join(
            [f"{encode_basestring(a)}:{amount}" for a, amount in sorted(ledger.balances.items())]
        )
        escrowed = ",".join([f'"{n}":{amount}' for n, amount in sorted(ledger.escrowed.items())])
        nodes = ",".join([f'"{n}":{_node_json(self.nodes[n])}' for n in sorted(self.nodes)])
        root = "null" if self.root_id is None else f'"{self.root_id}"'
        return (
            f'{{"clock":{self.clock},"ledger":{{"balances":{{{balances}}},'
            f'"burned":{ledger.burned},"escrowed":{{{escrowed}}}}},'
            f'"mode":{encode_basestring(self.mode)},"nodes":{{{nodes}}},"root":{root},'
            f'"settled":{"true" if self.settled else "false"},'
            f'"stopped_at":{_stamp_json(self.stopped_at)}}}'
        )

    def move_log_lines(self, record: str | None = None) -> list[str]:
        """The move log, one line per node in posting order, composed from
        the nodes as it is read (see `_move_line`); a simulation trace tags
        each line with `record`."""
        return [_move_line(node, record) for node in self.nodes.values()]


def _stamp_json(stamp: Timestamp | None) -> str:
    """A timestamp as the array [time, seq], or null."""
    return "null" if stamp is None else f"[{stamp.time},{stamp.seq}]"


def _node_json(node: Node) -> str:
    """The canonical JSON object of `node` in `ProtocolInstance.snapshot`,
    its keys in sorted order: a claim's `proof` and `verdict` go around
    `statement` and `status` where a question's `step` follows them."""
    origin = "null" if node.origin is None else f'"{node.origin}"'
    text = (
        f'{{"determination":{_stamp_json(node.determination)},"escrow":{node.escrow},'
        f'"kind":"{node.kind}","level":{node.level},"origin":{origin},'
        f'"owner":{encode_basestring(node.owner)},"posted_at":{_stamp_json(node.posted_at)},'
    )
    tail = f'"statement":"{node.statement.hash()}","status":"{node.status}"'
    if node.kind == "question":
        step = "null" if node.step_index is None else node.step_index
        return f'{text}{tail},"step":{step}}}'
    verdict = node.verdict
    if verdict is None:
        return f'{text}"proof":"{node.proof.hash()}",{tail}}}'
    diagnostic = "null" if verdict.diagnostic is None else verdict.diagnostic
    return (
        f'{text}"proof":"{node.proof.hash()}",{tail},"verdict":{{"diagnostic":{diagnostic},'
        f'"validated":{"true" if verdict.validated else "false"}}}}}'
    )


def _move_line(node: Node, record: str | None = None) -> str:
    """The canonical JSON line of the move that posted `node` (a root has no
    `origin`), with a `record` tag when one is given, built around the
    memoized canonical text of the proof or the statement: ids and kinds are
    plain identifiers, `seq`, `time` and the step integers, and the actor a
    string, which `encode_basestring` writes as `canonical_json` does, so a
    line costs no `json.dumps`, only the hash of its payload."""
    if node.kind == "question":
        if node.origin is None:
            kind, payload = "root_question", f'{{"statement":{node.statement.canonical()}}}'
        else:
            kind, payload = "question", f'{{"origin":"{node.origin}","step":{node.step_index}}}'
    elif node.origin is None:
        kind, payload = "root_claim", f'{{"chain":{node.proof.canonical()}}}'
    else:
        kind = "answer_claim"
        payload = f'{{"origin":"{node.origin}","proof":{node.proof.canonical()}}}'
    tag = "" if record is None else f'"record":"{record}",'
    return (
        f'{{"actor":{encode_basestring(node.owner)},"kind":"{kind}",'
        f'"payload":{payload},"payload_hash":"{text_hash(payload)}",'
        f'{tag}"seq":{node.posted_at.seq},"time":{node.posted_at.time}}}'
    )


# The one machine checker. `apply` looks its method up at each call, so a
# wrapper put on `ToyVerifier.verdict` sees each proof value's first verdict.
_KERNEL = ToyVerifier()


def _judged(value: Frozen, key: Any, judge: Callable, *args: Any) -> Any:
    """`judge(*args)` for the interned `value`, a proof or a root statement,
    computed on the first call per `key`: the value and `key` name all that
    `judge` reads. The results live in a table on the value that is not a
    field, as `formulas._memoized` keeps a text, and die with it."""
    judgements = getattr(value, "_judgements", None)
    if judgements is None:
        judgements = {}
        Frozen._set_field(value, "_judgements", judgements)
    if key not in judgements:
        judgements[key] = judge(*args)
    return judgements[key]


def _check_depth(value: Statement | ProofChain | MachineProof) -> None:
    """A ProtocolError if a formula that posting `value` writes into the move
    log nests deeper than MAX_FORMULA_DEPTH, which no replay decodes."""
    if _judged(value, "depth", _too_deep, value):
        raise ProtocolError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")


def _too_deep(value: Statement | ProofChain | MachineProof) -> bool:
    """`nested_too_deeply` of the formulas of a root statement or a posted
    proof: a chain's definitions, target and step statements, a machine
    proof's target and steps."""
    if isinstance(value, Statement):
        statements, formulas = [value], []
    elif isinstance(value, ProofChain):
        statements = [value.target, *[step.statement for step in value.steps]]
        formulas = [f for _, f in value.definitions.symbols]
    else:
        statements, formulas = [value.target], [step.formula for step in value.steps]
    for statement in statements:
        formulas += [statement.conclusion, *statement.assumptions]
    return nested_too_deeply(formulas)


def _violation(target: Statement, chain: ProofChain, level: int, ambient: frozenset) -> str | None:
    """The text of `validate_chain`'s report on `chain`, or None if it is ok."""
    report = validate_chain(target, chain, level_limit=level, ambient=ambient)
    return None if report.ok else str(report)


def _check_length(proof: ProofChain | MachineProof, budget: int) -> None:
    used = measure_length(proof)
    if used > budget:
        raise ProtocolError(f"length over budget: {used} > {budget}")


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
) -> ProtocolInstance:
    """New debate rooted in a staked claim. With `balances=None` the owner
    starts with exactly the required deposit."""
    if balances is None:
        balances = {owner: cascade.deposit(cascade.root_level)}
    instance = ProtocolInstance(cascade, balances=balances, mode=mode)
    instance.apply(Move("root_claim", owner, t, statement=statement, proof=chain))
    return instance


def create_root_question(
    owner: str,
    statement: Statement,
    cascade: ParameterCascade,
    t: int,
    *,
    balances: Mapping[str, int] | None = None,
    mode: str = QUIESCENCE,
) -> ProtocolInstance:
    """New debate rooted in a bounty-carrying question."""
    if balances is None:
        balances = {owner: cascade.bounty(cascade.root_level)}
    instance = ProtocolInstance(cascade, balances=balances, mode=mode)
    instance.apply(Move("root_question", owner, t, statement=statement))
    return instance


def advance_clock(instance: ProtocolInstance, to: int) -> list[tuple[str, str, Timestamp]]:
    return instance.advance_clock(to)


def settle(instance: ProtocolInstance) -> list[SettlementTransfer]:
    return instance.settle()


def replay(
    lines: Iterable[str],
    cascade: ParameterCascade,
    *,
    balances: Mapping[str, int] | None = None,
    mode: str = QUIESCENCE,
) -> ProtocolInstance:
    """Rebuild an instance from its move log, one `replay_line` per
    non-blank line, into a fresh instance whose ledger opens with
    `balances` (empty when None)."""
    instance = ProtocolInstance(cascade, balances=balances, mode=mode)
    for raw in lines:
        raw = raw.strip()
        if raw:
            replay_line(instance, raw, parse_json(raw))
    if instance.root_id is None:
        raise ProtocolError("empty move log")
    return instance


# The fields of a move record, in the order a missing one is reported.
_MOVE_FIELDS = ("payload", "kind", "actor", "time", "seq", "payload_hash")


def replay_line(instance: ProtocolInstance, raw: str, record: Any) -> None:
    """Apply one stripped move-log line `raw`, decoded as `record`, to
    `instance`: decode it into a `Move` and `apply` it. Checks the payload
    hash and what a log adds to a move, in this order: the record is an
    object with every move field (else a ParseError names the first one
    missing), its `kind` is one the instance takes now (`_check_kind`, the
    root move while the instance has no root, a question or an answer
    after it), `seq` is an integer (booleans are not) and the next sequence
    number, and the payload is an object with every field its kind of move
    reads (else a ParseError such as `question payload needs origin`) whose
    `origin`, if it has one, is a string (else a ParseError such as
    `question payload origin must be a string, got [1]`). `apply` checks
    the rest, in its own order: the actor, a question's `step`, the time.

    The applied move is then written back: its line is composed from the
    node `apply` posted (`_move_line`), from the memoized canonical text of
    the decoded proof or statement, with no `json.dumps`. A line that is
    exactly that line carries the same payload text and its hash, so its
    hash holds; any other line (other spacing or key order, or a payload the
    posted move differs from, such as a chain with subproofs) has its
    payload encoded and its hash checked as read. A line whose move fails
    has its hash checked first, so a tampered line reports the mismatch
    rather than what the tampering broke."""
    record = read_object(record, "move", required=_MOVE_FIELDS)
    try:
        kind = record["kind"]
        instance._check_kind(kind)
        seq, expected = _integer("seq", record["seq"]), len(instance.nodes) + 1
        if seq != expected:
            raise ProtocolError(f"seq {seq} out of order, expected {expected}")
        node_id = instance.apply(
            _decode_move(kind, record["actor"], record["time"], record["payload"])
        )
    except Exception:
        _check_payload_hash(record)
        raise
    if raw != _move_line(instance.nodes[node_id]):
        _check_payload_hash(record)


def _decode_move(kind: str, actor: Any, time: Any, payload: Any) -> Move:
    """The move of a known `kind` that a log record's `payload` holds."""
    if kind == "root_claim":
        doc = read_object(payload, "root claim payload", required=("chain",))
        chain = chain_from_json(doc["chain"])
        return Move(kind, actor, time, statement=chain.target, proof=chain)
    if kind == "root_question":
        doc = read_object(payload, "root question payload", required=("statement",))
        return Move(kind, actor, time, statement=Statement.from_json(doc["statement"]))
    if kind == "question":
        doc = read_object(payload, "question payload", required=("origin", "step"))
        origin = read_str(doc["origin"], "question payload origin")
        return Move(kind, actor, time, origin, doc["step"])
    doc = read_object(payload, "answer claim payload", required=("origin", "proof"))
    origin = read_str(doc["origin"], "answer claim payload origin")
    return Move(kind, actor, time, origin, proof=proof_from_json(doc["proof"]))


def _check_payload_hash(record: Mapping[str, Any]) -> None:
    if content_hash(record["payload"]) != record["payload_hash"]:
        raise ProtocolError(f"payload hash mismatch at seq {record['seq']}")
