"""Proof documents: step chains, machine-level proofs, their length.

A chain proves its target statement in numbered steps. Every step is itself a
full statement whose assumption set must equal the target's assumptions plus
the conclusions it explicitly imports from earlier steps; the last step must
conclude exactly what the target concludes. Steps may optionally embed a
`subproof` (a deeper chain, or a machine proof) showing how that step would be
defended if disputed; subproofs are advisory structure, they do not count
towards the length and the debate protocol strips them from posted claims.

A machine proof is a flat list of inference steps for the bottom level. Its
premise indices are positive for earlier steps (1-based) and negative for the
target's assumptions (-k is the k-th assumption in canonical order).

Documents serialize to canonical JSON with a discriminating "kind" field:
"statement", "chain" or "machine_proof". A top-level document without one is
a statement; a proof read as part of another record (a subproof, a move
log's root chain or answer, a scenario's tree) must name its kind. See
schemas/ for the JSON Schemas.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any, NamedTuple, Union

from . import Record
from .formulas import (
    MAX_PROOF_DEPTH,
    DefinitionSet,
    Formula,
    Interned,
    ParseError,
    Statement,
    _intern,
    _memoized,
    _statement_from_json,
    is_int,
    lookup,
    parse_json,
    read_object,
    read_str,
    text_hash,
)

__all__ = [
    "ChainStep",
    "ProofChain",
    "InferenceStep",
    "MachineProof",
    "Violation",
    "ValidationReport",
    "validate_chain",
    "measure_length",
    "proof_from_json",
    "chain_from_json",
    "parse_proof_document",
    "serialize_proof_document",
]


_INFERENCE_FIELDS = frozenset({"formula", "premises", "rule"})
_MACHINE_FIELDS = frozenset({"kind", "steps", "target"})
_CHAIN_STEP_FIELDS = frozenset({"imports", "statement", "subproof"})
_CHAIN_FIELDS = frozenset({"definitions", "kind", "steps", "target"})


class InferenceStep(Interned):
    """A line of a machine proof: `formula`, by `rule`, from the lines
    `premises` points to (see the module docstring). Like a formula, an
    inference step is one instance per value (see `formulas._intern`)."""

    def __new__(cls, formula: Formula, rule: str, premises: tuple[int, ...] = ()) -> InferenceStep:
        if not rule:
            raise ParseError("inference step needs a rule name")
        # Checked before the lookup: `(True,)` and `(1.0,)` equal `(1,)`.
        for p in premises:
            if not (p.__class__ is int or is_int(p)) or p == 0:
                raise ParseError("premise indices must be nonzero integers")
        return _intern((cls, formula, rule, premises))

    def canonical(self) -> str:
        """Canonical JSON of `{"formula": ..., "premises": [...], "rule": ...}`;
        premises are integers."""
        premises = ",".join(map(str, self.premises))
        return (
            f'{{"formula":{self.formula.canonical()},"premises":[{premises}],'
            f'"rule":{encode_basestring(self.rule)}}}'
        )

    @staticmethod
    def from_json(doc: Any) -> "InferenceStep":
        doc = read_object(doc, "inference step", _INFERENCE_FIELDS, ("formula", "rule"))
        premises = doc.get("premises", [])
        if not isinstance(premises, list):
            raise ParseError("premises must be an array")
        return InferenceStep(
            Formula.from_json(doc["formula"]),
            read_str(doc["rule"], "inference step rule"),
            tuple(premises),
        )


class MachineProof(Interned):
    """A proof for the bottom level: `steps` derive the conclusion of
    `target` (see the module docstring). Like a formula, a machine proof is
    one instance per value (see `formulas._intern`), so its text and
    length are computed once per value, however often it is posted."""

    def __new__(cls, target: Statement, steps: tuple[InferenceStep, ...] = ()) -> MachineProof:
        return _intern((cls, target, steps))

    kind = "machine_proof"

    def height(self) -> int:
        return 1

    @_memoized
    def canonical(self) -> str:
        """Canonical JSON of `{"kind": "machine_proof", "steps": [...],
        "target": ...}`, built from the parts' canonical text."""
        steps = ",".join([s.canonical() for s in self.steps])
        return f'{{"kind":"{self.kind}","steps":[{steps}],"target":{self.target.canonical()}}}'

    @_memoized
    def hash(self) -> str:
        return text_hash(self.canonical())

    @_memoized
    def length(self) -> int:
        """`measure_length`: each step's formula, rule tag and premise indices."""
        return sum([s.formula.size() + 1 + len(s.premises) for s in self.steps])

    @staticmethod
    def from_json(doc: Any) -> "MachineProof":
        return _machine_from_json(doc, None, None)


class ChainStep(Interned):
    """A step of a chain: `statement`, whose assumptions take in the
    conclusions of the earlier steps `imports` lists (1-based, kept sorted),
    with an optional `subproof` showing how the step would be defended.
    Like a formula, a chain step is one instance per value (see
    `formulas._intern`)."""

    def __new__(
        cls,
        statement: Statement,
        imports: tuple[int, ...] = (),
        subproof: Union[ProofChain, MachineProof, None] = None,
    ) -> ChainStep:
        # Checked before the lookup: `(True,)` and `(1.0,)` equal `(1,)`.
        for i in imports:
            if not (i.__class__ is int or is_int(i)):
                raise ParseError("import indices must be integers")
        if len(imports) > 1:
            imports = tuple(sorted(imports))
            if len(set(imports)) != len(imports):
                raise ParseError("duplicate import index")
        return _intern((cls, statement, imports, subproof))

    def canonical(self) -> str:
        """Canonical JSON of `{"imports": [...], "statement": ...,
        "subproof": ...}`, the subproof left out when there is none; import
        indices are integers."""
        imports = ",".join(map(str, self.imports))
        text = f'{{"imports":[{imports}],"statement":{self.statement.canonical()}'
        if self.subproof is not None:
            text += f',"subproof":{self.subproof.canonical()}'
        return text + "}"

    @staticmethod
    def from_json(doc: Any, levels: int = MAX_PROOF_DEPTH) -> "ChainStep":
        """Decode a step of a chain allowed `levels` deep: its subproof may
        nest one level less (see `proof_from_json`)."""
        return _step_from_json(doc, levels, None, None)


class ProofChain(Interned):
    """A proof of `target` in numbered `steps` (see the module docstring),
    declaring the symbols of `definitions`. Like a formula, a chain is one
    instance per value (see `formulas._intern`), so its text, length and
    posted shape are computed once per value, however often it is
    posted."""

    def __new__(
        cls,
        target: Statement,
        steps: tuple[ChainStep, ...],
        definitions: DefinitionSet | None = None,
    ) -> ProofChain:
        if not steps:
            raise ParseError("chain needs at least one step")
        if definitions is None:
            definitions = DefinitionSet()
        return _intern((cls, target, steps, definitions))

    kind = "chain"

    def height(self) -> int:
        """Nesting depth counting this chain: 1 if no subproofs."""
        deepest = 0
        for step in self.steps:
            if step.subproof is not None:
                deepest = max(deepest, step.subproof.height())
        return 1 + deepest

    def stripped(self) -> ProofChain:
        """This chain with all subproofs removed (the shape that gets
        posted): the chain itself when no step has one, as in every chain
        decoded from a move log, else the chain of its steps without them."""
        bare = self._bare()
        return self if bare is None else bare

    @_memoized
    def _bare(self) -> ProofChain | None:
        """`stripped()` of a chain with a subproof, else None: a memo of the
        chain itself would keep it alive."""
        if all([s.subproof is None for s in self.steps]):
            return None
        return ProofChain(
            self.target,
            tuple([ChainStep(s.statement, s.imports) for s in self.steps]),
            self.definitions,
        )

    @_memoized
    def canonical(self) -> str:
        """Canonical JSON of `{"definitions": ..., "kind": "chain", "steps":
        [...], "target": ...}`, built from the parts' canonical text."""
        steps = ",".join([s.canonical() for s in self.steps])
        return (
            f'{{"definitions":{self.definitions.canonical()},"kind":"{self.kind}",'
            f'"steps":[{steps}],"target":{self.target.canonical()}}}'
        )

    @_memoized
    def hash(self) -> str:
        return text_hash(self.canonical())

    @_memoized
    def length(self) -> int:
        """`measure_length`: the definitions, and each step's statement and
        import indices."""
        definitions = self.definitions
        return (
            len(definitions.imports)
            + sum([1 + f.size() for _, f in definitions.symbols])
            + sum([s.statement.size() + len(s.imports) for s in self.steps])
        )

    @staticmethod
    def from_json(doc: Any, levels: int = MAX_PROOF_DEPTH) -> "ProofChain":
        """Decode a chain whose `height()` may be at most `levels`."""
        return _chain_from_json(doc, levels, None, None)


# Decoding a proof, each statement it restates is decoded against the one
# it restates: a step's assumptions against its chain target's, a
# subproof's target against its step's statement. Where the raw JSON
# values are equal, the restating part takes the decoded value (see
# `formulas._statement_from_json`); elsewhere it decodes in full, so values
# and errors, and their order, are those of decoding each part alone.


def _restated(doc: Any, statement_doc: Any, statement: Statement | None) -> Statement:
    """The statement `doc` decodes to: `statement`, decoded from the raw
    `statement_doc`, if `doc` equals that, else `doc` decoded."""
    if statement is not None and doc == statement_doc:
        return statement
    return Statement.from_json(doc)


def _machine_from_json(doc: Any, statement_doc: Any, statement: Statement | None) -> MachineProof:
    """`MachineProof.from_json` of a proof that restates `statement` (see
    `_restated`), or of one on its own if that is None."""
    doc = read_object(doc, "machine proof", _MACHINE_FIELDS, ("target",))
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise ParseError("steps must be an array")
    return MachineProof(
        _restated(doc["target"], statement_doc, statement),
        tuple([InferenceStep.from_json(s) for s in steps]),
    )


def _chain_from_json(
    doc: Any, levels: int, statement_doc: Any, statement: Statement | None
) -> ProofChain:
    """`ProofChain.from_json` of a chain that restates `statement` (see
    `_restated`), or of one on its own if that is None. Each step is
    decoded against the target's raw assumptions."""
    doc = read_object(doc, "chain", _CHAIN_FIELDS, ("target",))
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise ParseError("steps must be an array")
    definitions = None
    if "definitions" in doc:
        definitions = DefinitionSet.from_json(doc["definitions"])
    target_doc = doc["target"]
    target = _restated(target_doc, statement_doc, statement)
    assumptions_doc, assumptions = target_doc.get("assumptions", []), target.assumptions
    return ProofChain(
        target,
        tuple([_step_from_json(step, levels, assumptions_doc, assumptions) for step in steps]),
        definitions,
    )


def _step_from_json(
    doc: Any, levels: int, assumptions_doc: Any, assumptions: frozenset[Formula] | None
) -> ChainStep:
    """`ChainStep.from_json` of a step of a chain whose target's
    assumption set `assumptions` decoded from the raw `assumptions_doc`
    (None if there is none): the step's statement takes that set if its
    raw assumptions are equal, and its subproof is decoded against the
    step's statement."""
    doc = read_object(doc, "chain step", _CHAIN_STEP_FIELDS, ("statement",))
    imports = doc.get("imports", [])
    if not isinstance(imports, list):
        raise ParseError("imports must be an array")
    statement_doc = doc["statement"]
    statement = _statement_from_json(statement_doc, assumptions_doc, assumptions)
    subproof = None
    if "subproof" in doc:
        sub = doc["subproof"]
        if _nested_kind(sub, levels - 1, _PROOF_KINDS) == "machine_proof":
            subproof = _machine_from_json(sub, statement_doc, statement)
        else:
            subproof = _chain_from_json(sub, levels - 1, statement_doc, statement)
    return ChainStep(statement, tuple(imports), subproof)


# The kinds a proof read as part of another record may name: a subproof
# and a move log's answer are either, a move log's root claim and a
# scenario's tree are chains.
_PROOF_KINDS = ("chain", "machine_proof")
_CHAIN_KINDS = ("chain",)


def _nested_kind(doc: Any, levels: int, kinds: tuple[str, ...]) -> Any:
    """The kind of `doc`, a proof read as part of another record and
    allowed `levels` deep: a ParseError if that is less than 1, or if `doc`
    is an object whose `kind` is missing or not one of `kinds`. What is not
    an object is left for the chain decoder to report."""
    if levels < 1:
        raise ParseError("document nested too deeply")
    if not isinstance(doc, dict):
        return None
    kind = doc.get("kind")
    if kind not in kinds:
        raise ParseError(f"nested proof kind must be {' or '.join(kinds)}, got {kind!r}")
    return kind


def proof_from_json(doc: Any, levels: int = MAX_PROOF_DEPTH) -> ProofChain | MachineProof:
    """Decode a proof read as part of another record, such as a move log's
    answer: a chain or a machine proof, as its kind says (any other kind,
    or none, is a ParseError), nested at most `levels` deep as `height()`
    counts it: deeper is a ParseError."""
    if _nested_kind(doc, levels, _PROOF_KINDS) == "machine_proof":
        return MachineProof.from_json(doc)
    return ProofChain.from_json(doc, levels)


def chain_from_json(doc: Any) -> ProofChain:
    """Decode a chain read as part of another record, such as a move log's
    root claim or a scenario's tree: its kind must be "chain"."""
    _nested_kind(doc, MAX_PROOF_DEPTH, _CHAIN_KINDS)
    return ProofChain.from_json(doc)


def measure_length(proof: ProofChain | MachineProof) -> int:
    """Length of a proof: the number of tokens it posts, computed once per
    proof value (`length()`).

    Counts the posted content only: definitions, step statements and import
    indices for a chain (embedded subproofs excluded, as is the target, which
    belongs to the disputed statement rather than the proof); formulas, rule
    tags and premise indices for a machine proof. Each formula and
    statement keeps its own count (`size()`), so a statement shared by
    several moves is counted once.
    """
    return proof.length()


class Violation(NamedTuple):
    code: str
    path: str
    detail: str

    def __str__(self) -> str:
        where = self.path or "chain"
        return f"{where}: {self.code}: {self.detail}"


class ValidationReport(Record):
    def __init__(self, violations: list[Violation] | None = None) -> None:
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, path: str, detail: str) -> None:
        self.violations.append(Violation(code, path, detail))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def _check_chain(
    target: Statement,
    chain: ProofChain,
    level_limit: int,
    ambient: frozenset[str],
    path: str,
    report: ValidationReport,
) -> None:
    if chain.target != target:
        report.add("target mismatch", path, "chain target differs from the disputed statement")

    declared = chain.definitions.names()
    shadowed = declared & ambient
    for name in sorted(shadowed):
        report.add("shadowed symbol", path, f"{name!r} is already defined in an enclosing scope")
    scope = ambient | declared

    seen: set[str] = set()
    for name, f in chain.definitions.symbols:
        for ref in f.symbols():
            if ref not in ambient and ref not in seen:
                report.add("undeclared symbol", path, f"definition of {name!r} references {ref!r}")
        seen.add(name)

    for ref in sorted(target.symbols() - scope):
        report.add("undeclared symbol", path, f"target references {ref!r}")

    k = len(chain.steps)
    for j, step in enumerate(chain.steps, start=1):
        where = f"{path}step {j}" if not path else f"{path} > step {j}"

        bad = [i for i in step.imports if not 1 <= i <= j - 1]
        if bad:
            report.add("import out of range", where, f"indices {bad} not in 1..{j - 1}")

        expected = target.assumptions
        if step.imports:
            expected = expected.union(
                [chain.steps[i - 1].statement.conclusion for i in step.imports if 1 <= i <= j - 1]
            )
        assumptions = step.statement.assumptions
        if assumptions != expected:
            missing = expected - assumptions
            extra = assumptions - expected
            parts = []
            if missing:
                parts.append(f"missing {sorted(str(f) for f in missing)}")
            if extra:
                parts.append(f"extra {sorted(str(f) for f in extra)}")
            report.add(
                "assumption mismatch",
                where,
                "step assumptions must be the target's plus imported conclusions: "
                + "; ".join(parts),
            )

        if step.statement.context != target.context:
            report.add(
                "context mismatch",
                where,
                f"step context {step.statement.context!r} differs from target "
                f"context {target.context!r}",
            )

        for ref in sorted(step.statement.symbols() - scope):
            report.add("undeclared symbol", where, f"step references {ref!r}")

        if step.subproof is not None:
            sub_path = f"{where} subproof"
            if isinstance(step.subproof, ProofChain):
                if level_limit <= 1:
                    report.add(
                        "subproof too deep",
                        sub_path,
                        "only machine proofs may appear below this level",
                    )
                else:
                    _check_chain(
                        step.statement, step.subproof, level_limit - 1, scope, sub_path, report
                    )
            else:
                if step.subproof.target != step.statement:
                    report.add(
                        "target mismatch", sub_path, "machine subproof targets a different statement"
                    )

    if chain.steps[k - 1].statement.conclusion != target.conclusion:
        report.add(
            "conclusion mismatch",
            f"{path}step {k}" if not path else f"{path} > step {k}",
            "final step must conclude exactly the target's conclusion",
        )


def validate_chain(
    target: Statement,
    chain: ProofChain,
    level_limit: int = 1,
    ambient: frozenset[str] = frozenset(),
) -> ValidationReport:
    """Structural validation of a chain against the statement it claims.

    Checks import ranges, the assumption bookkeeping of every step, context
    coherence, the final conclusion, symbol scoping (`ambient` names count as
    already defined, e.g. by enclosing proofs) and subproof placement:
    chain subproofs may nest at most `level_limit` deep, machine subproofs may
    appear anywhere. Logical correctness of machine proofs is out of scope
    here; that is the verifier's job.
    """
    if level_limit < 1:
        raise ValueError("level_limit must be at least 1")
    report = ValidationReport()
    _check_chain(target, chain, level_limit, ambient, "", report)
    return report


_PARSERS = {
    "statement": Statement.from_json,
    "chain": ProofChain.from_json,
    "machine_proof": MachineProof.from_json,
}


def parse_proof_document(data: bytes | str) -> Statement | ProofChain | MachineProof:
    """Decode a canonical proof document by its "kind" field."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from None
    try:
        doc = parse_json(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    parser = lookup(_PARSERS, doc.pop("kind", "statement"), "document kind")
    try:
        return parser(doc)
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def serialize_proof_document(obj: Statement | ProofChain | MachineProof) -> bytes:
    """Canonical bytes; parse_proof_document inverts this exactly. A
    statement gains its "kind", which sorts after all of its own fields."""
    text = obj.canonical()
    if isinstance(obj, Statement):
        text = text[:-1] + ',"kind":"statement"}'
    return text.encode("utf-8")
