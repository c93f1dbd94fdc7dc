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
"statement", "chain" or "machine_proof". See schemas/ for the JSON Schemas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Any, Iterator, Union

from .formulas import (
    DefinitionSet,
    Formula,
    ParseError,
    Statement,
    is_int,
    lookup,
    parse_json,
    read_object,
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
    "parse_proof_document",
    "serialize_proof_document",
]


_INFERENCE_FIELDS = frozenset({"formula", "premises", "rule"})
_MACHINE_FIELDS = frozenset({"kind", "steps", "target"})
_CHAIN_STEP_FIELDS = frozenset({"imports", "statement", "subproof"})
_CHAIN_FIELDS = frozenset({"definitions", "kind", "steps", "target"})


@dataclass(frozen=True)
class InferenceStep:
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.rule:
            raise ParseError("inference step needs a rule name")
        if any(not is_int(p) or p == 0 for p in self.premises):
            raise ParseError("premise indices must be nonzero integers")

    def to_json(self) -> Any:
        return {
            "formula": self.formula.to_json(),
            "premises": list(self.premises),
            "rule": self.rule,
        }

    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`; premises are integers."""
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
            formula=Formula.from_json(doc["formula"]),
            rule=doc["rule"] if isinstance(doc["rule"], str) else "",
            premises=tuple(premises),
        )


@dataclass(frozen=True)
class MachineProof:
    target: Statement
    steps: tuple[InferenceStep, ...] = ()

    kind = "machine_proof"

    def height(self) -> int:
        return 1

    def tokens(self) -> Iterator[str]:
        for step in self.steps:
            yield from step.formula.tokens()
            yield step.rule
            for p in step.premises:
                yield str(p)

    def to_json(self) -> Any:
        return {
            "kind": self.kind,
            "steps": [s.to_json() for s in self.steps],
            "target": self.target.to_json(),
        }

    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`, built from the parts' canonical text."""
        steps = ",".join(s.canonical() for s in self.steps)
        return f'{{"kind":"{self.kind}","steps":[{steps}],"target":{self.target.canonical()}}}'

    @staticmethod
    def from_json(doc: Any) -> "MachineProof":
        doc = read_object(doc, "machine proof", _MACHINE_FIELDS, ("target",))
        steps = doc.get("steps", [])
        if not isinstance(steps, list):
            raise ParseError("steps must be an array")
        return MachineProof(
            target=Statement.from_json(doc["target"]),
            steps=tuple(InferenceStep.from_json(s) for s in steps),
        )


@dataclass(frozen=True)
class ChainStep:
    statement: Statement
    imports: tuple[int, ...] = ()
    subproof: Union["ProofChain", MachineProof, None] = None

    def __post_init__(self) -> None:
        if any(not is_int(i) for i in self.imports):
            raise ParseError("import indices must be integers")
        if len(set(self.imports)) != len(self.imports):
            raise ParseError("duplicate import index")
        object.__setattr__(self, "imports", tuple(sorted(self.imports)))

    def to_json(self) -> Any:
        doc: dict[str, Any] = {
            "imports": list(self.imports),
            "statement": self.statement.to_json(),
        }
        if self.subproof is not None:
            doc["subproof"] = self.subproof.to_json()
        return doc

    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`; import indices are integers."""
        imports = ",".join(map(str, self.imports))
        text = f'{{"imports":[{imports}],"statement":{self.statement.canonical()}'
        if self.subproof is not None:
            text += f',"subproof":{self.subproof.canonical()}'
        return text + "}"

    @staticmethod
    def from_json(doc: Any) -> "ChainStep":
        doc = read_object(doc, "chain step", _CHAIN_STEP_FIELDS, ("statement",))
        imports = doc.get("imports", [])
        if not isinstance(imports, list):
            raise ParseError("imports must be an array")
        return ChainStep(
            statement=Statement.from_json(doc["statement"]),
            imports=tuple(imports),
            subproof=proof_from_json(doc["subproof"]) if "subproof" in doc else None,
        )


@dataclass(frozen=True)
class ProofChain:
    target: Statement
    steps: tuple[ChainStep, ...]
    definitions: DefinitionSet = field(default_factory=DefinitionSet)

    kind = "chain"

    def __post_init__(self) -> None:
        if not self.steps:
            raise ParseError("chain needs at least one step")

    def height(self) -> int:
        """Nesting depth counting this chain: 1 if no subproofs."""
        deepest = 0
        for step in self.steps:
            if step.subproof is not None:
                deepest = max(deepest, step.subproof.height())
        return 1 + deepest

    def stripped(self) -> "ProofChain":
        """Copy with all subproofs removed (the shape that gets posted)."""
        return ProofChain(
            target=self.target,
            steps=tuple(
                ChainStep(statement=s.statement, imports=s.imports) for s in self.steps
            ),
            definitions=self.definitions,
        )

    def tokens(self) -> Iterator[str]:
        yield from self.definitions.tokens()
        for step in self.steps:
            yield from step.statement.tokens()
            for i in step.imports:
                yield str(i)

    def to_json(self) -> Any:
        return {
            "definitions": self.definitions.to_json(),
            "kind": self.kind,
            "steps": [s.to_json() for s in self.steps],
            "target": self.target.to_json(),
        }

    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`, built from the parts' canonical text."""
        steps = ",".join(s.canonical() for s in self.steps)
        return (
            f'{{"definitions":{self.definitions.canonical()},"kind":"{self.kind}",'
            f'"steps":[{steps}],"target":{self.target.canonical()}}}'
        )

    @staticmethod
    def from_json(doc: Any) -> "ProofChain":
        doc = read_object(doc, "chain", _CHAIN_FIELDS, ("target",))
        steps = doc.get("steps", [])
        if not isinstance(steps, list):
            raise ParseError("steps must be an array")
        definitions = DefinitionSet()
        if "definitions" in doc:
            definitions = DefinitionSet.from_json(doc["definitions"])
        return ProofChain(
            target=Statement.from_json(doc["target"]),
            # `map`, not a generator: decoding then recurses no deeper per
            # subproof level than parsing the JSON did, which bounds it.
            steps=tuple(map(ChainStep.from_json, steps)),
            definitions=definitions,
        )


def proof_from_json(doc: Any) -> ProofChain | MachineProof:
    """Decode a machine proof if `doc`'s kind says so, else a chain."""
    if isinstance(doc, dict) and doc.get("kind") == "machine_proof":
        return MachineProof.from_json(doc)
    return ProofChain.from_json(doc)


def measure_length(proof: ProofChain | MachineProof) -> int:
    """Length of a proof: the number of tokens it posts.

    Counts the posted content only: definitions, step statements and import
    indices for a chain (embedded subproofs excluded, as is the target, which
    belongs to the disputed statement rather than the proof); formulas, rule
    tags and premise indices for a machine proof.
    """
    return len(list(proof.tokens()))


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    detail: str

    def __str__(self) -> str:
        where = self.path or "chain"
        return f"{where}: {self.code}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

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

    for ref in sorted(set(target.symbols()) - scope):
        report.add("undeclared symbol", path, f"target references {ref!r}")

    k = len(chain.steps)
    for j, step in enumerate(chain.steps, start=1):
        where = f"{path}step {j}" if not path else f"{path} > step {j}"

        bad = [i for i in step.imports if not 1 <= i <= j - 1]
        if bad:
            report.add("import out of range", where, f"indices {bad} not in 1..{j - 1}")

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

        for ref in sorted(set(step.statement.symbols()) - scope):
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
