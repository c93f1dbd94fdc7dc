"""Formulas, statements and definition sets.

Everything downstream (length measures, the machine verifier, the debate
protocol) works on the canonical JSON serialization defined here: objects are
dumped with sorted keys and no whitespace, so equal values always produce
byte-identical documents and content hashes are stable across processes.

Each document class writes its own canonical text with `canonical()`, equal
byte for byte to `canonical_json` of `x.to_json()` but composed from the
memoized text of its parts: keys are written as literals in sorted order and
strings through `encode_basestring`, as `canonical_json` writes them, so
posting, hashing and logging a document call no `json.dumps`. `to_json`
remains for the places that need the value itself (scenario documents, and
tests, which use it as the reference encoding).

Formula JSON shapes (single-key objects, hence injective):

    {"atom": "p"}          free propositional atom, always in scope
    {"sym": "zeta"}        named symbol, must be declared by a definition set
    {"not": f}             negation
    {"and": [f, g]}        conjunction
    {"or":  [f, g]}        disjunction
    {"imp": [f, g]}        implication
"""

from __future__ import annotations

import functools
import hashlib
import json
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Any, Callable, Iterator, TypeVar

__all__ = [
    "ParseError",
    "Formula",
    "atom",
    "sym",
    "neg",
    "conj",
    "disj",
    "impl",
    "Statement",
    "DefinitionSet",
    "canonical_json",
    "content_hash",
    "text_hash",
    "parse_json",
    "is_int",
    "read_int",
    "read_bool",
    "read_object",
    "lookup",
    "MAX_FORMULA_DEPTH",
]

_BINARY = ("and", "or", "imp")
_UNARY = ("not",)
_LEAF = ("atom", "sym")

# Deepest formula `Formula.from_json` decodes, counting the leaf as 1. The
# recursive dataclass comparisons and hashes downstream (`validate_chain`
# overflows the default stack at ~250 levels) stay well inside the
# interpreter's recursion limit below this.
MAX_FORMULA_DEPTH = 100

_T = TypeVar("_T")


class ParseError(ValueError):
    """A document does not decode to a well-formed object."""


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def parse_json(text: str | bytes) -> Any:
    """`json.loads`, reporting nesting too deep to decode as a ParseError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def content_hash(value: Any) -> str:
    """Hex sha256 of the canonical serialization of a JSON-ready value."""
    return text_hash(canonical_json(value))


def text_hash(text: str) -> str:
    """Hex sha256 of a document already in canonical JSON; for text that is
    `canonical_json(value)`, equal to `content_hash(value)`."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_int(value: Any) -> bool:
    """Whether a decoded JSON value is an integer; `true`/`false` are not,
    although Python's bool is a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_int(value: Any, name: str) -> int:
    """`value` if it decoded from a JSON integer, else a ParseError naming it."""
    if not is_int(value):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


def read_bool(value: Any, name: str) -> bool:
    """`value` if it decoded from `true` or `false`, else a ParseError naming it."""
    if not isinstance(value, bool):
        raise ParseError(f"{name} must be a boolean, got {value!r}")
    return value


def read_object(
    value: Any, name: str, fields: frozenset[str] | None = None, required: tuple[str, ...] = ()
) -> dict[str, Any]:
    """`value` if it decoded from a JSON object with no field outside
    `fields` (any field if None) and every field of `required`, else a
    ParseError naming `name`: `{name} must be an object, not {type}`,
    `unknown {name} fields [...]` or `{name} needs {first missing field}`."""
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be an object, not {type(value).__name__}")
    if fields is not None and not fields.issuperset(value):
        raise ParseError(f"unknown {name} fields {sorted(set(value) - fields)}")
    for key in required:
        if key not in value:
            raise ParseError(f"{name} needs {key}")
    return value


def lookup(table: dict[str, _T], key: Any, what: str) -> _T:
    """`table[key]`, or a ParseError naming the unknown `what`."""
    if not isinstance(key, str) or key not in table:
        raise ParseError(f"unknown {what} {key!r}")
    return table[key]


def _memoized(method: Callable[[Any], _T]) -> Callable[[Any], _T]:
    """Compute a zero-argument method of a frozen dataclass once per
    instance, on the first call, and keep the result as an instance
    attribute. The result depends only on the fields, which never change;
    the attribute is not a field, so equality, hashing and repr ignore it."""
    key = f"_{method.__name__}_memo"

    @functools.wraps(method)
    def memoized(self: Any) -> _T:
        value = getattr(self, key, None)
        if value is None:
            value = method(self)
            object.__setattr__(self, key, value)
        return value

    return memoized


@dataclass(frozen=True)
class Formula:
    op: str
    name: str | None = None
    args: tuple["Formula", ...] = ()

    def __post_init__(self) -> None:
        if self.op in _LEAF:
            if not isinstance(self.name, str) or not self.name or self.args:
                raise ParseError(f"{self.op} formula needs a name and no arguments")
        elif self.op in _UNARY:
            if self.name is not None or len(self.args) != 1:
                raise ParseError(f"{self.op} takes exactly one argument")
        elif self.op in _BINARY:
            if self.name is not None or len(self.args) != 2:
                raise ParseError(f"{self.op} takes exactly two arguments")
        else:
            raise ParseError(f"unknown connective {self.op!r}")

    def to_json(self) -> Any:
        if self.op in _LEAF:
            return {self.op: self.name}
        if self.op in _UNARY:
            return {self.op: self.args[0].to_json()}
        return {self.op: [a.to_json() for a in self.args]}

    @staticmethod
    def from_json(doc: Any) -> "Formula":
        """Decode a formula; nesting deeper than MAX_FORMULA_DEPTH is a ParseError."""
        return _formula_from_json(doc, MAX_FORMULA_DEPTH)

    def tokens(self) -> Iterator[str]:
        """Prefix-order token stream: one token per connective or leaf name."""
        stack = [self]
        while stack:
            f = stack.pop()
            if f.op in _LEAF:
                yield f.name  # type: ignore[misc]
            else:
                yield f.op
                stack.extend(reversed(f.args))

    def symbols(self) -> Iterator[str]:
        """Names of every `sym` leaf (declaration-requiring references)."""
        stack = [self]
        while stack:
            f = stack.pop()
            if f.op == "sym":
                yield f.name  # type: ignore[misc]
            else:
                stack.extend(f.args)

    @_memoized
    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`, built from the children's
        memoized text: a single-key object needs no key sorting, and a leaf
        name is written as `canonical_json` writes a string."""
        if self.op in _LEAF:
            return f'{{"{self.op}":{encode_basestring(self.name)}}}'
        if self.op in _UNARY:
            return f'{{"{self.op}":{self.args[0].canonical()}}}'
        return f'{{"{self.op}":[{self.args[0].canonical()},{self.args[1].canonical()}]}}'

    def __str__(self) -> str:
        if self.op in _LEAF:
            return self.name  # type: ignore[return-value]
        if self.op == "not":
            return f"~{self.args[0]}"
        glyph = {"and": "&", "or": "|", "imp": "->"}[self.op]
        return f"({self.args[0]} {glyph} {self.args[1]})"


# Decoded formulas, one shared instance per (op, name, child identities);
# see `_formula_from_json`. Entries are weak, so the table holds exactly the
# decoded formulas still in use somewhere: a live entry keeps its children
# alive, hence the ids in its key stay theirs.
_interned: weakref.WeakValueDictionary[tuple[Any, ...], Formula] = weakref.WeakValueDictionary()


def _formula_from_json(doc: Any, levels: int) -> Formula:
    """`Formula.from_json` with `levels` the nesting depth still allowed.

    Children are decoded first, so equal subtrees are already one object,
    and a formula is looked up by its connective, its name and the
    identities of its children: an O(1) key, where hashing the formula
    would walk the subtree. Equal formulas decoded while one of them is
    alive are therefore one object (hash-consing), which keeps its memoized
    canonical text and makes comparing them an identity check."""
    if levels < 1:
        raise ParseError("document nested too deeply")
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError(f"formula must be a single-key object, got {doc!r}")
    [(op, body)] = doc.items()
    name = None
    if op in _LEAF:
        if not isinstance(body, str):
            raise ParseError(f"{op} name must be a string")
        name, args = body, ()
    elif op in _UNARY:
        args = (_formula_from_json(body, levels - 1),)
    elif op in _BINARY:
        if not isinstance(body, list) or len(body) != 2:
            raise ParseError(f"{op} takes a two-element array")
        args = (_formula_from_json(body[0], levels - 1), _formula_from_json(body[1], levels - 1))
    else:
        raise ParseError(f"unknown connective {op!r}")
    key = (op, name, *map(id, args))
    formula = _interned.get(key)
    if formula is None:
        formula = _interned[key] = Formula(op, name, args)
    return formula


def atom(name: str) -> Formula:
    return Formula("atom", name)


def sym(name: str) -> Formula:
    return Formula("sym", name)


def neg(f: Formula) -> Formula:
    return Formula("not", args=(f,))


def conj(a: Formula, b: Formula) -> Formula:
    return Formula("and", args=(a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return Formula("or", args=(a, b))


def impl(a: Formula, b: Formula) -> Formula:
    return Formula("imp", args=(a, b))


_STATEMENT_FIELDS = frozenset({"assumptions", "conclusion", "context"})
_DEFINITION_FIELDS = frozenset({"imports", "symbols"})


@dataclass(frozen=True)
class Statement:
    """What a claim asserts: under `context`, `assumptions` entail `conclusion`.

    The context is an opaque label (a theory or library name); it scopes which
    defined symbols are in play but carries no logical content of its own.
    Assumptions are a set, serialized in canonical formula order.
    """

    conclusion: Formula
    assumptions: frozenset[Formula] = frozenset()
    context: str = ""

    @_memoized
    def sorted_assumptions(self) -> tuple[Formula, ...]:
        return tuple(sorted(self.assumptions, key=Formula.canonical))

    def tokens(self) -> Iterator[str]:
        for f in self.sorted_assumptions():
            yield from f.tokens()
        yield from self.conclusion.tokens()

    def symbols(self) -> Iterator[str]:
        for f in self.sorted_assumptions():
            yield from f.symbols()
        yield from self.conclusion.symbols()

    def to_json(self) -> Any:
        doc: dict[str, Any] = {
            "assumptions": [f.to_json() for f in self.sorted_assumptions()],
            "conclusion": self.conclusion.to_json(),
        }
        if self.context:
            doc["context"] = self.context
        return doc

    @staticmethod
    def from_json(doc: Any) -> "Statement":
        doc = read_object(doc, "statement", _STATEMENT_FIELDS, ("conclusion",))
        raw = doc.get("assumptions", [])
        if not isinstance(raw, list):
            raise ParseError("assumptions must be an array")
        context = doc.get("context", "")
        if not isinstance(context, str):
            raise ParseError("context must be a string")
        return Statement(
            conclusion=Formula.from_json(doc["conclusion"]),
            assumptions=frozenset(Formula.from_json(f) for f in raw),
            context=context,
        )

    @_memoized
    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`, built from the formulas'
        memoized text. A statement is shared by every move that asks about
        it or answers it, so its text is memoized too."""
        assumptions = ",".join(f.canonical() for f in self.sorted_assumptions())
        text = f'{{"assumptions":[{assumptions}],"conclusion":{self.conclusion.canonical()}'
        if self.context:
            text += f',"context":{encode_basestring(self.context)}'
        return text + "}"

    @_memoized
    def hash(self) -> str:
        return text_hash(self.canonical())


@dataclass(frozen=True)
class DefinitionSet:
    """Named symbols introduced by a proof, plus imported context labels.

    `symbols` maps each introduced name to its defining formula (order
    preserved for serialization; names must be unique). `imports` lists
    context labels whose symbols are assumed in scope.
    """

    symbols: tuple[tuple[str, Formula], ...] = ()
    imports: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name, _ in self.symbols:
            if name in seen:
                raise ParseError(f"duplicate symbol {name!r}")
            seen.add(name)

    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.symbols)

    def tokens(self) -> Iterator[str]:
        for label in self.imports:
            yield label
        for name, f in self.symbols:
            yield name
            yield from f.tokens()

    def to_json(self) -> Any:
        return {
            "imports": list(self.imports),
            "symbols": [[name, f.to_json()] for name, f in self.symbols],
        }

    def canonical(self) -> str:
        """Canonical JSON of `self.to_json()`, built from the formulas' memoized text."""
        imports = ",".join(map(encode_basestring, self.imports))
        symbols = ",".join(f"[{encode_basestring(name)},{f.canonical()}]" for name, f in self.symbols)
        return f'{{"imports":[{imports}],"symbols":[{symbols}]}}'

    @staticmethod
    def from_json(doc: Any) -> "DefinitionSet":
        doc = read_object(doc, "definition set", _DEFINITION_FIELDS)
        imports = doc.get("imports", [])
        raw = doc.get("symbols", [])
        if not isinstance(imports, list) or not all(isinstance(x, str) for x in imports):
            raise ParseError("imports must be an array of strings")
        if not isinstance(raw, list):
            raise ParseError("symbols must be an array")
        pairs = []
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[0], str):
                raise ParseError("each symbol entry must be [name, formula]")
            pairs.append((entry[0], Formula.from_json(entry[1])))
        return DefinitionSet(symbols=tuple(pairs), imports=tuple(imports))
