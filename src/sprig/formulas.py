"""Formulas, statements and definition sets.

Everything downstream (length measures, the machine verifier, the debate
protocol) works on the canonical JSON serialization `canonical_json`, defined
in the package's `__init__` and re-exported here: objects are dumped with
sorted keys and no whitespace, so equal values always produce byte-identical
documents and content hashes are stable across processes.

Each document class writes its own canonical text with `canonical()`, its
only encoding, composed from the memoized text of its parts: keys are written
as literals in sorted order and strings through `encode_basestring`, as
`canonical_json` writes them, so posting, hashing and logging a document call
no `json.dumps`. A caller that needs the JSON value decodes that text.

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
import json
import re
import weakref
from _weakref import _remove_dead_weakref
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, TypeVar

from . import Frozen, canonical_json

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
    "read_str",
    "read_object",
    "lookup",
    "MAX_FORMULA_DEPTH",
    "MAX_PROOF_DEPTH",
    "nested_too_deeply",
]

_BINARY = ("and", "or", "imp")
_UNARY = ("not",)
_LEAF = ("atom", "sym")

# Deepest formula `Formula.from_json` decodes, counting the leaf as 1. The
# recursive formula comparisons and hashes downstream (`validate_chain`
# overflows the default stack at ~250 levels) stay well inside the
# interpreter's recursion limit below this.
MAX_FORMULA_DEPTH = 100
# Deepest proof document `proof_from_json` decodes, as `height()` counts it:
# a chain without subproofs, or a machine proof, is 1, and each subproof
# level adds 1. Decoding, validating and writing a proof recurse a few frames
# per level: at this bound, with formulas at theirs, about half of the
# default recursion limit. Without it, only the JSON parser's recursion
# guard bounded nesting, somewhere between 300 and 400 levels.
MAX_PROOF_DEPTH = 100

_T = TypeVar("_T")


class ParseError(ValueError):
    """A document does not decode to a well-formed object."""


# A `\ud800`-`\udfff` escape, and the lone surrogate that one can decode to.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


# The C scanner that `json.loads` runs, called directly (see `parse_json`).
_scan = json.JSONDecoder().scan_once


def parse_json(text: str) -> Any:
    """`json.loads`, reporting nesting too deep to decode, and a lone
    surrogate escape (text no UTF-8 document can hold), as a ParseError.
    Only text with a surrogate escape is searched for a lone one, so text
    without a `\\u` escape pays one substring search.

    Text that starts with a value is first scanned directly, as `json.loads`
    scans it, which spares `json.loads`' three Python frames and two
    whitespace matches: about a sixth of what reading a move-log line
    costs. If the value does not end the text, or no value starts it
    (leading whitespace, a byte order mark, no text at all), `json.loads`
    runs on it and gives its own value or error."""
    try:
        try:
            value, end = _scan(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            value = json.loads(text)
        if "\\u" in text and _SURROGATE_ESCAPE.search(text):
            _reject_lone_surrogates(value, "$")
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    return value


def _reject_lone_surrogates(value: Any, where: str) -> None:
    """A ParseError naming the path of the first string in `value`, in
    document order, that holds a lone surrogate."""
    if isinstance(value, str):
        found = _SURROGATE.search(value)
        if found:
            raise ParseError(f"lone surrogate {found.group()!r} in {where}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _reject_lone_surrogates(key, f"a field name of {where}")
            _reject_lone_surrogates(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_lone_surrogates(item, f"{where}[{i}]")


def content_hash(value: Any) -> str:
    """Hex sha256 of the canonical serialization of a JSON-ready value."""
    return text_hash(canonical_json(value))


def text_hash(text: str) -> str:
    """Hex sha256 of a document already in canonical JSON; for text that is
    `canonical_json(value)`, equal to `content_hash(value)`."""
    # Imported here: loading OpenSSL costs milliseconds that commands which
    # hash nothing, such as `sprig validate`, need not pay.
    import hashlib

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


def read_str(value: Any, name: str) -> str:
    """`value` if it decoded from a JSON string, else a ParseError naming it."""
    if not isinstance(value, str):
        raise ParseError(f"{name} must be a string, got {value!r}")
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


# Every formula, statement and proof record, built or decoded, one instance
# per value: each class's `__new__` ends in `_intern`, which looks the value
# up here, keyed by the class and the fields, and enters it on a miss. Equal
# values are therefore one object, so equality and hashing are identity, and
# a key made of a formula's children, a statement's formulas or a proof's
# parts hashes in O(1), where hashing by value would walk the tree. Entries
# are weak references (`_Entry`), so the table holds exactly the values
# still in use somewhere: when a value dies, `_drop` removes its entry, and
# with it the key's references to the parts, in C. Nothing guards an
# iteration of the table against that removal, so a reader iterates a
# snapshot (`list(_interned.values())`) and calls each entry for its value.
_interned: dict[tuple[Any, ...], _Entry] = {}
_new = object.__new__
_set_field = Frozen._set_field


def _intern(key: tuple[Any, ...]) -> Any:
    """The one live instance of the value `key` names, `(cls, *fields)` in
    `cls._fields` order: the table's if it is alive, else a new instance
    entered under `key`. Callers check the fields first, so no value that
    fails a check is entered. Every interned class has two or three fields;
    storing them in a loop over `zip` made each new value ~0.3 µs dearer."""
    ref = _interned.get(key)
    if ref is not None:
        value = ref()
        if value is not None:
            return value
    cls = key[0]
    value = _new(cls)
    names = cls._fields
    _set_field(value, names[0], key[1])
    _set_field(value, names[1], key[2])
    if len(key) > 3:
        _set_field(value, names[2], key[3])
    _interned[key] = entry = _Entry(value, _drop)
    entry.key = key
    return value


def _drop(entry: _Entry) -> None:
    """Remove a dead value's entry from `_interned`, unless a live value
    has taken its key since."""
    _remove_dead_weakref(_interned, entry.key)


class _Entry(weakref.ref):
    """A table entry: a weak reference to the value that carries its key,
    as `_drop` reads it. `weakref.KeyedRef` is the same, but its
    constructor runs two Python frames, which every new value would pay
    for."""

    __slots__ = ("key",)


class Interned(Frozen):
    """A `Frozen` record that is one instance per value: its `__new__`
    checks its fields and returns `_intern`'s instance of the value. So
    equality and hashing are identity, and unpickling, which calls the
    constructor, returns the live instance."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self) -> tuple[Any, ...]:
        return self.__class__, tuple([getattr(self, name) for name in self._fields])


def _memoized(method: Callable[[Any], _T]) -> Callable[[Any], _T]:
    """Compute a zero-argument method of a `Frozen` record once per
    instance, on the first call, and keep the result (None too) as an
    instance attribute. The result depends only on the fields, which never
    change; the attribute is not a field, so equality, hashing, repr and
    `_asdict` ignore it. A result must not refer back to its instance, or
    the instance would outlive its last outside reference."""
    key = f"_{method.__name__}_memo"
    unset = object()

    @functools.wraps(method)
    def memoized(self: Any) -> _T:
        value = getattr(self, key, unset)
        if value is unset:
            value = method(self)
            object.__setattr__(self, key, value)
        return value

    return memoized


class Formula(Interned):
    """A formula of the shapes the module docstring lists, one instance per
    value (see `_intern`): equal formulas are one object, so equality and
    hashing are identity, and a formula's memoized text and size are
    computed once per value."""

    def __new__(cls, op: str, name: str | None = None, args: tuple[Formula, ...] = ()) -> Formula:
        if op in _LEAF:
            if not isinstance(name, str) or not name or args:
                raise ParseError(f"{op} formula needs a name and no arguments")
        elif op in _UNARY:
            if name is not None or len(args) != 1:
                raise ParseError(f"{op} takes exactly one argument")
        elif op in _BINARY:
            if name is not None or len(args) != 2:
                raise ParseError(f"{op} takes exactly two arguments")
        else:
            raise ParseError(f"unknown connective {op!r}")
        return _intern((cls, op, name, args))

    @staticmethod
    def from_json(doc: Any) -> "Formula":
        """Decode a formula; nesting deeper than MAX_FORMULA_DEPTH is a ParseError."""
        return _formula_from_json(doc, MAX_FORMULA_DEPTH)

    @_memoized
    def size(self) -> int:
        """Token count: one per connective or leaf name (see `measure_length`)."""
        return 1 + sum([a.size() for a in self.args])

    @_memoized
    def symbols(self) -> tuple[str, ...]:
        """Names of every `sym` leaf (declaration-requiring references),
        repeats included, in the order of a depth-first walk that visits
        the last argument first. The walk keeps its own stack, so a built
        formula of any depth is safe, and only the formula asked is
        memoized, not each of its subformulas."""
        names = []
        stack = [self]
        while stack:
            f = stack.pop()
            if f.op == "sym":
                names.append(f.name)
            else:
                stack.extend(f.args)
        return tuple(names)

    @_memoized
    def canonical(self) -> str:
        """The formula's single-key object (see the module docstring) as
        canonical JSON, built from the children's memoized text: a
        single-key object needs no key sorting, and a leaf name is written
        as `canonical_json` writes a string."""
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


def _formula_from_json(doc: Any, levels: int) -> Formula:
    """`Formula.from_json` with `levels` the nesting depth still allowed.

    Children are decoded first, so they are already the one instance of
    their value, and the formula is read from `_interned` by the key
    `_intern` enters it under; only a formula no live object holds calls
    the constructor, which checks it. On this hot path of replay the table
    is read directly, which spares each node the class call and `_intern`'s
    frame."""
    if levels < 1:
        raise ParseError("document nested too deeply")
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError(f"formula must be a single-key object, got {doc!r}")
    [(op, body)] = doc.items()
    if op == "atom" or op == "sym":
        if not isinstance(body, str):
            raise ParseError(f"{op} name must be a string")
        name, args = body, ()
    elif op == "and" or op == "or" or op == "imp":
        if not isinstance(body, list) or len(body) != 2:
            raise ParseError(f"{op} takes a two-element array")
        left = _formula_from_json(body[0], levels - 1)
        right = _formula_from_json(body[1], levels - 1)
        name, args = None, (left, right)
    elif op == "not":
        inner = _formula_from_json(body, levels - 1)
        name, args = None, (inner,)
    else:
        raise ParseError(f"unknown connective {op!r}")
    ref = _interned.get((Formula, op, name, args))
    formula = ref() if ref is not None else None
    return formula if formula is not None else Formula(op, name, args)


def nested_too_deeply(formulas: Iterable[Formula]) -> bool:
    """Whether one of `formulas` nests deeper than MAX_FORMULA_DEPTH, so that
    its text would not decode. Walks one level at a time, without recursion,
    so a built formula of any depth is safe, and a level holds each distinct
    subformula once, however many paths reach it; nothing is memoized on
    the formulas."""
    level = set(formulas)
    for _ in range(MAX_FORMULA_DEPTH):
        level = {arg for formula in level for arg in formula.args}
        if not level:
            return False
    return True


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


class Statement(Interned):
    """What a claim asserts: under `context`, `assumptions` entail `conclusion`.

    The context is an opaque label (a theory or library name); it scopes which
    defined symbols are in play but carries no logical content of its own.
    Assumptions are a set, serialized in canonical formula order. Like a
    formula, a statement is one instance per value (see `_intern`).
    """

    def __new__(
        cls, conclusion: Formula, assumptions: frozenset[Formula] = frozenset(), context: str = ""
    ) -> Statement:
        # Taken as a set, as decoding takes it: a tuple would intern as
        # another value, whose canonical text decodes to the set's value.
        if assumptions.__class__ is not frozenset:
            assumptions = frozenset(assumptions)
        return _intern((cls, conclusion, assumptions, context))

    @_memoized
    def sorted_assumptions(self) -> tuple[Formula, ...]:
        return tuple(sorted(self.assumptions, key=Formula.canonical))

    @_memoized
    def size(self) -> int:
        """Token count of the assumptions and the conclusion."""
        return sum([f.size() for f in self.assumptions]) + self.conclusion.size()

    @_memoized
    def symbols(self) -> frozenset[str]:
        """Names of every `sym` leaf of the assumptions and the conclusion,
        as a set: a caller that reports them sorts them."""
        names = [name for f in self.assumptions for name in f.symbols()]
        names += self.conclusion.symbols()
        return frozenset(names) if names else _NO_SYMBOLS

    @staticmethod
    def from_json(doc: Any) -> "Statement":
        """Decode a statement. Its formulas are decoded first, so a
        question's statement and the target of every answer to it are one
        object, with one memoized text, hash and size."""
        return _statement_from_json(doc, None, None)

    @_memoized
    def canonical(self) -> str:
        """Canonical JSON of `{"assumptions": [...], "conclusion": ...,
        "context": ...}`, assumptions in canonical order and the context
        left out when empty, built from the formulas' memoized text. A
        statement is shared by every move that asks about it or answers it,
        so its text is memoized too."""
        assumptions = ",".join(f.canonical() for f in self.sorted_assumptions())
        text = f'{{"assumptions":[{assumptions}],"conclusion":{self.conclusion.canonical()}'
        if self.context:
            text += f',"context":{encode_basestring(self.context)}'
        return text + "}"

    @_memoized
    def hash(self) -> str:
        return text_hash(self.canonical())


_NO_SYMBOLS: frozenset[str] = frozenset()


def _statement_from_json(doc: Any, known_doc: Any, known: frozenset[Formula] | None) -> Statement:
    """`Statement.from_json`, taking `known`, the assumption set decoded
    from the raw array `known_doc` (both None if none was), as its own when its
    raw array equals `known_doc`: a chain step restates its target's
    assumptions. An array that decoded holds only objects, arrays and
    strings, and a string only equals a string, so an equal array holds the
    same formulas, which decode to the same set; skipping that decode
    changes no value and, as it cannot fail, no error."""
    doc = read_object(doc, "statement", _STATEMENT_FIELDS, ("conclusion",))
    raw = doc.get("assumptions", [])
    if not isinstance(raw, list):
        raise ParseError("assumptions must be an array")
    context = doc.get("context", "")
    if not isinstance(context, str):
        raise ParseError("context must be a string")
    conclusion = _formula_from_json(doc["conclusion"], MAX_FORMULA_DEPTH)
    if raw != known_doc:
        known = frozenset([_formula_from_json(f, MAX_FORMULA_DEPTH) for f in raw])
    return Statement(conclusion, known, context)


class DefinitionSet(Interned):
    """Named symbols introduced by a proof, plus imported context labels.

    `symbols` maps each introduced name to its defining formula (order
    preserved for serialization; names must be unique). `imports` lists
    context labels whose symbols are assumed in scope. Like a formula, a
    definition set is one instance per value (see `_intern`).
    """

    def __new__(
        cls, symbols: tuple[tuple[str, Formula], ...] = (), imports: tuple[str, ...] = ()
    ) -> DefinitionSet:
        seen: set[str] = set()
        for name, _ in symbols:
            if name in seen:
                raise ParseError(f"duplicate symbol {name!r}")
            seen.add(name)
        return _intern((cls, symbols, imports))

    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.symbols)

    def canonical(self) -> str:
        """Canonical JSON of `{"imports": [...], "symbols": [[name, formula],
        ...]}`, both in declaration order, built from the formulas' memoized
        text."""
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
