"""Staked debates over structured proofs.

Claims post token-backed chains of sub-statements; questions dispute single
steps for a bounty; at the bottom a machine-checkable proof decides. The
package bundles the proof format, a toy proof checker, the escrowed debate
protocol with deterministic settlement, an agent simulator, and the
closed-form equilibrium analysis of the two-level entry game, all behind the
``sprig`` command-line tool.

The package re-exports nothing; import from its modules (``sprig.protocol``,
``sprig.equilibrium``, ...), so that each subcommand loads only its own layer.
It defines one function, `canonical_json`, the encoding every document and
every command's output is written in: it lives here so that the equilibrium
commands can print without loading ``sprig.formulas``. It also defines
`Record` and its immutable `Frozen`, which spare each command the import of
`dataclasses` (and through it of `inspect`) and the methods it would
generate per class.

A value class takes its base by one rule. A class whose constructor only
stores its fields is a `typing.NamedTuple`: the cheapest record to build,
it compares, hashes and orders as the tuple of its fields does, whatever
its class. A class whose constructor checks or normalizes its fields is a
`Frozen` record (a `Record`, if it is mutable). A class of a document's
parts, a formula, a statement or a proof record around them
(`DefinitionSet`, `InferenceStep`, `MachineProof`, `ChainStep`,
`ProofChain`), is a `sprig.formulas.Interned` record, even where its
constructor only stores: its `__new__` checks its fields and returns
`sprig.formulas._intern`'s one live instance of the value, kept in a table
of weak references (a tuple cannot be weakly referenced), so its equality
and hashing are identity and what it memoizes is computed once per value.
"""

import json
from operator import attrgetter
from typing import Any

__version__ = "0.1.0"


def canonical_json(value: Any) -> str:
    """Sorted keys, no whitespace, UTF-8 text: equal values always encode to
    equal bytes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class Record:
    """A class of values whose fields are the parameters of its `__init__`
    (or of its `__new__`, in a class without one), which stores each under
    its own name.

    `Cls._fields` lists the field names in signature order and `_asdict()`
    maps them to the values. Two records are equal when they are of one
    class and their fields are equal, and a record reprs as
    `Name(field=value, ...)`; fields named in `_uncompared` are left out of
    both. A record is unhashable, as a mutable value must be; a `Frozen`
    one hashes and refuses writes."""

    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        constructor = "__init__" if "__init__" in vars(cls) else "__new__"
        if constructor in vars(cls):
            code = getattr(cls, constructor).__code__
            cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
            cls._compared = tuple(n for n in cls._fields if n not in cls._uncompared)
            cls._key = attrgetter(*cls._compared)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def _asdict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._fields}


class Frozen(Record):
    """An immutable record: its `__init__` stores each field with
    `_set_field`, and any other write raises AttributeError. Unlike a write
    through `self.__dict__`, `_set_field` keeps the instance's compact
    attribute storage."""

    _set_field = object.__setattr__

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
