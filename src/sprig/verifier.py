"""Machine-level proof checking.

`ToyVerifier` is the contract's one machine checker: a small propositional
kernel (nine inference rules, no discharge). A proof validates iff every
step is a legal rule application and the last step derives exactly the
target's conclusion. The first offending step index (1-based) is reported
as the diagnostic; diagnostic 0 means the steps were fine individually but
the proof is empty or ends on the wrong formula.

A verdict depends on the statement and the proof alone, never on where in a
debate the proof was posted: validity is decidable by a computer.

Premise indices in rule applications: positive k is the k-th earlier step,
negative k is the |k|-th assumption of the target statement in canonical
order. Out-of-range or forward references make the step illegal.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from . import Record
from .formulas import Formula, Statement
from .proofs import MachineProof

__all__ = [
    "Verdict",
    "UnscriptedVerdictError",
    "ToyVerifier",
    "ScriptedVerifier",
    "TOY_RULES",
]


class Verdict(NamedTuple):
    validated: bool
    diagnostic: int | None = None


class UnscriptedVerdictError(KeyError):
    """The scripted backend has no entry for this statement."""


def _is(f: Formula, op: str) -> bool:
    return f.op == op


def _r_assumption(f: Formula, prem: list[Formula], assumptions: frozenset[Formula]) -> bool:
    return not prem and f in assumptions


def _r_and_intro(f: Formula, prem: list[Formula], _a) -> bool:
    return _is(f, "and") and f.args == (prem[0], prem[1])


def _r_and_elim_left(f: Formula, prem: list[Formula], _a) -> bool:
    return _is(prem[0], "and") and prem[0].args[0] == f


def _r_and_elim_right(f: Formula, prem: list[Formula], _a) -> bool:
    return _is(prem[0], "and") and prem[0].args[1] == f


def _r_or_intro_left(f: Formula, prem: list[Formula], _a) -> bool:
    return _is(f, "or") and f.args[0] == prem[0]


def _r_or_intro_right(f: Formula, prem: list[Formula], _a) -> bool:
    return _is(f, "or") and f.args[1] == prem[0]


def _r_impl_elim(f: Formula, prem: list[Formula], _a) -> bool:
    # premises: [implication, antecedent]
    return _is(prem[0], "imp") and prem[0].args == (prem[1], f)


def _r_neg_elim(f: Formula, prem: list[Formula], _a) -> bool:
    # premises: [a, not a]; anything follows from a contradiction
    return _is(prem[1], "not") and prem[1].args[0] == prem[0]


def _r_double_neg_elim(f: Formula, prem: list[Formula], _a) -> bool:
    p = prem[0]
    return _is(p, "not") and _is(p.args[0], "not") and p.args[0].args[0] == f


# rule name -> (premise count, legality predicate)
TOY_RULES = {
    "assumption": (0, _r_assumption),
    "and_intro": (2, _r_and_intro),
    "and_elim_left": (1, _r_and_elim_left),
    "and_elim_right": (1, _r_and_elim_right),
    "or_intro_left": (1, _r_or_intro_left),
    "or_intro_right": (1, _r_or_intro_right),
    "impl_elim": (2, _r_impl_elim),
    "neg_elim": (2, _r_neg_elim),
    "double_neg_elim": (1, _r_double_neg_elim),
}


class ToyVerifier:
    """Checks every step against the propositional kernel."""

    def verdict(self, statement: Statement, proof: MachineProof) -> Verdict:
        assumptions = statement.sorted_assumptions()
        derived: list[Formula] = []
        for index, step in enumerate(proof.steps, start=1):
            spec = TOY_RULES.get(step.rule)
            if spec is None:
                return Verdict(False, index)
            arity, legal = spec
            if len(step.premises) != arity:
                return Verdict(False, index)
            resolved: list[Formula] = []
            ok = True
            for p in step.premises:
                if p > 0 and p <= len(derived):
                    resolved.append(derived[p - 1])
                elif p < 0 and -p <= len(assumptions):
                    resolved.append(assumptions[-p - 1])
                else:
                    ok = False
                    break
            if not ok or not legal(step.formula, resolved, statement.assumptions):
                return Verdict(False, index)
            derived.append(step.formula)
        if not derived or derived[-1] != statement.conclusion:
            return Verdict(False, 0)
        return Verdict(True, None)


# No run uses this or `UnscriptedVerdictError`; the benchmark tracer binds its `verdict`.
class ScriptedVerifier(Record):
    """Verdicts looked up by statement hash; the proof is not read."""

    def __init__(self, script: Mapping[str, bool] | None = None) -> None:
        self.script = {} if script is None else script

    def verdict(self, statement: Statement, proof: MachineProof) -> Verdict:
        h = statement.hash()
        if h not in self.script:
            raise UnscriptedVerdictError(f"unscripted verdict for statement {h[:12]}")
        return Verdict(bool(self.script[h]))
