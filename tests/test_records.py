"""Value semantics of every record class: equality, hashing, immutability,
repr and pickling, as the `Record` and `Frozen` bases and `typing.NamedTuple`
give them."""

import importlib
import pickle
import pkgutil
from typing import NamedTuple

import pytest

import sprig
import sprig.equilibrium as eq
import sprig.proofs as pf
import sprig.protocol as pr
import sprig.scenarios as sc
import sprig.simulator as sim
import sprig.verifier as vf
from sprig import Frozen, Record
from sprig.formulas import DefinitionSet, Formula, Interned, Statement, atom, conj

_P, _Q = atom("p"), atom("q")
_STATEMENT = Statement(conclusion=conj(_P, _Q), assumptions=frozenset({_P, _Q}), context="demo")
_STEP = pf.ChainStep(statement=Statement(conclusion=_P, assumptions=frozenset({_P, _Q})))
_CHAIN = pf.ProofChain(target=Statement(conclusion=_P, assumptions=frozenset({_P, _Q})),
                       steps=(_STEP,))
_MACHINE = pf.MachineProof(target=_STEP.statement, steps=(pf.InferenceStep(_P, "assumption"),))
_LEVEL = pr.LevelParameters(100, 0, 6, 4, 5, 4)
_MACHINE_PARAMS = pr.MachineParameters(80, 2, 1, 3, 4)
_CASCADE = pr.ParameterCascade(root_level=1, levels={1: _LEVEL}, machine=_MACHINE_PARAMS)
_AT = pr.Timestamp(3, 1)

# Field values for one instance of each record class, by keyword. Records
# that do not check their fields get plain values, so that a pickled copy
# compares equal; a node's `children` and `decider` are left out of
# equality and repr, so they get values that would otherwise show.
SAMPLES = {
    Formula: dict(op="atom", name="p", args=()),
    Statement: dict(conclusion=_P, assumptions=frozenset({_Q}), context="demo"),
    DefinitionSet: dict(symbols=(("zeta", _P),), imports=("lib",)),
    pf.InferenceStep: dict(formula=_P, rule="assumption", premises=(-1,)),
    pf.MachineProof: dict(target=_STATEMENT, steps=(pf.InferenceStep(_P, "assumption"),)),
    pf.ChainStep: dict(statement=_STATEMENT, imports=(1,), subproof=_MACHINE),
    pf.ProofChain: dict(target=_CHAIN.target, steps=(_STEP,), definitions=DefinitionSet()),
    pf.Violation: dict(code="target mismatch", path="step 1", detail="differs"),
    pf.ValidationReport: dict(violations=[pf.Violation("c", "p", "d")]),
    vf.Verdict: dict(validated=False, diagnostic=2),
    vf.ScriptedVerifier: dict(script={"c1": True}),
    pr.LevelParameters: dict(max_length=100, stake_up=0, stake_down=6, verification_time=4,
                             bounty=5, response_time=4),
    pr.MachineParameters: dict(max_length=80, stake_up=2, burn_cost=1, bounty=3, response_time=4),
    pr.ParameterCascade: dict(root_level=1, levels={1: _LEVEL}, machine=_MACHINE_PARAMS),
    pr.Timestamp: dict(time=3, seq=1),
    pr.Node: dict(kind="claim", id="c1", owner="ann", level=1, statement=_STATEMENT,
                  posted_at=_AT, deadline=7, escrow=6, origin="q0", status=pr.VALIDATED,
                  determination=_AT, children=["q2"], decider="q3", proof=_CHAIN,
                  verdict=vf.Verdict(True), step_index=None),
    pr.Move: dict(kind="answer_claim", actor="ann", time=3, origin="q2", step=None,
                  statement=None, proof=_MACHINE),
    pr.SettlementTransfer: dict(node_id="c1", account="ann", amount=6, reason="stake returned"),
    sim.Knowledge: dict(answers={_CHAIN.target: _CHAIN},
                        machine_proofs={_MACHINE.target: _MACHINE},
                        truth={_CHAIN.target: True}),
    sim.AgentContext: dict(instance="instance", me="ann", knowledge=sim.Knowledge(), rng=None),
    sim.AgentSpec: dict(name="ann", balance=10, strategy="idle", tree=_CHAIN),
    sim.ScenarioConfig: dict(cascade=_CASCADE, agents=[sim.AgentSpec("ann", 10, "idle")],
                             root_owner="ann", horizon=9, seed=4, mode=pr.EARLY_STOP,
                             root_tree=_CHAIN, root_statement=None, root_time=1),
    sim.RejectedIntent: dict(time=3, actor="ann", kind="question", detail="question c1 step 9",
                             reason="no such step"),
    sim.SimulationTrace: dict(seed=1, horizon=9, initial_balances={"ann": 10},
                              rejections=[], transfers=[], instance="instance"),
    sc.StepPlan: dict(conclusion=_P, imports=(1,), sub="machine"),
    sc.ProtocolFixture: dict(name="fixture", instance="instance", balances={"ann": 10},
                             final_time=8, labels={"root": "c0"},
                             expected={"root": ("validated", 4)},
                             expected_payoffs={"ann": 0}, notes="notes"),
    eq.GameParameters: dict(b0=40.0, b1=40.0, b2=50.0, sigma1=20.0, sigma2=30.0, beta0=10.0,
                            beta1=10.0),
    eq.EquilibriumSolution: dict(eq_type=2, pi_star=0.5, pi_e=0.75, pi1_star=0.8, p=0.4,
                                 q1=0.6, q2=0.3),
    eq.OutcomeProbabilities: dict(accept_rate=0.6, valid_accept_rate=0.4,
                                  accept_given_valid=0.8, accept_given_invalid=0.4,
                                  valid_given_accept=0.7, valid_given_reject=None,
                                  unchallenged_share=0.5, replied_share=0.2, reliability=0.7),
    eq.McEstimate: dict(estimate=0.5, se=0.01, hits=50, draws=100),
    eq.Deviation: dict(node="skeptic entry", action="pass", gain=0.25, detail="mixing"),
}
_UNCOMPARED = {"children", "decider"}


def _record_classes(base=Record):
    found = set()
    for cls in base.__subclasses__():
        if cls not in (Frozen, Interned) and cls.__module__.startswith("sprig."):
            found.add(cls)
        found |= _record_classes(cls)
    return found


def _tuple_record_classes():
    """Every `typing.NamedTuple` class that a module of the package defines."""
    found = set()
    for info in pkgutil.iter_modules(sprig.__path__, "sprig."):
        module = importlib.import_module(info.name)
        found |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and NamedTuple in getattr(cls, "__orig_bases__", ())}
    return found


def test_every_record_class_has_a_sample():
    assert _record_classes() | _tuple_record_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    fields = SAMPLES[cls]
    one, two = cls(**fields), cls(**fields)
    assert one == two and not one != two
    assert cls._fields == tuple(fields)
    assert one._asdict() == fields

    twin = type("Twin", (cls,), {})(**fields)
    if issubclass(cls, Record):
        # another class with the same values is another value
        assert one != twin and twin != one
    else:
        # a tuple record is the tuple of its fields
        assert one == twin and one == tuple(fields.values())

    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items() if k not in _UNCOMPARED)
    assert repr(one) == f"{cls.__qualname__}({shown})"

    restored = pickle.loads(pickle.dumps(one))
    assert restored == one and restored.__class__ is cls

    name = next(iter(fields))
    if not issubclass(cls, Record) or issubclass(cls, Frozen):
        # a frozen record hashes as its fields do: a cascade's levels are a dict
        try:
            hash(tuple(fields.values()))
        except TypeError:
            with pytest.raises(TypeError):
                hash(one)
        else:
            assert hash(one) == hash(two) == hash(restored)
        with pytest.raises(AttributeError):
            setattr(one, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(one, name)
        with pytest.raises(AttributeError):
            one.other = 1
        assert one == two
    else:
        with pytest.raises(TypeError):
            hash(one)
        setattr(one, name, "changed")
        assert one != two

    uncompared = _UNCOMPARED.intersection(fields)
    if uncompared:
        bare = cls(**{k: v for k, v in fields.items() if k not in uncompared})
        assert bare == two and bare.children == [] and bare.decider is None
