"""The benchmark's tracer (perfbench/tracing.py) wraps sprig's entry points
by name, from outside the package. A renamed or removed entry point would
otherwise show only when a traced benchmark run crashes, so these check that
every target resolves, that installing the tracer wraps each one and records
its spans, and that uninstalling it puts every original back."""

import sys
from pathlib import Path

import sprig.protocol as pr
from sprig.formulas import Statement, atom
from sprig.proofs import InferenceStep, MachineProof
from sprig.scenarios import identity_chain

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

_CASCADE = pr.ParameterCascade(
    root_level=1,
    levels={1: pr.LevelParameters(120, 0, 6, 4, 5, 3)},
    machine=pr.MachineParameters(80, 2, 1, 3, 2),
)
_IDENT = Statement(conclusion=atom("p"), assumptions=frozenset({atom("p")}))


def _bindings():
    """Each name bound in each sprig module and in each class a target is
    patched on, with the object it is bound to."""
    owners = [m for name, m in sys.modules.items()
              if (name == "sprig" or name.startswith("sprig.")) and m is not None]
    owners += [owner for _, owner, _, _ in tracing.targets() if isinstance(owner, type)]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_every_trace_target_resolves():
    for _, owner, attr, _ in tracing.targets():
        if isinstance(owner, type):
            assert attr in vars(owner), f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_install_wraps_every_target_and_uninstall_restores_every_original():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, owner, attr, _ in tracing.targets():
            bound = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert hasattr(getattr(bound, "__func__", bound), "__wrapped__"), attr
        inst = pr.create_root_claim(
            "amy", _IDENT, identity_chain(_IDENT), _CASCADE, 0, balances={"amy": 9, "quin": 9}
        )
        question = inst.post_question("quin", inst.root_id, 1, 1)
        # A machine-level answer: its verdict must reach the patched class attribute.
        proof = MachineProof(target=_IDENT, steps=(InferenceStep(atom("p"), "assumption"),))
        inst.apply(pr.Move("answer_claim", "amy", 1, question, proof=proof))
    finally:
        tracer.uninstall()
    named = {tracer.names[span[0]] for span in tracer.spans}
    assert {"create_root_claim", "ProtocolInstance.post_question", "ToyVerifier.verdict"} <= named
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
