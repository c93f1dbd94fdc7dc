"""Spans around the public entry points of each sprig layer, from outside.

`Tracer.install` replaces each target function or method with a wrapper that
records a span (name, start, end, parent span, run id, and a value taken from
the result) and puts the originals back on `uninstall`. Module-level
functions are patched at every binding site: `sprig.protocol` and
`sprig.simulator` import `content_hash`, `validate_chain`, `replay` and
others by name, so patching only the defining module would miss their calls.
Methods are patched on their class.

Hot accessors that run inside these entry points (`ProtocolInstance.claim`,
`claim_deadline`, `Formula.canonical`, ...) are deliberately not wrapped:
their time is part of the caller's self time, and wrapping them would
multiply the tracing overhead.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import sprig
import sprig.cli
import sprig.equilibrium
import sprig.formulas
import sprig.proofs
import sprig.protocol
import sprig.scenarios
import sprig.simulator
import sprig.verifier


def _validated(result: Any) -> int:
    return int(result.validated)


def _rejections(result: Any) -> int:
    return len(result.rejections)


_AGENT_CONTEXT_METHODS = (
    "balance",
    "open_questions",
    "open_claims",
    "answered_by_me",
    "my_answers",
    "questioned_by_me",
    "on_my_claim",
    "question_cost",
    "answer_cost",
)


def targets() -> list[tuple[str, Any, str, Callable[[Any], int] | None]]:
    """(layer, owner, attribute, result hook) for every wrapped entry point.
    The owner is a module (patched at all binding sites) or a class."""
    f, p, v = sprig.formulas, sprig.proofs, sprig.verifier
    pr, sim, sc, eq = sprig.protocol, sprig.simulator, sprig.scenarios, sprig.equilibrium
    out: list[tuple[str, Any, str, Callable[[Any], int] | None]] = [
        ("formulas", f, "content_hash", None),
        ("formulas", f.Statement, "hash", None),
        ("formulas", f.Statement, "sorted_assumptions", None),
        ("proofs", p, "parse_proof_document", None),
        ("proofs", p, "serialize_proof_document", None),
        ("proofs", p.ProofChain, "from_json", None),
        ("proofs", p.MachineProof, "from_json", None),
        ("proofs", p, "validate_chain", None),
        ("proofs", p, "measure_length", None),
        ("verifier", v.ToyVerifier, "verdict", _validated),
        ("verifier", v.ScriptedVerifier, "verdict", _validated),
        ("protocol", pr, "create_root_claim", None),
        ("protocol", pr, "create_root_question", None),
        ("protocol", pr.ProtocolInstance, "post_question", None),
        ("protocol", pr.ProtocolInstance, "post_answer_claim", None),
        ("protocol", pr.ProtocolInstance, "resolve", len),
        ("protocol", pr.ProtocolInstance, "settle", None),
        ("protocol", pr.ProtocolInstance, "snapshot", None),
        ("protocol", pr, "replay", None),
        ("simulator", sim, "run_scenario", _rejections),
        ("simulator", sim.SimulationTrace, "verify_replay", None),
        ("simulator", sim, "build_knowledge", None),
        ("scenarios", sc, "preset_scenario", None),
        ("scenarios", sc, "scenario_from_json", None),
        ("equilibrium", eq, "solve_pbe", None),
        ("equilibrium", eq, "outcome_probabilities", None),
        ("equilibrium", eq, "sweep", None),
        ("equilibrium", eq, "monte_carlo_estimate", None),
        ("equilibrium", eq, "best_response_check", None),
        ("cli", sprig.cli, "main", None),
    ]
    out += [("simulator", sim.AgentContext, m, None) for m in _AGENT_CONTEXT_METHODS]
    strategies = [sim.AgentStrategy]
    for cls in strategies:
        strategies.extend(cls.__subclasses__())
    out += [("simulator", cls, "decide", len) for cls in strategies if "decide" in vars(cls)]
    return out


def span_name(owner: Any, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attr}"
    return attr


class Tracer:
    """Records spans in memory while installed. Single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list[Any]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, index: int, fn: Callable[..., Any], hook: Callable[[Any], int] | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [index, clock(), 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = -1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, *callers: Any) -> None:
        """Wrap every target. `callers` are further modules, such as the
        benchmark's own, whose imported names are binding sites too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "sprig" or name.startswith("sprig.")) and m is not None]
        modules += callers
        for layer, owner, attr, hook in targets():
            index = len(self.names)
            self.names.append(span_name(owner, attr))
            self.layers.append(layer)
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(index, fn, hook)
                self._patch(owner, attr, raw,
                            staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            else:
                original = getattr(owner, attr)
                wrapped = self._wrap(index, original, hook)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Spans:
    """Derived views over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.spans = tracer.spans
        n = len(self.spans)
        self.duration = [s[2] - s[1] for s in self.spans]
        self.child_time = [0.0] * n
        # Time of descendants in other layers, for "layer self time".
        self.foreign_time = [0.0] * n
        # Children always come after their parent, so a reverse pass sees
        # every child before its parent.
        layers = tracer.layers
        for i in range(n - 1, -1, -1):
            parent = self.spans[i][3]
            if parent < 0:
                continue
            self.child_time[parent] += self.duration[i]
            same = layers[self.spans[i][0]] == layers[self.spans[parent][0]]
            self.foreign_time[parent] += self.foreign_time[i] if same else self.duration[i]

    def indices(self, names: set[str]) -> set[int]:
        return {i for i, name in enumerate(self.tracer.names) if name in names}

    def select(self, names: set[str], outermost: bool = True, runs: set[int] | None = None):
        """Spans named in `names`; with `outermost`, only those with no
        ancestor in the same set, so recursion is not counted twice."""
        wanted = self.indices(names)
        inside = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            parent = span[3]
            hit = span[0] in wanted
            inside[i] = hit or (parent >= 0 and inside[parent])
            if not hit or (runs is not None and span[4] not in runs):
                continue
            if outermost and parent >= 0 and inside[parent]:
                continue
            yield i

    def calls(self, names: set[str], **kw: Any) -> int:
        return sum(1 for _ in self.select(names, **kw))

    def total(self, names: set[str], **kw: Any) -> float:
        return sum(self.duration[i] for i in self.select(names, **kw))

    def self_time(self, names: set[str]) -> float:
        return sum(self.duration[i] - self.child_time[i] for i in self.select(names, outermost=False))

    def layer_self_time(self, names: set[str]) -> float:
        return sum(self.duration[i] - self.foreign_time[i] for i in self.select(names))

    def values(self, names: set[str], **kw: Any) -> list[int]:
        return [self.spans[i][5] for i in self.select(names, **kw)]

    def records(self) -> list[list[Any]]:
        """Spans as [name, start, end, parent, run id, value] rows."""
        names = self.tracer.names
        return [[names[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
