"""Per-move work in the simulator and in replay, asserted as counts rather
than timings.

The wide debate is the benchmark's carpet-bombed tree (`wide_config` in
perfbench/workloads.py): one move per node, 1 + 2k + 2k^2 nodes. Its open
views must agree with full-tree scans at every poll, the work per move
(proof serializations, JSON encodes, tree scans) must not grow with k, and a
replay of its log encodes each payload once, as playing it did. Payloads are
composed from the canonical text of what they post, so neither playing nor
replaying a move calls `json.dumps`.
"""

import gc
import json
import sys
import weakref
from pathlib import Path

import pytest

from sprig import formulas
from sprig.formulas import DefinitionSet, Statement
from sprig.proofs import ChainStep, InferenceStep, MachineProof, ProofChain
from sprig.protocol import EARLY_STOP, QUIESCENCE, ProtocolInstance, replay
from sprig.scenarios import PRESET_NAMES, preset_scenario, scenario_from_json
from sprig.simulator import run_scenario

import oracles

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import wide_config  # noqa: E402

MODES = [QUIESCENCE, EARLY_STOP]


def _ids(nodes):
    return [n.id for n in nodes]


class RescanCheck:
    """Plays `inner`, first checking at every poll that the open views read
    off the open-window index equal the full-tree scans in `oracles`."""

    def __init__(self, inner):
        self.inner = inner
        self.polls = 0

    def decide(self, ctx):
        inst = ctx.instance
        assert _ids(inst.open_nodes()) == _ids(oracles.scan_open_nodes(inst))
        assert _ids(ctx.open_claims()) == _ids(oracles.scan_open_claims(inst, ctx.now))
        assert _ids(ctx.open_questions()) == _ids(oracles.scan_open_questions(inst, ctx.now))
        self.polls += 1
        return self.inner.decide(ctx)


def _run_checked(config):
    checks = [RescanCheck(a.strategy) for a in config.agents]
    for agent, check in zip(config.agents, checks):
        agent.strategy = check
    trace = run_scenario(config)
    assert sum(c.polls for c in checks) > 0
    if config.mode == QUIESCENCE:
        assert list(trace.instance.open_nodes()) == []
    return trace


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_open_views_agree_with_a_rescan_at_every_poll_of_the_presets(name, seed, mode):
    doc = preset_scenario(name)
    doc["seed"], doc["mode"] = seed, mode
    _run_checked(scenario_from_json(doc))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [4, 8])
def test_open_views_agree_with_a_rescan_at_every_poll_of_the_wide_debate(k, mode):
    config = wide_config(k, 0)
    config.mode = mode
    _run_checked(config)


def _wide_run(k, config=None):
    """run_scenario, then the move log and the snapshot once more."""
    trace = run_scenario(config or wide_config(k, 0))
    assert trace.instance.move_log_lines() == trace.move_lines
    assert trace.instance.snapshot() == trace.final_snapshot
    return trace


def _count_json_dumps(monkeypatch):
    """A one-element list that counts the `json.dumps` calls from now on."""
    encodes = [0]
    dumps = json.dumps

    def counted_dumps(*args, **kwargs):
        encodes[0] += 1
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted_dumps)
    return encodes


@pytest.mark.parametrize("k", [4, 8, 12])
def test_each_posted_proof_is_serialized_exactly_once(k, monkeypatch):
    built = []
    for cls in (ProofChain, MachineProof):
        original = cls.canonical

        def counted(self, original=original):
            built.append(self)
            return original(self)

        monkeypatch.setattr(cls, "canonical", counted)
    to_json_calls = []
    for cls in (Statement, DefinitionSet, InferenceStep, MachineProof, ChainStep, ProofChain):
        original = cls.to_json

        def spy(self, original=original):
            to_json_calls.append(self)
            return original(self)

        monkeypatch.setattr(cls, "to_json", spy)
    trace = _wide_run(k)
    posted = [claim.proof for claim in trace.instance.claims()]
    assert len(built) == len(posted) == k * k + k + 1
    assert sorted(map(id, built)) == sorted(map(id, posted))
    assert to_json_calls == []


@pytest.mark.parametrize("k", [4, 8, 12])
def test_json_encodes_per_move_do_not_grow_with_the_tree(k, monkeypatch):
    # Counted from a fresh config, with no memo filled by an earlier run:
    # statement hashes and payloads are composed from canonical text, so the
    # one `json.dumps` left is the snapshot's.
    config = wide_config(k, 0)
    encodes = _count_json_dumps(monkeypatch)
    per_call: dict[str, set[int]] = {}
    for name in ("_post_root_claim", "post_question", "post_answer_claim",
                 "move_log_lines", "snapshot"):
        original = getattr(ProtocolInstance, name)

        def counted(self, *args, name=name, original=original):
            before = encodes[0]
            result = original(self, *args)
            per_call.setdefault(name, set()).add(encodes[0] - before)
            return result

        monkeypatch.setattr(ProtocolInstance, name, counted)
    _wide_run(k, config)
    # No encode per move and one per snapshot (run_scenario's and
    # _wide_run's check): the same at every k.
    assert per_call == {
        "_post_root_claim": {0},
        "post_question": {0},
        "post_answer_claim": {0},
        "move_log_lines": {0},
        "snapshot": {1},
    }
    assert encodes[0] == 2


def _spy_on_tree_scans(monkeypatch):
    """Record, for each `claims()`/`questions()` call, whether the instance
    was settled."""
    settled_at_call = []
    for name in ("claims", "questions"):
        original = getattr(ProtocolInstance, name)

        def spy(self, original=original):
            settled_at_call.append(self.settled)
            return original(self)

        monkeypatch.setattr(ProtocolInstance, name, spy)
    return settled_at_call


@pytest.mark.parametrize("k", [4, 8, 12])
def test_the_poll_loop_scans_no_whole_tree(k, monkeypatch):
    settled_at_call = _spy_on_tree_scans(monkeypatch)
    _wide_run(k)
    # Only the run's metrics read the whole tree, once each, after settling.
    assert settled_at_call == [True, True]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_no_preset_strategy_scans_the_whole_tree(name, mode, monkeypatch):
    # The plagiarist needs history (every claim seen, every question asked
    # of it) and keeps a cursor over posting order; the copycat defender
    # finds its rivals among the open claims.
    doc = preset_scenario(name)
    doc["mode"] = mode
    settled_at_call = _spy_on_tree_scans(monkeypatch)
    run_scenario(scenario_from_json(doc))
    assert settled_at_call == [True, True]


# -- replay -------------------------------------------------------------------


def _wide_replay(trace):
    return replay(
        trace.move_lines, trace.cascade, balances=trace.initial_balances, mode=trace.mode
    )


@pytest.mark.parametrize("k", [4, 8, 12])
def test_replay_encodes_each_payload_exactly_once(k, monkeypatch):
    # Counted on the replay alone, with nothing warmed: each posted move
    # composes its payload from the decoded proof's canonical text, the
    # recorded line equals the log line so its hash needs no encode of the
    # line's own payload, and decoded formulas are shared, so sorting fresh
    # assumption sets re-encodes nothing.
    trace = run_scenario(wide_config(k, 0))
    encodes = _count_json_dumps(monkeypatch)
    twin = _wide_replay(trace)
    assert encodes[0] == 0
    assert twin.move_log_lines() == trace.move_lines
    assert encodes[0] == 0


@pytest.mark.parametrize("k", [4, 8])
def test_replay_shares_the_formulas_of_earlier_moves(k):
    twin = _wide_replay(run_scenario(wide_config(k, 0)))
    answers = [c for c in twin.claims() if c.origin is not None]
    assert answers
    for claim in answers:
        # The question's statement was decoded from the step of an earlier
        # move's chain; the answer's target from this move's payload.
        target, asked = claim.proof.target, twin.question(claim.origin).statement
        assert target.conclusion is asked.conclusion
        assert {id(f) for f in target.assumptions} == {id(f) for f in asked.assumptions}


def test_replayed_formulas_leave_the_intern_table_with_their_instance():
    trace = run_scenario(wide_config(4, 0))
    gc.collect()
    before = len(formulas._interned)
    twin = _wide_replay(trace)
    assert len(formulas._interned) > before
    decoded = weakref.ref(twin.nodes[twin.root_id].proof.target.conclusion)
    del twin
    gc.collect()
    assert decoded() is None
    assert len(formulas._interned) <= before
