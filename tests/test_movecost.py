"""Per-move work in the simulator and in replay, asserted as counts rather
than timings.

The wide debate is the benchmark's carpet-bombed tree (`wide_config` in
perfbench/workloads.py): one move per node, 1 + 2k + 2k^2 nodes. Its open
views must agree with full-tree scans at every poll, the work per move
(proof serializations, JSON encodes, tree scans) must not grow with k, and a
replay of its log encodes each payload once. A move is kept as its node
alone: playing it hashes nothing, and each reading of the log composes each
line's payload from the canonical text of what the node posted and hashes it
once, so neither playing nor replaying a move calls `json.dumps`, and
neither does the snapshot. The kernel runs on the posted machine answers
only, once per distinct proof value, and the bomber looks each step up
once. Replay evaluates each node a bounded number of times and reads a
bounded number of children per move. Next to the live trace it decodes the
trace's own formulas and proofs and counts no tokens; from the log alone it
counts the tokens of each distinct formula once. A second simulation of one
config composes no proof text and measures no proof length, and neither it
nor a replay next to its trace judges a proof again: no kernel verdict, no
chain check and no proof hash.
Its move log is the benchmark's: each seed's log hashes to the digest that
perfbench/recorded.json pins.
"""

import functools
import gc
import hashlib
import json
import sys
import weakref
from pathlib import Path

import pytest

from sprig import formulas, proofs, protocol
from sprig.formulas import Formula, text_hash
from sprig.proofs import MachineProof, ProofChain, validate_chain
from sprig.protocol import EARLY_STOP, QUIESCENCE, Node, ProtocolInstance, replay
from sprig.scenarios import PRESET_NAMES, preset_scenario, scenario_from_json
from sprig.simulator import AgentContext, run_scenario
from sprig.verifier import ToyVerifier

import oracles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))
from workloads import wide_config  # noqa: E402

MODES = [QUIESCENCE, EARLY_STOP]


@pytest.mark.parametrize("k, seeds", [(8, range(32)), (16, range(8))])
def test_the_wide_debate_plays_the_move_log_the_benchmark_pins(k, seeds):
    pinned = json.loads((PERFBENCH / "recorded.json").read_text())["wide"][str(k)]
    played = {
        str(seed): hashlib.sha256(
            "\n".join(run_scenario(wide_config(k, seed)).move_lines).encode()
        ).hexdigest()
        for seed in seeds
    }
    assert played == {str(seed): pinned[str(seed)] for seed in seeds}


def _ids(nodes):
    return [n.id for n in nodes]


class RescanCheck:
    """Plays `inner`, first checking at every poll that the open views read
    off the open-window index equal the full-tree scans in `oracles`, and
    that every open claim holds a chain, as the strategies take it to."""

    def __init__(self, inner):
        self.inner = inner
        self.polls = 0

    def decide(self, ctx):
        inst = ctx.instance
        assert _ids(inst.open_nodes()) == _ids(oracles.scan_open_nodes(inst))
        assert _ids(ctx.open_claims()) == _ids(oracles.scan_open_claims(inst, ctx.now))
        assert all(isinstance(c.proof, ProofChain) for c in ctx.open_claims())
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
    """run_scenario, then its move log and its snapshot, once each."""
    trace = run_scenario(config or wide_config(k, 0))
    assert len(trace.move_lines) == len(trace.instance.nodes)
    assert json.loads(trace.final_snapshot)["settled"]
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
    # Counted as memo misses: the move log, read twice, and the snapshot
    # find each posted proof's text composed once, and no other proof (the
    # trees' chains with subproofs) is serialized. At k = 12 seed 0 posts
    # one leaf proof twice.
    gc.collect()
    computed = _count_proof_memos(monkeypatch)
    trace = _wide_run(k)
    assert trace.move_lines == trace.instance.move_log_lines()
    built = [proof for name, proof in computed if name == "canonical"]
    posted = [claim.proof for claim in oracles.claims(trace.instance)]
    assert len(posted) == k * k + k + 1
    assert sorted(map(id, built)) == sorted({id(proof) for proof in posted})


def _count_sha256(monkeypatch):
    """A one-element list that counts the sha256 digests taken from now on."""
    digests = [0]
    sha256 = hashlib.sha256

    def counted(*args, **kwargs):
        digests[0] += 1
        return sha256(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    return digests


def test_simulating_hashes_nothing_and_the_log_hashes_each_move_once(monkeypatch):
    # A move is kept as its node alone, so the simulation hashes no payload
    # and no proof; each reading of the log hashes each line's payload.
    config = wide_config(16, 0)
    digests = _count_sha256(monkeypatch)
    trace = run_scenario(config)
    assert trace.summary()["metrics"]["moves"] == len(trace.instance.nodes) == 545
    assert digests[0] == 0
    lines = trace.instance.move_log_lines()
    assert digests[0] == len(lines) == 545


@pytest.mark.parametrize("k", [4, 8, 12])
def test_json_encodes_per_move_do_not_grow_with_the_tree(k, monkeypatch):
    # Counted from a fresh config, with no memo filled by an earlier run:
    # statement hashes, payloads and the snapshot are composed from
    # canonical text, so no `json.dumps` is left.
    config = wide_config(k, 0)
    encodes = _count_json_dumps(monkeypatch)
    per_call: dict[str, set[int]] = {}
    for name in ("apply", "move_log_lines", "snapshot"):
        original = getattr(ProtocolInstance, name)

        def counted(self, *args, name=name, original=original):
            before = encodes[0]
            result = original(self, *args)
            per_call.setdefault(name, set()).add(encodes[0] - before)
            return result

        monkeypatch.setattr(ProtocolInstance, name, counted)
    _wide_run(k, config)
    # No encode per move and none per snapshot: the same at every k. The one
    # snapshot is _wide_run's; run_scenario takes none.
    assert per_call == {
        "apply": {0},
        "move_log_lines": {0},
        "snapshot": {0},
    }
    assert encodes[0] == 0


def _spy_on_tree_scans(monkeypatch):
    """Record the name of the function behind each whole-tree read of the
    `nodes` of an instance created from now on (`values`, `items`, `keys`
    or iteration) made before the instance settled."""
    unsettled_readers = []

    class Watched(dict):
        def _read(self, method):
            if not self.instance.settled:
                unsettled_readers.append(sys._getframe(2).f_code.co_name)
            return method(self)

        def values(self):
            return self._read(dict.values)

        def items(self):
            return self._read(dict.items)

        def keys(self):
            return self._read(dict.keys)

        def __iter__(self):
            return self._read(dict.__iter__)

    init = ProtocolInstance.__init__

    def watched_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.nodes = Watched(self.nodes)
        self.nodes.instance = self

    monkeypatch.setattr(ProtocolInstance, "__init__", watched_init)
    return unsettled_readers


@pytest.mark.parametrize("k", [4, 8, 12])
def test_the_poll_loop_scans_no_whole_tree(k, monkeypatch):
    unsettled_readers = _spy_on_tree_scans(monkeypatch)
    _wide_run(k)
    # Settlement routes every node's escrow; the move log, the snapshot and
    # the metrics are read when they are asked for, after the run.
    assert set(unsettled_readers) == {"settle"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_no_preset_strategy_scans_the_whole_tree(name, mode, monkeypatch):
    # The plagiarist needs history (every claim seen, every question asked
    # of it) and keeps a cursor over posting order; the copycat defender
    # finds its rivals among the open claims.
    doc = preset_scenario(name)
    doc["mode"] = mode
    unsettled_readers = _spy_on_tree_scans(monkeypatch)
    run_scenario(scenario_from_json(doc))
    assert set(unsettled_readers) <= {"settle", "_catch_up"}


def _count_verdicts(monkeypatch):
    """A one-element list that counts the kernel's verdicts from now on."""
    verdicts = [0]
    verdict = ToyVerifier.verdict

    def counted(self, *args):
        verdicts[0] += 1
        return verdict(self, *args)

    monkeypatch.setattr(ToyVerifier, "verdict", counted)
    return verdicts


@pytest.mark.parametrize("k", [4, 8, 12])
def test_simulating_runs_the_kernel_once_per_distinct_machine_proof(k, monkeypatch):
    # The defender holds the tree, but its strategy never reads the tree's
    # soundness, so the only verdicts are the instance's, one per machine
    # proof value posted: at k = 12 seed 0 posts one leaf proof twice. The
    # collection first drops whatever value an earlier test judged.
    gc.collect()
    verdicts = _count_verdicts(monkeypatch)
    trace = _wide_run(k)
    machine_answers = [c for c in oracles.claims(trace.instance) if c.level == 0]
    assert len(machine_answers) == k * k
    assert verdicts[0] == len({c.proof for c in machine_answers})


@pytest.mark.parametrize("k", [4, 8, 12])
def test_the_bomber_looks_up_each_step_once(k, monkeypatch):
    # A claim whose every step the bomber has questioned is skipped on one
    # count, so each step is looked up in the poll that questions it only.
    lookups = [0]
    questioned_by_me = AgentContext.questioned_by_me

    def counted(self, claim_id, step=None):
        lookups[0] += step is not None
        return questioned_by_me(self, claim_id, step)

    monkeypatch.setattr(AgentContext, "questioned_by_me", counted)
    trace = _wide_run(k)
    bombs = [q for q in oracles.questions(trace.instance) if q.owner == "bomber"]
    assert lookups[0] == len(bombs) == k + k * k


# -- replay -------------------------------------------------------------------


def _wide_replay(trace):
    return replay(
        trace.move_lines, trace.instance.cascade, balances=trace.initial_balances,
        mode=trace.instance.mode,
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
    answers = [c for c in oracles.claims(twin) if c.origin is not None]
    assert answers
    for claim in answers:
        # The question's statement was decoded from the step of an earlier
        # move's chain; the answer's target from this move's payload.
        assert claim.proof.target is twin.question(claim.origin).statement


@pytest.mark.parametrize("k", [4, 8])
def test_replay_next_to_its_trace_decodes_the_posted_proofs(k):
    trace = run_scenario(wide_config(k, 0))
    twin = _wide_replay(trace)
    claims = oracles.claims(twin)
    assert len(claims) == k * k + k + 1
    for claim in claims:
        assert claim.proof is trace.instance.claim(claim.id).proof


def _count_proof_memos(monkeypatch):
    """A list of the proofs whose canonical text or length is computed
    from now on, each with the name of what was computed."""
    computed = []
    for cls in (ProofChain, MachineProof):
        for name in ("canonical", "length"):
            method = getattr(cls, name).__wrapped__

            @functools.wraps(method)
            def counted(self, method=method, name=name):
                computed.append((name, self))
                return method(self)

            monkeypatch.setattr(cls, name, formulas._memoized(counted))
    return computed


def _count_judgements(monkeypatch, proof_texts):
    """Counts, from now on, of the kernel's verdicts and `validate_chain`
    calls made by the protocol, and of proof hashes: `text_hash` calls on a
    text in `proof_texts` made by a proof's `hash()`."""
    counts = {"verdicts": _count_verdicts(monkeypatch), "validations": [0], "proof_hashes": [0]}

    def counted_validate(*args, **kwargs):
        counts["validations"][0] += 1
        return validate_chain(*args, **kwargs)

    def counted_hash(text):
        counts["proof_hashes"][0] += text in proof_texts
        return text_hash(text)

    monkeypatch.setattr(protocol, "validate_chain", counted_validate)
    monkeypatch.setattr(proofs, "text_hash", counted_hash)
    return counts


@pytest.mark.parametrize("k", [4, 8])
def test_a_second_simulation_of_one_config_composes_no_proof_text(k, monkeypatch):
    # The config's trees hold every proof the debate posts, stripped or
    # not, so the second run finds each length computed and each proof value
    # judged: its verdict and its chain check; its log and snapshot find each
    # text and hash. So does a replay next to that run's trace, which
    # decodes the trace's proofs. Playing composes no text: the log does.
    config = wide_config(k, 0)
    computed = _count_proof_memos(monkeypatch)
    first = run_scenario(config)
    assert {name for name, _ in computed} == {"length"}
    lines, snapshot = first.move_lines, first.final_snapshot
    assert {name for name, _ in computed} == {"canonical", "length"}
    proof_texts = {claim.proof.canonical() for claim in oracles.claims(first.instance)}
    computed.clear()
    del first
    gc.collect()
    counts = _count_judgements(monkeypatch, proof_texts)
    second = run_scenario(config)
    assert (second.move_lines, second.final_snapshot) == (lines, snapshot)
    twin = _wide_replay(second)
    assert twin.move_log_lines() == lines
    twin.advance_clock(second.final_clock)
    twin.settle()
    assert twin.snapshot() == snapshot
    assert computed == []
    assert {name: count[0] for name, count in counts.items()} == {
        "verdicts": 0, "validations": 0, "proof_hashes": 0
    }


def _log_only(trace):
    """What a replay of the trace's log reads, holding no formula."""
    inst = trace.instance
    return trace.move_lines, inst.cascade, trace.initial_balances, inst.mode


def test_replayed_formulas_leave_the_intern_table_with_their_instance():
    gc.collect()
    before = len(formulas._interned)
    trace = run_scenario(wide_config(4, 0))
    simulated = len(formulas._interned)
    assert simulated > before
    # Next to the live trace, the replay's formulas and statements are the
    # trace's own objects: it adds nothing to the table.
    twin = _wide_replay(trace)
    target = twin.nodes[twin.root_id].proof.target
    assert target is trace.instance.nodes[trace.instance.root_id].proof.target
    assert len(formulas._interned) == simulated
    built = [weakref.ref(target), weakref.ref(target.conclusion)]
    lines, cascade, balances, mode = _log_only(trace)
    del twin, target
    gc.collect()
    assert len(formulas._interned) == simulated
    # The table drops back only once the built tree goes with the trace.
    del trace
    gc.collect()
    assert [ref() for ref in built] == [None, None]
    assert len(formulas._interned) <= before
    # From the log alone, the replay decodes its own objects, which leave
    # the table with it.
    twin = replay(lines, cascade, balances=balances, mode=mode)
    assert len(formulas._interned) > before
    target = twin.nodes[twin.root_id].proof.target
    decoded = [weakref.ref(target), weakref.ref(target.conclusion)]
    del twin, target
    gc.collect()
    assert [ref() for ref in decoded] == [None, None]
    assert len(formulas._interned) <= before


def _count_closes(monkeypatch):
    """A one-element list that counts the windows `_close` evaluates from
    now on."""
    calls = [0]
    close = ProtocolInstance._close

    def counted(self, node, decided):
        calls[0] += 1
        return close(self, node, decided)

    monkeypatch.setattr(ProtocolInstance, "_close", counted)
    return calls


def _count_children_read(monkeypatch):
    """A one-element list that counts, from now on, the children read off
    the `children` of each node created from now on."""
    reads = [0]

    class Counted(list):
        def __iter__(self):
            for child in list.__iter__(self):
                reads[0] += 1
                yield child

    init = Node.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.children = Counted(self.children)

    monkeypatch.setattr(Node, "__init__", counted_init)
    return reads


@pytest.mark.parametrize("k", [4, 8, 12])
def test_a_resolve_with_nothing_to_do_evaluates_no_node(k, monkeypatch):
    twin = _wide_replay(run_scenario(wide_config(k, 0)))
    calls = _count_closes(monkeypatch)
    assert twin.resolve() == []
    # up to the instant before the next window closes: still nothing expires
    next_deadline = min(entry[0] for entry in twin._deadlines)
    assert next_deadline - 1 > twin.clock
    assert twin.advance_clock(next_deadline - 1) == []
    assert calls[0] == 0


@pytest.mark.parametrize("k", [4, 8, 12])
def test_node_evaluations_per_replayed_move_do_not_grow_with_the_tree(k, monkeypatch):
    # A node's rule is evaluated when its window closes; a commit pushes the
    # determination up without evaluating the origin's window, and a move's
    # own resolve with no window closing evaluates nothing.
    trace = run_scenario(wide_config(k, 0))
    calls = _count_closes(monkeypatch)
    _wide_replay(trace)
    assert 0 < calls[0] <= 2 * len(trace.move_lines)


@pytest.mark.parametrize("k", [8, 16, 24])
def test_children_read_per_replayed_move_do_not_grow_with_the_tree(k, monkeypatch):
    # A closing window reads its node's children once, and a committed child
    # reads its origin's only when the origin's window has already closed.
    trace = run_scenario(wide_config(k, 0))
    reads = _count_children_read(monkeypatch)
    twin = _wide_replay(trace)
    twin.advance_clock(trace.final_clock)
    assert [n.status for n in twin.nodes.values()] == [
        n.status for n in trace.instance.nodes.values()
    ]
    assert 0 < reads[0] <= 2 * len(trace.move_lines)


@pytest.mark.parametrize("k", [4, 8, 12])
def test_replay_counts_the_tokens_of_each_distinct_formula_once(k, monkeypatch):
    trace = run_scenario(wide_config(k, 0))
    computed = []  # strong references, so no id is reused
    size = Formula.size.__wrapped__

    @functools.wraps(size)
    def counted(self):
        computed.append(self)
        return size(self)

    monkeypatch.setattr(Formula, "size", formulas._memoized(counted))
    # Next to the live trace, each formula the replay decodes is the
    # trace's, sized when it was posted.
    twin = _wide_replay(trace)
    assert computed == []
    assert twin.move_log_lines() == trace.move_lines
    # From the log alone, each distinct formula is sized once.
    lines, cascade, balances, mode = _log_only(trace)
    gone = weakref.ref(trace.instance.nodes[trace.instance.root_id].proof.target)
    del trace, twin
    gc.collect()
    assert gone() is None
    twin = replay(lines, cascade, balances=balances, mode=mode)
    assert computed
    assert len({id(f) for f in computed}) == len(computed)
    assert len({f.canonical() for f in computed}) == len(computed)
    assert twin.move_log_lines() == lines
