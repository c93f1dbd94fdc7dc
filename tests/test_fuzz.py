"""Mutated fixtures never end in a traceback.

Each example takes a file that a subcommand reads (a proof document for
`validate`, a move log or a cascade for `run`, a scenario file for
`simulate`), mutates it once and runs the subcommand in process through
`cli.main`. It must exit 0, 1 or 2, with nothing on stderr or a single
`error:` line. A mutation walks from the top of the document down to a
random value and replaces it with a list, a string, an integer, a boolean,
null or an empty object, or drops one field of an object or adds one.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sprig.cli import main
from sprig.formulas import content_hash

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROOFS = sorted((FIXTURES / "proofs").glob("*.json"))
LOGS = sorted((FIXTURES / "movelogs").glob("*.jsonl"))
SCENARIOS = sorted((FIXTURES / "scenarios").glob("*.json"))

# Small integers only: a horizon up to MAX_RUN_TICKS past the root move is
# a valid run of up to seconds, and each test runs over a hundred mutants.
VALUES = st.sampled_from([[], ["target"], "target", "", -1, 0, 2, True, False, None, {}])
FIELDS = st.sampled_from(["colour", "kind", "target", "steps", "proof", "chain", "seed", "params"])

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _cascade_for(log: Path) -> Path:
    return FIXTURES / "cascades" / f"{log.stem}.json"


def _mutate(data, doc):
    """A copy of `doc` with one value replaced, or one field dropped or added."""
    top = [copy.deepcopy(doc)]
    parent, key = top, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        node = parent[key]
        index = st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1)
        parent, key = node, data.draw(index)
    node = parent[key]
    action = "replace"
    if isinstance(node, dict):
        action = data.draw(st.sampled_from(["replace", "drop", "add"] if node else ["replace", "add"]))
    if action == "replace":
        parent[key] = data.draw(VALUES)
    elif action == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    else:
        node[data.draw(FIELDS)] = data.draw(VALUES)
    return top[0]


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _main(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check(*argv: str) -> int:
    code, _, stderr = _main(*argv)
    assert code in (0, 1, 2)
    assert stderr == "" or (stderr.startswith("error: ") and stderr.count("\n") == 1), stderr
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.sampled_from(PROOFS), st.data())
def test_validate_survives_mutated_proof_documents(workdir, path, data):
    doc = _mutate(data, json.loads(path.read_text(encoding="utf-8")))
    _check("validate", _write(workdir, "doc.json", json.dumps(doc)))


@FUZZ
@given(st.sampled_from(LOGS), st.data())
def test_run_survives_mutated_move_logs(workdir, path, data):
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    index = data.draw(st.integers(0, len(records) - 1))
    record = records[index] = _mutate(data, records[index])
    # A stale hash is rejected before anything else is read; a fresh one
    # lets the mutation reach the decoders.
    if isinstance(record, dict) and "payload" in record and data.draw(st.booleans()):
        record["payload_hash"] = content_hash(record["payload"])
    log = _write(workdir, "log.jsonl", "".join(json.dumps(r) + "\n" for r in records))
    _check("run", log, str(_cascade_for(path)))
    _check("run", log, str(_cascade_for(path)), "--mode", "early-stop")


@FUZZ
@given(st.sampled_from(LOGS), st.data())
def test_run_survives_mutated_cascades(workdir, path, data):
    cascade = _mutate(data, json.loads(_cascade_for(path).read_text(encoding="utf-8")))
    _check("run", str(path), _write(workdir, "cascade.json", json.dumps(cascade)))


@FUZZ
@given(st.sampled_from(SCENARIOS), st.data())
def test_simulate_survives_mutated_scenarios(workdir, path, data):
    scenario = _mutate(data, json.loads(path.read_text(encoding="utf-8")))
    _check("simulate", _write(workdir, "scenario.json", json.dumps(scenario)))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "honest_claimer", "params": {"defend_others": 1}}),
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "honest_defender", "params": {"machine_first": "no"}}),
        lambda doc: doc.update(horizon=10**12),
    ],
    ids=["integer-defend-others", "string-machine-first", "huge-horizon"],
)
def test_simulate_rejects_strategy_flags_that_are_not_booleans_and_endless_runs(workdir, edit):
    # No preset sets these flags, so the mutations above never reach them.
    scenario = json.loads((FIXTURES / "scenarios" / "happy_path.json").read_text(encoding="utf-8"))
    edit(scenario)
    assert _check("simulate", _write(workdir, "scenario.json", json.dumps(scenario))) == 1


# A lone surrogate escape decodes to text that no UTF-8 document can hold;
# the reader rejects it and names where it sits. A surrogate pair is one
# character, and `json.dumps` writes both as escapes.
LONE = "\ud800"


def test_validate_rejects_a_lone_surrogate(workdir):
    doc = _write(workdir, "doc.json", json.dumps({"conclusion": {"atom": LONE}}))
    assert _main("validate", doc) == (
        1, "", "error: unparsable document: lone surrogate '\\ud800' in $.conclusion.atom\n"
    )
    pair = _write(workdir, "doc.json", json.dumps({"conclusion": {"atom": "\U0001F600"}}))
    assert _main("validate", pair) == (0, "ok: well-formed statement\n", "")


def test_run_rejects_a_lone_surrogate_and_names_its_line(workdir):
    path = FIXTURES / "movelogs" / "full_run_claim_root.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records[2]["payload"]["proof"]["target"]["context"] = LONE
    records[2]["payload_hash"] = "0" * 64
    log = _write(workdir, "log.jsonl", "".join(json.dumps(r) + "\n" for r in records))
    assert _main("run", log, str(_cascade_for(path))) == (
        1, "",
        "error: bad move log at line 3: lone surrogate '\\ud800' in $.payload.proof.target.context\n",
    )


def test_simulate_rejects_a_lone_surrogate(workdir):
    scenario = json.loads((FIXTURES / "scenarios" / "happy_path.json").read_text(encoding="utf-8"))
    scenario["agents"][0]["name"] = LONE
    code, out, err = _main("simulate", _write(workdir, "scenario.json", json.dumps(scenario)))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "lone surrogate '\\ud800' in $.agents[0].name" in err


@pytest.mark.parametrize(
    "line, message",
    [("[]", "move must be an object, not list"), ('{"kind":"question"}', "move needs actor")],
    ids=["array", "no-actor"],
)
def test_run_names_the_line_of_a_record_it_cannot_fund(workdir, line, message):
    path = FIXTURES / "movelogs" / "full_run_claim_root.jsonl"
    first = path.read_text(encoding="utf-8").splitlines()[0]
    log = _write(workdir, "log.jsonl", f"{first}\n{line}\n")
    assert _main("run", log, str(_cascade_for(path))) == (
        1, "", f"error: bad move log at line 2: {message}\n"
    )
