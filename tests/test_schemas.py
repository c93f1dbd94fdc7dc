"""The shipped JSON Schemas and the Python parsers must agree on validity."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from sprig.formulas import ParseError, content_hash
from sprig.proofs import parse_proof_document
from sprig.protocol import EARLY_STOP, QUIESCENCE, ParameterCascade, replay
from sprig.scenarios import (
    PRESET_NAMES,
    PROOF_DOCUMENTS,
    flat_tree,
    preset_scenario,
    rotten_tree,
    scenario_from_json,
    solid_tree,
)
from sprig.simulator import run_scenario
from test_cli import CASCADE_CONTAINER_EDITS, CASCADE_NUMBER_EDITS

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schemas"
CASCADES = ROOT / "fixtures" / "cascades"
MOVELOGS = ROOT / "fixtures" / "movelogs"


def _load_registry() -> Registry:
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.json"):
        resource = Resource.from_contents(json.loads(path.read_text(encoding="utf-8")))
        registry = registry.with_resource(uri=path.name, resource=resource)
    return registry


REGISTRY = _load_registry()


def validator_for(kind: str) -> Draft202012Validator:
    schema = json.loads((SCHEMA_DIR / f"{kind}.json").read_text(encoding="utf-8"))
    return Draft202012Validator(schema, registry=REGISTRY)


def schema_errors(doc) -> list[str]:
    kind = doc.get("kind", "statement")
    return [e.message for e in validator_for(kind).iter_errors(doc)]


def test_schemas_are_themselves_valid():
    for path in SCHEMA_DIR.glob("*.json"):
        Draft202012Validator.check_schema(json.loads(path.read_text(encoding="utf-8")))


def test_every_shipped_document_validates():
    for name, doc in PROOF_DOCUMENTS().items():
        if name == "polynomial_root_broken_import":
            # schema-valid on purpose: the broken import is within JSON bounds
            # and only the structural validator can know the step count
            continue
        assert schema_errors(doc) == [], name


def test_broken_import_fixture_is_schema_valid_but_parser_rejectable():
    """Range errors live above the schema layer: the document is well-formed
    JSON of the right shape, and validate_chain is what flags it."""
    doc = PROOF_DOCUMENTS()["polynomial_root_broken_import"]
    assert schema_errors(doc) == []
    parsed = parse_proof_document(json.dumps(doc))
    from sprig.proofs import validate_chain

    assert not validate_chain(parsed.target, parsed, level_limit=2).ok


def test_simulation_trees_validate_as_chains():
    for tree in (solid_tree(), rotten_tree(), flat_tree()):
        assert schema_errors(json.loads(tree.canonical())) == []


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "chain", "target": {"conclusion": {"atom": "p"}}, "steps": []},
        {"kind": "chain", "steps": [{"statement": {"conclusion": {"atom": "p"}}}]},
        {
            "kind": "chain",
            "target": {"conclusion": {"atom": "p"}},
            "steps": [{"statement": {"conclusion": {"atom": "p"}}, "imports": [0]}],
        },
        {
            "kind": "chain",
            "target": {"conclusion": {"atom": "p"}},
            "steps": [{"statement": {"conclusion": {"atom": "p"}}, "imports": [1, 1]}],
        },
        {
            "kind": "machine_proof",
            "target": {"conclusion": {"atom": "p"}},
            "steps": [{"formula": {"atom": "p"}, "rule": ""}],
        },
        {
            "kind": "machine_proof",
            "target": {"conclusion": {"atom": "p"}},
            "steps": [{"formula": {"atom": "p"}, "rule": "assumption", "premises": [0]}],
        },
        {"kind": "statement", "conclusion": {"and": [{"atom": "p"}]}},
        {"kind": "statement", "conclusion": {"atom": ""}},
        {"kind": "statement", "conclusion": {"atom": "p"}, "surprise": 1},
    ],
)
def test_schema_rejects_malformed_documents(doc):
    assert schema_errors(doc) != []


_P = {"assumptions": [{"atom": "p"}], "conclusion": {"atom": "p"}}
_IDENTITY = {"kind": "chain", "target": _P, "steps": [{"statement": _P}]}
_MACHINE = {
    "kind": "machine_proof",
    "target": _P,
    "steps": [{"formula": {"atom": "p"}, "premises": [-1], "rule": "assumption"}],
}


def _with_subproof(subproof):
    return {"kind": "chain", "target": _P, "steps": [{"statement": _P, "subproof": subproof}]}


def _kind(doc, kind):
    """A copy of `doc` with its kind `kind`, or with none if that is None."""
    out = {key: value for key, value in doc.items() if key != "kind"}
    return out if kind is None else {**out, "kind": kind}


def test_parser_and_schema_verdicts_line_up_on_malformed_input():
    """No document should pass one gate and fail the other for shape reasons.

    The schema can be stricter about numeric bounds (it knows nothing of step
    counts), so the check runs one way: schema-rejected implies parser-visible
    breakage for these samples."""
    samples = [
        {"kind": "chain", "target": {"conclusion": {"atom": "p"}}, "steps": []},
        {"kind": "statement", "conclusion": {"and": [{"atom": "p"}]}},
        {"kind": "statement", "conclusion": {"atom": "p"}, "surprise": 1},
        {
            "kind": "machine_proof",
            "target": {"conclusion": {"atom": "p"}},
            "steps": [{"formula": {"atom": "p"}, "rule": ""}],
        },
        # a nested proof names its kind: a chain or a machine proof
        *(
            _with_subproof(subproof)
            for subproof in (
                _kind(_IDENTITY, "banana"),
                _kind(_IDENTITY, None),
                _kind(_MACHINE, None),
                _kind(_MACHINE, "statement"),
                _kind(_MACHINE, "chain"),
            )
        ),
    ]
    for subproof in (_IDENTITY, _MACHINE):
        assert schema_errors(_with_subproof(subproof)) == []
        parse_proof_document(json.dumps(_with_subproof(subproof)))
    for doc in samples:
        assert schema_errors(doc) != []
        with pytest.raises(ParseError):
            parse_proof_document(json.dumps(doc))


def test_formula_shapes_are_single_key_objects():
    good = {"imp": [{"not": {"atom": "p"}}, {"or": [{"sym": "s"}, {"atom": "q"}]}]}
    assert schema_errors({"kind": "statement", "assumptions": [], "conclusion": good}) == []
    two_keys = {"atom": "p", "sym": "s"}
    assert schema_errors({"kind": "statement", "assumptions": [], "conclusion": two_keys}) != []


# -- cascades ---------------------------------------------------------------------


def cascade_errors(doc) -> list[str]:
    return [e.message for e in validator_for("cascade").iter_errors(doc)]


def parser_accepts(doc) -> bool:
    try:
        ParameterCascade.from_json(doc)
    except ValueError:
        return False
    return True


def fixture_cascade():
    return json.loads((CASCADES / "validated_root_claim.json").read_text(encoding="utf-8"))


def test_every_cascade_fixture_validates():
    paths = sorted(CASCADES.glob("*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert cascade_errors(doc) == [] and parser_accepts(doc), path.name


# Level coverage (exactly 1 to root_level) relates two fields, which the
# schema cannot state; test_level_coverage_is_left_to_the_parser pins that.
_COVERAGE = "root-level-past-levels"


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: None, id="unedited"),
        pytest.param(lambda d: {"root_level": 2}, id="root-level-only"),
        *(
            pytest.param(p.values[0], id=p.id)
            for p in CASCADE_NUMBER_EDITS + CASCADE_CONTAINER_EDITS
            if p.id != _COVERAGE
        ),
    ],
)
def test_cascade_schema_and_parser_agree(edit):
    doc = fixture_cascade()
    doc = edit(doc) or doc
    assert (cascade_errors(doc) == []) == parser_accepts(doc)


def test_level_coverage_is_left_to_the_parser():
    doc = fixture_cascade()
    doc["root_level"] = 3
    assert cascade_errors(doc) == [] and not parser_accepts(doc)


# -- move logs --------------------------------------------------------------------


def movelog_errors(line: str) -> list[str]:
    return [e.message for e in validator_for("movelog").iter_errors(json.loads(line))]


def test_every_fixture_move_log_line_validates():
    paths = sorted(MOVELOGS.glob("*.jsonl"))
    assert paths
    for path in paths:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            assert movelog_errors(line) == [], (path.name, number)


@pytest.mark.parametrize("mode", [QUIESCENCE, EARLY_STOP])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_move_log_line_validates(name, mode):
    trace = run_scenario(scenario_from_json({**preset_scenario(name), "mode": mode}))
    lines = trace.instance.move_log_lines()
    assert lines
    for line in lines:
        assert movelog_errors(line) == [], line


def _edited_line(edit):
    record = json.loads((MOVELOGS / "full_run_claim_root.jsonl").read_text().splitlines()[1])
    edit(record)
    return json.dumps(record)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda r: r.update(kind="answer_claim"), id="payload-of-another-kind"),
        pytest.param(lambda r: r["payload"].update(step=0), id="step-zero"),
        pytest.param(lambda r: r.update(seq=True), id="boolean-seq"),
        pytest.param(lambda r: r.update(time=-1), id="negative-time"),
        pytest.param(lambda r: r.update(payload_hash="0"), id="short-hash"),
        pytest.param(lambda r: r.pop("actor"), id="missing-actor"),
        # replay accepts an extra record field; a canonical line has none
        pytest.param(lambda r: r.update(note="unhashed"), id="extra-field"),
    ],
)
def test_movelog_schema_rejects_malformed_lines(edit):
    assert movelog_errors(_edited_line(lambda r: None)) == []
    assert movelog_errors(_edited_line(edit)) != []


def _with_proof_kind(index, kind):
    """The full-run fixture log with the proof of record `index` (the
    root claim's chain at 0, an answer's chain at 2) of kind `kind`, or of
    none if that is None, and its payload rehashed."""
    records = [json.loads(line) for line in (MOVELOGS / "full_run_claim_root.jsonl")
               .read_text().splitlines()]
    payload = records[index]["payload"]
    field = "chain" if index == 0 else "proof"
    assert payload[field]["kind"] == "chain"
    payload[field] = _kind(payload[field], kind)
    records[index]["payload_hash"] = content_hash(payload)
    return [json.dumps(record) for record in records]


@pytest.mark.parametrize(
    "index, kind, message",
    [
        (0, "banana", "nested proof kind must be chain, got 'banana'"),
        (0, None, "nested proof kind must be chain, got None"),
        (0, "machine_proof", "nested proof kind must be chain, got 'machine_proof'"),
        (2, "banana", "nested proof kind must be chain or machine_proof, got 'banana'"),
        (2, None, "nested proof kind must be chain or machine_proof, got None"),
        # a proof kind, read as what it names
        (2, "machine_proof", "unknown machine proof fields ['definitions']"),
    ],
    ids=["root-banana", "root-missing", "root-machine-proof", "answer-banana", "answer-missing",
         "answer-machine-proof"],
)
def test_movelog_schema_and_replay_agree_on_the_kind_of_a_posted_proof(index, kind, message):
    lines = _with_proof_kind(index, kind)
    assert movelog_errors(lines[index]) != []
    cascade = ParameterCascade.from_json(
        json.loads((CASCADES / "full_run_claim_root.json").read_text(encoding="utf-8")))
    balances = {name: 10**6 for name in ("ann", "sam", "bea", "cat", "kim")}
    with pytest.raises(ParseError) as raised:
        replay(lines, cascade, balances=balances)
    assert str(raised.value) == message
