"""CLI coverage, driven in-process through main(argv) plus two subprocess
checks that the console script really is byte-stable."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from sprig import cli
from sprig.cli import MAX_SWEEP_STEPS, _grid, main
from sprig.equilibrium import MAX_MC_DRAWS
from sprig.formulas import MAX_FORMULA_DEPTH, MAX_PROOF_DEPTH, content_hash
from sprig.scenarios import (
    PRESET_NAMES,
    preset_scenario,
    scenario_from_json,
)
from sprig.simulator import run_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROOFS = FIXTURES / "proofs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -------------------------------------------------------------------


def test_validate_accepts_a_clean_chain(capsys):
    code, out, err = run_cli(capsys, "validate", str(PROOFS / "infinite_primes.json"))
    assert code == 0
    assert out.strip() == "ok: chain has no violations"
    assert err == ""


def test_validate_reports_each_violation(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(PROOFS / "polynomial_root_broken_import.json")
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert any("import out of range" in line for line in lines)
    assert lines[-1].startswith("invalid: ")


def test_validate_level_limit_flag(capsys):
    path = str(PROOFS / "inverse_function.json")
    code, out, _ = run_cli(capsys, "validate", path, "--level-limit", "1")
    assert code == 1
    assert any("subproof too deep" in line for line in out.splitlines())
    code, out, _ = run_cli(capsys, "validate", path, "--level-limit", "3")
    assert code == 0
    code, out, err = run_cli(capsys, "validate", path, "--level-limit", "0")
    assert (code, out, err) == (2, "", "error: level_limit must be at least 1\n")


def test_validate_labels_statements_and_machine_proofs(capsys):
    code, out, _ = run_cli(capsys, "validate", str(PROOFS / "modus_ponens_statement.json"))
    assert (code, out.strip()) == (0, "ok: well-formed statement")
    code, out, _ = run_cli(capsys, "validate", str(PROOFS / "modus_ponens_proof.json"))
    assert (code, out.strip()) == (0, "ok: well-formed machine proof")


def test_validate_rejects_a_kind_that_is_not_a_string(capsys, tmp_path):
    bad = tmp_path / "doc.json"
    bad.write_text('{"kind": []}')
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert (code, out, err) == (1, "", "error: unparsable document: unknown document kind []\n")


def test_validate_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "validate", "no/such/door.json")
    assert code == 2
    assert "no such file" in err


def test_validate_unparsable_document(capsys, tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text('{"kind": "sonnet"}')
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "unparsable document" in err


# -- run -------------------------------------------------------------------------


def fixture_args(name):
    return str(FIXTURES / "movelogs" / f"{name}.jsonl"), str(
        FIXTURES / "cascades" / f"{name}.json"
    )


def test_run_replays_and_settles(capsys):
    code, out, _ = run_cli(capsys, "run", *fixture_args("full_run_claim_root"))
    assert code == 0
    doc = json.loads(out)
    assert doc["burned"] == 1
    assert doc["deltas"] == {"ann": 0, "bea": 32, "cat": -44, "kim": 33, "sam": -22}
    root = doc["nodes"]["c1"]
    assert root["status"] == "validated" and root["determined_at"] == [42, 0]
    reasons = {t["reason"] for t in doc["settlement"]}
    assert "stake paid to defeating question" in reasons


def test_run_early_stop_leaves_latecomers_pending(capsys):
    code, out, _ = run_cli(
        capsys, "run", *fixture_args("early_stop_question_root"), "--mode", "early-stop"
    )
    assert code == 0
    doc = json.loads(out)
    statuses = {n["status"] for n in doc["nodes"].values()}
    assert "pending" in statuses
    refunds = [t for t in doc["settlement"] if t["reason"] == "escrow refunded"]
    assert refunds and all(t["amount"] > 0 for t in refunds)


def test_run_reports_the_offending_line(capsys, tmp_path):
    log, cascade = fixture_args("validated_root_claim")
    lines = Path(log).read_text().splitlines()
    record = json.loads(lines[2])
    record["payload"]["origin"] = "q999"
    lines[2] = json.dumps(record)
    clipped = tmp_path / "tampered.jsonl"
    clipped.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "run", str(clipped), cascade)
    assert code == 1
    assert "illegal move at line 3" in err


@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank-lines"])
def test_run_reports_an_empty_move_log(capsys, tmp_path, text):
    _, cascade = fixture_args("validated_root_claim")
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text)
    code, out, err = run_cli(capsys, "run", str(empty), cascade)
    assert (code, out, err) == (1, "", "error: empty move log\n")


def test_run_reports_a_log_without_its_root_move(capsys, tmp_path):
    log, cascade = fixture_args("validated_root_claim")
    rootless = tmp_path / "rootless.jsonl"
    rootless.write_text("".join(Path(log).read_text().splitlines(keepends=True)[1:]))
    code, out, err = run_cli(capsys, "run", str(rootless), cascade)
    assert (code, out) == (1, "")
    assert err == "error: illegal move at line 1: log must start with a root move, got 'question'\n"


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "{bad}"], f"unparsable document: document is not UTF-8: {_NOT_UTF8}"),
        (["run", "{bad}", fixture_args("full_run_claim_root")[1]],
         f"bad move log at line 1: {_NOT_UTF8}"),
        (["run", fixture_args("full_run_claim_root")[0], "{bad}"],
         f"bad cascade file: {_NOT_UTF8}"),
        (["simulate", "{bad}"], f"scenario is not JSON: {_NOT_UTF8}"),
    ],
    ids=["validate", "run-log", "run-cascade", "simulate"],
)
def test_an_input_that_is_not_utf8_is_a_bad_document(capsys, tmp_path, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, *[arg.format(bad=bad) for arg in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_run_names_the_line_of_the_first_byte_that_is_not_utf8(capsys, tmp_path):
    log, cascade = fixture_args("full_run_claim_root")
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(Path(log).read_bytes().replace(b'"sam"', b'"s\xe1m"', 1))
    code, out, err = run_cli(capsys, "run", str(bad), cascade)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad move log at line 2: 'utf-8' codec can't decode byte 0xe1")


def test_a_missing_file_stays_a_usage_error_next_to_one_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff")
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "run", str(bad), missing)
    assert (code, out, err) == (2, "", f"error: no such file: {missing}\n")


def test_run_refuses_a_log_of_more_moves_than_the_bound(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RUN_MOVES", 3)
    log, cascade = fixture_args("validated_root_claim")
    lines = Path(log).read_text().splitlines()
    assert len(lines) > 3
    code, out, err = run_cli(capsys, "run", log, cascade)
    assert (code, out, err) == (1, "", "error: move log has more than 3 moves\n")
    # Blank lines are no moves: three moves among them replay.
    short = tmp_path / "short.jsonl"
    short.write_text("\n\n".join(lines[:3]) + "\n\n")
    code, out, err = run_cli(capsys, "run", str(short), cascade)
    assert (code, err) == (0, "")


def _renumber(records):
    for record in records:
        record["seq"] += 100


def _rehashed_log(tmp_path, name, index, edit):
    """The fixture log with record `index` edited and its payload rehashed."""
    log, cascade = fixture_args(name)
    records = [json.loads(raw) for raw in Path(log).read_text().splitlines()]
    edit(records[index])
    records[index]["payload_hash"] = content_hash(records[index]["payload"])
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(edited), cascade


@pytest.mark.parametrize(
    "name, index, edit, message",
    [
        ("validated_root_claim", 1, lambda r: r["payload"].pop("origin"),
         "question payload needs origin"),
        ("validated_root_claim", 1, lambda r: r.update(payload=[]),
         "question payload must be an object, not list"),
        ("validated_root_claim", 2, lambda r: r["payload"].pop("proof"),
         "answer claim payload needs proof"),
        ("validated_root_claim", 0, lambda r: r["payload"].pop("chain"),
         "root claim payload needs chain"),
        ("answered_root_question", 0, lambda r: r.update(payload="p"),
         "root question payload must be an object, not str"),
    ],
    ids=["question-origin", "question-array", "answer-proof", "root-chain", "root-statement"],
)
def test_run_flags_unreadable_records(capsys, tmp_path, name, index, edit, message):
    log, cascade = _rehashed_log(tmp_path, name, index, edit)
    code, out, err = run_cli(capsys, "run", log, cascade)
    assert (code, out, err) == (1, "", f"error: illegal move at line {index + 1}: {message}\n")


@pytest.mark.parametrize("index, kind", [(1, "question"), (2, "answer claim")],
                         ids=["question", "answer-claim"])
@pytest.mark.parametrize("origin", [[1], {"c": 1}, 1, 1.5, True, None],
                         ids=["array", "object", "integer", "number", "boolean", "null"])
def test_run_reads_a_payload_origin_as_a_string(capsys, tmp_path, index, kind, origin):
    def edit(record):
        record["payload"]["origin"] = origin

    log, cascade = _rehashed_log(tmp_path, "validated_root_claim", index, edit)
    code, out, err = run_cli(capsys, "run", log, cascade)
    assert (code, out) == (1, "")
    assert err == (f"error: illegal move at line {index + 1}: "
                   f"{kind} payload origin must be a string, got {origin!r}\n")

    # the same edit under the logged hash is reported as tampering
    records = [json.loads(raw) for raw in Path(fixture_args("validated_root_claim")[0])
               .read_text().splitlines()]
    edit(records[index])
    Path(log).write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(capsys, "run", log, cascade)
    assert (code, out) == (1, "")
    assert err == (f"error: illegal move at line {index + 1}: "
                   f"payload hash mismatch at seq {index + 1}\n")


@pytest.mark.parametrize(
    "index, edit, message",
    [
        (0, lambda p: p.update(chain=["target"]), "chain must be an object, not list"),
        (2, lambda p: p.update(proof=["target"]), "chain must be an object, not list"),
        (2, lambda p: p.update(proof="target"), "chain must be an object, not str"),
        (2, lambda p: p["proof"]["steps"][0].update(statement=[]),
         "statement must be an object, not list"),
        (2, lambda p: p["proof"].update(colour=1), "unknown chain fields ['colour']"),
        (2, lambda p: p["proof"]["steps"][0].pop("statement"), "chain step needs statement"),
    ],
    ids=["root-chain-array", "answer-proof-array", "answer-proof-string", "statement-array",
         "unknown-chain-field", "missing-statement"],
)
def test_run_rejects_proofs_of_the_wrong_shape(capsys, tmp_path, index, edit, message):
    log, cascade = _rehashed_log(tmp_path, "full_run_claim_root", index,
                                 lambda record: edit(record["payload"]))
    code, out, err = run_cli(capsys, "run", log, cascade)
    assert (code, out, err) == (1, "", f"error: illegal move at line {index + 1}: {message}\n")


@pytest.mark.parametrize(
    "index, field, kind, message",
    [
        (0, "chain", "banana", "nested proof kind must be chain, got 'banana'"),
        (0, "chain", None, "nested proof kind must be chain, got None"),
        (2, "proof", "banana", "nested proof kind must be chain or machine_proof, got 'banana'"),
        (2, "proof", None, "nested proof kind must be chain or machine_proof, got None"),
    ],
    ids=["root-banana", "root-missing", "answer-banana", "answer-missing"],
)
def test_run_rejects_a_posted_proof_of_no_proof_kind(capsys, tmp_path, index, field, kind,
                                                      message):
    def edit(record):
        proof = record["payload"][field]
        del proof["kind"]
        if kind is not None:
            proof["kind"] = kind

    log, cascade = _rehashed_log(tmp_path, "full_run_claim_root", index, edit)
    code, out, err = run_cli(capsys, "run", log, cascade)
    assert (code, out, err) == (1, "", f"error: illegal move at line {index + 1}: {message}\n")


def test_validate_and_simulate_reject_a_nested_proof_of_no_proof_kind(capsys, monkeypatch,
                                                                      tmp_path):
    doc = json.loads((PROOFS / "infinite_primes.json").read_text())
    next(step for step in doc["steps"] if "subproof" in step)["subproof"]["kind"] = "banana"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (1, "", "error: unparsable document: nested proof kind must be "
                                       "chain or machine_proof, got 'banana'\n")

    monkeypatch.delenv("SPRIG_SEED", raising=False)
    scenario = preset_scenario("happy_path")
    scenario["trees"]["solid"]["kind"] = "banana"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out, err) == (1, "", "error: bad scenario: nested proof kind must be chain, "
                                       "got 'banana'\n")


def test_run_reports_every_structural_violation_on_one_line(capsys, tmp_path):
    def two_violations(record):
        step = record["payload"]["proof"]["steps"][0]
        step["imports"] = [99]
        step["statement"]["context"] = "elsewhere"

    code, out, err = run_cli(capsys, "run", *_rehashed_log(tmp_path, "full_run_claim_root", 2,
                                                             two_violations))
    assert (code, out) == (1, "")
    assert err.startswith("error: illegal move at line 3: structural violation: step 1: ")
    assert "import out of range" in err and "; step 1: context mismatch" in err
    assert err.count("\n") == 1


def test_run_settles_free_machine_bounties(capsys, tmp_path):
    log, cascade = fixture_args("early_stop_question_root")
    doc = json.loads(Path(cascade).read_text())
    doc["machine"]["bounty"] = 0
    free = tmp_path / "cascade.json"
    free.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", log, str(free))
    assert (code, err) == (0, "")
    assert all(t["amount"] > 0 for t in json.loads(out)["settlement"])


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda r: r[1].update(time=3.5), 2),
        (lambda r: r[1].update(time="3"), 2),
        (_renumber, 1),
        (lambda r: r[1].update(actor=7), 2),
        (lambda r: r[1].update(actor=True), 2),
    ],
    ids=["float-time", "string-time", "renumbered-seq", "integer-actor", "boolean-actor"],
)
def test_run_rejects_coerced_times_and_foreign_seqs(capsys, tmp_path, edit, line):
    log, cascade = fixture_args("full_run_claim_root")
    records = [json.loads(raw) for raw in Path(log).read_text().splitlines()]
    edit(records)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(capsys, "run", str(tampered), cascade)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: illegal move at line {line}: ")


def _first_step_importing_1(doc):
    return next(step for step in doc["steps"] if step["imports"] == [1])


@pytest.mark.parametrize(
    "name, edit",
    [
        ("modus_ponens_proof", lambda d: d["steps"][0].update(premises=[True, -1])),
        ("infinite_primes", lambda d: _first_step_importing_1(d).update(imports=[True])),
    ],
    ids=["premises", "imports"],
)
def test_validate_rejects_booleans_as_indices(capsys, tmp_path, name, edit):
    doc = json.loads((PROOFS / f"{name}.json").read_text())
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: unparsable document: ")


@pytest.mark.parametrize("rule, shown", [(5, "5"), (None, "None")])
def test_validate_rejects_an_inference_rule_that_is_not_a_string(capsys, tmp_path, rule, shown):
    doc = json.loads((PROOFS / "modus_ponens_proof.json").read_text())
    doc["steps"][0]["rule"] = rule
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (
        1, "", f"error: unparsable document: inference step rule must be a string, got {shown}\n"
    )


# Edits of a valid cascade file, each of which `sprig run` must reject. An
# edit changes the document in place or returns a replacement for it.
# tests/test_schemas.py checks schemas/cascade.json against the same edits.


def _single_level(doc):
    del doc["levels"]["2"]
    doc["root_level"] = True


def _without_max_length(doc):
    del doc["levels"]["1"]["max_length"]


_POSITIVE = "max_length must be a positive integer"

# (edit, the exact error it reports)
CASCADE_NUMBER_EDITS = [
    pytest.param(_single_level, "root_level must be an integer of at least 1", id="root-level"),
    pytest.param(lambda d: d["levels"]["1"].update(stake_up=True),
                 "stake_up must be a non-negative integer", id="stake-up"),
    pytest.param(lambda d: d["levels"]["2"].update(verification_time=True),
                 "verification_time must be a positive integer", id="verification-time"),
    pytest.param(lambda d: d["machine"].update(burn_cost=True),
                 "burn_cost must be a non-negative integer", id="burn-cost"),
    pytest.param(lambda d: d["machine"].update(max_length=True), _POSITIVE, id="max-length"),
    pytest.param(lambda d: d["machine"].update(max_length=[1, 0]), _POSITIVE,
                 id="zero-denominator"),
    pytest.param(lambda d: d["levels"]["1"].update(max_length=[4, 2]), _POSITIVE,
                 id="whole-fraction"),
    pytest.param(lambda d: d["machine"].update(max_length=[3, 2]), _POSITIVE, id="fraction"),
    pytest.param(lambda d: d["levels"]["2"].update(max_length=1.5), _POSITIVE, id="float"),
    pytest.param(lambda d: d["machine"].update(max_length=0), _POSITIVE, id="zero"),
    pytest.param(_without_max_length, "level 1 needs max_length", id="missing-max-length"),
]

CASCADE_CONTAINER_EDITS = [
    pytest.param(lambda d: d.update(levels=[]), id="levels-array"),
    pytest.param(lambda d: [d], id="cascade-array"),
    pytest.param(lambda d: d.update(machine=[d["machine"]]), id="machine-array"),
    pytest.param(lambda d: d["levels"].update({"1": []}), id="level-array"),
    pytest.param(lambda d: d.update(root_level="2"), id="root-level-string"),
    pytest.param(lambda d: d.update(root_level=3), id="root-level-past-levels"),
    pytest.param(lambda d: d["levels"].update({"01": d["levels"].pop("1")}),
                 id="level-key-padded"),
    pytest.param(lambda d: d["machine"].update(colour=1), id="unknown-field"),
    pytest.param(lambda d: d.update(colour=1), id="unknown-top-level-field"),
]


def _edited_cascade(tmp_path, edit):
    log, cascade = fixture_args("validated_root_claim")
    doc = json.loads(Path(cascade).read_text())
    bad = tmp_path / "cascade.json"
    bad.write_text(json.dumps(edit(doc) or doc))
    return log, str(bad)


@pytest.mark.parametrize("edit, message", CASCADE_NUMBER_EDITS)
def test_run_rejects_booleans_in_a_cascade(capsys, tmp_path, edit, message):
    code, out, err = run_cli(capsys, "run", *_edited_cascade(tmp_path, edit))
    assert (code, out, err) == (1, "", f"error: bad cascade file: {message}\n")


def test_run_rejects_a_broken_cascade(capsys, tmp_path):
    log, _ = fixture_args("validated_root_claim")
    bad = tmp_path / "cascade.json"
    bad.write_text('{"root_level": 2}')
    code, _, err = run_cli(capsys, "run", log, str(bad))
    assert code == 1
    assert "bad cascade file" in err


@pytest.mark.parametrize("edit", CASCADE_CONTAINER_EDITS)
def test_run_rejects_cascade_containers_of_the_wrong_type(capsys, tmp_path, edit):
    code, out, err = run_cli(capsys, "run", *_edited_cascade(tmp_path, edit))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad cascade file: ") and err.count("\n") == 1


# -- simulate --------------------------------------------------------------------


def test_simulate_preset_summary_matches_a_direct_run(capsys):
    code, out, _ = run_cli(capsys, "simulate", "nitpicker")
    assert code == 0
    direct = run_scenario(scenario_from_json(preset_scenario("nitpicker")))
    assert json.loads(out) == direct.summary()


def test_simulate_writes_trace_and_csv(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "payoffs.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "invalid_leaf",
        "--trace", str(trace_path), "--csv", str(csv_path),
    )
    assert code == 0
    records = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert records[0]["record"] == "run" and records[-1]["record"] == "summary"
    csv = csv_path.read_text().splitlines()
    assert csv[0] == "agent,initial,final,net"
    assert csv[-1].startswith("__burned__,")


def test_simulate_unknown_name_lists_the_presets(capsys):
    code, _, err = run_cli(capsys, "simulate", "heisenbug")
    assert code == 2
    for name in PRESET_NAMES:
        assert name in err


def test_simulate_scenario_file_with_seed_flag(capsys, tmp_path):
    doc = preset_scenario("carpet_bomber")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out_default, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    code, out_seeded, _ = run_cli(capsys, "simulate", str(path), "--seed", str(doc["seed"]))
    assert code == 0
    assert out_seeded == out_default  # explicit seed equal to the doc's changes nothing


def test_simulate_env_seed_and_flag_precedence(capsys, monkeypatch, tmp_path):
    doc = preset_scenario("carpet_bomber")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))

    monkeypatch.setenv("SPRIG_SEED", "12345")
    _, out_env, _ = run_cli(capsys, "simulate", str(path))
    monkeypatch.delenv("SPRIG_SEED")
    _, out_explicit, _ = run_cli(capsys, "simulate", str(path), "--seed", "12345")
    assert out_env == out_explicit

    monkeypatch.setenv("SPRIG_SEED", "12345")
    _, out_flag_wins, _ = run_cli(capsys, "simulate", str(path), "--seed", str(doc["seed"]))
    monkeypatch.delenv("SPRIG_SEED")
    _, out_plain, _ = run_cli(capsys, "simulate", str(path))
    assert out_flag_wins == out_plain


def test_simulate_rejects_a_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SPRIG_SEED", "lucky")
    code, _, err = run_cli(capsys, "simulate", "happy_path")
    assert code == 2
    assert "SPRIG_SEED" in err


@pytest.mark.parametrize("value", ["8", True, 100.9], ids=["string", "boolean", "float"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda doc, v: doc["agents"][0].update(balance=v),
        lambda doc, v: doc.update(horizon=v),
        lambda doc, v: doc.update(seed=v),
        lambda doc, v: doc["root"].update(time=v),
    ],
    ids=["balance", "horizon", "seed", "root-time"],
)
def test_simulate_rejects_scenario_integers_of_the_wrong_type(capsys, monkeypatch, tmp_path,
                                                               edit, value):
    monkeypatch.delenv("SPRIG_SEED", raising=False)
    doc = preset_scenario("carpet_bomber")
    edit(doc, value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad scenario: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(agents=[1]),
        lambda doc: doc.update(trees=[]),
        lambda doc: doc.update(root=[]),
        lambda doc: doc["agents"][0].update(strategy="idle"),
        lambda doc: doc["agents"][0].update(strategy={"kind": "idle", "params": []}),
        # The scenario format has no verifier field: every old shape of one is refused.
        lambda doc: doc.update(verifier=[1]),
        lambda doc: doc.update(verifier={"kind": "scripted", "tree": "solid",
                                         "overrides": {"1": 0}}),
        lambda doc: doc.update(mode="bogus"),
        lambda doc: doc["agents"][0].update(balance=-1),
        lambda doc: doc["root"].update(time=-1),
        lambda doc: doc["agents"][1].update(name=5),
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "plagiarist", "params": {"mirror_questions": True}}),
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "evasive_prover", "params": {"pad": "2"}}),
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "sandbagger", "params": {"copies": 2.5}}),
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "sandbagger", "params": {"copies": True}}),
        lambda doc: doc["agents"][0].update(
            strategy={"kind": "copycat_defender", "params": {"delay": "2"}}),
        lambda doc: doc["agents"][0].update(strategy={"kind": ["idle"]}),
        lambda doc: doc["trees"].update(solid=["target"]),
        lambda doc: doc["root"].update(tree=["target"]),
        lambda doc: doc["root"].update(tree="rotten"),
        lambda doc: doc["root"].update(kind="question"),
        lambda doc: doc["root"].pop("kind"),
        lambda doc: doc["agents"][1].update(knows=["solid"]),
        lambda doc: doc["agents"][0].update(balance=0),
        lambda doc: doc.update(colour=1),
        lambda doc: doc["root"].update(colour=1),
        lambda doc: doc["agents"][0].update(colour=1),
        lambda doc: doc["agents"][0].pop("balance"),
        lambda doc: doc.pop("horizon"),
        lambda doc: doc.update(agents=5),
        lambda doc: doc.update(verifier={}),
        lambda doc: doc.update(verifier={"kind": "scriptd", "tree": "solid"}),
        lambda doc: doc.update(verifier={"kind": "scripted", "tree": "solid",
                                         "overrides": {"9.9": True}}),
    ],
    ids=["agents", "trees", "root", "strategy", "strategy-params", "verifier", "override",
         "mode", "negative-balance", "negative-root-time", "integer-name", "unknown-param",
         "string-pad", "float-copies", "boolean-copies", "string-delay", "array-kind",
         "tree-array", "root-tree-array", "unknown-tree", "question-without-statement",
         "missing-root-kind", "array-knows", "unaffordable-root", "unknown-field",
         "unknown-root-field", "unknown-agent-field", "missing-balance", "missing-horizon",
         "agents-integer", "empty-verifier", "unknown-verifier-kind", "unknown-override-path"],
)
def test_simulate_rejects_scenario_containers_of_the_wrong_type(capsys, monkeypatch, tmp_path,
                                                                 edit):
    monkeypatch.delenv("SPRIG_SEED", raising=False)
    doc = preset_scenario("carpet_bomber")
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad scenario: ") and err.count("\n") == 1


def test_simulate_rejects_a_scenario_verifier(capsys, monkeypatch, tmp_path):
    # Every machine-level verdict comes from the one kernel: a scenario
    # cannot swap in another checker.
    monkeypatch.delenv("SPRIG_SEED", raising=False)
    doc = preset_scenario("happy_path")
    doc["verifier"] = {"kind": "scripted", "tree": "solid"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out, err) == (1, "", "error: bad scenario: unknown scenario fields ['verifier']\n")


def test_simulate_rejects_a_scenario_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[1]")
    for argv in ([], ["--seed", "3"]):
        code, out, err = run_cli(capsys, "simulate", str(path), *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad scenario: ") and err.count("\n") == 1


# -- solve / sweep / verify-mc ------------------------------------------------------


def test_solve_prints_the_benchmark_point(capsys):
    code, out, _ = run_cli(capsys, "solve", "--sigma2", "40")
    assert code == 0
    doc = json.loads(out)
    eq = doc["equilibrium"]
    assert eq["eq_type"] == 1
    assert eq["pi_star"] == pytest.approx(144 / 323, abs=1e-12)
    assert eq["q1"] == pytest.approx(17 / 18, abs=1e-12)
    assert eq["q2"] == 1.0
    assert doc["parameters"]["sigma2"] == 40.0
    assert doc["outcome_probabilities"]["unchallenged_share"] == 0.0


def test_solve_degenerate_point_fails_cleanly(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--sigma1", "0", "--sigma2", "0", "--beta0", "0", "--beta1", "0"
    )
    assert code == 1
    assert "degenerate parameters" in err


def test_sweep_emits_the_frozen_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "sigma2",
        "--from", "5", "--to", "40", "--steps", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("param,value,eq_type,pi_star,")
    assert len(lines) == 3
    assert lines[1].split(",")[:3] == ["sigma2", "5.0", "3"]
    assert lines[2].split(",")[:3] == ["sigma2", "40.0", "1"]


def test_sweep_steps_one_uses_the_start_value(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "sigma2",
        "--from", "30", "--to", "99", "--steps", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "30.0"


def test_sweep_prints_every_row_across_its_output_blocks(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "2001"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert out.endswith("\n") and len(lines) == 2002
    assert [float(line.split(",")[1]) for line in lines[1:]] == [60 * i / 2000 for i in range(2001)]


def test_sweep_produces_every_finite_point_of_a_grid_near_the_float_limit(capsys):
    # 1.7e308 * 2 overflows before the division by 2 would bring it back.
    code, out, err = run_cli(
        capsys, "sweep", "--param", "b0", "--from", "0", "--to", "1.7e308", "--steps", "3"
    )
    assert (code, err) == (0, "")
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["0.0", "8.5e+307", "1.7e+308"]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE, st.integers(2, 40))
@example(0.0, 1.7e308, 3)
@example(-1.7e308, 1.7e308, 5)
@example(5e-324, 1.7976931348623157e308, 7)
@example(-2.2250738585072014e-308, 1e-320, 9)
def test_grid_points_are_the_plain_formula_wherever_it_is_finite(start, stop, steps):
    points = list(_grid(start, stop, steps))
    assert len(points) == steps
    for i, point in enumerate(points):
        plain = start + (stop - start) * i / (steps - 1)
        if math.isfinite(plain):
            assert point.hex() == plain.hex()
        else:
            exact = Fraction(start) + (Fraction(stop) - Fraction(start)) * i / (steps - 1)
            assert point == float(exact)
            assert min(start, stop) <= point <= max(start, stop)


def test_sweep_rejects_unknown_parameters_and_bad_steps(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--param", "b9", "--from", "0", "--to", "1", "--steps", "2"
    )
    assert code == 2 and "b9" in err
    assert out == ""
    code, _, err = run_cli(
        capsys, "sweep", "--param", "sigma2", "--from", "0", "--to", "1", "--steps", "0"
    )
    assert code == 2 and "--steps" in err
    # The third point is negative.
    code, out, err = run_cli(
        capsys, "sweep", "--param", "sigma2", "--from", "10", "--to", "-10", "--steps", "3"
    )
    assert (code, out, err) == (2, "", "error: sigma2 must be a non-negative finite number\n")


# sha256 of stdout recorded before the CSV cells were read off SWEEP_COLUMNS.
def test_sweep_with_degenerate_rows_is_pinned(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--sigma2", "0", "--sigma1", "0", "--beta0", "0", "--beta1", "0",
        "--param", "beta1", "--from", "0", "--to", "60", "--steps", "13",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "beta1,0.0,degenerate" + "," * 14
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "41a1a18ea9063350f5b878251610a89ac440cba7410b8cc9c52a154a1a68d3d3"
    )


NO_MIXING = ("--b0", "0", "--sigma1", "0", "--beta0", "0", "--beta1", "0")


@pytest.mark.parametrize("argv", [["solve"], ["verify-mc", "--n", "10"]], ids=["solve", "verify-mc"])
def test_a_point_without_a_valid_mixing_rate_is_degenerate(capsys, argv):
    # Type 2 applies here with an entry belief of 1, where no reply rate pins
    # the posterior; this used to escape as a usage error (exit 2).
    code, out, err = run_cli(capsys, *argv, *NO_MIXING, "--sigma2", "5")
    assert (code, out) == (1, "")
    assert err == ("error: degenerate parameters: no valid mixing rate: "
                   "pi_e must be in [0, 1), got 1.0\n")


def test_sweep_marks_points_without_a_valid_mixing_rate(capsys):
    code, out, err = run_cli(
        capsys, "sweep", *NO_MIXING, "--param", "sigma2", "--from", "0", "--to", "60",
        "--steps", "13",
    )
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [f"{5.0 * i}" for i in range(13)]
    assert all(row.split(",")[2:] == ["degenerate"] + [""] * 14 for row in rows)


# Each of these is finite, but their sums overflow a float, and the solution's
# ratios of two overflows are NaN, which JSON cannot write.
OVERFLOW = ("--sigma1", "1e308", "--sigma2", "1e308", "--beta1", "1e308")


@pytest.mark.parametrize("argv", [["solve"], ["verify-mc", "--n", "10"]], ids=["solve", "verify-mc"])
def test_a_point_whose_solution_overflows_is_degenerate(capsys, argv):
    code, out, err = run_cli(capsys, *argv, *OVERFLOW)
    assert (code, out) == (1, "")
    assert err == "error: degenerate parameters: solution not finite: pi1_star, p, q1\n"


def test_sweep_marks_a_point_whose_solution_overflows(capsys):
    code, out, err = run_cli(
        capsys, "sweep", *OVERFLOW, "--param", "b0", "--from", "40", "--to", "40", "--steps", "1"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "b0,40.0,degenerate" + "," * 14


def test_sweep_rejects_more_steps_than_the_bound(capsys):
    steps = str(MAX_SWEEP_STEPS + 1)
    code, out, err = run_cli(
        capsys, "sweep", "--param", "sigma2", "--from", "0", "--to", "1", "--steps", steps
    )
    assert (code, out) == (2, "")
    assert err == f"error: --steps must be between 1 and {MAX_SWEEP_STEPS}\n"
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f"number of grid points, 1 to {MAX_SWEEP_STEPS:,}" in " ".join(
        capsys.readouterr().out.split()
    )


def test_verify_mc_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-mc", "--sigma2", "30", "--n", "20000")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["n"] == 20000 and doc["seed"] == 0
    assert all(row["ok"] for row in doc["rows"].values())
    vgr = doc["rows"]["valid_given_reject"]
    assert vgr["closed"] is not None


def test_verify_mc_honors_the_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SPRIG_SEED", "77")
    code, out, _ = run_cli(capsys, "verify-mc", "--sigma2", "30", "--n", "5000")
    assert code == 0
    assert json.loads(out)["seed"] == 77


# sha256 of stdout and the exit code, recorded before Monte Carlo draws were
# streamed in blocks or split among CPUs: the streamed draws must reproduce
# them byte for byte, whatever the number of usable CPUs.
VERIFY_MC_DIGESTS = [
    (
        ("--sigma2", "30", "--n", "1000003", "--seed", "7"),
        0,
        "657ac76176e1ff6a93001304971f1551f9c80767fcc4902ecba95289ae7586a2",
    ),
    (
        ("--sigma2", "5", "--n", "65537", "--seed", "0"),
        0,
        "8009fdb0cc2ac63b7d2ebebe434e31548eba5eab635ace711900e8645a609108",
    ),
    (
        ("--sigma2", "40", "--n", "0", "--seed", "1"),
        1,
        "49a792bbd4fc256f8a19e45c677bfd44fb3624604d18613a9da71647135b81a1",
    ),
]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("argv, want_code, want_digest", VERIFY_MC_DIGESTS)
def test_verify_mc_output_is_pinned(capsys, monkeypatch, argv, want_code, want_digest, cpus):
    monkeypatch.delenv("SPRIG_SEED", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    code, out, err = run_cli(capsys, "verify-mc", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, want_digest)
    assert err == ""


@pytest.mark.parametrize("n", ["-5", "1000000001", "3000000000", "100000000000000000000"])
def test_verify_mc_rejects_out_of_range_n(capsys, n):
    code, out, err = run_cli(capsys, "verify-mc", "--sigma2", "30", "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: n must be between 0 and 1000000000, got {n}\n"


def test_verify_mc_help_states_the_draw_bound(capsys):
    # The help writes the bound out rather than importing the equilibrium layer.
    with pytest.raises(SystemExit):
        main(["verify-mc", "--help"])
    assert f"number of simulated games, 0 to {MAX_MC_DRAWS:,}" in " ".join(
        capsys.readouterr().out.split()
    )


@pytest.mark.parametrize(
    "argv, env_seed, seed",
    [(["--seed", "-1"], None, "-1"), ([], "-3", "-3")],
    ids=["flag", "env"],
)
def test_verify_mc_rejects_a_negative_seed(capsys, monkeypatch, argv, env_seed, seed):
    if env_seed is None:
        monkeypatch.delenv("SPRIG_SEED", raising=False)
    else:
        monkeypatch.setenv("SPRIG_SEED", env_seed)
    # With numpy unimportable, reaching the draws raises ImportError instead.
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, out, err = run_cli(capsys, "verify-mc", "--sigma2", "30", "--n", "10", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: seed must be a non-negative integer, got {seed}\n"


# -- byte stability through the real entry point -------------------------------------


def _script(*argv):
    return subprocess.run(
        [sys.executable, "-m", "sprig.cli", *argv],
        capture_output=True,
        cwd=str(FIXTURES.parent),
    )


def _nested_not(depth):
    return '{"not":' * depth + '{"atom":"p"}' + "}" * depth


def test_deeply_nested_documents_exit_1_without_a_traceback(tmp_path):
    statement = tmp_path / "deep_statement.json"
    statement.write_text('{"assumptions":[],"conclusion":' + _nested_not(3000) + "}")
    log = tmp_path / "deep.jsonl"
    log.write_text('{"actor":"ann","kind":"root_question","payload":{"statement":'
                   '{"assumptions":[],"conclusion":' + _nested_not(3000) + '}},'
                   '"payload_hash":"0","seq":1,"time":0}\n')
    _, cascade = fixture_args("full_run_claim_root")
    for argv in (["validate", str(statement)], ["run", str(log), cascade]):
        result = _script(*argv)
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: ")
        assert b"nested too deeply" in result.stderr
        assert b"Traceback" not in result.stderr


def test_formulas_past_the_depth_bound_exit_1_without_a_traceback(tmp_path):
    # 900 levels decode as JSON but overflowed the stack in validate_chain.
    for nots, code, out in ((MAX_FORMULA_DEPTH - 1, 0, b"ok: chain has no violations\n"),
                            (900, 1, b"")):
        statement = ('{"assumptions":[' + _nested_not(nots) + '],"conclusion":'
                     + _nested_not(nots) + "}")
        chain = tmp_path / f"chain{nots}.json"
        chain.write_text('{"kind":"chain","steps":[{"imports":[],"statement":%s}],"target":%s}'
                         % (statement, statement))
        payload = '{"statement":' + statement + "}"
        log = tmp_path / f"question{nots}.jsonl"
        log.write_text('{"actor":"ann","kind":"root_question","payload":%s,"payload_hash":"%s",'
                       '"seq":1,"time":0}\n' % (payload, hashlib.sha256(payload.encode()).hexdigest()))
        result = _script("validate", str(chain))
        assert (result.returncode, result.stdout) == (code, out)
        assert b"Traceback" not in result.stderr
        if code:
            assert result.stderr == b"error: unparsable document: document nested too deeply\n"
            result = _script("run", str(log), fixture_args("full_run_claim_root")[1])
            assert (result.returncode, result.stdout) == (1, b"")
            assert result.stderr == b"error: illegal move at line 1: document nested too deeply\n"


def test_cascades_and_scenarios_nested_5000_deep_exit_1_without_a_traceback(tmp_path):
    deep = "[" * 5000 + "]" * 5000
    cascade = tmp_path / "cascade.json"
    cascade.write_text('{"levels":' + deep + "}")
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"agents":' + deep + "}")
    log, _ = fixture_args("validated_root_claim")
    for argv, error in (
        (["run", log, str(cascade)], b"error: bad cascade file: document nested too deeply\n"),
        (["simulate", str(scenario)], b"error: scenario is not JSON: document nested too deeply\n"),
    ):
        result = _script(*argv)
        assert (result.returncode, result.stdout, result.stderr) == (1, b"", error)


def _nested_chain(height):
    """A one-step chain whose step's subproof is such a chain: `height`
    chains in all, as `ProofChain.height` counts them."""
    statement = '{"assumptions":[],"conclusion":{"atom":"p"}}'
    chain = '{"kind":"chain","steps":[{"imports":[],"statement":%s%s}],"target":%s}'
    doc = chain % (statement, "", statement)
    for _ in range(height - 1):
        doc = chain % (statement, ',"subproof":' + doc, statement)
    return doc


@pytest.mark.parametrize("height", [MAX_PROOF_DEPTH, MAX_PROOF_DEPTH + 1, 400])
def test_chains_with_deeply_nested_subproofs_exit_without_a_traceback(tmp_path, height):
    # A chain at the bound validates, replays and simulates; one a level
    # past it is refused by the bound, and one 400 deep by the JSON parser.
    document = tmp_path / "chain.json"
    document.write_text(_nested_chain(height))
    payload = '{"chain":' + _nested_chain(height) + "}"
    log = tmp_path / "deep.jsonl"
    log.write_text('{"actor":"ann","kind":"root_claim","payload":%s,"payload_hash":"%s",'
                   '"seq":1,"time":0}\n' % (payload, hashlib.sha256(payload.encode()).hexdigest()))
    scenario = preset_scenario("happy_path")
    scenario["root"]["tree"] = "TREE"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario).replace('"TREE"', _nested_chain(height)))
    for argv in (["validate", str(document)],
                 ["run", str(log), fixture_args("validated_root_claim")[1]],
                 ["simulate", str(path)]):
        result = _script(*argv)
        if height <= MAX_PROOF_DEPTH:
            assert (result.returncode, result.stderr) == (0, b""), argv
        else:
            assert (result.returncode, result.stdout) == (1, b""), argv
            assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
            assert result.stderr.endswith(b": document nested too deeply\n"), result.stderr


def _main_call(*argv):
    return f"from sprig.cli import main; assert main({list(argv)!r}) == 0"


_SUBMODULES = [f"sprig.{p.stem}" for p in (FIXTURES.parent / "src" / "sprig").glob("*.py")
               if p.stem != "__init__"]
_ENGINE = ["sprig.protocol", "sprig.simulator", "sprig.scenarios", "sprig.verifier"]
# The debate commands never load the equilibrium layer, nor `fractions`, which
# only its exact audit uses; the equilibrium commands never load `formulas`,
# nor the `hashlib` that content hashes need (numpy.random loads it for
# verify-mc, through `secrets`).
_NO_EQUILIBRIUM = ["sprig.equilibrium", "fractions", "numpy"]
_NO_FORMULAS = ["sprig.formulas", "sprig.proofs", *_ENGINE]
# `validate` hashes nothing, so it never starts OpenSSL.
_NO_HASHING = ["hashlib", "_hashlib"]


# No command loads `dataclasses`, and none but verify-mc loads `inspect`,
# which numpy imports.
_NO_INTROSPECTION = ["dataclasses", "inspect"]


@pytest.mark.parametrize(
    "code, unloaded",
    [
        ("import sprig", [*_SUBMODULES, *_NO_INTROSPECTION]),
        (_main_call("validate", str(PROOFS / "identity_chain.json")),
         [*_ENGINE, *_NO_EQUILIBRIUM, *_NO_INTROSPECTION, *_NO_HASHING]),
        (_main_call("run", *fixture_args("full_run_claim_root")),
         ["sprig.simulator", "sprig.scenarios", *_NO_EQUILIBRIUM, *_NO_INTROSPECTION]),
        (_main_call("simulate", "plagiarist_defense"), [*_NO_EQUILIBRIUM, *_NO_INTROSPECTION]),
        (_main_call("solve"), [*_NO_FORMULAS, "hashlib", "numpy", *_NO_INTROSPECTION]),
        (_main_call("sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "7"),
         [*_NO_FORMULAS, "hashlib", "numpy", *_NO_INTROSPECTION]),
        (_main_call("verify-mc", "--n", "10"), [*_NO_FORMULAS, "dataclasses"]),
        ("import sprig.cli",
         [m for m in _SUBMODULES if m != "sprig.cli"] + ["numpy", *_NO_INTROSPECTION]),
        ("import sprig.scenarios", ["fractions", *_NO_INTROSPECTION]),
    ],
    ids=["import-sprig", "validate", "run", "simulate", "solve", "sweep", "verify-mc",
         "import-cli", "import-scenarios"],
)
def test_each_command_loads_only_its_layer(code, unloaded):
    # A fresh interpreter, so that nothing this test process imported counts.
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        capture_output=True,
        cwd=str(FIXTURES.parent),
        text=True,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert loaded.isdisjoint(unloaded), sorted(loaded.intersection(unloaded))


def test_console_script_exits_1_without_a_traceback_when_stdout_closes_early():
    # What the `sprig` console script runs; the sweep writes ~140 kB, more
    # than a pipe holds, so the writer meets the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from sprig.cli import main; sys.exit(main())",
         "sweep", "--param", "sigma2", "--from", "0", "--to", "60", "--steps", "601"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(FIXTURES.parent),
    )
    assert proc.stdout.readline().startswith(b"param,value,eq_type,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 1
    assert b"Traceback" not in stderr


def test_console_entry_point_is_byte_identical_across_runs():
    first = _script("simulate", "plagiarist_defense")
    second = _script("simulate", "plagiarist_defense")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    a = _script("run", *fixture_args("invalidated_root_claim"))
    b = _script("run", *fixture_args("invalidated_root_claim"))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
