"""Chains, machine proofs, their length and the structural validator."""

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sprig import formulas
from sprig.formulas import (
    MAX_PROOF_DEPTH,
    DefinitionSet,
    Formula,
    ParseError,
    Statement,
    atom,
    canonical_json,
    conj,
    content_hash,
    disj,
    impl,
    neg,
    sym,
)
from sprig.proofs import (
    ChainStep,
    InferenceStep,
    MachineProof,
    ProofChain,
    chain_from_json,
    measure_length,
    parse_proof_document,
    proof_from_json,
    serialize_proof_document,
    validate_chain,
)
from sprig.scenarios import (
    PROOF_DOCUMENTS,
    identity_chain,
    infinite_primes,
    inverse_function,
    modus_ponens_example,
    polynomial_root,
    polynomial_root_broken_import,
)

import oracles

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "proofs"


def codes(report):
    return [v.code for v in report.violations]


# -- construction and parsing ------------------------------------------------


def test_chain_requires_at_least_one_step():
    target = Statement(conclusion=atom("p"))
    with pytest.raises(ParseError):
        ProofChain(target=target, steps=())


def test_chain_step_imports_are_deduplicated_and_sorted():
    s = Statement(conclusion=atom("p"))
    step = ChainStep(statement=s, imports=(3, 1))
    assert step.imports == (1, 3)
    with pytest.raises(ParseError):
        ChainStep(statement=s, imports=(2, 2))
    with pytest.raises(ParseError):
        ChainStep(statement=s, imports=("1",))
    with pytest.raises(ParseError):
        ChainStep(statement=s, imports=(True,))


def test_inference_step_validation():
    with pytest.raises(ParseError):
        InferenceStep(atom("p"), "")
    with pytest.raises(ParseError):
        InferenceStep(atom("p"), "assumption", (0,))
    with pytest.raises(ParseError):
        InferenceStep(atom("p"), "assumption", (True,))
    # negative indices address the target's assumptions and are fine
    InferenceStep(atom("p"), "assumption", (-1,))


@pytest.mark.parametrize("bad", [(True,), (1.0,)], ids=["true", "float"])
def test_an_index_equal_to_a_live_integer_index_is_still_checked(bad):
    # `(True,)` and `(1.0,)` equal `(1,)` and hash as it does, so a lookup
    # ahead of the check would return the live step.
    p = atom("p")
    live = InferenceStep(p, "assumption", (1,)), ChainStep(Statement(p), imports=(1,))
    with pytest.raises(ParseError, match="premise indices must be nonzero integers"):
        InferenceStep(p, "assumption", bad)
    with pytest.raises(ParseError, match="import indices must be integers"):
        ChainStep(Statement(p), imports=bad)
    assert InferenceStep(p, "assumption", (1,)) is live[0]
    assert ChainStep(Statement(p), imports=(1,)) is live[1]


@pytest.mark.parametrize("build", [
    lambda p, s: Formula("bogus"),
    lambda p, s: Formula("atom", ""),
    lambda p, s: Formula("not", args=()),
    lambda p, s: DefinitionSet(symbols=(("z", p), ("z", p))),
    lambda p, s: InferenceStep(p, ""),
    lambda p, s: InferenceStep(p, "assumption", (0,)),
    lambda p, s: InferenceStep(p, "assumption", (True,)),
    lambda p, s: ChainStep(s, (1, 1)),
    lambda p, s: ChainStep(s, ("1",)),
    lambda p, s: ProofChain(s, ()),
], ids=["connective", "leaf-name", "arity", "duplicate-symbol", "rule", "zero-premise",
        "bool-premise", "duplicate-import", "string-import", "no-steps"])
def test_a_rejected_construction_enters_nothing_in_the_table(build):
    # Every check runs before `_intern`, so a value that fails one is never
    # entered. The table is counted while the traceback still holds the
    # constructor's locals, so a value entered and then rejected would
    # still be alive and counted. The parts, and the empty definition set a
    # chain defaults to, are held here so that they add no entry either.
    p = atom("p")
    s, definitions = Statement(p), DefinitionSet()
    before = len(formulas._interned)
    with pytest.raises(ParseError) as raised:
        build(p, s)
    assert len(formulas._interned) == before, raised.traceback[-1]


def test_equal_proofs_are_one_object_built_or_decoded():
    for name, doc in PROOF_DOCUMENTS().items():
        data = json.dumps(doc)
        proof = parse_proof_document(data)
        assert parse_proof_document(data) is proof, name
        if not isinstance(proof, Statement):
            assert proof_from_json(json.loads(proof.canonical())) is proof, name
    chain = infinite_primes()
    assert infinite_primes() is chain
    assert chain.stripped() is chain.stripped()
    assert ChainStep(Statement(atom("p")), imports=(3, 1)) is ChainStep(
        Statement(atom("p")), imports=(1, 3))
    assert ProofChain(chain.target, chain.steps) is ProofChain(
        chain.target, chain.steps, DefinitionSet())


@pytest.mark.parametrize("cls", [InferenceStep, MachineProof, ChainStep, ProofChain, DefinitionSet],
                         ids=lambda cls: cls.__name__)
def test_unpickling_a_proof_record_returns_the_live_instance(cls):
    chain = inverse_function()
    machine = modus_ponens_example()[1]
    live = {
        InferenceStep: machine.steps[0],
        MachineProof: machine,
        ChainStep: next(s for s in chain.steps if s.subproof is not None),
        ProofChain: chain,
        DefinitionSet: chain.definitions,
    }[cls]
    assert type(live) is cls
    assert pickle.loads(pickle.dumps(live)) is live


def test_parse_dispatches_on_kind():
    docs = PROOF_DOCUMENTS()
    chain = parse_proof_document(json.dumps(docs["infinite_primes"]))
    assert isinstance(chain, ProofChain)
    proof = parse_proof_document(json.dumps(docs["modus_ponens_proof"]))
    assert isinstance(proof, MachineProof)
    stmt = parse_proof_document(json.dumps(docs["modus_ponens_statement"]))
    assert isinstance(stmt, Statement)


def test_parse_defaults_to_statement_kind():
    doc = parse_proof_document('{"conclusion": {"atom": "p"}}')
    assert isinstance(doc, Statement)


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_proof_document("not json at all {")
    with pytest.raises(ParseError):
        parse_proof_document('["a", "list"]')
    with pytest.raises(ParseError):
        parse_proof_document('{"kind": "sonnet", "target": {}}')
    with pytest.raises(ParseError):
        parse_proof_document(b"\xff\xfe garbage bytes")


def test_serialize_then_parse_is_identity_on_shipped_documents():
    for name, doc in PROOF_DOCUMENTS().items():
        parsed = parse_proof_document(json.dumps(doc))
        again = parse_proof_document(serialize_proof_document(parsed))
        assert again == parsed, name


def test_disk_fixtures_match_the_generators_byte_for_byte():
    """fixtures/proofs is generated output; drift means someone edited the
    files by hand or changed a generator without regenerating."""
    docs = PROOF_DOCUMENTS()
    on_disk = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
    assert on_disk == sorted(docs)
    for name, doc in docs.items():
        raw = (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert json.loads(raw) == doc, name


def test_unknown_fields_are_parse_errors_everywhere():
    with pytest.raises(ParseError):
        ProofChain.from_json({"target": {"conclusion": {"atom": "p"}}, "steps": [], "mood": 1})
    with pytest.raises(ParseError):
        MachineProof.from_json({"target": {"conclusion": {"atom": "p"}}, "vibe": 1})
    with pytest.raises(ParseError):
        ChainStep.from_json({"statement": {"conclusion": {"atom": "p"}}, "notes": ""})
    with pytest.raises(ParseError):
        InferenceStep.from_json({"formula": {"atom": "p"}, "rule": "assumption", "x": 1})


@pytest.mark.parametrize("rule", [5, None])
def test_an_inference_rule_that_is_not_a_string_is_a_parse_error(rule):
    with pytest.raises(ParseError) as caught:
        InferenceStep.from_json({"formula": {"atom": "p"}, "rule": rule})
    assert str(caught.value) == f"inference step rule must be a string, got {rule!r}"


# -- height and stripping ------------------------------------------------------


def test_height_counts_nested_chains():
    assert identity_chain(Statement(conclusion=atom("p"))).height() == 1
    assert infinite_primes().height() == 2
    assert inverse_function().height() == 3
    _, machine = modus_ponens_example()
    assert machine.height() == 1


def _nested(proof, height):
    """`proof` under one-step chains of its own target, `height` deep in all."""
    while proof.height() < height:
        proof = ProofChain(target=proof.target,
                           steps=(ChainStep(statement=proof.target, subproof=proof),))
    return proof


@pytest.mark.parametrize("bottom", ["chain", "machine"])
def test_proofs_decode_at_most_max_proof_depth_deep(bottom):
    target = Statement(conclusion=atom("p"), assumptions=frozenset({atom("p")}))
    inner = (identity_chain(target) if bottom == "chain"
             else MachineProof(target, (InferenceStep(atom("p"), "assumption", (-1,)),)))
    deepest = _nested(inner, MAX_PROOF_DEPTH)
    assert proof_from_json(json.loads(deepest.canonical())) == deepest
    assert parse_proof_document(serialize_proof_document(deepest)) == deepest
    too_deep = _nested(deepest, MAX_PROOF_DEPTH + 1)
    with pytest.raises(ParseError, match="^document nested too deeply$"):
        proof_from_json(json.loads(too_deep.canonical()))
    with pytest.raises(ParseError, match="^document nested too deeply$"):
        parse_proof_document(serialize_proof_document(too_deep))


def test_stripped_removes_subproofs_but_keeps_structure():
    tree = inverse_function()
    flat = tree.stripped()
    assert flat.height() == 1
    assert flat.target == tree.target
    assert [s.statement for s in flat.steps] == [s.statement for s in tree.steps]
    assert [s.imports for s in flat.steps] == [s.imports for s in tree.steps]
    assert all(s.subproof is None for s in flat.steps)
    # stripping is a copy, not an edit
    assert tree.steps[0].subproof is not None


def test_stripping_a_chain_without_subproofs_returns_it_unchanged():
    for chain in (identity_chain(Statement(conclusion=atom("p"))), inverse_function().stripped()):
        assert chain.stripped() is chain


def test_stripping_drops_a_subproof_on_any_step():
    tree = inverse_function()
    last = tree.steps[-1]
    steps = [ChainStep(statement=s.statement, imports=s.imports) for s in tree.steps[:-1]]
    partial = ProofChain(
        target=tree.target,
        steps=(*steps, ChainStep(last.statement, last.imports, infinite_primes())),
        definitions=tree.definitions,
    )
    flat = partial.stripped()
    assert flat is not partial and flat.height() == 1
    assert flat == tree.stripped()


# -- length --------------------------------------------------------------------


def test_token_counts_match_the_raw_json_oracle():
    for name, doc in PROOF_DOCUMENTS().items():
        parsed = parse_proof_document(json.dumps(doc))
        if isinstance(parsed, Statement):
            continue
        length = measure_length(parsed)
        assert length == oracles.token_count(doc) and type(length) is int, name


def test_measure_excludes_target_and_subproofs():
    tree = infinite_primes()
    assert measure_length(tree) == measure_length(tree.stripped())
    lone = identity_chain(Statement(conclusion=atom("very_long_target_name")))
    # one step restating the target: the statement is billed, the target is not
    assert measure_length(lone) == 1


def test_definitions_are_billed_per_import_name_and_formula_token():
    bare = identity_chain(Statement(conclusion=atom("p")))
    definitions = DefinitionSet(
        symbols=(("short", conj(atom("p"), atom("p"))), ("other", atom("q"))),
        imports=("arith", "sets"),
    )
    defined = ProofChain(target=bare.target, steps=bare.steps, definitions=definitions)
    # arith, sets, short, and, p, p, other, q
    assert measure_length(defined) - measure_length(bare) == 8


# -- validate_chain, one violation code at a time ------------------------------


def _stmt(conclusion, assumptions=(), context="demo"):
    return Statement(
        conclusion=conclusion, assumptions=frozenset(assumptions), context=context
    )


def test_validator_accepts_the_classic_fixtures():
    for chain in (infinite_primes(), polynomial_root(), inverse_function()):
        report = validate_chain(chain.target, chain, level_limit=chain.height())
        assert report.ok, str(report)
    assert str(validate_chain(infinite_primes().target, infinite_primes(), 2)) == "ok"


def test_target_mismatch():
    chain = identity_chain(_stmt(atom("p")))
    other = _stmt(atom("q"))
    report = validate_chain(other, chain)
    assert "target mismatch" in codes(report)


def test_conclusion_mismatch():
    target = _stmt(atom("p"))
    chain = ProofChain(target=target, steps=(ChainStep(statement=_stmt(atom("q"))),))
    report = validate_chain(target, chain)
    assert "conclusion mismatch" in codes(report)
    assert "step 1" in report.violations[-1].path


def test_import_out_of_range():
    doc = polynomial_root_broken_import()
    chain = ProofChain.from_json(doc)
    report = validate_chain(chain.target, chain, level_limit=2)
    assert "import out of range" in codes(report)


def test_assumption_mismatch_reports_missing_and_extra():
    target = _stmt(atom("p"), assumptions=[atom("a")])
    bad_step = Statement(
        conclusion=atom("p"), assumptions=frozenset({atom("b")}), context="demo"
    )
    report = validate_chain(target, ProofChain(target=target, steps=(ChainStep(statement=bad_step),)))
    mismatches = [v for v in report.violations if v.code == "assumption mismatch"]
    assert mismatches and "missing" in mismatches[0].detail and "extra" in mismatches[0].detail


def test_import_adds_the_imported_conclusion_to_expectations():
    target = _stmt(atom("goal"), assumptions=[atom("a")])
    lemma = _stmt(atom("lemma"), assumptions=[atom("a")])
    final_good = Statement(
        conclusion=atom("goal"),
        assumptions=frozenset({atom("a"), atom("lemma")}),
        context="demo",
    )
    good = ProofChain(
        target=target,
        steps=(ChainStep(statement=lemma), ChainStep(statement=final_good, imports=(1,))),
    )
    assert validate_chain(target, good).ok
    # same chain without declaring the import: the lemma assumption is now "extra"
    undeclared = ProofChain(
        target=target,
        steps=(ChainStep(statement=lemma), ChainStep(statement=final_good)),
    )
    assert "assumption mismatch" in codes(validate_chain(target, undeclared))


def test_context_mismatch():
    target = _stmt(atom("p"), context="arith")
    step = _stmt(atom("p"), context="geometry")
    report = validate_chain(target, ProofChain(target=target, steps=(ChainStep(statement=step),)))
    assert "context mismatch" in codes(report)


def test_undeclared_symbol_in_step_target_and_definition():
    ghost = sym("ghost")
    target = _stmt(ghost)
    chain = ProofChain(target=target, steps=(ChainStep(statement=target),))
    report = validate_chain(target, chain)
    assert codes(report).count("undeclared symbol") == 2  # target and step

    declared = ProofChain(
        target=target,
        steps=(ChainStep(statement=target),),
        definitions=DefinitionSet(symbols=(("ghost", atom("p")),)),
    )
    assert validate_chain(target, declared).ok

    # a definition may not lean on a later (or missing) symbol
    leaning = ProofChain(
        target=target,
        steps=(ChainStep(statement=target),),
        definitions=DefinitionSet(symbols=(("ghost", sym("later")), ("later", atom("p")))),
    )
    assert "undeclared symbol" in codes(validate_chain(target, leaning))


def test_shadowed_symbol_against_ambient_scope():
    target = _stmt(atom("p"))
    chain = ProofChain(
        target=target,
        steps=(ChainStep(statement=target),),
        definitions=DefinitionSet(symbols=(("outer", atom("p")),)),
    )
    report = validate_chain(target, chain, ambient=frozenset({"outer"}))
    assert "shadowed symbol" in codes(report)
    assert validate_chain(target, chain).ok


def test_subproof_too_deep_at_the_bottom_level():
    target = _stmt(atom("p"))
    inner = identity_chain(target)
    chain = ProofChain(target=target, steps=(ChainStep(statement=target, subproof=inner),))
    report = validate_chain(target, chain, level_limit=1)
    assert "subproof too deep" in codes(report)
    assert validate_chain(target, chain, level_limit=2).ok


def test_machine_subproof_must_target_its_step():
    target = _stmt(atom("p"))
    stray = MachineProof(target=_stmt(atom("q")))
    chain = ProofChain(target=target, steps=(ChainStep(statement=target, subproof=stray),))
    report = validate_chain(target, chain, level_limit=1)
    assert "target mismatch" in codes(report)
    assert "subproof" in report.violations[0].path


def test_level_limit_must_be_positive():
    target = _stmt(atom("p"))
    with pytest.raises(ValueError):
        validate_chain(target, identity_chain(target), level_limit=0)


def test_violation_rendering_mentions_path_and_code():
    doc = polynomial_root_broken_import()
    chain = ProofChain.from_json(doc)
    report = validate_chain(chain.target, chain, level_limit=2)
    text = str(report)
    assert "step 3" in text and "import out of range" in text


# -- property tests -------------------------------------------------------------


@st.composite
def tiny_statements(draw):
    pool = [atom(n) for n in "abcd"]
    assumptions = draw(st.sets(st.sampled_from(pool), max_size=3))
    conclusion = draw(st.sampled_from(pool))
    return Statement(
        conclusion=conclusion, assumptions=frozenset(assumptions), context="prop"
    )


@given(tiny_statements())
def test_identity_chain_always_validates(stmt):
    assert validate_chain(stmt, identity_chain(stmt)).ok


@given(tiny_statements(), st.randoms(use_true_random=False))
def test_random_mutations_never_validate_silently(stmt, rng):
    """Any single structural mutation of a valid identity chain must trip at
    least one check (the acceptance suite does this at scale on the shipped
    fixtures; this is the quick local version)."""
    doc = oracles.document_json(identity_chain(stmt))
    kind, mutated = oracles.mutate_chain(doc, rng)
    chain = ProofChain.from_json(mutated)
    report = validate_chain(chain.target, chain, level_limit=chain.height())
    assert not report.ok, kind


# -- canonical text ---------------------------------------------------------------

# Names, rules, contexts and imports with the characters JSON must escape,
# control characters and non-ASCII text, next to anything else UTF-8 can
# encode below the surrogates (a lone surrogate cannot be written to a
# document).
_NASTY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ζ", "\u2028", "😀"])
_TEXT = st.text(st.one_of(_NASTY, st.characters(max_codepoint=0xD7FF)), min_size=1, max_size=4)
_CONTEXTS = st.one_of(st.just(""), _TEXT)
_FORMULAS = st.recursive(
    st.one_of(st.builds(atom, _TEXT), st.builds(sym, _TEXT)),
    lambda sub: st.one_of(
        st.builds(neg, sub), st.builds(conj, sub, sub), st.builds(disj, sub, sub),
        st.builds(impl, sub, sub),
    ),
    max_leaves=3,
)
_STATEMENTS = st.builds(
    Statement, _FORMULAS, st.frozensets(_FORMULAS, max_size=2), _CONTEXTS
)
_DEFINITIONS = st.builds(
    DefinitionSet,
    st.lists(st.tuples(_TEXT, _FORMULAS), max_size=2, unique_by=lambda pair: pair[0]).map(tuple),
    st.lists(_CONTEXTS, max_size=2).map(tuple),
)
_INFERENCE_STEPS = st.builds(
    InferenceStep, _FORMULAS, _TEXT, st.lists(st.integers().filter(bool), max_size=2).map(tuple)
)
_MACHINE_PROOFS = st.builds(MachineProof, _STATEMENTS, st.lists(_INFERENCE_STEPS, max_size=2).map(tuple))


def _chain_steps(subproofs):
    return st.builds(
        ChainStep,
        _STATEMENTS,
        st.lists(st.integers(), max_size=2, unique=True).map(tuple),
        st.one_of(st.none(), subproofs),
    )


# Chains whose steps carry no subproof, a machine proof or a nested chain.
_PROOFS = st.recursive(
    _MACHINE_PROOFS,
    lambda sub: st.builds(
        ProofChain, _STATEMENTS, st.lists(_chain_steps(sub), min_size=1, max_size=2).map(tuple),
        _DEFINITIONS,
    ),
    max_leaves=4,
)
_DOCUMENTS = st.one_of(
    _STATEMENTS, _DEFINITIONS, _INFERENCE_STEPS, _MACHINE_PROOFS, _chain_steps(_PROOFS), _PROOFS
)


@settings(max_examples=60, deadline=None)
@given(_DOCUMENTS)
def test_canonical_text_is_the_canonical_json_of_the_field_encoding(doc):
    reference = oracles.document_json(doc)
    assert doc.canonical() == canonical_json(reference)
    if isinstance(doc, (Statement, ProofChain, MachineProof)):
        if isinstance(doc, Statement):
            reference = {**reference, "kind": "statement"}
        data = serialize_proof_document(doc)
        assert data == canonical_json(reference).encode("utf-8")
        assert parse_proof_document(data) == doc


@settings(max_examples=60, deadline=None)
@given(_PROOFS)
def test_measure_length_is_the_length_of_the_oracle_token_stream(proof):
    # built and decoded alike: each formula and statement counts its own
    # tokens once, and neither subproofs nor the target are billed
    doc = oracles.document_json(proof)
    decoded = proof_from_json(json.loads(proof.canonical()))
    assert measure_length(proof) == measure_length(decoded) == oracles.token_count(doc)


@settings(max_examples=40, deadline=None)
@given(_STATEMENTS)
def test_statement_hash_is_the_content_hash_of_the_field_encoding(statement):
    assert statement.hash() == content_hash(oracles.document_json(statement))


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_serialize_inverts_parse_on_the_fixture_files(path):
    # Each fixture file is a canonical document plus a final newline.
    raw = path.read_bytes()
    assert serialize_proof_document(parse_proof_document(raw)) + b"\n" == raw


# -- decoding each restated statement once ----------------------------------------

# Raw formulas: a variation replaces one with another, or a name with
# `true` or `1`, which `True == 1` makes equal to each other.
_RAW_FORMULAS = st.recursive(
    st.sampled_from([{"atom": "p"}, {"atom": "q"}, {"sym": "s"}]),
    lambda sub: st.one_of(
        st.builds(lambda f: {"not": f}, sub),
        st.builds(lambda op, a, b: {op: [a, b]}, st.sampled_from(["and", "or", "imp"]), sub, sub),
    ),
    max_leaves=3,
)
_RAW_STATEMENTS = st.fixed_dictionaries(
    {"conclusion": _RAW_FORMULAS},
    optional={"assumptions": st.lists(_RAW_FORMULAS, max_size=3), "context": st.just("c")},
)
_VARIATIONS = ("equal", "equal", "equal", "key-order", "formula", "assumption-order",
               "duplicate", "true", "one", "extra-field")


def _with_name(doc, name):
    """A copy of the raw formula `doc` whose first leaf name is `name`."""
    [(op, body)] = doc.items()
    if isinstance(body, dict):
        return {op: _with_name(body, name)}
    if isinstance(body, list):
        return {op: [_with_name(body[0], name), body[1]]}
    return {op: name}


@st.composite
def _restatement(draw, statement, conclusion=None):
    """A copy of the raw `statement` (with `conclusion`, if given), equal or
    varied by one of `_VARIATIONS`."""
    out = copy.deepcopy(statement)
    if conclusion is not None:
        out["conclusion"] = conclusion
    how = draw(st.sampled_from(_VARIATIONS))
    assumptions = out.get("assumptions")
    if how == "key-order":
        out = dict(reversed(list(out.items())))
    elif how == "formula":
        if assumptions:
            assumptions[draw(st.integers(0, len(assumptions) - 1))] = draw(_RAW_FORMULAS)
        else:
            out["assumptions"] = [draw(_RAW_FORMULAS)]
    elif how == "assumption-order" and assumptions:
        assumptions.reverse()
    elif how == "duplicate" and assumptions:
        assumptions.append(copy.deepcopy(assumptions[0]))
    elif how in ("true", "one"):
        name = True if how == "true" else 1
        if assumptions:
            assumptions[0] = _with_name(assumptions[0], name)
        else:
            out["conclusion"] = _with_name(out["conclusion"], name)
    elif how == "extra-field":
        out["note"] = 1
    return out


@st.composite
def _restating_chains(draw, target=None, depth=2):
    """A raw chain whose steps restate its target's assumptions and whose
    subproofs restate their steps' statements, each equal or varied."""
    if target is None:
        target = draw(_RAW_STATEMENTS)
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        statement = draw(_restatement(target, draw(st.none() | _RAW_FORMULAS)))
        step = {"statement": statement}
        imports = draw(st.sampled_from([None, [], [1], [True]]))
        if imports is not None:
            step["imports"] = imports
        roll = draw(st.integers(0, 2 if depth > 1 else 1))
        if roll == 1:
            step["subproof"] = {
                "kind": "machine_proof",
                "target": draw(_restatement(statement)),
                "steps": [{"formula": draw(_RAW_FORMULAS), "rule": "assumption", "premises": [-1]}],
            }
        elif roll == 2:
            step["subproof"] = draw(_restating_chains(draw(_restatement(statement)), depth - 1))
        steps.append(step)
    return {"kind": "chain", "target": target, "steps": steps}


def _assert_each_part_decodes_alone(proof, doc):
    """Each statement of `proof` is the statement its raw part decodes to on
    its own."""
    assert proof.target is Statement.from_json(doc["target"])
    if isinstance(proof, MachineProof):
        return
    for step, step_doc in zip(proof.steps, doc["steps"], strict=True):
        assert step.statement is Statement.from_json(step_doc["statement"])
        if step.subproof is not None:
            _assert_each_part_decodes_alone(step.subproof, step_doc["subproof"])


@settings(max_examples=300, deadline=None)
@given(_restating_chains())
def test_decoding_restated_statements_once_changes_no_value_and_no_error(doc):
    try:
        reference = oracles.decode_alone(copy.deepcopy(doc))
    except (ParseError, RecursionError) as exc:
        with pytest.raises(type(exc)) as raised:
            proof_from_json(doc)
        assert str(raised.value) == str(exc)
        return
    proof = proof_from_json(doc)
    assert proof is reference
    _assert_each_part_decodes_alone(proof, doc)
    assert parse_proof_document(json.dumps(doc)) is reference


def _count_decodes(monkeypatch):
    """Counters of the statements decoded (each `read_object` of one) and
    of the formulas decoded at the top of a formula, from now on."""
    counts = {"statements": 0, "formulas": 0}
    read_object, formula_from_json = formulas.read_object, formulas._formula_from_json

    def counted_read_object(value, name, *args):
        counts["statements"] += name == "statement"
        return read_object(value, name, *args)

    def counted_formula(doc, levels):
        counts["formulas"] += levels == formulas.MAX_FORMULA_DEPTH
        return formula_from_json(doc, levels)

    monkeypatch.setattr(formulas, "read_object", counted_read_object)
    monkeypatch.setattr(formulas, "_formula_from_json", counted_formula)
    return counts


def test_a_cold_parse_of_the_wide_document_decodes_each_restated_statement_once(monkeypatch):
    # The k = 16 wide tree: a root chain of 16 steps, each carried by a
    # 16-step subchain whose steps carry machine proofs. All 272 subproofs
    # restate their step's statement, and every step without imports (the
    # first root step and all 256 substeps) restates its target's
    # assumptions: neither is decoded again.
    from workloads import wide_tree

    data = serialize_proof_document(wide_tree(16, 0))
    gc.collect()
    counts = _count_decodes(monkeypatch)
    chain = parse_proof_document(data)
    steps = [step for root_step in chain.steps for step in (root_step, *root_step.subproof.steps)]
    assert len(steps) == 272 and all(step.subproof is not None for step in steps)
    with_imports = [step for step in steps if step.imports]
    assert len(with_imports) == 15
    inferences = sum(len(step.subproof.steps) for step in steps
                     if isinstance(step.subproof, MachineProof))
    # one statement for the root target and one per step; no subproof target
    assert counts["statements"] == 1 + 272 == 545 - 272
    # every conclusion, the root target's assumptions, the assumptions of
    # each step with imports, and every inference formula
    assumptions = len(chain.target.assumptions) + sum(
        len(step.statement.assumptions) for step in with_imports)
    assert assumptions == 2 + 15 * 3
    assert counts["formulas"] == 273 + assumptions + inferences
    for root_step in chain.steps:
        sub = root_step.subproof
        assert sub.target is root_step.statement
        for step in sub.steps:
            assert step.subproof.target is step.statement
            assert step.statement.assumptions is sub.target.assumptions


# -- validation with memoized symbols -------------------------------------------


def _validation_case(rng):
    chain = oracles.symbol_chain(rng)
    level_limit = rng.randint(1, 3)
    ambient = frozenset(rng.sample(oracles._SYMBOL_NAMES, rng.randint(0, 2)))
    return chain, level_limit, ambient


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_validation_with_memoized_symbols_reports_what_walking_them_reports(rng):
    chain, level_limit, ambient = _validation_case(rng)
    report = validate_chain(chain.target, chain, level_limit, ambient)
    assert [tuple(v) for v in report.violations] == oracles.validate_walking(
        chain.target, chain, level_limit, ambient)


_HASH_SEED_CHILD = """
import random, sys
sys.path[:0] = sys.argv[1:]
import oracles
from sprig.proofs import validate_chain
from test_proofs import _validation_case
for seed in range(300):
    chain, level_limit, ambient = _validation_case(random.Random(seed))
    report = validate_chain(chain.target, chain, level_limit, ambient)
    walked = oracles.validate_walking(chain.target, chain, level_limit, ambient)
    assert [tuple(v) for v in report.violations] == walked, seed
    print(report)
"""


def test_validation_output_does_not_depend_on_the_hash_seed():
    # Symbol sets are frozensets, whose order follows string hashes; the
    # report must not.
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    outputs = [
        subprocess.run([sys.executable, "-c", _HASH_SEED_CHILD, *paths], check=True,
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("undeclared symbol") > 300


# -- nested proofs name their kind ----------------------------------------------


def _with_kind(doc, kind):
    out = {key: value for key, value in doc.items() if key != "kind"}
    return out if kind is None else {**out, "kind": kind}


@pytest.mark.parametrize("kind", ["banana", None, 1, "statement"],
                         ids=["banana", "missing", "integer", "statement"])
def test_a_nested_proof_of_no_proof_kind_is_a_parse_error(kind):
    message = f"^nested proof kind must be chain or machine_proof, got {kind!r}$"
    doc = json.loads(serialize_proof_document(infinite_primes()))
    # the answer to a move log's question is a nested proof
    with pytest.raises(ParseError, match=message):
        proof_from_json(_with_kind(doc, kind))
    # and so is a subproof
    j = next(j for j, step in enumerate(doc["steps"]) if "subproof" in step)
    doc["steps"][j]["subproof"] = _with_kind(doc["steps"][j]["subproof"], kind)
    with pytest.raises(ParseError, match=message):
        parse_proof_document(json.dumps(doc))
    with pytest.raises(ParseError, match=message):
        proof_from_json(doc)


@pytest.mark.parametrize("kind", ["machine_proof", "banana", None],
                         ids=["machine-proof", "banana", "missing"])
def test_a_chain_read_from_another_record_must_name_the_chain_kind(kind):
    doc = json.loads(serialize_proof_document(infinite_primes()))
    assert chain_from_json(doc) is infinite_primes()
    with pytest.raises(ParseError, match=f"^nested proof kind must be chain, got {kind!r}$"):
        chain_from_json(_with_kind(doc, kind))
