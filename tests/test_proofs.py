"""Chains, machine proofs, their length and the structural validator."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sprig.formulas import (
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
    measure_length,
    parse_proof_document,
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


# -- height and stripping ------------------------------------------------------


def test_height_counts_nested_chains():
    assert identity_chain(Statement(conclusion=atom("p"))).height() == 1
    assert infinite_primes().height() == 2
    assert inverse_function().height() == 3
    _, machine = modus_ponens_example()
    assert machine.height() == 1


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
    doc = identity_chain(stmt).to_json()
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
def test_canonical_text_is_the_canonical_json_of_to_json(doc):
    assert doc.canonical() == canonical_json(doc.to_json())
    if isinstance(doc, (Statement, ProofChain, MachineProof)):
        reference = doc.to_json()
        if isinstance(doc, Statement):
            reference = {**reference, "kind": "statement"}
        assert serialize_proof_document(doc) == canonical_json(reference).encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(_STATEMENTS)
def test_statement_hash_is_the_content_hash_of_to_json(statement):
    assert statement.hash() == content_hash(statement.to_json())


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_serialize_inverts_parse_on_the_fixture_files(path):
    # Each fixture file is a canonical document plus a final newline.
    raw = path.read_bytes()
    assert serialize_proof_document(parse_proof_document(raw)) + b"\n" == raw
