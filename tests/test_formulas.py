"""Formula and statement layer: construction, serialization, token counts."""

import json
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from sprig.formulas import (
    MAX_FORMULA_DEPTH,
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
    nested_too_deeply,
    parse_json,
    sym,
)

import oracles


def formulas(
    max_leaves: int = 6, atoms: str = "pqrst", syms: tuple[str, ...] = ("zeta", "shorthand")
) -> st.SearchStrategy[Formula]:
    leaves = st.one_of(st.sampled_from(atoms).map(atom), st.sampled_from(syms).map(sym))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(neg),
            st.tuples(sub, sub).map(lambda ab: conj(*ab)),
            st.tuples(sub, sub).map(lambda ab: disj(*ab)),
            st.tuples(sub, sub).map(lambda ab: impl(*ab)),
        ),
        max_leaves=max_leaves,
    )


def test_constructors_build_the_documented_shapes():
    assert atom("p").canonical() == '{"atom":"p"}'
    assert sym("zeta").canonical() == '{"sym":"zeta"}'
    assert neg(atom("p")).canonical() == '{"not":{"atom":"p"}}'
    assert conj(atom("p"), atom("q")).canonical() == '{"and":[{"atom":"p"},{"atom":"q"}]}'
    assert disj(atom("p"), atom("q")).canonical() == '{"or":[{"atom":"p"},{"atom":"q"}]}'
    assert impl(atom("p"), atom("q")).canonical() == '{"imp":[{"atom":"p"},{"atom":"q"}]}'


def test_malformed_formulas_are_rejected_at_construction():
    with pytest.raises(ParseError):
        Formula("xor", args=(atom("p"), atom("q")))
    with pytest.raises(ParseError):
        Formula("and", args=(atom("p"),))
    with pytest.raises(ParseError):
        Formula("not", args=(atom("p"), atom("q")))
    with pytest.raises(ParseError):
        Formula("atom", name="")
    with pytest.raises(ParseError):
        Formula("atom", name="p", args=(atom("q"),))


def test_from_json_rejects_junk_documents():
    for bad in (
        [],
        "p",
        {},
        {"atom": "p", "sym": "q"},
        {"atom": 3},
        {"and": [{"atom": "p"}]},
        {"and": {"atom": "p"}},
        {"xor": [{"atom": "p"}, {"atom": "q"}]},
    ):
        with pytest.raises(ParseError):
            Formula.from_json(bad)


def _nested_not(levels):
    """A formula document `levels` deep, the atom included."""
    doc = {"atom": "p"}
    for _ in range(levels - 1):
        doc = {"not": doc}
    return doc


def test_from_json_bounds_the_nesting_depth():
    deepest = _nested_not(MAX_FORMULA_DEPTH)
    assert Formula.from_json(deepest).canonical() == canonical_json(deepest)
    for doc in (_nested_not(MAX_FORMULA_DEPTH + 1), {"and": [{"atom": "q"}, deepest]}):
        with pytest.raises(ParseError, match="nested too deeply"):
            Formula.from_json(doc)


def _wrapped(formula, levels):
    for _ in range(levels):
        formula = neg(formula)
    return formula


def test_nested_too_deeply_is_what_from_json_refuses():
    shared = _wrapped(atom("p"), 4)
    deepest = _wrapped(shared, MAX_FORMULA_DEPTH - 5)
    # `shared` is first reached one level down, then again at the bottom of
    # `deepest`, where one level more is too deep: in either order of the
    # arguments, the deeper path counts.
    for f, too_deep in [
        (deepest, False), (conj(deepest, shared), True), (conj(shared, deepest), True),
        (neg(deepest), True), (conj(atom("q"), atom("r")), False),
    ]:
        assert nested_too_deeply([atom("q"), f]) is too_deep
        if too_deep:
            with pytest.raises(ParseError, match="nested too deeply"):
                Formula.from_json(oracles.document_json(f))
        else:
            assert Formula.from_json(oracles.document_json(f)) is f
    # Each subformula is entered once per depth it is reached at, so a tree
    # of 2^99 paths is judged at once.
    doubled = atom("p")
    for _ in range(MAX_FORMULA_DEPTH - 1):
        doubled = conj(doubled, doubled)
    assert not nested_too_deeply([doubled])
    assert nested_too_deeply([conj(doubled, doubled)])


@given(formulas())
def test_formula_json_round_trip(f):
    assert Formula.from_json(oracles.document_json(f)) == f


@pytest.mark.parametrize(
    "doc, message",
    [
        (_nested_not(MAX_FORMULA_DEPTH + 1), "document nested too deeply"),
        (
            {"atom": "p", "sym": "q"},
            "formula must be a single-key object, got {'atom': 'p', 'sym': 'q'}",
        ),
        ({"and": [{"atom": "p"}]}, "and takes a two-element array"),
        ({"atom": 3}, "atom name must be a string"),
        ({"xor": [{"atom": "p"}, {"atom": "q"}]}, "unknown connective 'xor'"),
        ({"not": {"sym": []}}, "sym name must be a string"),
        ({"or": [{"atom": "p"}, {"atom": ""}]}, "atom formula needs a name and no arguments"),
    ],
    ids=["too-deep", "two-keys", "one-element-and", "integer-atom", "unknown-connective",
         "nested-list-sym", "empty-name"],
)
def test_decode_errors_name_what_is_wrong(doc, message):
    with pytest.raises(ParseError) as caught:
        Formula.from_json(doc)
    assert str(caught.value) == message


def _rebuilt(f):
    """An equal formula built through the constructor, sharing no node with `f`."""
    return Formula(f.op, f.name, tuple(_rebuilt(a) for a in f.args))


@given(formulas())
def test_formula_size_is_the_length_of_the_oracle_token_stream(f):
    """The memoized count and the raw-dict oracle must agree, for built and
    for decoded formulas, or length charges would depend on the code path."""
    expected = len(list(oracles.formula_tokens(oracles.document_json(f))))
    decoded = Formula.from_json(json.loads(f.canonical()))
    assert f.size() == decoded.size() == expected
    assert f.size() is f.size() and type(f.size()) is int


@given(formulas())
def test_equal_formulas_hash_equal_whether_decoded_or_built(f):
    # one instance per value: decoding or rebuilding a live formula returns it
    decoded, rebuilt = Formula.from_json(oracles.document_json(f)), _rebuilt(f)
    assert decoded is f and rebuilt is f
    assert decoded == f == rebuilt and hash(decoded) == hash(f) == hash(rebuilt)


def test_str_rendering_spot_checks():
    f = impl(conj(atom("p"), neg(atom("q"))), disj(atom("r"), sym("zeta")))
    assert str(f) == "((p & ~q) -> (r | zeta))"


def test_symbols_yields_only_sym_leaves():
    f = conj(atom("p"), impl(sym("zeta"), neg(sym("eta"))))
    assert sorted(f.symbols()) == ["eta", "zeta"]
    assert list(atom("p").symbols()) == []


def test_canonical_json_is_key_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_content_hash_is_stable_across_processes():
    # frozen once; a change here breaks every persisted payload hash
    assert content_hash({"atom": "p"}) == (
        "e8f58b64e1aaaeac46d5780788e650e96802ba01c0d944f72b50cc142443caf9"
    )
    assert content_hash({"conclusion": {"atom": "p"}}) == (
        "72424644002bf838851ea7c572baf5ed664381b929999a41f363ff03944cb05f"
    )


def test_statement_assumption_order_is_canonical():
    p, q = atom("p"), atom("q")
    s1 = Statement(conclusion=p, assumptions=frozenset({q, impl(p, q)}))
    s2 = Statement(conclusion=p, assumptions=frozenset({impl(p, q), q}))
    assert s1.sorted_assumptions() == s2.sorted_assumptions()
    assert s1.canonical() == s2.canonical()
    assert s1.hash() == s2.hash()


def test_statement_json_round_trip_and_context_default():
    s = Statement(
        conclusion=conj(atom("p"), atom("q")),
        assumptions=frozenset({atom("p")}),
        context="demo",
    )
    assert Statement.from_json(json.loads(s.canonical())) == s
    bare = Statement(conclusion=atom("p"))
    assert "context" not in json.loads(bare.canonical())
    assert Statement.from_json(json.loads(bare.canonical())).context == ""


def test_statement_rejects_unknown_fields_and_missing_conclusion():
    with pytest.raises(ParseError):
        Statement.from_json({"conclusion": {"atom": "p"}, "goal": 1})
    with pytest.raises(ParseError):
        Statement.from_json({"assumptions": []})
    with pytest.raises(ParseError):
        Statement.from_json({"conclusion": {"atom": "p"}, "assumptions": {"atom": "q"}})
    with pytest.raises(ParseError):
        Statement.from_json({"conclusion": {"atom": "p"}, "context": 7})
    with pytest.raises(ParseError):
        Statement.from_json("not an object")


@given(st.sets(formulas(max_leaves=3), max_size=3), formulas(max_leaves=3))
def test_statement_size_is_the_length_of_the_oracle_token_stream(assumptions, conclusion):
    s = Statement(conclusion=conclusion, assumptions=frozenset(assumptions))
    doc = oracles.document_json(s)
    expected = len(list(oracles.statement_tokens(doc)))
    assert s.size() == Statement.from_json(doc).size() == expected


def test_definition_set_duplicate_symbol_rejected():
    with pytest.raises(ParseError):
        DefinitionSet(symbols=(("s", atom("p")), ("s", atom("q"))))


def test_definition_set_round_trip():
    d = DefinitionSet(
        symbols=(("short", conj(atom("p"), atom("p"))), ("other", atom("q"))),
        imports=("arith", "sets"),
    )
    assert DefinitionSet.from_json(json.loads(d.canonical())) == d
    assert d.names() == frozenset({"short", "other"})


def test_definition_set_parse_errors():
    with pytest.raises(ParseError):
        DefinitionSet.from_json({"symbols": [["only_name"]]})
    with pytest.raises(ParseError):
        DefinitionSet.from_json({"imports": [1]})
    with pytest.raises(ParseError):
        DefinitionSet.from_json({"extra": []})
    with pytest.raises(ParseError):
        DefinitionSet.from_json([])


def test_hash_distinguishes_assumption_from_conclusion_role():
    p, q = atom("p"), atom("q")
    a = Statement(conclusion=p, assumptions=frozenset({q}))
    b = Statement(conclusion=q, assumptions=frozenset({p}))
    assert a.hash() != b.hash()


def test_canonical_json_is_valid_json_with_unicode_preserved():
    doc = {"atom": "størrelse"}
    assert json.loads(canonical_json(doc)) == doc


# -- memoized encodings --------------------------------------------------------


# Leaf names no other test or module builds with, so that no object outside
# the test holds a statement the test builds, and dropping it frees it.
_UNSHARED = formulas(max_leaves=3, atoms=("memo_a", "memo_b", "memo_c"), syms=("memo_s",))


@given(st.sets(_UNSHARED, max_size=3), _UNSHARED, st.sampled_from(["", "demo"]))
def test_memoized_encodings_equal_a_fresh_computation(assumptions, conclusion, context):
    s = Statement(conclusion=conclusion, assumptions=frozenset(assumptions), context=context)
    memo = (s.hash(), s.sorted_assumptions(), [f.canonical() for f in s.sorted_assumptions()])
    doc, gone = oracles.document_json(s), weakref.ref(s)
    del s
    assert gone() is None
    # decoded once the first statement is gone: a new object, whose memos
    # are computed afresh
    twin = Statement.from_json(doc)
    assert "_hash_memo" not in vars(twin) and "_sorted_assumptions_memo" not in vars(twin)
    fresh = (twin.hash(), twin.sorted_assumptions(), [f.canonical() for f in twin.sorted_assumptions()])
    assert memo == fresh
    # and the uncached definitions, spelled out
    order = sorted(twin.assumptions, key=lambda f: canonical_json(oracles.document_json(f)))
    assert memo == (
        content_hash(oracles.document_json(twin)),
        tuple(order),
        [canonical_json(oracles.document_json(f)) for f in order],
    )


def _sample_statement():
    return Statement(
        conclusion=impl(atom("p"), sym("zeta")),
        assumptions=frozenset({atom("p"), neg(atom("q")), disj(atom("r"), atom("s"))}),
        context="demo",
    )


def test_a_filled_memo_is_invisible_to_equality_hashing_repr_fields_and_pickle():
    s = _sample_statement()
    shown = (repr(s), hash(s), s._asdict())
    s.hash()
    for f in s.sorted_assumptions():
        f.canonical()
    assert s == _sample_statement() and (repr(s), hash(s), s._asdict()) == shown
    assert s._fields == ("conclusion", "assumptions", "context")
    # a pickle carries the fields only: unpickled while the statement lives,
    # it is that statement; once it is gone, a new one with empty memos
    data = pickle.dumps(s)
    assert pickle.loads(data) is s
    digest, gone = s.hash(), weakref.ref(s)
    del s
    assert gone() is None
    restored = pickle.loads(data)
    assert "_hash_memo" not in vars(restored) and restored.hash() == digest
    # a copy with other fields is built afresh, not from the old memo
    other = Statement(**{**restored._asdict(), "context": "other"})
    assert other.hash() == content_hash(oracles.document_json(other)) != digest


def test_memoized_methods_return_the_identical_object():
    s = _sample_statement()
    assert s.hash() is s.hash()
    assert s.sorted_assumptions() is s.sorted_assumptions()
    assert s.conclusion.canonical() is s.conclusion.canonical()


# -- hash-consed decoding --------------------------------------------------------


def _named(name_strategy) -> st.SearchStrategy[Formula]:
    leaves = st.one_of(name_strategy.map(atom), name_strategy.map(sym))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(neg), st.tuples(sub, sub).map(lambda ab: conj(*ab))
        ),
        max_leaves=4,
    )


@given(_named(st.text(min_size=1, max_size=6)))
def test_canonical_text_is_the_canonical_json_of_any_formula(f):
    # built from the children's text, with names that need escaping
    assert f.canonical() == canonical_json(oracles.document_json(f))


def test_decoding_shares_one_instance_per_formula():
    doc = {"imp": [{"and": [{"atom": "shared_p"}, {"sym": "shared_z"}]}, {"atom": "shared_p"}]}
    f, g = Formula.from_json(doc), Formula.from_json(json.loads(json.dumps(doc)))
    assert f is g
    assert f.args[0].args[0] is f.args[1]
    assert Formula.from_json({"atom": "shared_p"}) is f.args[1]
    # built or decoded, one instance per value
    assert impl(conj(atom("shared_p"), sym("shared_z")), atom("shared_p")) is f
    # once no object holds the value, it is built afresh
    text, gone = f.canonical(), weakref.ref(f)
    del f, g
    assert gone() is None
    fresh = Formula.from_json(json.loads(text))
    assert "_canonical_memo" not in vars(fresh) and fresh.canonical() == text


def test_decoding_shares_one_instance_per_statement():
    doc = {"assumptions": [{"atom": "q"}, {"atom": "p"}], "conclusion": {"atom": "p"}}
    s = Statement.from_json(doc)
    reordered = {"assumptions": [{"atom": "p"}, {"atom": "q"}, {"atom": "p"}],
                 "conclusion": {"atom": "p"}}
    assert Statement.from_json(reordered) is s
    assert s.conclusion in s.assumptions and len(s.assumptions) == 2
    assert Statement.from_json({**doc, "context": "demo"}) is not s
    assert Statement.from_json({**doc, "conclusion": {"atom": "q"}}) is not s
    # built or decoded, one instance per value
    built = Statement(conclusion=atom("p"), assumptions=frozenset({atom("p"), atom("q")}))
    assert built is s


def test_a_statement_takes_its_assumptions_as_a_set():
    # As a tuple they would intern as another value, whose canonical text
    # repeats an assumption that decoding the text merges.
    p, q = atom("p"), atom("q")
    s = Statement(conclusion=p, assumptions=frozenset({p, q}))
    assert Statement(conclusion=p, assumptions=(q, p, p)) is s
    assert Statement.from_json(json.loads(s.canonical())) is s


def test_a_pickled_decoded_formula_still_equals_the_shared_one():
    doc = {"or": [{"not": {"atom": "p"}}, {"sym": "zeta"}]}
    shared = Formula.from_json(doc)
    shared.canonical()
    restored = pickle.loads(pickle.dumps(shared))
    assert restored == shared and hash(restored) == hash(shared)
    assert repr(restored) == repr(shared)
    assert restored.canonical() == shared.canonical()
    assert Formula.from_json(doc) is shared
    statement = Statement.from_json({"assumptions": [doc], "conclusion": doc})
    assert pickle.loads(pickle.dumps(statement)) == statement


def test_unpickling_returns_the_live_instance():
    built = disj(neg(atom("pickled_p")), sym("pickled_z"))
    decoded = Formula.from_json({"imp": [{"atom": "pickled_p"}, {"atom": "pickled_q"}]})
    statements = (
        Statement(conclusion=built, assumptions=frozenset({atom("pickled_p"), decoded})),
        Statement.from_json({"assumptions": [{"atom": "pickled_q"}],
                             "conclusion": {"atom": "pickled_p"}, "context": "demo"}),
    )
    for value in (built, decoded, *statements):
        assert pickle.loads(pickle.dumps(value)) is value


@pytest.mark.parametrize(
    "text, where",
    [
        (r'{"atom":"\ud800"}', r"'\ud800' in $.atom"),
        (r'{"atom":"p\uDFFFq"}', r"'\udfff' in $.atom"),
        (r'{"and":[{"atom":"p"},{"atom":"\udc00\ud800"}]}', r"'\udc00' in $.and[1].atom"),
        (r'{"\udbff":{"atom":"\ud800"}}', r"'\udbff' in a field name of $"),
        (r'["\ud800"]', r"'\ud800' in $[0]"),
    ],
)
def test_the_reader_rejects_a_lone_surrogate_and_names_where_it_sits(text, where):
    with pytest.raises(ParseError) as caught:
        parse_json(text)
    assert str(caught.value) == f"lone surrogate {where}"


@pytest.mark.parametrize(
    "text, value",
    [
        (r'{"atom":"\ud83d\ude00"}', {"atom": "\U0001F600"}),
        (r'{"atom":"\\ud800"}', {"atom": "\\ud800"}),
        (r'{"atom":"\ud7ff"}', {"atom": "\ud7ff"}),
    ],
    ids=["pair", "escaped-backslash", "next-to-the-range"],
)
def test_the_reader_keeps_surrogate_pairs_and_text_that_only_looks_like_one(text, value):
    assert parse_json(text) == value


@pytest.mark.parametrize(
    "text",
    [
        '{"atom":"p"}',
        ' {"atom":"p"}',
        '{"atom":"p"}\n',
        '\ufeff{"atom":"p"}',
        '{"atom":"p"} {"atom":"q"}',
        '{"atom":"p"}x',
        "",
        "   ",
        '{"atom":',
        '{"atom" "p"}',
        "[1,2,]",
        "nul",
        "7",
        '"text"',
        "NaN",
        "[1e400]",
        '{"a":1,"a":2}',
    ],
    ids=[
        "canonical", "leading-space", "trailing-newline", "byte-order-mark", "two-values",
        "trailing-junk", "empty", "blank", "cut-short", "missing-colon", "trailing-comma",
        "bad-literal", "number", "string", "nan", "overflow", "duplicate-key",
    ],
)
def test_the_reader_reads_as_json_loads_does(text):
    # `parse_json` scans a text that starts with a value directly and hands
    # any other to `json.loads`; either way the value or the error is the one
    # `json.loads` gives.
    try:
        expected = ("value", json.loads(text))
    except json.JSONDecodeError as exc:
        expected = ("error", str(exc), exc.pos)
    try:
        got = ("value", parse_json(text))
    except json.JSONDecodeError as exc:
        got = ("error", str(exc), exc.pos)
    assert repr(got) == repr(expected)
