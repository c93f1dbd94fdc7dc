"""The bottom-level kernel: nine rules, diagnostics, scripted verdicts."""

import itertools

import pytest
from hypothesis import given, strategies as st

from sprig.formulas import Statement, atom, conj, disj, impl, neg
from sprig.proofs import InferenceStep, MachineProof
from sprig.scenarios import modus_ponens_example
from sprig.verifier import (
    ScriptedVerifier,
    TOY_RULES,
    ToyVerifier,
    UnscriptedVerdictError,
    Verdict,
)

import oracles

P, Q, R = atom("p"), atom("q"), atom("r")


def proof_of(statement, *steps):
    return MachineProof(target=statement, steps=tuple(steps))


def validated(statement, *steps) -> Verdict:
    return ToyVerifier().verdict(statement, proof_of(statement, *steps))


def test_assumption_rule():
    s = Statement(conclusion=P, assumptions=frozenset({P, Q}))
    assert validated(s, InferenceStep(P, "assumption")).validated
    # deriving something not assumed is step 1's fault
    t = Statement(conclusion=R, assumptions=frozenset({P}))
    v = validated(t, InferenceStep(R, "assumption"))
    assert v == Verdict(False, 1)


def test_and_intro_and_both_elims():
    s = Statement(conclusion=conj(P, Q), assumptions=frozenset({P, Q}))
    v = validated(
        s,
        InferenceStep(P, "assumption"),
        InferenceStep(Q, "assumption"),
        InferenceStep(conj(P, Q), "and_intro", (1, 2)),
    )
    assert v.validated and v.diagnostic is None

    left = Statement(conclusion=P, assumptions=frozenset({conj(P, Q)}))
    assert validated(
        left, InferenceStep(conj(P, Q), "assumption"), InferenceStep(P, "and_elim_left", (1,))
    ).validated
    right = Statement(conclusion=Q, assumptions=frozenset({conj(P, Q)}))
    assert validated(
        right, InferenceStep(conj(P, Q), "assumption"), InferenceStep(Q, "and_elim_right", (1,))
    ).validated
    # elim on the wrong side
    wrong = validated(
        left, InferenceStep(conj(P, Q), "assumption"), InferenceStep(Q, "and_elim_left", (1,))
    )
    assert wrong == Verdict(False, 2)


def test_or_intros():
    s = Statement(conclusion=disj(P, Q), assumptions=frozenset({P}))
    assert validated(
        s, InferenceStep(P, "assumption"), InferenceStep(disj(P, Q), "or_intro_left", (1,))
    ).validated
    t = Statement(conclusion=disj(Q, P), assumptions=frozenset({P}))
    assert validated(
        t, InferenceStep(P, "assumption"), InferenceStep(disj(Q, P), "or_intro_right", (1,))
    ).validated
    sideways = validated(
        s, InferenceStep(P, "assumption"), InferenceStep(disj(P, Q), "or_intro_right", (1,))
    )
    assert sideways == Verdict(False, 2)


def test_impl_elim_premise_order_is_implication_then_antecedent():
    stmt, proof = modus_ponens_example()
    assert ToyVerifier().verdict(stmt, proof).validated
    flipped = MachineProof(
        target=stmt, steps=(InferenceStep(stmt.conclusion, "impl_elim", (-1, -2)),)
    )
    assert ToyVerifier().verdict(stmt, flipped) == Verdict(False, 1)


def test_neg_elim_derives_anything_from_contradiction():
    s = Statement(conclusion=R, assumptions=frozenset({P, neg(P)}))
    v = validated(
        s,
        InferenceStep(P, "assumption"),
        InferenceStep(neg(P), "assumption"),
        InferenceStep(R, "neg_elim", (1, 2)),
    )
    assert v.validated
    # premises must come as (a, not a), not the reverse
    backwards = validated(
        s,
        InferenceStep(P, "assumption"),
        InferenceStep(neg(P), "assumption"),
        InferenceStep(R, "neg_elim", (2, 1)),
    )
    assert backwards == Verdict(False, 3)


def test_double_neg_elim():
    s = Statement(conclusion=P, assumptions=frozenset({neg(neg(P))}))
    assert validated(
        s, InferenceStep(neg(neg(P)), "assumption"), InferenceStep(P, "double_neg_elim", (1,))
    ).validated
    single = Statement(conclusion=P, assumptions=frozenset({neg(P)}))
    v = validated(
        single, InferenceStep(neg(P), "assumption"), InferenceStep(P, "double_neg_elim", (1,))
    )
    assert v == Verdict(False, 2)


def test_unknown_rule_and_wrong_arity_point_at_the_step():
    s = Statement(conclusion=P, assumptions=frozenset({P}))
    assert validated(s, InferenceStep(P, "hand_waving")) == Verdict(False, 1)
    assert validated(s, InferenceStep(P, "assumption", (-1,))) == Verdict(False, 1)


def test_premise_references_must_resolve():
    s = Statement(conclusion=conj(P, P), assumptions=frozenset({P}))
    forward = validated(s, InferenceStep(conj(P, P), "and_intro", (2, 2)))
    assert forward == Verdict(False, 1)
    out_of_assumptions = validated(
        s,
        InferenceStep(P, "assumption"),
        InferenceStep(conj(P, P), "and_intro", (1, -5)),
    )
    assert out_of_assumptions == Verdict(False, 2)


def test_negative_indices_follow_canonical_assumption_order():
    # canonical order sorts {"atom":"p"} before {"imp":[...]}; the shipped
    # example depends on it, so pin the order here too
    stmt, proof = modus_ponens_example()
    assert [s.premises for s in proof.steps] == [(-2, -1)]
    assert stmt.sorted_assumptions()[0] == P


def test_diagnostic_zero_means_wrong_ending():
    s = Statement(conclusion=conj(P, Q), assumptions=frozenset({P, Q}))
    empty = ToyVerifier().verdict(s, MachineProof(target=s))
    assert empty == Verdict(False, 0)
    stops_early = validated(s, InferenceStep(P, "assumption"))
    assert stops_early == Verdict(False, 0)


def test_every_rule_has_a_passing_example():
    """Keep the rule table honest: each registered rule appears in at least
    one validated proof in this module, enumerated here by name."""
    covered = {
        "assumption",
        "and_intro",
        "and_elim_left",
        "and_elim_right",
        "or_intro_left",
        "or_intro_right",
        "impl_elim",
        "neg_elim",
        "double_neg_elim",
    }
    assert covered == set(TOY_RULES)


# -- exhaustive single-step cross-check ---------------------------------------


def _all_single_step_verdicts(statement):
    """Brute force over every rule and premise tuple for a one-step proof."""
    n = len(statement.sorted_assumptions())
    indices = [-(i + 1) for i in range(n)]
    hits = []
    for rule, (arity, _) in TOY_RULES.items():
        for premises in itertools.product(indices, repeat=arity):
            proof = proof_of(statement, InferenceStep(statement.conclusion, rule, premises))
            if ToyVerifier().verdict(statement, proof).validated:
                hits.append((rule, premises))
    return sorted(hits)


SINGLE_STEP_POOL = [
    Statement(conclusion=Q, assumptions=frozenset({P, impl(P, Q)})),
    Statement(conclusion=P, assumptions=frozenset({conj(P, Q)})),
    Statement(conclusion=disj(P, Q), assumptions=frozenset({Q})),
    Statement(conclusion=conj(Q, P), assumptions=frozenset({P, Q})),
    Statement(conclusion=R, assumptions=frozenset({P, neg(P)})),
    Statement(conclusion=P, assumptions=frozenset({neg(neg(P))})),
    Statement(conclusion=R, assumptions=frozenset({P, Q})),  # unprovable in one step
    Statement(conclusion=P, assumptions=frozenset()),
]


@pytest.mark.parametrize("statement", SINGLE_STEP_POOL, ids=lambda s: str(s.conclusion))
def test_single_step_search_agrees_with_kernel(statement):
    oracle = sorted(oracles.single_step_proofs(statement))
    assert oracle == _all_single_step_verdicts(statement)


def test_modus_ponens_is_found_exactly_once():
    stmt, _ = modus_ponens_example()
    found = oracles.single_step_proofs(stmt)
    assert ("impl_elim", (-2, -1)) in found
    assert len([r for r, _ in found if r == "impl_elim"]) == 1


# -- scripted backend ----------------------------------------------------------


def test_scripted_verdicts_by_statement_hash():
    s = Statement(conclusion=P, assumptions=frozenset({P}))
    dummy = MachineProof(target=s)
    assert ScriptedVerifier({s.hash(): True}).verdict(s, dummy) == Verdict(True)
    assert ScriptedVerifier({s.hash(): False}).verdict(s, dummy) == Verdict(False)


def test_scripted_raises_on_unscripted_statements():
    s = Statement(conclusion=P)
    with pytest.raises(UnscriptedVerdictError):
        ScriptedVerifier({}).verdict(s, MachineProof(target=s))


def test_check_defaults_to_the_toy_kernel():
    s = Statement(conclusion=P, assumptions=frozenset({P}))
    assert ToyVerifier().verdict(s, proof_of(s, InferenceStep(P, "assumption"))).validated


# -- soundness property ----------------------------------------------------------


@st.composite
def statements_with_candidate_proofs(draw):
    """A statement plus a proof assembled from plausible-looking steps. Most
    are garbage; the ones the kernel accepts must be semantically sound."""
    pool = [P, Q, R, conj(P, Q), disj(Q, R), impl(P, R), neg(R), neg(neg(Q))]
    assumptions = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    conclusion = draw(st.sampled_from(pool))
    statement = Statement(conclusion=conclusion, assumptions=frozenset(assumptions))
    n = len(statement.sorted_assumptions())
    steps = []
    total = draw(st.integers(min_value=1, max_value=4))
    for i in range(total):
        formula = conclusion if i == total - 1 else draw(st.sampled_from(pool))
        rule = draw(st.sampled_from(sorted(TOY_RULES)))
        arity = TOY_RULES[rule][0]
        premises = tuple(
            draw(st.integers(min_value=-n, max_value=i).filter(lambda x: x != 0))
            for _ in range(arity)
        )
        steps.append(InferenceStep(formula, rule, premises))
    return statement, MachineProof(target=statement, steps=tuple(steps))


def _leaf_names(doc) -> set:
    key, value = next(iter(doc.items()))
    if key in ("atom", "sym"):
        return {value}
    if key == "not":
        return _leaf_names(value)
    return _leaf_names(value[0]) | _leaf_names(value[1])


@given(statements_with_candidate_proofs())
def test_accepted_proofs_are_semantically_sound(case):
    statement, proof = case
    if not ToyVerifier().verdict(statement, proof).validated:
        return
    conclusion = oracles.document_json(statement.conclusion)
    assumptions = [oracles.document_json(a) for a in statement.assumptions]
    names = sorted(set().union(*map(_leaf_names, [conclusion, *assumptions])))
    for bits in itertools.product([False, True], repeat=len(names)):
        valuation = dict(zip(names, bits))
        if all(oracles.eval_formula(a, valuation) for a in assumptions):
            assert oracles.eval_formula(conclusion, valuation)
