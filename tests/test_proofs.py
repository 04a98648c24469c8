import pytest

from lpict.logic.formulas import FALSUM, Atom, Implies, Not, format_formula
from lpict.logic.proofs import (
    CheckResult,
    Proof,
    ProofLine,
    Rule,
    Sequent,
    check_proof,
    proof_records,
    render_proof_table,
)
from lpict.logic.search import search_contradiction, search_forward_chain

from conftest import profiled_calls


def tls_atoms():
    return [Atom(f"S{i}") for i in range(1, 7)] + [Atom("S_end")]


def tls_sequent():
    chain = tls_atoms()
    premises = tuple([chain[0]] + [Implies(a, b) for a, b in zip(chain, chain[1:])])
    return Sequent(premises, Atom("S_end"))


def test_forward_proof_of_chain_is_valid():
    sq = tls_sequent()
    proof = search_forward_chain(sq.premises, sq.conclusion)
    assert proof is not None and len(proof) == 13
    assert check_proof(sq, proof) == CheckResult(True)


def test_contradiction_proof_of_chain_is_valid():
    sq = tls_sequent()
    proof = search_contradiction(sq.premises, sq.conclusion)
    assert proof is not None and len(proof) == 15
    assert proof.lines[-1].formula == FALSUM
    assert check_proof(sq, proof).valid


def test_corrupted_refs_rejected():
    sq = tls_sequent()
    proof = search_forward_chain(sq.premises, sq.conclusion)
    # swap line 3's references so line 1 sits where the implication belongs
    lines = list(proof.lines)
    lines[2] = ProofLine(3, lines[2].formula, Rule.IMPL_ELIM, (1, 2))
    verdict = check_proof(sq, Proof(tuple(lines)))
    assert not verdict.valid
    assert verdict.line == 3
    assert "mismatch" in verdict.reason


def test_premise_must_be_declared():
    sq = Sequent((Atom("p"),), Atom("p"))
    bad = Proof((ProofLine(1, Atom("q"), Rule.PREMISE),))
    verdict = check_proof(sq, bad)
    assert not verdict.valid and verdict.line == 1


def test_assumption_requires_premise_or_refutation():
    p, q = Atom("p"), Atom("q")
    sq = Sequent((Implies(p, q),), q)
    floating = Proof(
        (
            ProofLine(1, p, Rule.ASSUMPTION),
            ProofLine(2, Implies(p, q), Rule.PREMISE),
            ProofLine(3, q, Rule.IMPL_ELIM, (2, 1)),
        )
    )
    assert not check_proof(sq, floating).valid  # p is a genuine open assumption
    refutation = Proof(
        (
            ProofLine(1, Not(q), Rule.ASSUMPTION),
            ProofLine(2, Implies(p, q), Rule.PREMISE),
            ProofLine(3, Not(p), Rule.MODUS_TOLLENS, (2, 1)),
        )
    )
    # allowed to assume !q in a refutation, but this one never reaches falsum
    assert not check_proof(sq, refutation).valid


def test_modus_tollens_shape():
    p, q = Atom("p"), Atom("q")
    sq = Sequent((Implies(p, q), Not(q)), Not(p))
    proof = Proof(
        (
            ProofLine(1, Implies(p, q), Rule.PREMISE),
            ProofLine(2, Not(q), Rule.PREMISE),
            ProofLine(3, Not(p), Rule.MODUS_TOLLENS, (1, 2)),
        )
    )
    assert check_proof(sq, proof).valid


def test_neg_elim_shape_and_copy():
    p = Atom("p")
    sq = Sequent((p, Not(p)), FALSUM)
    proof = Proof(
        (
            ProofLine(1, Not(p), Rule.PREMISE),
            ProofLine(2, p, Rule.PREMISE),
            ProofLine(3, p, Rule.COPY, (2,)),
            ProofLine(4, FALSUM, Rule.NEG_ELIM, (1, 3)),
        )
    )
    assert check_proof(sq, proof).valid


def test_last_line_must_match_conclusion():
    p, q = Atom("p"), Atom("q")
    sq = Sequent((p, q), q)
    proof = Proof((ProofLine(1, p, Rule.PREMISE),))
    verdict = check_proof(sq, proof)
    assert not verdict.valid and "last line" in verdict.reason


def test_forward_refs_rejected():
    p = Atom("p")
    sq = Sequent((p,), p)
    proof = Proof((ProofLine(1, p, Rule.COPY, (1,)),))
    assert not check_proof(sq, proof).valid


def test_misnumbered_lines_rejected():
    p = Atom("p")
    sq = Sequent((p,), p)
    proof = Proof((ProofLine(2, p, Rule.PREMISE),))
    assert not check_proof(sq, proof).valid


def test_render_layout():
    sq = tls_sequent()
    proof = search_forward_chain(sq.premises, sq.conclusion)
    table = render_proof_table(proof)
    lines = table.splitlines()
    assert len(lines) == 13
    assert lines[0].startswith(" 1. S1")
    assert lines[0].endswith("premise")
    assert lines[2].endswith("->e 2,1")
    assert lines[-1].endswith("->e 12,11")


def test_proof_records():
    sq = tls_sequent()
    proof = search_contradiction(sq.premises, sq.conclusion)
    records = proof_records(proof)
    assert records[0] == {"n": 1, "formula": "!S_end", "rule": "assumption", "refs": []}
    assert records[-1] == {"n": 15, "formula": "false", "rule": "!e", "refs": [13, 14]}


def test_empty_proof_and_bad_copies_are_rejected():
    p, q = Atom("p"), Atom("q")
    sq = Sequent((p, q), p)
    assert check_proof(sq, Proof(())) == CheckResult(False, 0, "empty proof")
    assert render_proof_table(Proof(())) == "(empty proof)"
    two_refs = Proof((ProofLine(1, p, Rule.PREMISE), ProofLine(2, p, Rule.COPY, (1, 1))))
    assert check_proof(sq, two_refs) == CheckResult(False, 2, "copy takes one reference")
    other = Proof((ProofLine(1, q, Rule.PREMISE), ProofLine(2, p, Rule.COPY, (1,))))
    assert check_proof(sq, other) == CheckResult(False, 2, "copy does not repeat the referenced line")


@pytest.mark.parametrize("k", [4, 5, 49, 50])
def test_render_layout_across_number_widths(k):
    # forward proofs have 2k+1 lines and refutations 2k+3, so these chains
    # take each style across 9 -> 10 and 99 -> 100 lines
    chain = [Atom(f"S{i}") for i in range(k + 1)]
    sq = Sequent(tuple([chain[0]] + [Implies(a, b) for a, b in zip(chain, chain[1:])]), chain[-1])
    for proof in (search_forward_chain(sq.premises, sq.conclusion), search_contradiction(sq.premises, sq.conclusion)):
        numbers = [f"{line.index}." for line in proof.lines]
        formulas = [format_formula(line.formula) for line in proof.lines]
        justifications = [" ".join([line.rule.value] + ([",".join(map(str, line.refs))] if line.refs else [])) for line in proof.lines]
        number_width, formula_width = max(map(len, numbers)), max(map(len, formulas))
        expected = [
            " " * (number_width - len(n)) + n + " " + f + " " * (formula_width + 2 - len(f)) + j
            for n, f, j in zip(numbers, formulas, justifications)
        ]
        assert render_proof_table(proof).split("\n") == expected


def test_check_proof_costs_the_same_calls_per_line():
    # README: checking a proof is linear in its length. Forward proofs of
    # 199, 1,699 and 3,199 lines, from chains of 99, 849 and 1,599 implications.
    calls = {}
    for k in (99, 849, 1599):
        atoms = [Atom(f"a{i}") for i in range(k + 1)]
        sequent = Sequent(tuple([atoms[0]] + [Implies(a, b) for a, b in zip(atoms, atoms[1:])]), atoms[-1])
        proof = search_forward_chain(sequent.premises, sequent.conclusion)
        assert len(proof) == 2 * k + 1 and check_proof(sequent, proof).valid
        calls[len(proof)] = profiled_calls(check_proof, sequent, proof)
    short, long = (calls[1699] - calls[199]) / 1500, (calls[3199] - calls[1699]) / 1500
    assert abs(long - short) <= 0.05 * short, (short, long)
