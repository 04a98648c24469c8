"""Line-numbered proofs and their checker.

The rule set is deliberately small: premise, assumption, implication
elimination, modus tollens, negation elimination (deriving falsum) and copy.
An assumption line is only legal when its formula is one of the sequent's
premises, except in a refutation (a proof whose last line is falsum for a
non-falsum conclusion), where the negated conclusion may also be assumed.
Either way every accepted proof is classically sound for its sequent.
"""

from __future__ import annotations

from enum import Enum

from .formulas import FALSUM, Falsum, Formula, Implies, Not, format_formula, frozen_record


class Rule(Enum):
    PREMISE = "premise"
    ASSUMPTION = "assumption"
    IMPL_ELIM = "->e"
    MODUS_TOLLENS = "MT"
    NEG_ELIM = "!e"
    COPY = "copy"


# Rule members bound once: the checker compares every line's rule with them.
_PREMISE, _ASSUMPTION, _IMPL_ELIM = Rule.PREMISE, Rule.ASSUMPTION, Rule.IMPL_ELIM
_MODUS_TOLLENS, _NEG_ELIM, _COPY = Rule.MODUS_TOLLENS, Rule.NEG_ELIM, Rule.COPY


@frozen_record
class ProofLine:
    index: int
    formula: Formula
    rule: Rule
    refs: tuple[int, ...] = ()


@frozen_record
class Proof:
    lines: tuple[ProofLine, ...]

    def __len__(self) -> int:
        return len(self.lines)


@frozen_record
class Sequent:
    premises: tuple[Formula, ...]
    conclusion: Formula


@frozen_record
class CheckResult:
    valid: bool
    line: int | None = None
    reason: str | None = None


def _invalid(index: int, reason: str) -> CheckResult:
    return CheckResult(False, index, reason)


def check_proof(sequent: Sequent, proof: Proof) -> CheckResult:
    lines = proof.lines
    if not lines:
        return _invalid(0, "empty proof")
    conclusion = sequent.conclusion
    refutation = isinstance(lines[-1].formula, Falsum) and not isinstance(conclusion, Falsum)
    premises = set(sequent.premises)
    for pos, line in enumerate(lines, start=1):
        if line.index != pos:
            return _invalid(line.index, f"line numbered {line.index}, expected {pos}")
        for r in line.refs:
            if r >= pos or r < 1:
                return _invalid(pos, "references must point to earlier lines")
        reason = _check_line(line, lines, premises, conclusion if refutation else None)
        if reason is not None:
            return _invalid(pos, reason)

    last = lines[-1].formula
    expected = FALSUM if refutation else conclusion
    if last != expected:
        return _invalid(
            lines[-1].index,
            f"last line is {format_formula(last)}, expected {format_formula(expected)}",
        )
    return CheckResult(True)


def _negates(f: Formula, g: Formula) -> bool:
    """f is !g. Identity is tried before equality throughout: a proof found
    by search reuses the formula objects of its premises."""
    return isinstance(f, Not) and (f.operand is g or f.operand == g)


def _check_line(line: ProofLine, lines, premises, refuted: Formula | None) -> str | None:
    """Why the line does not follow from the lines before it, or None when it
    does. In a refutation of `refuted`, its negation may be assumed."""
    rule, formula, refs = line.rule, line.formula, line.refs
    if rule is _PREMISE:
        return None if formula in premises else "premise not among the sequent's premises"
    if rule is _ASSUMPTION:
        if (refuted is not None and _negates(formula, refuted)) or formula in premises:
            return None
        return "assumption is neither a premise nor the negated conclusion"
    if rule is _COPY:
        if len(refs) != 1:
            return "copy takes one reference"
        source = lines[refs[0] - 1].formula
        if source is formula or source == formula:
            return None
        return "copy does not repeat the referenced line"
    if len(refs) != 2:
        return f"{rule.value} takes two references"
    fi = lines[refs[0] - 1].formula
    fj = lines[refs[1] - 1].formula
    if rule is _IMPL_ELIM:
        if (
            isinstance(fi, Implies)
            and (fi.left is fj or fi.left == fj)
            and (fi.right is formula or fi.right == formula)
        ):
            return None
        return "rule-shape mismatch for ->e"
    if rule is _MODUS_TOLLENS:
        if isinstance(fi, Implies) and _negates(fj, fi.right) and _negates(formula, fi.left):
            return None
        return "rule-shape mismatch for MT"
    if rule is _NEG_ELIM:
        if _negates(fi, fj) and isinstance(formula, Falsum):
            return None
        return "rule-shape mismatch for !e"
    return f"unknown rule {rule!r}"


def justification(line: ProofLine) -> str:
    # `_value_` is where Enum stores a member's value; `value` is a property
    # and a table prints one rule per line
    text, refs = line.rule._value_, line.refs
    if len(refs) == 2:  # most lines; a join of two numbers is slow
        return f"{text} {refs[0]},{refs[1]}"
    return f"{text} {','.join(map(str, refs))}" if refs else text


def render_proof_table(proof: Proof) -> str:
    """Two-column layout: numbered formulas on the left, justifications right."""
    if not proof.lines:
        return "(empty proof)"
    num_width = len(f"{proof.lines[-1].index}.")
    formulas = [format_formula(line.formula) for line in proof.lines]
    col = max(map(len, formulas)) + 2
    rows = [
        f"{f'{line.index}.'.rjust(num_width)} {text.ljust(col)}{justification(line)}"
        for line, text in zip(proof.lines, formulas)
    ]
    return "\n".join(rows)


def proof_records(proof: Proof) -> list[dict]:
    """Structured form of a proof for machine consumption."""
    return [
        {
            "n": line.index,
            "formula": format_formula(line.formula),
            "rule": line.rule._value_,
            "refs": list(line.refs),
        }
        for line in proof.lines
    ]


def render_sequent(sequent: Sequent) -> str:
    left = ", ".join(format_formula(p) for p in sequent.premises)
    return f"{left} |- {format_formula(sequent.conclusion)}"
