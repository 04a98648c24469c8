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
    """Valid when each line follows by its rule from the lines before it and
    the last is the conclusion, or falsum in a refutation."""
    lines = proof.lines
    if not lines:
        return _invalid(0, "empty proof")
    conclusion = sequent.conclusion
    refuted = conclusion if type(lines[-1].formula) is Falsum and type(conclusion) is not Falsum else None
    # Search cites the premise objects themselves, so identity is tried before
    # equality throughout, and the premise set is made only when it fails.
    cited, premises = set(map(id, sequent.premises)), None
    for pos, line in enumerate(lines, start=1):
        if line.index != pos:
            return _invalid(line.index, f"line numbered {line.index}, expected {pos}")
        rule, formula, refs = line.rule, line.formula, line.refs
        for r in refs:
            if r >= pos or r < 1:
                return _invalid(pos, "references must point to earlier lines")
        if rule is _PREMISE or rule is _ASSUMPTION:
            if id(formula) in cited or rule is _ASSUMPTION and refuted is not None and _negates(formula, refuted):
                continue
            premises = premises or set(sequent.premises)
            if formula in premises:
                continue
            if rule is _PREMISE:
                return _invalid(pos, "premise not among the sequent's premises")
            reason = "assumption is neither a premise nor the negated conclusion"
        elif rule is _COPY:
            if len(refs) != 1:
                return _invalid(pos, "copy takes one reference")
            source = lines[refs[0] - 1].formula
            if source is formula or source == formula:
                continue
            reason = "copy does not repeat the referenced line"
        elif len(refs) != 2:
            reason = f"{rule.value} takes two references"
        else:
            fi, fj = lines[refs[0] - 1].formula, lines[refs[1] - 1].formula
            if rule is _IMPL_ELIM:
                if type(fi) is Implies and (fi.left is fj or fi.left == fj) and (fi.right is formula or fi.right == formula):
                    continue
            elif rule is _MODUS_TOLLENS:  # fj is !fi.right and the line !fi.left, tested in place
                if type(fi) is Implies and type(fj) is Not and type(formula) is Not and (fj.operand is fi.right or
                        fj.operand == fi.right) and (formula.operand is fi.left or formula.operand == fi.left):
                    continue
            elif rule is _NEG_ELIM:
                if _negates(fi, fj) and type(formula) is Falsum:
                    continue
            else:
                return _invalid(pos, f"unknown rule {rule!r}")
            reason = f"rule-shape mismatch for {rule.value}"
        return _invalid(pos, reason)

    last = lines[-1].formula
    expected = conclusion if refuted is None else FALSUM
    if last != expected:
        return _invalid(lines[-1].index, f"last line is {format_formula(last)}, expected {format_formula(expected)}")
    return CheckResult(True)


def _negates(f: Formula, g: Formula) -> bool:
    """f is !g."""
    return type(f) is Not and (f.operand is g or f.operand == g)


def render_proof_table(proof: Proof) -> str:
    """Two-column layout: numbered formulas on the left, each line's rule and
    the lines it cites on the right."""
    lines = proof.lines
    if not lines:
        return "(empty proof)"
    num_width = len(f"{lines[-1].index}.")
    formulas = [line.formula._text or format_formula(line.formula) for line in lines]
    col = max(map(len, formulas)) + 2
    rows = []
    for line, text in zip(lines, formulas):
        # `_value_` is where Enum stores a member's value; `value` is a property.
        just, refs = line.rule._value_, line.refs  # most lines cite two or none: a join is slow
        if refs:
            just = f"{just} {refs[0]},{refs[1]}" if len(refs) == 2 else f"{just} {','.join(map(str, refs))}"
        rows.append(f"{f'{line.index}.'.rjust(num_width)} {text.ljust(col)}{just}")
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
    left = ", ".join([format_formula(p) for p in sequent.premises])
    return f"{left} |- {format_formula(sequent.conclusion)}"
