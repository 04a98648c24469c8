"""Line-numbered proofs and their checker.

The rule set is deliberately small: premise, assumption, implication
elimination, modus tollens, negation elimination (deriving falsum) and copy.
An assumption line is only legal when its formula is one of the sequent's
premises, except in a refutation (a proof whose last line is falsum for a
non-falsum conclusion), where the negated conclusion may also be assumed.
Either way every accepted proof is classically sound for its sequent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formulas import FALSUM, Falsum, Formula, Implies, Not, format_formula


class Rule(Enum):
    PREMISE = "premise"
    ASSUMPTION = "assumption"
    IMPL_ELIM = "->e"
    MODUS_TOLLENS = "MT"
    NEG_ELIM = "!e"
    COPY = "copy"


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    rule: Rule
    refs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


@dataclass(frozen=True)
class Sequent:
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    line: int | None = None
    reason: str | None = None


def _invalid(index: int, reason: str) -> CheckResult:
    return CheckResult(False, index, reason)


def check_proof(sequent: Sequent, proof: Proof) -> CheckResult:
    if not proof.lines:
        return _invalid(0, "empty proof")
    refutation = isinstance(proof.lines[-1].formula, Falsum) and not isinstance(
        sequent.conclusion, Falsum
    )
    premises = set(sequent.premises)
    allowed_assumptions = premises | {Not(sequent.conclusion)} if refutation else premises

    by_index: dict[int, ProofLine] = {}
    for pos, line in enumerate(proof.lines, start=1):
        if line.index != pos:
            return _invalid(line.index, f"line numbered {line.index}, expected {pos}")
        if any(r >= line.index or r < 1 for r in line.refs):
            return _invalid(line.index, "references must point to earlier lines")
        verdict = _check_line(line, premises, allowed_assumptions, by_index)
        if verdict is not None:
            return verdict
        by_index[line.index] = line

    last = proof.lines[-1].formula
    expected = FALSUM if refutation else sequent.conclusion
    if last != expected:
        return _invalid(
            proof.lines[-1].index,
            f"last line is {format_formula(last)}, expected {format_formula(expected)}",
        )
    return CheckResult(True)


def _check_line(line, premises, allowed_assumptions, by_index) -> CheckResult | None:
    rule = line.rule
    if rule is Rule.PREMISE:
        if line.formula not in premises:
            return _invalid(line.index, "premise not among the sequent's premises")
        return None
    if rule is Rule.ASSUMPTION:
        if line.formula not in allowed_assumptions:
            return _invalid(line.index, "assumption is neither a premise nor the negated conclusion")
        return None
    if rule is Rule.COPY:
        if len(line.refs) != 1:
            return _invalid(line.index, "copy takes one reference")
        if by_index[line.refs[0]].formula != line.formula:
            return _invalid(line.index, "copy does not repeat the referenced line")
        return None
    if len(line.refs) != 2:
        return _invalid(line.index, f"{rule.value} takes two references")
    fi = by_index[line.refs[0]].formula
    fj = by_index[line.refs[1]].formula
    if rule is Rule.IMPL_ELIM:
        if not (isinstance(fi, Implies) and fi.left == fj and fi.right == line.formula):
            return _invalid(line.index, "rule-shape mismatch for ->e")
        return None
    if rule is Rule.MODUS_TOLLENS:
        ok = (
            isinstance(fi, Implies)
            and fj == Not(fi.right)
            and line.formula == Not(fi.left)
        )
        if not ok:
            return _invalid(line.index, "rule-shape mismatch for MT")
        return None
    if rule is Rule.NEG_ELIM:
        ok = fi == Not(fj) and isinstance(line.formula, Falsum)
        if not ok:
            return _invalid(line.index, "rule-shape mismatch for !e")
        return None
    return _invalid(line.index, f"unknown rule {rule!r}")


def justification(line: ProofLine) -> str:
    if line.refs:
        return f"{line.rule.value} {','.join(str(r) for r in line.refs)}"
    return line.rule.value


def render_proof_table(proof: Proof) -> str:
    """Two-column layout: numbered formulas on the left, justifications right."""
    if not proof.lines:
        return "(empty proof)"
    num_width = len(f"{proof.lines[-1].index}.")
    formulas = [format_formula(line.formula) for line in proof.lines]
    col = max(len(s) for s in formulas) + 2
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
            "rule": line.rule.value,
            "refs": list(line.refs),
        }
        for line in proof.lines
    ]


def render_sequent(sequent: Sequent) -> str:
    left = ", ".join(format_formula(p) for p in sequent.premises)
    return f"{left} |- {format_formula(sequent.conclusion)}"
