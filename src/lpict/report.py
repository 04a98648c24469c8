"""Analysis reports: one value, two renderings.

The machine form is a JSON document with a fixed schema; the text form is a
pure rendering of the same facts, laying proof tables out in two columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .analysis import AnalysisOutcome, DualVerdict, EntailmentResult
from .errors import ParseError
from .logic.proofs import render_proof_table, render_sequent
from .models.core import EnvironmentConfig

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


@dataclass(frozen=True)
class EnvironmentReport:
    kind: str
    attackers: tuple[str, ...]
    verdict: str
    trace: tuple[str, ...]
    partial_order: bool
    entailment: bool
    matching: bool | None
    failing: tuple[str, str] | None


@dataclass(frozen=True)
class ProofsReport:
    sequent: str
    forward: str
    contradiction: str


@dataclass(frozen=True)
class AnalysisReport:
    model: str
    mode: str  # "ideal" | "nonideal" | "dual"
    environments: tuple[EnvironmentReport, ...]
    matched: bool | None
    secure: bool
    proofs: ProofsReport | None
    duration_ms: float | None = None


def _env_report(env: EnvironmentConfig, outcome: AnalysisOutcome) -> EnvironmentReport:
    return EnvironmentReport(
        kind=env.kind,
        attackers=tuple(sorted(c.value for c in env.attackers)),
        verdict=outcome.verdict,
        trace=tuple(sym.token() for sym in outcome.trace),
        partial_order=outcome.judgments.partial_order,
        entailment=outcome.judgments.entailment,
        matching=outcome.judgments.matching,
        failing=outcome.failing,
    )


def _proofs_report(entailment: EntailmentResult | None) -> ProofsReport | None:
    if entailment is None or not entailment.holds:
        return None
    return ProofsReport(
        sequent=render_sequent(entailment.sequent),
        forward=render_proof_table(entailment.forward),
        contradiction=render_proof_table(entailment.contradiction),
    )


def build_single_report(model, env, outcome: AnalysisOutcome, duration_ms=None) -> AnalysisReport:
    return AnalysisReport(
        model=model.name,
        mode=env.kind,
        environments=(_env_report(env, outcome),),
        matched=None,
        secure=outcome.secure,
        proofs=_proofs_report(outcome.entailment),
        duration_ms=duration_ms,
    )


def build_dual_report(model, verdict: DualVerdict, duration_ms=None) -> AnalysisReport:
    return AnalysisReport(
        model=model.name,
        mode="dual",
        environments=(
            _env_report(model.environment("ideal"), verdict.ideal),
            _env_report(model.environment("nonideal"), verdict.nonideal),
        ),
        matched=verdict.matched,
        secure=verdict.secure,
        proofs=_proofs_report(verdict.ideal.entailment or verdict.nonideal.entailment),
        duration_ms=duration_ms,
    )


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _paint(text: str, good: bool, color: bool) -> str:
    if not color:
        return text
    return f"{_GREEN if good else _RED}{text}{_RESET}"


def render_report(report: AnalysisReport, format: str = "text", color: bool = False) -> str:
    if format in ("structured", "json"):
        return json.dumps(_to_dict(report), indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    out = [f"model: {report.model}", f"mode: {report.mode}"]
    for env in report.environments:
        header = f"[{env.kind}"
        if env.kind == "nonideal":
            header += " attackers=" + (",".join(env.attackers) if env.attackers else "(none)")
        out.append(header + "]")
        out.append("verdict: " + _paint(env.verdict, env.verdict == "secure", color))
        out.append("trace: " + (" ".join(env.trace) if env.trace else "(empty)"))
        judg = f"judgments: partial_order={_yesno(env.partial_order)} entailment={_yesno(env.entailment)}"
        if env.matching is not None:
            judg += f" matching={_yesno(env.matching)}"
        out.append(judg)
        if env.failing is not None:
            out.append(f"failing: state={env.failing[0]} event={env.failing[1]}")
    if report.matched is not None:
        out.append(f"matched: {_yesno(report.matched)}")
    out.append("secure: " + _paint(_yesno(report.secure), report.secure, color))
    if report.proofs is not None:
        out.append(f"sequent: {report.proofs.sequent}")
        out.append(f"forward proof ({_line_count(report.proofs.forward)} lines):")
        out.append(report.proofs.forward)
        out.append(f"contradiction proof ({_line_count(report.proofs.contradiction)} lines):")
        out.append(report.proofs.contradiction)
    if report.duration_ms is not None:
        out.append(f"duration: {report.duration_ms:.1f} ms")
    return "\n".join(out) + "\n"


def _line_count(table: str) -> int:
    return len(table.splitlines())


def _to_dict(report: AnalysisReport) -> dict:
    return {
        "model": report.model,
        "mode": report.mode,
        "environments": [
            {
                "kind": e.kind,
                "attackers": list(e.attackers),
                "verdict": e.verdict,
                "trace": list(e.trace),
                "judgments": {
                    "partial_order": e.partial_order,
                    "entailment": e.entailment,
                    "matching": e.matching,
                },
                "failing": None
                if e.failing is None
                else {"state": e.failing[0], "event": e.failing[1]},
            }
            for e in report.environments
        ],
        "matched": report.matched,
        "secure": report.secure,
        "proofs": None
        if report.proofs is None
        else {
            "sequent": report.proofs.sequent,
            "forward": report.proofs.forward,
            "contradiction": report.proofs.contradiction,
        },
        "duration_ms": report.duration_ms,
    }


def parse_report(text: str) -> AnalysisReport:
    """Inverse of the structured rendering."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a structured report: {exc}") from None
    envs = tuple(
        EnvironmentReport(
            kind=e["kind"],
            attackers=tuple(e["attackers"]),
            verdict=e["verdict"],
            trace=tuple(e["trace"]),
            partial_order=e["judgments"]["partial_order"],
            entailment=e["judgments"]["entailment"],
            matching=e["judgments"]["matching"],
            failing=None
            if e["failing"] is None
            else (e["failing"]["state"], e["failing"]["event"]),
        )
        for e in data["environments"]
    )
    proofs = data["proofs"]
    return AnalysisReport(
        model=data["model"],
        mode=data["mode"],
        environments=envs,
        matched=data["matched"],
        secure=data["secure"],
        proofs=None
        if proofs is None
        else ProofsReport(proofs["sequent"], proofs["forward"], proofs["contradiction"]),
        duration_ms=data["duration_ms"],
    )
