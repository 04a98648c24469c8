"""Analysis reports: one JSON object, two renderings.

A report is the object of README's "Structured report schema". The machine
form dumps it; the text form renders the same facts, laying proof tables out
in two columns.
"""

from __future__ import annotations

import json

from .analysis import AnalysisOutcome, DualVerdict, EntailmentResult
from .logic.proofs import render_proof_table, render_sequent
from .models.core import EnvironmentConfig


def _env_report(env: EnvironmentConfig, outcome: AnalysisOutcome, tokens: list[str]) -> dict:
    judgments = outcome.judgments
    failing = outcome.failing
    return {
        "kind": env.kind,
        "attackers": sorted(c.value for c in env.attackers),
        "verdict": outcome.verdict,
        "trace": tokens,
        "judgments": {
            "partial_order": judgments.partial_order,
            "entailment": judgments.entailment,
            "matching": judgments.matching,
        },
        "failing": None if failing is None else {"state": failing[0], "event": failing[1]},
    }


def proof_text(entailment: EntailmentResult) -> tuple[str, str, str]:
    """The sequent line and the forward and contradiction tables of a judgment
    with both proofs, rendered once and kept on the judgment."""
    text = entailment.__dict__.get("_text")
    if text is None:
        tables = map(render_proof_table, (entailment.forward, entailment.contradiction))
        text = entailment.__dict__["_text"] = (render_sequent(entailment.sequent), *tables)
    return text


def _report(model, mode, environments, matched, secure, entailment, duration_ms) -> dict:
    holds = entailment is not None and entailment.holds  # each report gets its own dict of the shared strings
    return {
        "model": model.name,
        "mode": mode,
        "environments": environments,
        "matched": matched,
        "secure": secure,
        "proofs": dict(zip(("sequent", "forward", "contradiction"), proof_text(entailment))) if holds else None,
        "duration_ms": duration_ms,
    }


def build_single_report(model, env, outcome: AnalysisOutcome, duration_ms=None) -> dict:
    return _report(
        model, env.kind, [_env_report(env, outcome, [sym.token() for sym in outcome.trace])], None, outcome.secure,
        outcome.entailment, duration_ms,
    )


def build_dual_report(model, verdict: DualVerdict, duration_ms=None) -> dict:
    ideal = [sym.token() for sym in verdict.ideal.trace]
    known = dict(zip(map(id, verdict.ideal.trace), ideal))  # the tokens of shared symbols
    nonideal = [known.get(id(sym)) or sym.token() for sym in verdict.nonideal.trace]
    environments = [_env_report(model.environment("ideal"), verdict.ideal, ideal),
                    _env_report(model.environment("nonideal"), verdict.nonideal, nonideal)]
    return _report(
        model, "dual", environments, verdict.matched, verdict.secure,
        verdict.ideal.entailment or verdict.nonideal.entailment, duration_ms,
    )


def yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def paint(text: str, good: bool, color: bool) -> str:
    """`text` in green when `good`, else in red; unchanged without `color`."""
    return f"\x1b[{32 if good else 31}m{text}\x1b[0m" if color else text


def render_report(report: dict, format: str = "text", color: bool = False) -> str:
    if format == "json":
        return json.dumps(report, indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    out = [f"model: {report['model']}", f"mode: {report['mode']}"]
    for env in report["environments"]:
        header = f"[{env['kind']}"
        if env["kind"] == "nonideal":
            header += " attackers=" + (",".join(env["attackers"]) or "(none)")
        out.append(header + "]")
        out.append("verdict: " + paint(env["verdict"], env["verdict"] == "secure", color))
        out.append("trace: " + (" ".join(env["trace"]) or "(empty)"))
        judgments = env["judgments"]
        judg = (
            f"judgments: partial_order={yesno(judgments['partial_order'])}"
            f" entailment={yesno(judgments['entailment'])}"
        )
        if judgments["matching"] is not None:
            judg += f" matching={yesno(judgments['matching'])}"
        out.append(judg)
        if env["failing"] is not None:
            out.append(f"failing: state={env['failing']['state']} event={env['failing']['event']}")
    if report["matched"] is not None:
        out.append(f"matched: {yesno(report['matched'])}")
    out.append("secure: " + paint(yesno(report["secure"]), report["secure"], color))
    proofs = report["proofs"]
    if proofs is not None:
        out.append(f"sequent: {proofs['sequent']}")
        for style in ("forward", "contradiction"):
            out.append(f"{style} proof ({len(proofs[style].splitlines())} lines):")
            out.append(proofs[style])
    if report["duration_ms"] is not None:
        out.append(f"duration: {report['duration_ms']:.1f} ms")
    return "\n".join(out) + "\n"
