"""Analysis reports: one JSON object, two renderings.

A report is the object of README's "Structured report schema". The machine
form dumps it; the text form renders the same facts, laying proof tables out
in two columns.
"""

from __future__ import annotations

import json

from .analysis import AnalysisOutcome, DualVerdict
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


def _report(model, mode, environments, matched, secure, entailment, duration_ms) -> dict:
    holds = entailment is not None and entailment.holds  # each report gets its own dict of the shared strings
    return {
        "model": model.name,
        "mode": mode,
        "environments": environments,
        "matched": matched,
        "secure": secure,
        "proofs": dict(zip(("sequent", "forward", "contradiction"), entailment.text)) if holds else None,
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


def proof_block(style: str, table: str) -> str:
    """A proof table under its heading, which names its style and counts its lines."""
    return f"{style} proof ({len(table.splitlines())} lines):\n{table}"


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
        judgments = " ".join(f"{name}={yesno(held)}" for name, held in env["judgments"].items() if held is not None)
        out.append(f"judgments: {judgments}")  # a single run has no matching judgment
        if env["failing"] is not None:
            out.append(f"failing: state={env['failing']['state']} event={env['failing']['event']}")
    if report["matched"] is not None:
        out.append(f"matched: {yesno(report['matched'])}")
    out.append("secure: " + paint(yesno(report["secure"]), report["secure"], color))
    proofs = report["proofs"]
    if proofs is not None:
        out.append(f"sequent: {proofs['sequent']}")
        out.extend(proof_block(style, proofs[style]) for style in ("forward", "contradiction"))
    if report["duration_ms"] is not None:
        out.append(f"duration: {report['duration_ms']:.1f} ms")
    return "\n".join(out) + "\n"
