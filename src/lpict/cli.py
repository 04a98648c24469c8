"""Command-line interface.

Subcommands: analyze (single or dual environment), prove (emit a proof
table), reduce (step a process term), match (substring-match two trace
files), models (list built-ins). Exit status 0 means secure/valid/matched,
1 means flawed/invalid/no match, 2 means a usage or input error.
Set LPICT_COLOR=1 for ANSI color in text output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .analysis import analyze_protocol, dual_environment_verdict, entailment_judgment
from .errors import LpictError
from .kmp import kmp_match
from .logic.proofs import check_proof, proof_records, render_proof_table, render_sequent
from .models import BUILTIN_MODELS, load_model, with_attackers
from .models.core import AttackerCapability
from .pi.parser import parse_process, pretty_print
from .pi.reduction import reduce_step
from .report import build_dual_report, build_single_report, render_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the chain analysis on a model")
    analyze.add_argument("--model", required=True, help="built-in name or path to a model file")
    group = analyze.add_mutually_exclusive_group()
    group.add_argument("--env", choices=["ideal", "nonideal"], default=None)
    group.add_argument("--dual", action="store_true", help="analyze both environments and match traces")
    analyze.add_argument("--attackers", default=None, help="comma-separated capability overrides for the non-ideal environment")
    analyze.add_argument("--format", choices=["text", "json"], default="text")

    prove = sub.add_parser("prove", help="emit the entailment proof for a model's chain")
    prove.add_argument("--model", required=True)
    prove.add_argument("--style", choices=["forward", "contradiction"], default="forward")
    prove.add_argument("--format", choices=["text", "json"], default="text")

    reduce = sub.add_parser("reduce", help="step a process term")
    reduce.add_argument("--term", required=True, help="process term, e.g. 'x(y).y<c>.0 | x<z>.0'")
    reduce.add_argument("--steps", type=int, default=16)

    match = sub.add_parser("match", help="match an ideal trace against an actual one")
    match.add_argument("--ideal", required=True, help="file of trace tokens (the pattern)")
    match.add_argument("--actual", required=True, help="file of trace tokens (the text)")
    match.add_argument("--pos", type=int, default=1, help="1-based search start")

    sub.add_parser("models", help="list built-in models")
    return parser


def _resolve_model(spec: str):
    ctor = BUILTIN_MODELS.get(spec)
    if ctor is not None:
        return ctor()
    path = Path(spec)
    if not path.exists():
        raise LpictError(f"no built-in model or file named {spec!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LpictError(f"cannot read model file {spec!r}: {exc}") from None
    return load_model(text)


def _parse_attackers(text: str) -> list[AttackerCapability]:
    caps = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            caps.append(AttackerCapability(chunk))
        except ValueError:
            raise LpictError(f"unknown attacker capability {chunk!r}") from None
    return caps


def _cmd_analyze(args, color: bool) -> int:
    model = _resolve_model(args.model)
    if args.attackers is not None:
        if not args.dual and args.env != "nonideal":
            raise LpictError("--attackers requires --env nonideal or --dual")
        model = with_attackers(model, _parse_attackers(args.attackers))
    started = time.perf_counter()
    if args.dual:
        verdict = dual_environment_verdict(model)
        report = build_dual_report(model, verdict, (time.perf_counter() - started) * 1000.0)
        secure = verdict.secure
    else:
        kind = args.env or "ideal"
        env = model.environment(kind)
        outcome = analyze_protocol(model, env)
        report = build_single_report(
            model, env, outcome, duration_ms=(time.perf_counter() - started) * 1000.0
        )
        secure = outcome.secure
    fmt = "structured" if args.format == "json" else "text"
    sys.stdout.write(render_report(report, fmt, color=color))
    return 0 if secure else 1


def _cmd_prove(args, color: bool) -> int:
    model = _resolve_model(args.model)
    result = entailment_judgment(model.lts)
    proof = result.forward if args.style == "forward" else result.contradiction
    if proof is None:
        sys.stdout.write("no proof found\n")
        return 1
    valid = check_proof(result.sequent, proof).valid
    if args.format == "json":
        sys.stdout.write(
            json.dumps(
                {
                    "model": model.name,
                    "style": args.style,
                    "sequent": render_sequent(result.sequent),
                    "valid": valid,
                    "lines": proof_records(proof),
                },
                indent=2,
            )
            + "\n"
        )
    else:
        verdict = "yes" if valid else "no"
        if color:
            tint = "\x1b[32m" if valid else "\x1b[31m"
            verdict = f"{tint}{verdict}\x1b[0m"
        sys.stdout.write(f"sequent: {render_sequent(result.sequent)}\n")
        sys.stdout.write(f"{args.style} proof ({len(proof)} lines):\n")
        sys.stdout.write(render_proof_table(proof) + "\n")
        sys.stdout.write(f"valid: {verdict}\n")
    return 0 if valid else 1


def _cmd_reduce(args) -> int:
    term = parse_process(args.term)
    for step in range(max(args.steps, 0)):
        successors = sorted(reduce_step(term), key=lambda ts: (ts[0], pretty_print(ts[1])))
        sys.stdout.write(f"step {step}: {pretty_print(term)}\n")
        if not successors:
            sys.stdout.write("  (stuck)\n")
            return 0
        for tag, succ in successors:
            sys.stdout.write(f"  [{tag}] {pretty_print(succ)}\n")
        term = successors[0][1]
    sys.stdout.write(f"step {max(args.steps, 0)}: {pretty_print(term)}\n")
    return 0


def _read_trace(path: str) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8").split()
    except OSError as exc:
        raise LpictError(f"cannot read trace file {path!r}: {exc}") from None


def _cmd_match(args) -> int:
    text = _read_trace(args.actual)
    pattern = _read_trace(args.ideal)
    index = kmp_match(text, pattern, args.pos)
    if index is None:
        sys.stdout.write("no match\n")
        return 1
    sys.stdout.write(f"match at index {index}\n")
    return 0


def _cmd_models() -> int:
    for name, ctor in sorted(BUILTIN_MODELS.items()):
        model = ctor()
        envs = []
        for env in model.environments:
            label = env.kind
            if env.attackers:
                label += "(" + ",".join(sorted(c.value for c in env.attackers)) + ")"
            envs.append(label)
        sys.stdout.write(
            f"{name:<8} {model.name:<16} {len(model.lts.states)} states  {'+'.join(envs)}\n"
        )
    return 0


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    color = os.environ.get("LPICT_COLOR", "0") == "1"
    try:
        if args.command == "analyze":
            return _cmd_analyze(args, color)
        if args.command == "prove":
            return _cmd_prove(args, color)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "match":
            return _cmd_match(args)
        if args.command == "models":
            return _cmd_models()
    except LpictError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError:
        sys.stderr.write("error: input is nested too deeply\n")
        return 2
    return 2  # pragma: no cover


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
