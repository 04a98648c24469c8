"""Command-line interface.

Subcommands: analyze (single or dual environment), prove (emit a proof
table), reduce (step a process term), match (substring-match two trace
files), models (list built-ins). Exit status 0 means secure/valid/matched,
1 means flawed/invalid/no match, 2 means a usage or input error or an
internal error.
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
from .pi.parser import parse_process, pretty_print
from .pi.reduction import reduce_step
from .report import build_dual_report, build_single_report, paint, render_report, yesno


def _read_text(path: str, what: str) -> str:
    try:  # a byte-order mark that starts the file is not text
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise LpictError(f"cannot read {what} file {path!r}: {exc}") from None


def _resolve_model(spec: str):
    ctor = BUILTIN_MODELS.get(spec)
    if ctor is not None:
        return ctor()
    if not Path(spec).exists():
        raise LpictError(f"no built-in model or file named {spec!r}")
    return load_model(_read_text(spec, "model"))


def _cmd_analyze(args) -> int:
    model = _resolve_model(args.model)
    if args.attackers is not None:
        if not args.dual and args.env != "nonideal":
            raise LpictError("--attackers requires --env nonideal or --dual")
        model = with_attackers(model, [w.strip() for w in args.attackers.split(",") if w.strip()])
    started = time.perf_counter()
    if args.dual:
        verdict = dual_environment_verdict(model)
    else:
        env = model.environment(args.env or "ideal")
        verdict = analyze_protocol(model, env)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.dual:
        report = build_dual_report(model, verdict, elapsed_ms)
    else:
        report = build_single_report(model, env, verdict, duration_ms=elapsed_ms)
    sys.stdout.write(render_report(report, args.format, color=args.color))
    return 0 if verdict.secure else 1


def _cmd_prove(args) -> int:
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
        sys.stdout.write(f"sequent: {render_sequent(result.sequent)}\n")
        sys.stdout.write(f"{args.style} proof ({len(proof)} lines):\n")
        sys.stdout.write(render_proof_table(proof) + "\n")
        sys.stdout.write(f"valid: {paint(yesno(valid), valid, args.color)}\n")
    return 0 if valid else 1


def _cmd_reduce(args) -> int:
    term = parse_process(args.term)
    text = pretty_print(term)
    steps = max(args.steps, 0)
    for step in range(steps):
        successors = sorted(((tag, pretty_print(s), s) for tag, s in reduce_step(term)), key=lambda t: t[:2])
        sys.stdout.write(f"step {step}: {text}\n")
        if not successors:
            sys.stdout.write("  (stuck)\n")
            return 0
        for tag, succ_text, _ in successors:
            sys.stdout.write(f"  [{tag}] {succ_text}\n")
        _, text, term = successors[0]
    sys.stdout.write(f"step {steps}: {text}\n")
    return 0


def _cmd_match(args) -> int:
    text = _read_text(args.actual, "trace").split()
    pattern = _read_text(args.ideal, "trace").split()
    index = kmp_match(text, pattern, args.pos)
    if index is None:
        sys.stdout.write("no match\n")
        return 1
    sys.stdout.write(f"match at index {index}\n")
    return 0


def _cmd_models(args) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand's `run` default is its handler."""
    parser = argparse.ArgumentParser(prog="lpict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the chain analysis on a model")
    analyze.set_defaults(run=_cmd_analyze)
    analyze.add_argument("--model", required=True, help="built-in name or path to a model file")
    group = analyze.add_mutually_exclusive_group()
    group.add_argument("--env", choices=["ideal", "nonideal"], default=None)
    group.add_argument("--dual", action="store_true", help="analyze both environments and match traces")
    analyze.add_argument("--attackers", default=None, help="comma-separated capability overrides for the non-ideal environment")
    analyze.add_argument("--format", choices=["text", "json"], default="text")

    prove = sub.add_parser("prove", help="emit the entailment proof for a model's chain")
    prove.set_defaults(run=_cmd_prove)
    prove.add_argument("--model", required=True)
    prove.add_argument("--style", choices=["forward", "contradiction"], default="forward")
    prove.add_argument("--format", choices=["text", "json"], default="text")

    reduce = sub.add_parser("reduce", help="step a process term")
    reduce.set_defaults(run=_cmd_reduce)
    reduce.add_argument("--term", required=True, help="process term, e.g. 'x(y).y<c>.0 | x<z>.0'")
    reduce.add_argument("--steps", type=int, default=16)

    match = sub.add_parser("match", help="match an ideal trace against an actual one")
    match.set_defaults(run=_cmd_match)
    match.add_argument("--ideal", required=True, help="file of trace tokens (the pattern)")
    match.add_argument("--actual", required=True, help="file of trace tokens (the text)")
    match.add_argument("--pos", type=int, default=1, help="1-based search start")

    sub.add_parser("models", help="list built-in models").set_defaults(run=_cmd_models)
    return parser


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    args.color = os.environ.get("LPICT_COLOR", "0") == "1"
    try:
        return args.run(args)
    except LpictError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError:
        sys.stderr.write("error: input is nested too deeply\n")
        return 2


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
    except Exception as exc:  # a fault of lpict, never a verdict: exit 2, not 1
        sys.stderr.write(f"error: internal error: {exc!r}\n")
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
