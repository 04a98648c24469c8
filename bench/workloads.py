"""The four workloads: inputs made from a seed, the operations a user makes
on them, and a check of every answer against `oracle`.

An operation is one call a user makes: `lpict.cli.run_cli(argv)` with
stdout captured, or one call of a public library function where lpict has
no command for it. Each call looks its function up on the module at call
time, so the wrappers installed by `tracing` see it.

Each builder lists a cheap operation first; the runner uses it as the
warm-up, then shuffles the list with the seed. Every round of a workload
attempts the same operations in the same order.
An operation marked with a `fault` shows a known defect of lpict: it fails
on every seed, and its inputs do not depend on the seed, so the share of
failed operations is the same in every run. Its `shows_fault` check accepts
only the answer that defect gives; any other wrong answer, and any
exception, is a wrong answer like on every other operation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

import oracle

# Known faults, named in README.md.
GUARDS = "guards-unchecked"
DEPTH = "depth-bound-64"
PERM_CAP = "perm-cap-6"


@dataclass
class Op:
    name: str  # class of operation; samples are grouped by it
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    fault: str | None = None
    shows_fault: Callable[[Any], bool] | None = None


def cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli(argv)
        return code, out.getvalue()

    return call


# ---------------------------------------------------------------------------
# handshake: many cheap commands on the bundled models


def _attacker_subsets():
    caps = oracle.CAPABILITIES
    return [c for r in range(len(caps) + 1) for c in itertools.combinations(caps, r)]


def _check_analyze(want, fmt):
    def check(result):
        code, out = result
        report = json.loads(out) if fmt == "json" else oracle.parse_text_report(out)
        return code == (0 if want["secure"] else 1) and oracle.report_matches(report, want)

    return check


def _check_prove(model, style):
    k = len(model.transitions)
    lines, last = (2 * k + 1, model.terminal) if style == "forward" else (2 * k + 3, "false")
    sequent = oracle.expected_dual(model, ())["sequent"]

    def check(result):
        code, out = result
        rows = out.splitlines()
        return (
            code == 0
            and rows[0] == f"sequent: {sequent}"
            and rows[1] == f"{style} proof ({lines} lines):"
            and len(rows) == lines + 3
            and rows[-2].split()[1] == last
            and rows[-1] == "valid: yes"
        )

    return check


def handshake(lp, rng, root, workdir):
    """`analyze --dual` on tls13 (every attacker subset, text and JSON) and
    dh (every subset, one format each), `prove` in both styles, and one
    tls13 file with a guard that cannot hold."""
    texts = {m: (root / "src/lpict/models/data" / f"{m}.model").read_text() for m in ("tls13", "dh")}
    models = {m: oracle.read_model(t) for m, t in texts.items()}
    ops = []
    phase = rng.randrange(2)
    for m, formats in (("tls13", ("text", "json")), ("dh", None)):
        for i, subset in enumerate(_attacker_subsets()):
            for fmt in formats or (("text", "json")[(i + phase) % 2],):
                spelled = list(subset)
                rng.shuffle(spelled)
                argv = ["analyze", "--model", m, "--dual", "--format", fmt, "--attackers", ",".join(spelled)]
                want = oracle.expected_dual(models[m], subset)
                ops.append(Op(f"analyze {m}", cli_call(lp.cli, argv), _check_analyze(want, fmt)))
    for m in models:
        for style in ("forward", "contradiction"):
            argv = ["prove", "--model", m, "--style", style]
            ops.append(Op(f"prove {m}", cli_call(lp.cli, argv), _check_prove(models[m], style)))

    # In the ideal environment ClientHello holds, so the guard !ClientHello
    # blocks the first transition: the answer must not be "secure". With
    # guards unchecked it is the full secure report of the unguarded model.
    guarded = texts["tls13"].replace("action msg1", "action msg1 when !ClientHello")
    path = workdir / "tls13-guarded.model"
    path.write_text(guarded)
    argv = ["analyze", "--model", str(path), "--dual", "--format", "json"]
    unguarded = oracle.expected_dual(models["tls13"], models["tls13"].attackers)
    ops.append(
        Op("analyze guarded", cli_call(lp.cli, argv), lambda r: r[0] in (1, 2), GUARDS, _check_analyze(unguarded, "json"))
    )
    return ops


# ---------------------------------------------------------------------------
# long-chain: generated linear chains of 10 to 1000 states

_EXTRA_TAGS = ("forward_secrecy", "integrity", "identity_auth", "selection_sync", "confidentiality", "verification")
_CHAIN_ATTACKERS = ("mitm", "replay")


def chain_model(rng, n, planted):
    """Model text of an n-state chain. Every event resists the non-ideal
    attackers, except, when `planted`, one event of one state."""
    plant_at = rng.randint(2, n - 1) if planted else None
    lines = [f'protocol "Chain{n}"', ""]
    for i in range(1, n + 1):
        names = [f"e{i}x{j}" for j in range(rng.randint(1, 3))]
        weak = rng.randrange(len(names)) if i == plant_at else None
        lines.append(f"state C{i} {{")
        for j, name in enumerate(names):
            tags = set(_CHAIN_ATTACKERS) | set(rng.sample(_EXTRA_TAGS, rng.randint(0, 2)))
            if j == weak:
                tags.discard(rng.choice(_CHAIN_ATTACKERS))
            lines.append(f"  event {name} resists {' '.join(sorted(tags))}")
        if len(names) > 1:
            lines.append("  combine " + " ".join(["and"] * (len(names) - 1)))
        lines.append("}")
    lines += [f"transition C{i} -> C{i + 1}" for i in range(1, n)]
    lines += ["initial C1", f"terminal C{n}", "environment ideal"]
    lines.append("environment nonideal attackers " + " ".join(_CHAIN_ATTACKERS))
    model = oracle.read_model("\n".join(lines))
    want = oracle.expected_dual(model, _CHAIN_ATTACKERS)
    # The construction fixes the answer; the reader must agree with it.
    failing = want["nonideal"]["failing"]
    if (failing is None) == planted or (planted and failing[0] != f"C{plant_at}"):
        raise AssertionError(f"chain generator and reader disagree at n={n}")
    return "\n".join(lines) + "\n", model


# Operations per round, by (states, planted). The weights place op_ms.p50
# inside the 400-state planted class and op_ms.p90 inside the 400-state
# secure class (see README.md); the 1000-state chains, which take longest,
# take about a third of a round's time.
CHAIN_MIX = {
    (10, False): 1, (10, True): 1, (65, False): 1, (65, True): 1,
    (66, False): 1, (66, True): 1, (100, False): 1, (100, True): 1,
    (400, True): 22, (400, False): 8, (1000, True): 1, (1000, False): 1,
}


def long_chain(lp, rng, root, workdir):
    """`analyze --dual --format json` on chain model files. Chains longer
    than 65 states hit DEPTH_BOUND = 64; their inputs come from a fixed
    generator seed so that they fail on every run. The defect's answer is
    right in every respect but one: the terminal state is not proved."""
    ops = []
    for (n, planted), weight in CHAIN_MIX.items():
        fault = DEPTH if n > 65 else None
        gen = random.Random(f"chain:{n}:{planted}") if fault else rng
        text, model = chain_model(gen, n, planted)
        path = workdir / f"chain-{n}-{'planted' if planted else 'secure'}.model"
        path.write_text(text)
        argv = ["analyze", "--model", str(path), "--dual", "--format", "json"]
        label = f"chain {n} {'planted' if planted else 'secure'}"
        check = _check_analyze(oracle.expected_dual(model, _CHAIN_ATTACKERS), "json")
        shows = _check_analyze(oracle.expected_dual(model, _CHAIN_ATTACKERS, provable=False), "json") if fault else None
        ops += [Op(label, cli_call(lp.cli, argv), check, fault, shows)] * weight
    return ops


# ---------------------------------------------------------------------------
# pi-terms: reduction and congruence


def _names(rng, prefix, count):
    picks = rng.sample(range(100, 1000), count)
    return [f"{prefix}{p}" for p in picks]


def _reduce_output(out):
    rows = out.splitlines()
    succ = [r[3:] for r in rows if r.startswith("  [")]
    return rows, [s.split("] ", 1) for s in succ]


def _check_plain_reduce(x, senders, c):
    payloads = set(senders)

    def check(result):
        code, out = result
        rows, succ = _reduce_output(out)
        if code != 0 or len(succ) != len(senders) or not rows[-1].startswith("step 1: "):
            return False
        reacted = set()
        for tag, term in succ:
            comps = term.split(" | ")
            sent = {m.group(1) for m in (re.fullmatch(rf"{x}<(\w+)>\.0", t) for t in comps) if m}
            heard = [t for t in comps if re.fullmatch(rf"{x}\((\w+)\)\.\1<{c}>\.0", t)]
            fired = [m.group(1) for m in (re.fullmatch(rf"(\w+)<{c}>\.0", t) for t in comps) if m]
            if tag != "REACT'" or len(comps) != 2 * len(senders) - 1 or len(fired) != 1:
                return False
            if fired[0] not in payloads or sent != payloads - {fired[0]}:
                return False
            if len(heard) != len(senders) - 1:
                return False
            reacted.add(fired[0])
        return reacted == payloads

    return check


def _split_binders(term):
    binders = []
    while term.startswith("new "):
        _, name, term = term.split(" ", 2)
        binders.append(name)
    if term.startswith("(") and term.endswith(")"):
        term = term[1:-1]
    return binders, term.split(" | ")


def _check_restricted_reduce(x, payloads, count):
    """`count` successors, each well formed, consuming every payload."""
    n = len(payloads)

    def check(result):
        code, out = result
        rows, succ = _reduce_output(out)
        if code != 0 or len(succ) != count:
            return False
        consumed = set()
        for tag, term in succ:
            binders, comps = _split_binders(term)
            bound = set(binders)
            senders = [m for m in (re.fullmatch(rf"{x}<(\w+)>\.\1\(\w+\)\.0", t) for t in comps) if m]
            waiting = [m.group(2) for m in (re.fullmatch(rf"{x}\((\w+)\)\.\1<(\w+)>\.0", t) for t in comps) if m]
            got = [m for m in (re.fullmatch(r"(\w+)<(\w+)>\.0", t) for t in comps) if m]
            listen = [m for m in (re.fullmatch(r"(\w+)\(\w+\)\.0", t) for t in comps) if m]
            if tag != "REACT'" or len(binders) != n or len(comps) != 2 * n:
                return False
            if len(senders) != n - 1 or not all(m.group(1) in bound for m in senders):
                return False
            if len(got) != 1 or len(listen) != 1 or got[0].group(1) != listen[0].group(1):
                return False
            if got[0].group(1) not in bound or set(waiting) != set(payloads) - {got[0].group(2)}:
                return False
            consumed.add(got[0].group(2))
        return consumed == set(payloads)

    return check


def congruence_pair(rng, k, reorder):
    """p: k restrictions at one level over components that tell the binders
    apart; q: p with its restrictions reordered by `reorder`, its components
    permuted and its bound names renamed. Returns the texts of p and q."""
    bs = [f"b{i}" for i in range(k)]
    fs = _names(rng, "f", k)
    link = list(range(k))
    rng.shuffle(link)
    comps = [f"{bs[i]}(y).y<{fs[i]}>.0" for i in range(k)]
    comps += [f"{fs[link[i]]}<{bs[i]}>.0" for i in range(k)]
    p = "".join(f"new {b} " for b in bs) + "(" + " | ".join(comps) + ")"
    fresh = dict(zip(bs, _names(rng, "z", k)))
    order = reorder(list(range(k)))
    qcomps = [re.sub(r"\bb\d+\b", lambda m: fresh[m.group(0)], c) for c in comps]
    qcomps = reorder(qcomps)
    q = "".join(f"new {fresh[bs[i]]} " for i in order) + "(" + " | ".join(qcomps) + ")"
    return p, q, fs


def _shuffled(rng):
    def reorder(items):
        items = list(items)
        rng.shuffle(items)
        return items

    return reorder


def _lib_call(fn, *args):
    """A library call; `fn()` looks the function up when the call runs."""
    return lambda: fn()(*args)


def pi_terms(lp, rng, root, workdir):
    """`reduce --steps 1` on senders and receivers, and
    `structurally_congruent` on reordered, renamed terms. The n = 8
    restricted reduction and k = 7, 8 binders exceed _PERM_CAP = 6; their
    inputs come from a fixed generator seed. The defect gives all n * n
    successors, congruent duplicates unmerged, and calls congruent terms
    not congruent."""
    ops = []
    for n in (4, 8, 16):
        x, c = _names(rng, "ch", 1)[0], _names(rng, "c", 1)[0]
        senders = _names(rng, "m", n)
        comps = [f"{x}<{a}>.0" for a in senders] + [f"{x}(y).y<{c}>.0"] * n
        rng.shuffle(comps)
        argv = ["reduce", "--term", " | ".join(comps), "--steps", "1"]
        ops.append(Op(f"reduce {n}+{n}", cli_call(lp.cli, argv), _check_plain_reduce(x, senders, c)))
    for n in (4, 8):
        fault = PERM_CAP if n > 6 else None
        gen = random.Random(f"restricted:{n}") if fault else rng
        x = _names(gen, "ch", 1)[0]
        payloads = _names(gen, "b", n)
        comps = [f"new k {x}<k>.k(v).0"] * n + [f"{x}(y).y<{b}>.0" for b in payloads]
        gen.shuffle(comps)
        argv = ["reduce", "--term", " | ".join(comps), "--steps", "1"]
        check = _check_restricted_reduce(x, payloads, n)
        shows = _check_restricted_reduce(x, payloads, n * n) if fault else None
        ops.append(Op(f"reduce new {n}+{n}", cli_call(lp.cli, argv), check, fault, shows))
    parse = lp.parser.parse_process
    congruent = lambda: lp.congruence.structurally_congruent  # noqa: E731
    for k in range(2, 9):
        fault = PERM_CAP if k > 6 else None
        if fault:
            p, q, _ = congruence_pair(random.Random(f"congruence:{k}"), k, lambda xs: list(reversed(xs)))
        else:
            p, q, _ = congruence_pair(rng, k, _shuffled(rng))
        call = _lib_call(congruent, parse(p), parse(q))
        ops.append(Op(f"congruent k={k}", call, lambda r: r is True, fault, (lambda r: r is False) if fault else None))
    # Control: one free name differs, and free names survive congruence.
    p, q, fs = congruence_pair(rng, 4, _shuffled(rng))
    q = re.sub(rf"\b{rng.choice(fs)}\b", "g0", q)
    ops.append(Op("congruent control", _lib_call(congruent, parse(p), parse(q)), lambda r: r is False))
    return ops


# ---------------------------------------------------------------------------
# entailment: truth tables


def horn_sequent(rng, m, entailed, facts=2):
    """Atomic facts and atom -> atom implications over m atoms, and a goal.

    The atoms reachable from the facts sort before all others, so the first
    counter-model in the truth table's order comes after most valuations,
    and a non-entailed sequent costs about as much as an entailed one.
    Returns (fact names, implication pairs, goal name)."""
    names = [f"a{i:02d}{s}" for i, s in enumerate(_names(rng, "", m))]
    reach = m // 2
    closed, rest = names[:reach], names[reach:]
    order = closed[facts:]
    rng.shuffle(order)
    rules, seen = [], closed[:facts]
    for atom in order:  # every closed atom is reached from an earlier one
        rules.append((rng.choice(seen), atom))
        seen = seen + [atom]
    for atom in rest:  # the rest hang off each other, never off the closure
        others = [a for a in rest if a != atom]
        rules.append((rng.choice(others), atom))
    rng.shuffle(rules)
    goal = rng.choice(closed[facts:] if entailed else rest)
    return closed[:facts], rules, goal


def _sequent_formulas(f, facts, rules):
    return tuple([f.Atom(a) for a in facts] + [f.Implies(f.Atom(a), f.Atom(b)) for a, b in rules])


# Sequents per round, by atom count; half of each size are entailed. With
# the six precondition checks, op_ms.p50 falls inside the 12-atom class and
# op_ms.p90 inside the 15-atom class (see README.md).
SEMANTIC_MIX = {10: 2, 11: 2, 12: 6, 13: 4, 14: 8, 15: 4, 16: 2}
CROSS_SIZES = (7, 9, 11)


def entailment(lp, rng, root, workdir):
    """`semantic_entails` on Horn sequents of 10-16 atoms, `cross_validate`
    on Horn sequents of up to 12 atoms, and `check_precondition` on a guarded
    chain whose guards are conjunctions."""
    f = lp.formulas
    ops = []
    for m, count in SEMANTIC_MIX.items():
        for i in range(count):
            facts, rules, goal = horn_sequent(rng, m, entailed=i % 2 == 0)
            want = goal in oracle.horn_closure(facts, rules)
            call = _lib_call(lambda: lp.semantics.semantic_entails, _sequent_formulas(f, facts, rules), f.Atom(goal))
            ops.append(Op(f"semantic {m}", call, lambda r, w=want: r is w))
    for m in CROSS_SIZES:
        for entailed in (True, False):
            facts, rules, goal = horn_sequent(rng, m, entailed)
            want = goal in oracle.horn_closure(facts, rules)
            call = _lib_call(lambda: lp.search.cross_validate, _sequent_formulas(f, facts, rules), f.Atom(goal))
            check = lambda r, w=want: r.semantic is w and r.provable is w and r.agree is True  # noqa: E731
            ops.append(Op(f"cross_validate {m}", call, check))
    ops += _precondition_ops(lp, rng)
    return ops


def _precondition_ops(lp, rng, length=5):
    """A chain S0 -> ... -> S{length}; the transition out of Si has guard
    Si & Ei. Facts give S0, the implications up to Si, and some events."""
    f, g, t = lp.formulas, lp.guarded, lp.trees
    states, events = _names(rng, "S", length + 1), _names(rng, "E", length)
    nodes = [g.StateNode(s, (g.Event(e),), t.EventLeaf(e)) for s, e in zip(states, events)]
    nodes.append(g.StateNode(states[-1], ()))
    trans = [
        g.GuardedTransition(a, f"step{i}", b, g.Guard(f.And(f.Atom(a), f.Atom(events[i]))))
        for i, (a, b) in enumerate(zip(states, states[1:]))
    ]
    lts = g.build_guarded_lts(nodes, trans, states[0], states[-1])
    ops = []
    for i in range(2, length):
        for holds in (True, False):
            known = set(rng.sample(events[:i] + events[i + 1 :], 2)) | ({events[i]} if holds else set())
            rules = list(zip(states, states[1 : i + 1]))
            facts = [states[0]] + sorted(known)
            want = {states[i], events[i]} <= oracle.horn_closure(facts, rules)
            formulas = _sequent_formulas(f, facts, rules)
            call = _lib_call(lambda: lp.guarded.check_precondition, lts, trans[i], formulas)
            ops.append(Op("precondition", call, lambda r, w=want: r is w))
    return ops


WORKLOADS = {
    "handshake": handshake,
    "long-chain": long_chain,
    "pi-terms": pi_terms,
    "entailment": entailment,
}
