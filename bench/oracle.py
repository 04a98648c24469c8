"""Expected answers worked out without lpict.

Nothing here imports lpict. The model reader follows the `.model` format as
the lpict README documents it, and the verdict rules follow the analysis as
documented: an attacker capability falsifies every event lacking the
resistance tag that counters it; the walk stops at the first state whose
event tree is false and names the first false leaf in breadth-first order;
a dual run is secure when the ideal run is secure and the non-ideal trace
equals it. Proof lengths follow the documented style: a chain through k
implications gives 2k+1 forward lines and 2k+3 refutation lines.

`expected_dual(..., provable=False)` gives the answer of an analysis that
walks every state right but cannot prove the terminal state: a run that
reaches the terminal comes out flawed with no failing state and a false
entailment judgment, and the report has no proofs. A known defect of lpict
gives exactly that answer on long chains (see README.md).
"""

from __future__ import annotations

import re

# Which resistance tag blocks each attacker capability.
COUNTER = {
    "replay": "replay",
    "mitm": "mitm",
    "eavesdrop": "confidentiality",
    "tamper": "integrity",
    "impersonate": "identity_auth",
}
CAPABILITIES = ("replay", "mitm", "eavesdrop", "tamper", "impersonate")


# ---------------------------------------------------------------------------
# Event trees: ("leaf", name, negated) | (op, left, right) with op "and"/"or".


def left_deep(names, ops):
    tree = ("leaf", names[0], False)
    for op, name in zip(ops, names[1:]):
        tree = (op, tree, ("leaf", name, False))
    return tree


def parse_combine_expr(text):
    """Atoms and negated atoms joined by & and |, with parentheses;
    & binds tighter than |."""
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[!&|()]", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def disj():
        node = conj()
        while peek() == "|":
            take()
            node = ("or", node, conj())
        return node

    def conj():
        node = unary()
        while peek() == "&":
            take()
            node = ("and", node, unary())
        return node

    def unary():
        tok = take()
        if tok == "(":
            node = disj()
            if take() != ")":
                raise ValueError(f"unbalanced combine expression {text!r}")
            return node
        if tok == "!":
            name = take()
            return ("leaf", name, True)
        return ("leaf", tok, False)

    tree = disj()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in combine expression {text!r}")
    return tree


def leaves(tree):
    if tree[0] == "leaf":
        return [tree]
    return leaves(tree[1]) + leaves(tree[2])


def bfs_leaves(tree):
    out, queue = [], [tree]
    while queue:
        node = queue.pop(0)
        if node[0] == "leaf":
            out.append(node)
        else:
            queue += [node[1], node[2]]
    return out


def leaf_value(leaf, values):
    return values[leaf[1]] != leaf[2]


def tree_value(tree, values):
    if tree[0] == "leaf":
        return leaf_value(tree, values)
    left, right = tree_value(tree[1], values), tree_value(tree[2], values)
    return (left and right) if tree[0] == "and" else (left or right)


# ---------------------------------------------------------------------------
# Model text


class Model:
    def __init__(self):
        self.name = None
        self.states = {}  # id -> (events [(name, tags)], tree or None)
        self.transitions = []  # (source, target, guard text or None)
        self.initial = None
        self.terminal = None
        self.attackers = ()

    def chain(self):
        nxt = {s: t for s, t, _ in self.transitions}
        order = [self.initial]
        while order[-1] != self.terminal:
            order.append(nxt[order[-1]])
        return order


def read_model(text):
    model = Model()
    block = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key = words[0]
        if block is not None:
            sid, events, tree = block
            if key == "event":
                tags = []
                if "resists" in words:
                    i = words.index("resists") + 1
                    while i < len(words) and words[i] != "payload":
                        tags.append(words[i])
                        i += 1
                events.append((words[1], frozenset(tags)))
            elif key == "combine":
                if words[1] == "expr":
                    tree = parse_combine_expr(line.split("expr", 1)[1])
                else:
                    tree = left_deep([e for e, _ in events], words[1:])
                block = (sid, events, tree)
            elif line == "}":
                if tree is None and events:
                    tree = ("leaf", events[0][0], False)
                model.states[sid] = (events, tree)
                block = None
            continue
        if key == "protocol":
            model.name = re.match(r'protocol\s+"([^"]+)"', line).group(1)
        elif key == "state":
            if words[2:] == ["{", "}"]:
                model.states[words[1]] = ([], None)
            else:
                block = (words[1], [], None)
        elif key == "alias":
            model.states[words[1]] = model.states[words[3]]
        elif key == "transition":
            guard = line.split(" when ", 1)[1].strip() if " when " in line else None
            model.transitions.append((words[1], words[3], guard))
        elif key == "initial":
            model.initial = words[1]
        elif key == "terminal":
            model.terminal = words[1]
        elif key == "environment" and words[1] == "nonideal":
            model.attackers = tuple(words[3:])
    return model


# ---------------------------------------------------------------------------
# Expected verdicts


def expected_run(model, attackers, provable=True):
    """Trace tokens, verdict, failing (state, event) and entailment
    judgment of one environment."""
    broken = {COUNTER[a] for a in attackers}
    trace = []
    for sid in model.chain():
        events, tree = model.states[sid]
        if tree is None:
            trace.append(f"{sid}:")
            continue
        values = {name: broken <= tags for name, tags in events}
        bits = "".join("1" if leaf_value(leaf, values) else "0" for leaf in leaves(tree))
        trace.append(f"{sid}:{bits}")
        if not tree_value(tree, values):
            event = next(leaf[1] for leaf in bfs_leaves(tree) if not leaf_value(leaf, values))
            return {"verdict": "flawed", "trace": trace, "failing": (sid, event), "entailment": False}
    return {"verdict": "secure" if provable else "flawed", "trace": trace, "failing": None, "entailment": provable}


def expected_dual(model, attackers, provable=True):
    ideal = expected_run(model, (), provable)
    nonideal = expected_run(model, attackers, provable)
    matched = nonideal["trace"] == ideal["trace"]
    k = len(model.transitions)
    premises = [model.initial] + [f"{s} -> {t}" for s, t, _ in model.transitions]
    return {
        "ideal": ideal,
        "nonideal": dict(nonideal, attackers=sorted(attackers)),
        "matched": matched,
        "secure": ideal["verdict"] == "secure" and matched,
        "provable": provable,
        "sequent": f"{', '.join(premises)} |- {model.terminal}",
        "forward_lines": 2 * k + 1,
        "contradiction_lines": 2 * k + 3,
        "terminal": model.terminal,
    }


def horn_closure(facts, rules):
    """Atoms reachable from the facts along atom -> atom implications."""
    reached = set(facts)
    frontier = list(facts)
    succ = {}
    for a, b in rules:
        succ.setdefault(a, []).append(b)
    while frontier:
        for b in succ.get(frontier.pop(), ()):
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    return reached


# ---------------------------------------------------------------------------
# Reading lpict's outputs


def parse_text_report(text):
    """The text report as the same dict shape as the JSON one."""
    out = {"environments": [], "proofs": None}
    env = None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("["):
            head = line.strip("[]").split()
            attackers = []
            if len(head) > 1:
                value = head[1].split("=", 1)[1]
                attackers = [] if value == "(none)" else value.split(",")
            env = {"kind": head[0], "attackers": attackers, "failing": None}
            out["environments"].append(env)
        elif line.startswith("verdict: "):
            env["verdict"] = line.split(": ", 1)[1]
        elif line.startswith("trace: "):
            body = line.split(": ", 1)[1]
            env["trace"] = [] if body == "(empty)" else body.split(" ")
        elif line.startswith("judgments: "):
            env["judgments"] = {
                k: v == "yes" for k, v in (w.split("=") for w in line.split()[1:])
            }
        elif line.startswith("failing: "):
            state, event = (w.split("=", 1)[1] for w in line.split()[1:3])
            env["failing"] = {"state": state, "event": event}
        elif line.startswith("matched: "):
            out["matched"] = line.endswith("yes")
        elif line.startswith("secure: "):
            out["secure"] = line.endswith("yes")
        elif line.startswith("sequent: "):
            out["proofs"] = {"sequent": line.split(": ", 1)[1]}
        elif line.startswith(("forward proof (", "contradiction proof (")):
            style = line.split()[0]
            count = int(re.search(r"\((\d+) lines\)", line).group(1))
            out["proofs"][style] = "\n".join(lines[i + 1 : i + 1 + count])
    return out


def _proof_ok(table, lines, last):
    rows = table.splitlines()
    return len(rows) == lines and rows[-1].split()[1] == last


def report_matches(report, want):
    """Compare a parsed report (JSON or text) with `expected_dual`."""
    envs = {e["kind"]: e for e in report["environments"]}
    for kind in ("ideal", "nonideal"):
        got, exp = envs[kind], want[kind]
        failing = got["failing"] and (got["failing"]["state"], got["failing"]["event"])
        if got["verdict"] != exp["verdict"] or got["trace"] != exp["trace"] or failing != exp["failing"]:
            return False
        walked = exp["failing"] is None
        if got["judgments"]["partial_order"] != walked or got["judgments"]["entailment"] != exp["entailment"]:
            return False
    if envs["nonideal"]["judgments"]["matching"] != want["matched"]:
        return False
    if envs["nonideal"]["attackers"] != want["nonideal"]["attackers"]:
        return False
    if report["matched"] != want["matched"] or report["secure"] != want["secure"]:
        return False
    proofs = report["proofs"]
    if not want["provable"]:
        return proofs is None
    return (
        proofs is not None
        and proofs["sequent"] == want["sequent"]
        and _proof_ok(proofs["forward"], want["forward_lines"], want["terminal"])
        and _proof_ok(proofs["contradiction"], want["contradiction_lines"], "false")
    )
