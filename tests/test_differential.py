"""lpict's dual verdict against the benchmark's oracle on random models.

`bench/oracle.py` works the expected answers out from the model text
without lpict. It does not evaluate transition guards, so this test applies
README's fact rule on top of the oracle's runs: the visited states hold and
the others do not, and an event has its value in the latest visited state
that declares it (false if none does). The oracle is loaded by path.
"""

import importlib.util
import itertools
import random
from pathlib import Path

from lpict.analysis import analyze_protocol, dual_environment_verdict
from lpict.models import apply_environment, load_model, render_model

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
TAGS = ("replay", "mitm", "confidentiality", "integrity", "identity_auth", "forward_secrecy")
EVENTS = [f"e{i}" for i in range(9)]


def load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_expr(rng, leaves, negate):
    """`leaves` joined by random & and |, grouped at random, each leaf
    negated with probability `negate`."""
    parts = [("!" if rng.random() < negate else "") + name for name in leaves]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [f"({parts[i]} {rng.choice('&|')} {parts[i + 1]})"]
    return parts[0]


def random_model(rng):
    """Model text, the action of each transition by source, and the
    non-ideal attackers."""
    states = [f"S{i}" for i in range(rng.randint(2, 6))]
    lines, declared = ['protocol "Random"'], []
    for i, sid in enumerate(states):
        if i and rng.random() < 0.1:
            lines.append(f"alias {sid} = {states[i - 1]}")
            continue
        if sid == states[-1] and rng.random() < 0.2:
            lines.append(f"state {sid} {{ }}")
            continue
        names = rng.sample(EVENTS, rng.randint(1, 6))
        declared += names
        lines.append(f"state {sid} {{")
        for name in names:
            tags = rng.sample(TAGS, rng.randint(0, 5))
            lines.append(f"  event {name}" + (" resists " + " ".join(tags) if tags else ""))
        if len(names) > 1 and rng.random() < 0.5:
            lines.append("  combine " + " ".join(rng.choice(("and", "or")) for _ in names[1:]))
        elif len(names) > 1 or rng.random() < 0.5:
            leaves = names + rng.choices(names, k=rng.randint(0, 3))
            rng.shuffle(leaves)
            lines.append("  combine expr " + random_expr(rng, leaves, 0.15))
        lines.append("}")
    actions = {}
    for i, (a, b) in enumerate(zip(states, states[1:])):
        line = f"transition {a} -> {b}"
        actions[a] = f"{a}->{b}"
        if rng.random() < 0.5:
            actions[a] = f"step{i}"
            line += f" action step{i}"
        if rng.random() < 0.6:
            atoms = rng.choices(states[: i + 2] + sorted(set(declared)), k=rng.randint(1, 4))
            line += " when " + random_expr(rng, atoms, 0.2)
        lines.append(line)
    attackers = tuple(c for c in ("replay", "mitm", "eavesdrop", "tamper", "impersonate") if rng.random() < 0.25)
    lines += [f"initial {states[0]}", f"terminal {states[-1]}", "environment ideal"]
    lines.append("environment nonideal" + (" attackers " + " ".join(attackers) if attackers else ""))
    return "\n".join(lines) + "\n", actions, attackers


def guard_stop(oracle, model, attackers, run, actions):
    """Index and failing pair of the first false guard on the oracle's run,
    or None: a guard is read after its source state's tree is true."""
    broken = {oracle.COUNTER[a] for a in attackers}
    facts = dict.fromkeys(list(model.states) + EVENTS, False)
    guards = {source: guard for source, _, guard in model.transitions}
    for i, sid in enumerate(model.chain()[: len(run["trace"])]):
        if run["failing"] is not None and run["failing"][0] == sid:
            return None
        facts.update({name: broken <= tags for name, tags in model.states[sid][0]})
        facts[sid] = True
        python = (guards.get(sid) or "True").replace("!", " not ").replace("&", " and ").replace("|", " or ")
        if not eval(python, {"__builtins__": {}}, facts):
            return i, (sid, actions[sid])
    return None


def expected(oracle, text, actions, attackers):
    model = oracle.read_model(text)
    want = oracle.expected_dual(model, attackers)
    for kind, caps in (("ideal", ()), ("nonideal", attackers)):
        stop = guard_stop(oracle, model, caps, want[kind], actions)
        if stop is not None:
            i, failing = stop
            want[kind] = dict(want[kind], verdict="flawed", trace=want[kind]["trace"][: i + 1], failing=failing)
    want["matched"] = want["nonideal"]["trace"] == want["ideal"]["trace"]
    want["secure"] = want["ideal"]["verdict"] == "secure" and want["matched"]
    return want


def test_dual_verdict_agrees_with_oracle():
    oracle = load_oracle()
    rng = random.Random(6)
    seen = set()
    for _ in range(400):
        text, actions, attackers = random_model(rng)
        model = load_model(text)
        assert load_model(render_model(model)) == model
        got = dual_environment_verdict(model)
        want = expected(oracle, text, actions, attackers)
        for kind, outcome in (("ideal", got.ideal), ("nonideal", got.nonideal)):
            assert outcome.verdict == want[kind]["verdict"], text
            assert [sym.token() for sym in outcome.trace] == want[kind]["trace"], text
            assert outcome.failing == want[kind]["failing"], text
            if outcome.failing is not None:
                seen.add("guard" if outcome.failing[1] in actions.values() else "tree")
        assert got.matched == want["matched"], text
        assert got.secure == want["secure"], text
        seen.add(got.secure)
    # every kind of outcome occurs
    assert seen == {True, False, "guard", "tree"}


def test_shared_walk_agrees_with_separate_walks():
    """The non-ideal walk of a dual verdict takes the ideal walk's symbol for
    each state whose event values agree; each outcome must still be the one
    that a walk of its environment alone gives."""
    rng = random.Random(6)
    shared_after_differing = 0
    for _ in range(400):
        model = load_model(random_model(rng)[0])
        got = dual_environment_verdict(model)
        for kind, outcome in (("ideal", got.ideal), ("nonideal", got.nonideal)):
            alone = analyze_protocol(model, model.environment(kind))
            assert outcome.trace == alone.trace and outcome.failing == alone.failing
            assert outcome.verdict == alone.verdict
            assert outcome.judgments.partial_order == alone.judgments.partial_order
            assert outcome.judgments.entailment == alone.judgments.entailment
        values = [apply_environment(model, model.environment(kind)) for kind in ("ideal", "nonideal")]
        agree = [values[0][sym.state] == values[1][sym.state] for sym in got.nonideal.trace[: len(got.ideal.trace)]]
        shared_after_differing += False in agree and True in agree[agree.index(False) :]
    # some walk takes a shared symbol after a state it evaluated itself
    assert shared_after_differing >= 5


def test_generator_reaches_every_shape():
    rng = random.Random(6)
    texts = [random_model(rng)[0] for _ in range(400)]
    words = set(itertools.chain.from_iterable(t.split() for t in texts))
    assert {"alias", "expr", "when", "action", "and", "or", "{", "}"} <= words
    assert any("!" in t for t in texts) and any("attackers" not in t for t in texts)
