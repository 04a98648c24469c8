import dataclasses
import pickle

import pytest

from lpict.pi.congruence import canonical_key, normalize, standard_form
from lpict.pi.parser import parse_process, pretty_print
from lpict.pi.terms import (
    NIL,
    Bang,
    Nil,
    Par,
    Receive,
    Restrict,
    Send,
    Sum,
    Tau,
    all_names,
    free_names,
    fresh_name,
    level_parts,
    substitute,
)

from conftest import halves, random_term
from test_pi_parser import changed


def oracle_free_names(p, bound=frozenset()):
    """Independent recursive free-name computation for cross-checking."""
    if isinstance(p, Nil):
        return set()
    if isinstance(p, Sum):
        out = set()
        for prefix, cont in p.branches:
            if isinstance(prefix, Tau):
                out |= oracle_free_names(cont, bound)
            elif isinstance(prefix, Receive):
                if prefix.channel not in bound:
                    out.add(prefix.channel)
                out |= oracle_free_names(cont, bound | set(prefix.params))
            else:
                for n in (prefix.channel, *prefix.args):
                    if n not in bound:
                        out.add(n)
                out |= oracle_free_names(cont, bound)
        return out
    if isinstance(p, Par):
        left, right = halves(p)
        return oracle_free_names(left, bound) | oracle_free_names(right, bound)
    if isinstance(p, Restrict):
        return oracle_free_names(p.body, bound | {p.name})
    return oracle_free_names(p.body, bound)


def test_free_names_nil():
    assert free_names(NIL) == frozenset()


def test_free_names_restriction_binds():
    assert free_names(parse_process("new x (x<y>.0)")) == {"y"}


def test_free_names_receive_binds():
    # x(y).y<z>.0: y is bound by the receive, x and z stay free
    term = parse_process("x(y).y<z>.0")
    assert free_names(term) == oracle_free_names(term) == {"x", "z"}


def test_free_names_agrees_with_oracle(rng):
    for _ in range(300):
        term = random_term(rng, rng.randrange(0, 6))
        assert free_names(term) == frozenset(oracle_free_names(term))


def test_substitute_free_send():
    assert substitute(parse_process("y<a>.0"), {"y": "z"}) == parse_process("z<a>.0")


def test_substitute_shadowed_binder():
    term = parse_process("x(y).y<a>.0")
    assert substitute(term, {"y": "z"}) == term


def test_substitute_avoids_capture():
    term = parse_process("new y (x<y>.0)")
    result = substitute(term, {"x": "y"})
    # the bound y must have been renamed away; the substituted channel is free
    assert isinstance(result, Restrict)
    assert result.name != "y"
    assert free_names(result) == {"y"}


def test_substitute_renames_only_the_captured_binder():
    # of the receive's binders a and b only a would capture the new name a
    term = parse_process("x(a,b).c<a,b>.0")
    assert pretty_print(substitute(term, {"c": "a"})) == "x(a1,b).a<a1,b>.0"


def test_substitute_capture_oracle(rng):
    # fn(result) == (fn(term) - dom) | image-of-applied-keys, for renamings
    # whose domain and range stay disjoint from each other per-application
    for _ in range(300):
        term = random_term(rng, rng.randrange(0, 6))
        fn = free_names(term)
        mapping = {"a": "zz", "x": "ww"}
        applied = {k for k in mapping if k in fn}
        expected = (fn - applied) | {mapping[k] for k in applied}
        assert free_names(substitute(term, mapping)) == expected


def test_receive_rejects_duplicate_binders():
    with pytest.raises(ValueError):
        Receive("x", ("y", "y"))


def test_sum_rejects_empty():
    with pytest.raises(ValueError):
        Sum(())


def test_par_needs_two_components():
    for components in ((), (NIL,)):
        with pytest.raises(ValueError):
            Par(*components)


WIDE = " | ".join(["x<a>.0"] * 1500)


@pytest.mark.parametrize(
    "holds",
    [
        lambda t: free_names(t) == {"x", "a"},
        lambda t: all_names(t) == {"x", "a"},
        lambda t: substitute(t, {"a": "b"}) == parse_process(WIDE.replace("<a>", "<b>")),
        lambda t: normalize(t) == t,
        lambda t: len(canonical_key(t)) == 1500,
        lambda t: hash(t) == hash(parse_process(WIDE)),
        lambda t: t == parse_process(WIDE),
        lambda t: parse_process(pretty_print(t)) == t,
    ],
    ids=["free_names", "all_names", "substitute", "normalize", "canonical_key", "hash", "eq", "round_trip"],
)
def test_wide_level_does_not_recurse(holds):
    # one parallel level of 1500 components is one node, walked in a loop
    assert holds(parse_process(WIDE))


RESTRICTED = " | ".join(["(new k a<k>.0)"] * 1500)


def _level_text(binders, comps):
    return "".join(f"new {b} " for b in binders) + "(" + " | ".join(comps) + ")"


def test_a_run_of_restrictions_does_not_recurse(low_recursion_limit):
    # normalizing hoists the 1500 binders into one run of nested restrictions,
    # which names and text read as one level, in a loop
    level = normalize(parse_process(RESTRICTED))
    binders, comps = level_parts(level)
    assert sorted(binders) == sorted(["k"] + [f"k{i}" for i in range(1, 1500)])
    assert [pretty_print(c) for c in comps] == [f"a<{b}>.0" for b in binders]
    assert all_names(level) == {"a", *binders} and free_names(level) == {"a"}
    assert pretty_print(level) == _level_text(binders, [f"a<{b}>.0" for b in binders])
    standard = standard_form(level)
    names = [f"v{i}" for i in range(1500)]
    assert level_parts(standard)[0] == tuple(names)
    assert pretty_print(standard) == _level_text(names, [f"a<{b}>.0" for b in names])
    assert all_names(standard) == {"a", *names}
    # a level stores its names and text once, on its outermost node
    inner = standard.body
    assert "_names" in vars(standard) and "_text" in vars(standard)
    assert "_names" not in vars(inner) and "_text" not in vars(inner)


def test_stored_hashes_agree_and_stay_out_of_a_pickle():
    import pickle

    source = "new k (x<k>.0 | !x(y).(y<a>.0 + tau.0) | (a.0 | b.0))"
    p, q = parse_process(source), parse_process(source)
    assert hash(p) == hash(q) and hash(p) == hash(p)
    assert vars(p)["_hash"] == hash(p)  # stored by the inherited Cached.__hash__
    assert {p: 1}[q] == 1 and p == q
    state = pickle.dumps(p)
    assert b"_hash" not in state
    copy = pickle.loads(state)
    assert copy == p and hash(copy) == hash(p)


# ---------------------------------------------------------------------------
# Stored names and sharing substitution


def walked_names(p, bound=frozenset()):
    """(free names, all names) of p, from a walk that stores nothing."""
    if isinstance(p, Nil):
        return set(), set()
    if isinstance(p, Sum):
        free, every = set(), set()
        for prefix, cont in p.branches:
            names = () if isinstance(prefix, Tau) else (prefix.channel, *getattr(prefix, "args", ()))
            params = getattr(prefix, "params", ())
            free |= {n for n in names if n not in bound}
            cont_free, cont_all = walked_names(cont, bound | set(params))
            free |= cont_free
            every |= set(names) | set(params) | cont_all
        return free, every
    if isinstance(p, Par):
        parts = [walked_names(c, bound) for c in p.components]
        return set().union(*[f for f, _ in parts]), set().union(*[a for _, a in parts])
    if isinstance(p, Restrict):
        free, every = walked_names(p.body, bound | {p.name})
        return free, every | {p.name}
    return walked_names(p.body, bound)


def plain_substitute(p, m):
    """Capture-avoiding renaming that rebuilds every node, binders chosen as
    `substitute` chooses them."""
    if isinstance(p, Nil):
        return p
    if isinstance(p, Sum):
        branches = []
        for pi, cont in p.branches:
            if isinstance(pi, Receive):
                cont, params = plain_under_binders(cont, pi.params, m)
                branches.append((Receive(m.get(pi.channel, pi.channel), params), cont))
            elif isinstance(pi, Send):
                branches.append((Send(m.get(pi.channel, pi.channel), tuple(m.get(a, a) for a in pi.args)), plain_substitute(cont, m)))
            else:
                branches.append((pi, plain_substitute(cont, m)))
        return Sum(tuple(branches))
    if isinstance(p, Par):
        return Par(*(plain_substitute(c, m) for c in p.components))
    if isinstance(p, Restrict):
        body, (name,) = plain_under_binders(p.body, (p.name,), m)
        return Restrict(name, body)
    return Bang(plain_substitute(p.body, m))


def plain_under_binders(body, binders, m):
    fv, every = walked_names(body)
    live = {k: v for k, v in m.items() if k not in binders and k in fv}
    captured = [b for b in binders if b in live.values()]
    if captured:
        avoid = fv | set(live.values()) | set(live) | set(binders) | every
        renaming = {}
        for b in captured:
            renaming[b] = fresh_name(b, avoid)
            avoid.add(renaming[b])
        body = plain_substitute(body, renaming)
        binders = tuple(renaming.get(b, b) for b in binders)
    return plain_substitute(body, live), binders


def test_a_term_stores_its_names_once_and_as_a_plain_walk_finds_them(rng):
    for _ in range(2000):
        term = random_term(rng, rng.randrange(0, 6))
        expected = tuple(map(frozenset, walked_names(term)))
        never_named = pickle.loads(pickle.dumps(term))
        assert (free_names(term), all_names(term)) == expected
        assert free_names(term) is free_names(term) and all_names(term) is all_names(term)
        if not isinstance(term, Nil):
            assert term.__dict__["_names"] == expected
        # a pickle holds only the fields: the stored names do not travel
        assert pickle.dumps(term) == pickle.dumps(never_named)
        copy = pickle.loads(pickle.dumps(term))
        assert (free_names(copy), all_names(copy)) == expected
        for other in (dataclasses.replace(term), changed(term)) if not isinstance(term, Nil) else ():
            assert (free_names(other), all_names(other)) == tuple(map(frozenset, walked_names(other)))


def test_substitute_shares_what_it_leaves_alone(rng):
    pool = ["a", "b", "c", "x", "y", "z", "p", "q", "m", "n"]
    captures = 0
    for k in range(2000):
        term = random_term(rng, rng.randrange(0, 6))
        if k % 2:
            term = Par(term, random_term(rng, rng.randrange(0, 4)), random_term(rng, rng.randrange(0, 4)))
        mapping = {key: rng.choice(pool) for key in rng.sample(pool, rng.randrange(1, 4))}
        renames = {key: v for key, v in mapping.items() if key != v}
        result = substitute(term, mapping)
        assert result == plain_substitute(term, renames)
        assert (result is term) == free_names(term).isdisjoint(renames)
        if isinstance(term, Par):
            for old, new in zip(term.components, result.components):
                assert (new is old) == free_names(old).isdisjoint(renames)
        # a binder renamed to avoid capture takes a name in neither
        captures += not all_names(result) <= all_names(term) | set(renames.values())
    assert captures >= 20, captures  # 46 occur
    away = {"zz": "y"}
    term = parse_process("a(x).x<b>.0 | c<d>.0 | !e.0")
    assert substitute(term, away) is term
    renamed = substitute(term, {"c": "y"})
    assert renamed.components[0] is term.components[0] and renamed.components[2] is term.components[2]


@pytest.mark.parametrize("value", [object(), Tau(), "a.0", None])
def test_names_of_a_non_term_are_a_type_error(value):
    for names in (free_names, all_names):
        with pytest.raises(TypeError, match="not a process term"):
            names(value)
