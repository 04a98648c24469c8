"""Independent-oracle cross-checks for congruence and reduction.

The congruence oracle closes random terms under one- and two-step law
rewrites applied at every position and demands that every reachable variant
be judged congruent. The reduction oracle is a second reducer written
against the raw syntax tree (explicit parallel/restriction contexts, no
canonicalization) for replication-free terms; successor sets must agree up
to congruence. The labelling oracle is a brute-force canonical key, the
least key over every order of each level's binders: on terms with a few
binders per level it must agree with congruence and standard forms.
"""

import itertools
import random

from lpict.pi.congruence import canonical_key, normalize, standard_form, structurally_congruent
from lpict.pi.parser import pretty_print
from lpict.pi.reduction import REACT, REACT_POLYADIC, TAU, reduce_step
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
    assemble,
    free_names,
    fresh_name,
    level_parts,
    substitute,
)

from conftest import FREE_NAMES, PARAM_POOL, halves, random_prefix, random_term


def _root_rewrites(t):
    out = {Par(t, NIL), Par(NIL, t)}
    if isinstance(t, Par):
        left, right = halves(t)
        out.add(Par(right, left))
        if isinstance(left, Par):
            ll, lr = halves(left)
            out.add(Par(ll, Par(lr, right)))
        if isinstance(right, Par):
            rl, rr = halves(right)
            out.add(Par(Par(left, rl), rr))
        if isinstance(left, Nil):
            out.add(right)
        if isinstance(right, Nil):
            out.add(left)
        if isinstance(right, Restrict) and right.name not in free_names(left):
            out.add(Restrict(right.name, Par(left, right.body)))
    if isinstance(t, Restrict):
        if t.name not in free_names(t.body):
            out.add(t.body)
        if isinstance(t.body, Restrict):
            out.add(Restrict(t.body.name, Restrict(t.name, t.body.body)))
        if isinstance(t.body, Par):
            left, right = halves(t.body)
            if t.name not in free_names(left):
                out.add(Par(left, Restrict(t.name, right)))
            if t.name not in free_names(right):
                out.add(Par(Restrict(t.name, left), right))
    if isinstance(t, Bang):
        out.add(Par(t.body, t))
    if isinstance(t, Sum) and len(t.branches) > 1:
        branches = list(t.branches)
        for i in range(len(branches) - 1):
            swapped = branches[:]
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            out.add(Sum(tuple(swapped)))
    return out


def _all_rewrites(t):
    out = set(_root_rewrites(t))
    if isinstance(t, Par):
        left, right = halves(t)
        out |= {Par(l2, right) for l2 in _all_rewrites(left)}
        out |= {Par(left, r2) for r2 in _all_rewrites(right)}
    elif isinstance(t, Restrict):
        out |= {Restrict(t.name, b2) for b2 in _all_rewrites(t.body)}
    elif isinstance(t, Bang):
        out |= {Bang(b2) for b2 in _all_rewrites(t.body)}
    elif isinstance(t, Sum):
        for i, (pi, cont) in enumerate(t.branches):
            for c2 in _all_rewrites(cont):
                branches = list(t.branches)
                branches[i] = (pi, c2)
                out.add(Sum(tuple(branches)))
    return out


def test_law_closure_stays_congruent():
    rng = random.Random(5150)
    for _ in range(50):
        origin = random_term(rng, rng.randrange(0, 4))
        frontier = {origin}
        seen = {origin}
        for _ in range(2):
            frontier = set().union(*(_all_rewrites(t) for t in frontier)) - seen
            frontier = set(itertools.islice(frontier, 40))
            seen |= frontier
        for variant in seen:
            assert structurally_congruent(origin, variant)


def _ref_successors(t):
    if isinstance(t, Sum):
        return [("TAU", cont) for pi, cont in t.branches if isinstance(pi, Tau)]
    if isinstance(t, Restrict):
        return [(tag, Restrict(t.name, s)) for tag, s in _ref_successors(t.body)]
    if not isinstance(t, Par):
        return []
    left, right = halves(t)
    out = [(tag, Par(s, right)) for tag, s in _ref_successors(left)]
    out += [(tag, Par(left, s)) for tag, s in _ref_successors(right)]

    def sums(u, ctx):
        if isinstance(u, Sum):
            return [(u, ctx)]
        if isinstance(u, Par):
            ul, ur = halves(u)
            return sums(ul, lambda s, ur=ur, ctx=ctx: ctx(Par(s, ur))) + sums(
                ur, lambda s, ul=ul, ctx=ctx: ctx(Par(ul, s))
            )
        # communication under a one-sided restriction is reached through the
        # restriction recursion above, not across this split
        return []

    for lsum, lctx in sums(left, lambda s: s):
        for rsum, rctx in sums(right, lambda s: s):
            for a, acont in lsum.branches:
                for b, bcont in rsum.branches:
                    matches = []
                    if isinstance(a, Receive) and isinstance(b, Send):
                        matches.append((a, acont, b, bcont, True))
                    if isinstance(a, Send) and isinstance(b, Receive):
                        matches.append((b, bcont, a, acont, False))
                    for recv, rcont, send, scont, recv_left in matches:
                        if recv.channel != send.channel or len(recv.params) != len(send.args):
                            continue
                        landed = substitute(rcont, dict(zip(recv.params, send.args)))
                        tag = "REACT" if not recv.params else "REACT'"
                        if recv_left:
                            out.append((tag, Par(lctx(landed), rctx(scont))))
                        else:
                            out.append((tag, Par(lctx(scont), rctx(landed))))
    return out


def _free_of(t, kinds):
    """Whether no subterm of t is an instance of kinds."""
    if isinstance(t, kinds):
        return False
    if isinstance(t, Par):
        left, right = halves(t)
        return _free_of(left, kinds) and _free_of(right, kinds)
    if isinstance(t, (Restrict, Bang)):
        return _free_of(t.body, kinds)
    if isinstance(t, Sum):
        return all(_free_of(cont, kinds) for _, cont in t.branches)
    return True


def test_reduction_agrees_with_reference_reducer():
    rng = random.Random(909)
    trials = 0
    while trials < 250:
        term = random_term(rng, rng.randrange(0, 5))
        if not _free_of(term, Bang):
            continue
        trials += 1
        mine = {(tag, canonical_key(s)) for tag, s in reduce_step(term)}
        reference = {(tag, canonical_key(s)) for tag, s in _ref_successors(term)}
        assert mine == reference


def test_successors_sharing_decoded_components_agree_with_reference_reducer():
    # reduce_step decodes the components its successors share once. Each
    # successor must still be its own standard form, print as one, and key
    # like the reference reducer's raw successor, also when a free v<i>
    # sends some successors through the second naming pass.
    rng = random.Random(2718)
    for k in range(300):
        names = FREE_NAMES + ["v0", "v1", "v2"] if k % 2 else FREE_NAMES
        term = Par(*(random_term(rng, rng.randrange(0, 4), names) for _ in range(3)))
        outs = reduce_step(term)
        for _, s in outs:
            assert standard_form(s) == s
            assert pretty_print(standard_form(s)) == pretty_print(s)
        if _free_of(term, Bang):
            reference = _ref_successors(normalize(term))
            assert {(tag, canonical_key(s)) for tag, s in outs} == {(tag, canonical_key(s)) for tag, s in reference}


def _self_reacting_sum(rng):
    """A sum with a receive and a send on one channel, of equal arity, over
    random continuations, so that two copies of it can react."""
    channel = rng.choice(FREE_NAMES)
    params = tuple(rng.sample(PARAM_POOL, rng.randrange(0, 3)))
    args = tuple(rng.choice(FREE_NAMES) for _ in params)
    receive = (Receive(channel, params), random_term(rng, rng.randrange(0, 3), FREE_NAMES + list(params)))
    send = (Send(channel, args), random_term(rng, rng.randrange(0, 3)))
    return Sum(tuple(rng.sample([receive, send], 2)))


def test_replication_reduction_agrees_with_reference_reducer():
    # !Q == Q | Q | !Q, and the reference reducer leaves !Q inert, so it
    # sees every reaction of the replication through the two plain copies;
    # the other components carry no restriction, whose scope the reference
    # would not extrude
    rng = random.Random(1729)
    trials = 0
    while trials < 200:
        others = random_term(rng, rng.randrange(0, 4))
        if not _free_of(others, (Bang, Restrict)):
            continue
        trials += 1
        q = _self_reacting_sum(rng)
        mine = {(tag, canonical_key(s)) for tag, s in reduce_step(Par(others, Bang(q)))}
        unfolded = Par(others, Par(q, Par(q, Bang(q))))
        reference = {(tag, canonical_key(s)) for tag, s in _ref_successors(unfolded)}
        assert mine == reference


# ---------------------------------------------------------------------------
# Many restrictions at one level

WIDE_POOL = [f"k{i}" for i in range(10)]


def _wide_level(rng, k):
    """k binders from a pool of ten names and k..2k prefixed components,
    each drawing names from one or two of the binders and a free name, so that
    binders are linked into groups. Returns the binders and the components.
    Restrictions occur only at the top or under a prefix, where the
    reference reducer reaches them."""
    binders = rng.sample(WIDE_POOL, k)
    comps = []
    for i in range(rng.randrange(k, 2 * k + 1)):
        names = ["a", binders[i % k]] + rng.sample(binders, rng.randrange(0, 2))
        prefix, inner = random_prefix(rng, names)
        comps.append(Sum(((prefix, random_term(rng, rng.randrange(0, 2), inner)),)))
    return binders, comps


def _close(rng, binders, comps):
    """The components in a random parallel tree under all the restrictions."""
    parts = list(comps)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [Par(parts[i], parts[i + 1])]
    body = parts[0]
    for b in reversed(binders):
        body = Restrict(b, body)
    return body


def _wide_term(rng, k):
    return _close(rng, *_wide_level(rng, k))


def _random_rewrite(rng, t):
    """One rewrite of `_root_rewrites` at a random position of t."""
    if rng.random() < 0.85:
        if isinstance(t, Par):
            left, right = halves(t)
            if rng.random() < 0.5:
                return Par(_random_rewrite(rng, left), right)
            return Par(left, _random_rewrite(rng, right))
        if isinstance(t, Restrict):
            return Restrict(t.name, _random_rewrite(rng, t.body))
        if isinstance(t, Bang):
            return Bang(_random_rewrite(rng, t.body))
        if isinstance(t, Sum):
            branches = list(t.branches)
            i = rng.randrange(len(branches))
            branches[i] = (branches[i][0], _random_rewrite(rng, branches[i][1]))
            return Sum(tuple(branches))
    return rng.choice(sorted(_root_rewrites(t), key=repr))


def test_wide_level_law_walk_stays_congruent():
    # the full closure of a wide term is too large; walk through it instead
    rng = random.Random(8128)
    for _ in range(20):
        origin = _wide_term(rng, rng.randrange(5, 10))
        variant = origin
        for _ in range(15):
            variant = _random_rewrite(rng, variant)
            assert structurally_congruent(origin, variant)
        assert standard_form(origin) == standard_form(variant)


def test_wide_level_reduction_agrees_with_reference_reducer():
    rng = random.Random(4096)
    trials = 0
    while trials < 60:
        term = _wide_term(rng, rng.randrange(5, 10))
        if not _free_of(term, Bang):
            continue
        trials += 1
        mine = {(tag, canonical_key(s)) for tag, s in reduce_step(term)}
        reference = {(tag, canonical_key(s)) for tag, s in _ref_successors(term)}
        assert mine == reference


def _brute_key(p, env, depth):
    binders, comps = level_parts(p)
    best = None
    for perm in itertools.permutations(range(len(binders))):
        env2 = {**env, **{b: depth + perm[i] for i, b in enumerate(binders)}}
        inner = depth + len(binders)
        cand = (len(binders), tuple(sorted(_brute_comp_key(c, env2, inner) for c in comps)))
        if best is None or cand < best:
            best = cand
    return best


def _brute_comp_key(c, env, depth):
    if isinstance(c, Bang):
        return (1, _brute_key(c.body, env, depth))
    name = lambda n: ("b", env[n]) if n in env else ("f", n)  # noqa: E731
    branches = []
    for pi, cont in c.branches:
        if isinstance(pi, Tau):
            branches.append((("t",), _brute_key(cont, env, depth)))
        elif isinstance(pi, Send):
            branches.append((("s", name(pi.channel), tuple(map(name, pi.args))), _brute_key(cont, env, depth)))
        else:
            env2 = {**env, **{prm: depth + i for i, prm in enumerate(pi.params)}}
            inner = _brute_key(cont, env2, depth + len(pi.params))
            branches.append((("r", name(pi.channel), len(pi.params)), inner))
    return (0, tuple(sorted(branches)))


def test_standard_forms_equal_exactly_when_congruent():
    # q is a renamed, reordered copy of p (congruent by construction), p
    # with two binders swapped in one component, or an unrelated level of
    # the same size; the brute-force key decides the last two
    rng = random.Random(6174)
    verdicts = []
    for _ in range(40):
        k = rng.randrange(3, 6)
        binders, comps = _wide_level(rng, k)
        p = _close(rng, binders, comps)
        fresh = dict(zip(binders, rng.sample(WIDE_POOL, k)))
        copy = rng.sample([substitute(c, fresh) for c in comps], len(comps))
        swapped = list(comps)
        i = rng.randrange(len(comps))
        swapped[i] = substitute(comps[i], dict(zip(binders[:2], binders[1::-1])))
        candidates = [
            (_close(rng, rng.sample(list(fresh.values()), k), copy), True),
            (_close(rng, binders, swapped), None),
            (_wide_term(rng, k), None),
        ]
        p_brute = _brute_key(normalize(p), {}, 0)
        for q, expected in candidates:
            congruent = structurally_congruent(p, q)
            assert congruent == (standard_form(p) == standard_form(q))
            assert congruent == (p_brute == _brute_key(normalize(q), {}, 0))
            assert expected in (None, congruent)
            verdicts.append(congruent)
    assert 40 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# Exact successors


def _from_scratch(term):
    """reduce_step without classes or kept labels: every pair of components
    of the normalized level reacts, each replication !Q adds two copies of Q
    that stay in the successor, and each successor is standardized whole."""
    binders, comps = map(list, level_parts(normalize(term)))
    used = set(all_names(term)) | set(binders)
    for c in tuple(comps):
        if isinstance(c, Bang):
            for _ in range(2):
                cb, cc = level_parts(c.body)
                ren = {}
                for b in cb:
                    ren[b] = fresh_name(b, used)
                    used.add(ren[b])
                binders += ren.values()
                comps += [substitute(x, ren) for x in cc]
    sums = [(i, c) for i, c in enumerate(comps) if isinstance(c, Sum)]
    out = set()
    for i, c in sums:
        for pi, cont in c.branches:
            steps = [(TAU, {i: cont})] if isinstance(pi, Tau) else []
            for j, d in sums if isinstance(pi, Receive) else ():
                for spi, scont in d.branches:
                    if j != i and isinstance(spi, Send) and spi.channel == pi.channel and len(spi.args) == len(pi.params):
                        landed = substitute(cont, dict(zip(pi.params, spi.args)))
                        steps.append((REACT_POLYADIC if pi.params else REACT, {i: landed, j: scont}))
            for tag, repl in steps:
                out.add((tag, standard_form(assemble(binders, [repl.get(k, x) for k, x in enumerate(comps)]))))
    return out


def test_successors_are_exactly_the_standard_forms_from_scratch():
    # not just up to congruence: the same terms, bound names included
    rng = random.Random(31337)
    for _ in range(300):
        term = random_term(rng, rng.randrange(0, 6))
        assert reduce_step(term) == _from_scratch(term)
    for _ in range(60):
        term = _wide_term(rng, rng.randrange(5, 10))
        assert reduce_step(term) == _from_scratch(term)
    # free names that standard forms would otherwise give to binders
    for _ in range(200):
        term = substitute(random_term(rng, rng.randrange(2, 6)), {"a": "v0", "b": "v1", "x": "v2"})
        assert reduce_step(term) == _from_scratch(term)


def _channel_level(rng):
    """A level of 2 to 12 sums over 1 to 3 channels, arities 0 to 2. Some
    sums hold a send and a receive on one channel, and some come twice, the
    second time with its receive parameters renamed and its branches
    reversed, so that the class of the two has two members that differ."""
    channels = ["a", "b", "c"][: rng.randrange(1, 4)]

    def branch(kind, channel, arity):
        if kind == "s":
            return (Send(channel, tuple(rng.choice(FREE_NAMES) for _ in range(arity))), NIL)
        params = tuple(PARAM_POOL[:arity])
        cont = Sum(((Send(rng.choice(params + ("x",)), ()), NIL),)) if rng.random() < 0.5 else NIL
        return (Receive(channel, params), cont)

    comps, size = [], rng.randrange(2, 13)
    while len(comps) < size:
        channel, arity = rng.choice(channels), rng.randrange(0, 3)
        if rng.random() < 0.3:
            branches = [branch("s", channel, arity), branch("r", channel, arity)]
        else:
            branches = [branch(rng.choice("sr"), rng.choice(channels), rng.randrange(0, 3)) for _ in range(rng.randrange(1, 3))]
        comps.append(Sum(tuple(branches)))
        if len(comps) < size and rng.random() < 0.3:
            renamed = {p: p.upper() for p in PARAM_POOL}
            twin = [(Receive(pi.channel, tuple(renamed[p] for p in pi.params)), substitute(cont, renamed)) if isinstance(pi, Receive) else (pi, cont) for pi, cont in branches]
            comps.append(Sum(tuple(reversed(twin))))
    rng.shuffle(comps)
    return comps


def _reacts(receiver, sender, channels=("a", "b", "c")):
    return any(
        isinstance(r, Receive) and isinstance(s, Send) and r.channel == s.channel and r.channel in channels and len(r.params) == len(s.args)
        for r, _ in receiver.branches
        for s, _ in sender.branches
    )


def test_reactions_found_by_channel_agree_with_reference_reducer():
    rng = random.Random(5151)
    inside_a_class = alone_on_a_channel = 0
    for _ in range(600):
        comps = _channel_level(rng)
        term = Par(*comps)
        mine = reduce_step(term)
        assert {(tag, canonical_key(s)) for tag, s in mine} == {(tag, canonical_key(s)) for tag, s in _ref_successors(term)}
        assert mine == _from_scratch(term)
        # two congruent members, one receiving from the other
        pairs = [(c, d) for i, c in enumerate(comps) for d in comps[i + 1 :] if canonical_key(c) == canonical_key(d)]
        inside_a_class += any(_reacts(c, d) for c, d in pairs)
        # a stuck level where one sum holds the only send and the only
        # receive on their channel
        for c in comps:
            lone = {pi.channel for pi, _ in c.branches} - {pi.channel for d in comps if d is not c for pi, _ in d.branches}
            alone_on_a_channel += not mine and _reacts(c, c, lone)
    assert inside_a_class >= 50 and alone_on_a_channel >= 5, (inside_a_class, alone_on_a_channel)  # 265 and 21 occur
