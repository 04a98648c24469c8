"""Structural congruence, decided by canonicalization.

A term is normalized into prenex shape: restrictions hoisted to the front of
each parallel level (scope extrusion), nil components dropped, parallel
compositions flattened, and any component that duplicates the body of a
sibling replication absorbed back into it (the unfolding law read
right-to-left). Canonical keys are alpha-invariant and label each level's
restrictions by individualization-refinement, so two terms get equal keys
exactly when they are congruent. `standard_form` decodes the canonical key
back into a term, with sorted components and canonically named binders.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import is_

from .terms import NIL, Bang, Nil, Par, Process, Receive, Restrict, Send, Sum, Tau
from .terms import all_names, free_names, fresh_name, substitute


def level_parts(p: Process) -> tuple[tuple[str, ...], tuple[Process, ...]]:
    """Split a term into its restriction prefix and the components of its
    parallel level. A normalized level is flat and has no nil components."""
    binders = []
    while isinstance(p, Restrict):
        binders.append(p.name)
        p = p.body
    if isinstance(p, Par):
        return tuple(binders), p.components
    return tuple(binders), () if isinstance(p, Nil) else (p,)


def assemble(binders, comps) -> Process:
    comps = tuple(comps)
    body: Process = Par(*comps) if len(comps) > 1 else comps[0] if comps else NIL
    for b in reversed(tuple(binders)):
        body = Restrict(b, body)
    return body


# ---------------------------------------------------------------------------
# Canonical keys
#
# A key is the term with every name replaced by its key in `env`: ("b", i)
# for a name bound at depth i, ("f", n) for a free name n. Receive
# parameters take the next depths; the restrictions of a level are labelled
# by `level_groups`.


def _name_key(n: str, env: dict[str, tuple]):
    return env.get(n) or ("f", n)


def _level_key(p: Process, env: dict[str, tuple], depth: int):
    if isinstance(p, Nil):
        return ()
    if isinstance(p, Sum):  # one group that binds nothing
        return ((0, (_comp_key(p, env, depth),)),)
    return tuple(key for key, _, _ in level_groups(*level_parts(p), env, depth))


def level_groups(binders, comps, env: dict[str, tuple], depth: int):
    """Canonically label the binders of a normalized level over its
    components. Components are linked when they share one of the binders;
    each connected group is labelled on its own and the groups come out
    ordered by key, as (key, binders, component indices)."""
    bset = set(binders)
    uses = [free_names(c) & bset for c in comps] if bset else [frozenset()] * len(comps)
    by_binder: dict[str, list[int]] = {b: [] for b in binders}
    for i, cb in enumerate(uses):
        for b in cb:
            by_binder[b].append(i)
    groups, seen = [], set()
    for i, c in enumerate(comps):
        if not uses[i]:
            groups.append(((0, (_comp_key(c, env, depth),)), [], [i]))
            continue
        if i in seen:
            continue
        seen.add(i)
        members, gb, stack = [i], set(uses[i]), list(uses[i])
        while stack:
            for j in by_binder[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    members.append(j)
                    stack.extend(uses[j] - gb)
                    gb |= uses[j]
        bs = [b for b in binders if b in gb]
        cs = [comps[j] for j in members]
        groups.append((_canon_group(bs, cs, [uses[j] for j in members], env, depth), bs, members))
    return sorted(groups, key=lambda g: g[0])


def _canon_group(bs, cs, uses, env, depth):
    """Individualization-refinement labelling of one connected group
    (McKay and Piperno, Practical Graph Isomorphism II, 2014). Binders are
    colour-refined by the keys of the components they occur in; a tied
    binder is individualized and the partition refined again, and the least
    certificate among the discrete leaves labels the group. A tied binder is
    skipped when swapping it with an explored one is an automorphism. One
    binder has one labelling, the search's only leaf, taken directly."""
    if len(bs) == 1:
        return (1, _certificate(bs, cs, env, depth))
    inner = depth + len(bs)
    occ = {b: [i for i, cb in enumerate(uses) if b in cb] for b in bs}
    base = {**env, **{b: ("b", depth + i) for i, b in enumerate(bs)}}
    base_keys: dict[int, tuple] = {}
    best = None  # the least leaf certificate so far

    def refine(colour):
        while True:
            env2 = {**env, **{b: ("c", colour[b]) for b in bs}}
            sig = {}
            for b in bs:
                env2[b] = ("*",)
                sig[b] = (colour[b], tuple(sorted(_comp_key(cs[i], env2, inner) for i in occ[b])))
                env2[b] = ("c", colour[b])
            rank = {s: r for r, s in enumerate(sorted(set(sig.values())))}
            refined = {b: rank[sig[b]] for b in bs}
            if len(rank) == len(set(colour.values())):
                return refined
            colour = refined

    def swap_is_automorphism(u, v):
        affected = set(occ[u]) | set(occ[v])
        for i in affected - base_keys.keys():
            base_keys[i] = _comp_key(cs[i], base, inner)
        swapped = {**base, u: base[v], v: base[u]}
        return sorted(base_keys[i] for i in affected) == sorted(_comp_key(cs[i], swapped, inner) for i in affected)

    def search(colour):
        nonlocal best
        if len(set(colour.values())) < len(bs):
            colour = refine(colour)
        cells: dict[int, list[str]] = {}
        for b in bs:
            cells.setdefault(colour[b], []).append(b)
        if len(cells) == len(bs):
            cert = _certificate(sorted(bs, key=colour.__getitem__), cs, env, depth)
            if best is None or cert < best:
                best = cert
            return
        target = min((len(cell), col) for col, cell in cells.items() if len(cell) > 1)[1]
        explored: list[str] = []
        for v in cells[target]:
            if any(swap_is_automorphism(u, v) for u in explored):
                continue
            explored.append(v)
            search({b: 2 * colour[b] + (b != v) for b in bs})

    search({b: 0 for b in bs})
    del search  # search refers to itself: releasing it lets reference counting free the labelling's state
    return (len(bs), best)


def _certificate(order, cs, env, depth):
    """The sorted keys of the components cs, with the binders numbered in
    `order` from depth on: the certificate of one leaf of the search."""
    leaf = {**env, **{b: ("b", depth + i) for i, b in enumerate(order)}}
    return tuple(sorted(_comp_key(c, leaf, depth + len(order)) for c in cs))


def _comp_key(c: Process, env: dict[str, tuple], depth: int):
    if isinstance(c, Sum):
        return (0, tuple(sorted(_branch_key(pi, cont, env, depth) for pi, cont in c.branches)))
    if isinstance(c, Bang):
        return (1, _level_key(c.body, env, depth))
    raise TypeError(f"unnormalized component: {c!r}")


def _branch_key(pi, cont: Process, env: dict[str, tuple], depth: int):
    if isinstance(pi, Tau):
        return (("t",), _level_key(cont, env, depth))
    if isinstance(pi, Send):
        pk = ("s", _name_key(pi.channel, env), tuple(_name_key(a, env) for a in pi.args))
        return (pk, _level_key(cont, env, depth))
    env2 = {**env, **{prm: ("b", depth + i) for i, prm in enumerate(pi.params)}}
    pk = ("r", _name_key(pi.channel, env), len(pi.params))
    return (pk, _level_key(cont, env2, depth + len(pi.params)))


# ---------------------------------------------------------------------------
# Normalization


def normalize(p: Process) -> Process:
    """Prenex shape with nils dropped, levels flattened, and bang bodies
    absorbed. A restriction keeps its name unless hoisting it would clash,
    and a subterm that normalizing leaves alone is returned itself, so
    normalize(normalize(p)) is normalize(p)."""
    return _norm_term(p, set(all_names(p)))


def _norm_term(p: Process, used: set[str]) -> Process:
    # p itself where nothing changes; a lone sum or replication hoists and absorbs nothing
    if isinstance(p, Bang):
        body = _norm_term(p.body, used)
        return p if body is p.body else Bang(body)
    if isinstance(p, Sum):
        branches = tuple([(pi, _norm_term(cont, used)) for pi, cont in p.branches])
        return p if all(b[1] is c[1] for b, c in zip(branches, p.branches)) else Sum(branches)
    if isinstance(p, Nil):
        return p
    binders, comps = _finalize_level(*_prenex(p, used))
    old_binders, old_comps = level_parts(p)
    same = tuple(binders) == old_binders and len(comps) == len(old_comps) and all(map(is_, comps, old_comps))
    return p if same else assemble(binders, comps)


def _prenex(p: Process, used: set[str]) -> tuple[list[str], list[Process]]:
    """Hoist the restrictions of p's parallel level, inner scopes first. One
    free-name pass over the level finds the components each binder holds. A
    binder that holds none is dropped; one whose name is free in a component
    it does not hold, or kept by another binder, takes a name not in `used`."""
    scopes, comps, stack = [], [], [p]
    while stack:
        q = stack.pop()
        if isinstance(q, tuple):  # the end of a scope: (index, name, first)
            scopes[q[0]] = (q[1], q[2], len(comps))
        elif isinstance(q, Restrict):
            stack += [(len(scopes), q.name, len(comps)), q.body]
            scopes.append(None)
        elif isinstance(q, Par):
            stack += reversed(q.components)
        elif isinstance(q, (Sum, Bang)):
            comps.append(_norm_term(q, used))
        elif not isinstance(q, Nil):
            raise TypeError(f"not a process term: {q!r}")
    where: dict[str, list[int]] = {}
    for i, c in enumerate(comps if scopes else ()):
        for x in free_names(c):
            where.setdefault(x, []).append(i)
    binders, taken = [None] * len(scopes), set()
    for k in reversed(range(len(scopes))):
        name, start, end = scopes[k]
        free = where.get(name, [])
        lo, hi = bisect_left(free, start), bisect_left(free, end)
        holders = free[lo:hi]
        del free[lo:hi]
        if not holders:
            continue
        if free or name in taken:
            nx = fresh_name(name, used)
            used.add(nx)
            for i in holders:
                comps[i] = substitute(comps[i], {name: nx})
            name = nx
        taken.add(name)
        binders[k] = name
    return [b for b in binders if b is not None], comps


def _finalize_level(binders: list[str], comps: list[Process]) -> tuple[list[str], list[Process]]:
    # an absorbed copy takes its own binders along, so no binder falls unused
    while (reduced := _absorb_once(binders, comps)) is not None:
        binders, comps = reduced
    return binders, comps


def _absorb_once(binders: list[str], comps: list[Process]):
    """Remove one replication copy: new B' (!Q | Q') == !Q when Q' is Q with
    its own restrictions extruded as B'. Returns the reduced level or None.
    The binders of B' occur nowhere else, so Q' is a union of the groups that
    the level binders not free in !Q link, whose keys match those of Q."""
    env, depth = {b: ("b", i) for i, b in enumerate(binders)}, len(binders)
    for gi, g in enumerate(comps):
        if not isinstance(g, Bang) or isinstance(g.body, Nil):
            continue
        others = comps[:gi] + comps[gi + 1 :]
        free = free_names(g)
        available: dict = {}
        for group in level_groups([b for b in binders if b not in free], others, env, depth):
            available.setdefault(group[0], []).append(group)
        chosen = []
        for key, _, _ in level_groups(*level_parts(g.body), env, depth):
            if not available.get(key):
                break
            chosen.append(available[key].pop())
        else:
            prime = {b for _, bs, _ in chosen for b in bs}
            taken = {j for _, _, members in chosen for j in members}
            rest = [c for j, c in enumerate(others) if j not in taken]
            return [b for b in binders if b not in prime], rest + [g]
    return None


# ---------------------------------------------------------------------------
# Public operations


def canonical_key(p: Process):
    """A hashable key that two terms share exactly when they are
    structurally congruent."""
    return _level_key(normalize(p), {}, 0)


def structurally_congruent(p: Process, q: Process) -> bool:
    """Decide p == q under alpha-conversion, the parallel/sum monoid laws,
    scope extrusion, and replication unfolding."""
    return canonical_key(p) == canonical_key(q)


def standard_form(p: Process) -> Process:
    """A congruent term shaped new a1..an (M1 | .. | Mm | !Q1 | .. | !Qn),
    with sorted components and canonically renamed binders: the term that
    the canonical key describes."""
    return _decoded(canonical_key(p), {})


def standard_level(kept, binders, comps, memo: dict) -> Process:
    """The standard form of the level of the labelled groups `kept`, as
    (key, binders, components) in key order, and of the normalized `comps`
    under `binders`, which share no name with them. Replication copies are
    absorbed; unless one is, the kept groups keep their keys and only `comps`
    are labelled. Binders that no component uses fall in no group; `memo`
    is as in `_decoded`."""
    level = [c for _, _, cs in kept for c in cs] + comps
    final = _finalize_level([b for _, bs, _ in kept for b in bs] + binders, level)
    if len(final[1]) < len(level):
        kept, (binders, comps) = [], final
    keys = [g[0] for g in kept]
    for key, _, _ in level_groups(binders, comps, {}, 0):
        insort(keys, key)
    return _decoded(tuple(keys), memo)


class _Namer:
    """Names binders v0, v1, .. skipping `avoid`; `index` numbers the next try."""

    def __init__(self, avoid: frozenset[str]):
        self.avoid, self.index = avoid, 0

    def __call__(self) -> str:
        while f"v{self.index}" in self.avoid:
            self.index += 1
        self.index += 1
        return f"v{self.index - 1}"


def _decoded(key, memo: dict) -> Process:
    """The term that a level key describes. Binders are named v0, v1, .. in
    print order, skipping the key's free names; a first reading names them
    regardless, and a second runs only if one of these names is free. A
    top-level component depends only on its key, the names in scope, the
    namer's index and `avoid`, so `memo` maps these, by the key's identity, to
    the key (a hit is checked with `is`), the component, the index after it
    and its free names, for all the terms decoded with it."""

    def shared(ck, scope, namer: _Namer, free: set[str]) -> Process:
        at = (id(ck), scope, namer.index, namer.avoid)
        hit = memo.get(at)
        if hit is None or hit[0] is not ck:
            own: set[str] = set()
            hit = memo[at] = (ck, _decode_comp(ck, scope, namer, own), namer.index, own)
        _, comp, namer.index, own = hit
        free |= own
        return comp

    avoid: frozenset[str] = frozenset()
    while True:
        namer, free = _Namer(avoid), set()
        term = _decode(key, (), namer, free, shared)
        if free.isdisjoint({f"v{i}" for i in range(namer.index)} - avoid):
            return term
        avoid = frozenset(free)


def _decode_comp(ck, names: tuple[str, ...], fresh, free: set[str]) -> Process:
    kind, body = ck
    if kind == 1:
        return Bang(_decode(body, names, fresh, free))
    name = lambda nk: names[nk[1]] if nk[0] == "b" else free.add(nk[1]) or nk[1]  # noqa: E731
    branches = []
    for pk, cont in body:
        if pk[0] == "t":
            branches.append((Tau(), _decode(cont, names, fresh, free)))
        elif pk[0] == "s":
            branches.append((Send(name(pk[1]), tuple(map(name, pk[2]))), _decode(cont, names, fresh, free)))
        else:
            params = tuple([fresh() for _ in range(pk[2])])
            branches.append((Receive(name(pk[1]), params), _decode(cont, names + params, fresh, free)))
    return Sum(tuple(branches))


def _decode(key, names: tuple[str, ...], fresh, free: set[str], comp=_decode_comp) -> Process:
    """Rebuild a level from its key; names[i] is the name bound at depth i.
    Binders are named in print order, sums before replications, each in group
    order; free names are added to `free`, and `comp` decodes each component."""
    binders, sums, bangs = [], [], []
    for m, cert in key:
        local = tuple([fresh() for _ in range(m)]) if m else ()  # else one component
        binders += local
        for ck in cert:
            (bangs if ck[0] else sums).append((ck, names + local if m else names))
    return assemble(binders, [comp(ck, scope, fresh, free) for ck, scope in sums + bangs])


def is_standard_form(p: Process) -> bool:
    """Shape check: restrictions outermost over a parallel of non-empty sums
    and replications whose bodies are recursively in standard form."""
    if isinstance(p, Nil):
        return True
    binders, comps = level_parts(p)
    inner = [cont for c in comps if isinstance(c, Sum) for _, cont in c.branches]
    inner += [c.body for c in comps if isinstance(c, Bang)]
    shaped = all(isinstance(c, (Sum, Bang)) for c in comps)
    return len(set(binders)) == len(binders) and bool(comps) and shaped and all(map(is_standard_form, inner))
