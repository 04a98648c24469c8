"""One-step reduction: TAU, REACT and REACT' closed under parallel,
restriction and structural congruence.

Successors are enumerated on the normalized form, so the closure rules are
implicit: redexes hidden behind restriction or reordered parallels are found
after hoisting, and each replication !Q is read as Q | Q | !Q, so that its
body reacts with the level and with itself. Interchangeable components give
congruent successors, so only one representative of each class of them takes
part in a reaction, and reactions are found through an index of the sends
by channel. Successors are returned in standard form, keyed from the
parent's labelling: only the groups of components that a reaction touches
are labelled again, and components the successors share are decoded once.
"""

from __future__ import annotations

from .congruence import level_groups, normalize, standard_form, standard_level
from .terms import Bang, Process, Receive, Send, Sum, Tau, all_names, fresh_name, level_parts, substitute

TAU = "TAU"
REACT = "REACT"
REACT_POLYADIC = "REACT'"


def reduce_step(p: Process) -> frozenset[tuple[str, Process]]:
    """All one-step successors of p, tagged with the axiom rule that fired."""
    n = normalize(p)
    binders, comps = map(list, level_parts(n))
    used = set(all_names(n))

    def hoisted(term: Process) -> tuple[list[str], list[Process]]:
        # the level of a normalized term, its binders renamed apart from every
        # name in use, ready to join another level
        cb, cc = level_parts(term)
        ren = {}
        for b in cb:
            ren[b] = fresh_name(b, used)
            used.add(ren[b])
        return list(ren.values()), [substitute(x, ren) for x in cc]

    # Each replication adds two copies of its body to the level as ordinary
    # components: a reaction involves at most two components, so two copies
    # find every reaction. Copy k > 0 owns its components; the level's own are
    # owned by 0.
    owner, copies = [0] * len(comps), 0
    for c in tuple(comps):
        if isinstance(c, Bang):
            for _ in range(2):
                copies += 1
                cb, cc = hoisted(c.body)
                binders += cb
                comps += cc
                owner += [copies] * len(cc)

    # The level is labelled once. A successor keeps the groups that the
    # reaction leaves alone, with their keys, and only the rest is labelled.
    groups = level_groups(binders, comps, {}, 0)
    group_of = {i: g for g, (_, _, members) in enumerate(groups) for i in members}
    labelled = [(key, bs, [comps[i] for i in members]) for key, bs, members in groups]

    # Two components are interchangeable when they are congruent and every
    # level binder they use is their own, that is when each is a group of one
    # with the same key: swapping them, with those binders, maps the term to
    # itself. Any other component is a class of its own. A class keeps two
    # members, enough for a reaction inside it.
    classes: dict = {}
    for i, comp in enumerate(comps):
        if isinstance(comp, Sum):
            key, _, group = groups[group_of[i]]
            members = classes.setdefault(key if len(group) == 1 else i, [])
            if len(members) < 2:
                members.append((i, comp))

    copy_groups: dict[int, set[int]] = {}  # the groups of each copy, the level's as copy 0
    for i, k in enumerate(owner):
        copy_groups.setdefault(k, set()).add(group_of[i])

    found: set[tuple[str, Process]] = set()
    memo: dict = {}  # the successors decode the components they share once

    def emit(tag: str, replacements: dict[int, Process]) -> None:
        # Replacements map component indices to their continuations. The copies
        # the reaction did not touch are dropped, as the replication absorbs them.
        # A touched group keeps its binders whole: those of a dropped copy occur
        # in no kept component, so they fall in no group of the successor.
        keep = {0} | {owner[i] for i in replacements}
        touched = {group_of[i] for i in replacements}.union(*[gs for k, gs in copy_groups.items() if k not in keep])
        new_binders, new_comps = [], []
        for g in touched:
            new_binders += groups[g][1]
            for i in groups[g][2]:
                if i in replacements:
                    cb, cc = hoisted(normalize(replacements[i]))
                    new_binders += cb
                    new_comps += cc
                elif owner[i] in keep:
                    new_comps.append(comps[i])
        kept = [group for g, group in enumerate(labelled) if g not in touched]
        found.add((tag, standard_level(kept, new_binders, new_comps, memo)))

    # Reactions are found by channel: the sends of every class member, keyed
    # by channel and arity, meet the receives of member 0 of each class.
    # Member 0 receives from member 0 of another class or from member 1 of
    # its own, so no component reacts with itself.
    sends: dict[tuple[str, int], list] = {}
    for members in classes.values():
        i, comp = members[0]
        for pi, cont in comp.branches:
            if isinstance(pi, Tau):
                emit(TAU, {i: cont})
        for k, (s, comp) in enumerate(members):
            for pi, cont in comp.branches:
                if isinstance(pi, Send):
                    sends.setdefault((pi.channel, len(pi.args)), []).append((members, k, s, pi.args, cont))

    for members in classes.values():
        r, comp = members[0]
        for pi, rcont in comp.branches:
            if isinstance(pi, Receive):
                for s_members, k, s, args, scont in sends.get((pi.channel, len(pi.params)), ()):
                    if (s_members is members) == (k == 1):
                        cont = substitute(rcont, dict(zip(pi.params, args)))
                        emit(REACT if not args else REACT_POLYADIC, {r: cont, s: scont})

    return frozenset(found)


def nested_replication(p: Process) -> Bang | None:
    """The first replication, in print order, with a replication on its body's
    level, through restrictions and parallels: `reduce_step` misses reactions
    of such a term, as it does not unfold the inner one."""
    stack: list[tuple[Process, Bang | None]] = [(p, None)]  # a term, the replication whose level it is on
    while stack:
        q, bang = stack.pop()
        if isinstance(q, Bang):
            if bang is not None:
                return bang
            stack.append((q.body, q))
        elif isinstance(q, Sum):
            stack += [(cont, None) for _, cont in reversed(q.branches)]
        else:  # a level: its components are on the same level as it
            stack += [(c, bang) for c in reversed(level_parts(q)[1])]
