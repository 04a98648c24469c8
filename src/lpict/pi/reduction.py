"""One-step reduction: TAU, REACT and REACT' closed under parallel,
restriction and structural congruence.

Successors are enumerated on the normalized form, so the closure rules are
implicit: redexes hidden behind restriction or reordered parallels are found
after hoisting, and each replication !Q is read as Q | Q | !Q, so that its
body reacts with the level and with itself. Interchangeable components give
congruent successors, so only one representative of each class of them takes
part in a reaction. Successors are returned in standard form.
"""

from __future__ import annotations

from .congruence import assemble, level_groups, level_parts, normalize, standard_form
from .terms import Bang, Process, Receive, Send, Sum, Tau, all_names, fresh_name, substitute

TAU = "TAU"
REACT = "REACT"
REACT_POLYADIC = "REACT'"


def reduce_step(p: Process) -> frozenset[tuple[str, Process]]:
    """All one-step successors of p, tagged with the axiom rule that fired."""
    n = normalize(p)
    binders, comps = map(list, level_parts(n))
    used = set(all_names(n)) | set(binders)

    # Each replication adds two copies of its body, with fresh binders, to the
    # level as ordinary components: a reaction involves at most two components,
    # so two copies find every reaction. Copy k > 0 owns its binders and
    # components; the level's own are owned by 0.
    binder_owner, owner, copies = [0] * len(binders), [0] * len(comps), 0
    for c in tuple(comps):
        if isinstance(c, Bang):
            cb, cc = level_parts(c.body)
            for _ in range(2):
                copies += 1
                ren = {}
                for b in cb:
                    ren[b] = fresh_name(b, used)
                    used.add(ren[b])
                binders += ren.values()
                binder_owner += [copies] * len(ren)
                comps += [substitute(x, ren) for x in cc]
                owner += [copies] * len(cc)

    # Two components are interchangeable when they are congruent and every
    # level binder they use is their own, that is when each is a group of one
    # with the same key: swapping them, with those binders, maps the term to
    # itself. Any other component is a class of its own. A class keeps two
    # members, enough for a reaction inside it.
    alone = {members[0]: key for key, _, members in level_groups(binders, comps, {}, 0) if len(members) == 1}
    classes: dict = {}
    for i, comp in enumerate(comps):
        if isinstance(comp, Sum):
            members = classes.setdefault(alone.get(i, i), [])
            if len(members) < 2:
                members.append((i, comp))

    found: set[tuple[str, Process]] = set()

    def emit(tag: str, replacements: dict[int, Process]) -> None:
        # Replacements map component indices to their continuations. The copies
        # the reaction did not touch are dropped, as the replication absorbs them.
        keep = {0} | {owner[i] for i in replacements}
        new_binders = [b for b, k in zip(binders, binder_owner) if k in keep]
        new_comps = [replacements.get(i, c) for i, c in enumerate(comps) if owner[i] in keep]
        found.add((tag, standard_form(assemble(new_binders, new_comps))))

    for members in classes.values():
        i, comp = members[0]
        for pi, cont in comp.branches:
            if isinstance(pi, Tau):
                emit(TAU, {i: cont})

    for r_members in classes.values():
        for s_members in classes.values():
            if r_members is s_members:
                if len(r_members) < 2:
                    continue
                (r, r_comp), (s, s_comp) = r_members
            else:
                (r, r_comp), (s, s_comp) = r_members[0], s_members[0]
            receives = [(pi, cont) for pi, cont in r_comp.branches if isinstance(pi, Receive)]
            sends = [(pi, cont) for pi, cont in s_comp.branches if isinstance(pi, Send)]
            for rpi, rcont in receives:
                for spi, scont in sends:
                    if rpi.channel == spi.channel and len(rpi.params) == len(spi.args):
                        cont = substitute(rcont, dict(zip(rpi.params, spi.args)))
                        emit(REACT if not rpi.params else REACT_POLYADIC, {r: cont, s: scont})

    return frozenset(found)
