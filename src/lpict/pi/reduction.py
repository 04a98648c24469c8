"""One-step reduction: TAU, REACT and REACT' closed under parallel,
restriction and structural congruence.

Successors are enumerated on the normalized form, so the closure rules are
implicit: redexes hidden behind restriction or reordered parallels are found
after hoisting, and each replication is unfolded `unfold` times to expose the
redexes of its body. Interchangeable components give congruent successors,
so only one representative of each class of them takes part in a reaction.
Successors are returned in standard form.
"""

from __future__ import annotations

from .congruence import assemble, level_groups, level_parts, normalize, standard_form
from .terms import Bang, Process, Receive, Send, Sum, Tau, all_names, fresh_name, substitute

TAU = "TAU"
REACT = "REACT"
REACT_POLYADIC = "REACT'"


def reduce_step(p: Process, unfold: int = 1) -> frozenset[tuple[str, Process]]:
    """All one-step successors of p, tagged with the axiom rule that fired."""
    n = normalize(p)
    binders, comps = level_parts(n)
    used = set(all_names(n)) | set(binders)

    # Pool entries: (owner, component). Real components own themselves; each
    # replication contributes `unfold` freshened copies of its body.
    pool: list[tuple[tuple, Sum]] = []
    copies: dict[tuple, tuple[list[str], list[Process]]] = {}
    for i, c in enumerate(comps):
        if isinstance(c, Sum):
            pool.append((("real", i), c))
        elif isinstance(c, Bang):
            cb, cc = level_parts(c.body)
            for j in range(unfold):
                ren = {}
                fresh_binders = []
                for b in cb:
                    nb = fresh_name(b, used)
                    used.add(nb)
                    ren[b] = nb
                    fresh_binders.append(nb)
                copy_comps = [substitute(x, ren) if ren else x for x in cc]
                copies[(i, j)] = (fresh_binders, copy_comps)
                for idx, cp in enumerate(copy_comps):
                    if isinstance(cp, Sum):
                        pool.append((("copy", i, j, idx), cp))

    # Two real components are interchangeable when they are congruent and
    # every level binder they use is their own, that is when each is a group
    # of one with the same key: swapping them, with those binders, maps the
    # term to itself. Every other entry is its own class. A class keeps two
    # members, enough for a reaction inside it.
    alone = {members[0]: key for key, _, members in level_groups(binders, comps, {}, 0) if len(members) == 1}
    classes: dict = {}
    for owner, comp in pool:
        cls = alone.get(owner[1], owner) if owner[0] == "real" else owner
        members = classes.setdefault(cls, [])
        if len(members) < 2:
            members.append((owner, comp))

    found: set[tuple[str, Process]] = set()

    def emit(tag: str, replacements: dict[tuple, Process]) -> None:
        # Replacements map owner ids to the continuation that replaces them.
        new_binders = list(binders)
        new_comps: list[Process] = []
        touched_copies = {owner[1:3] for owner in replacements if owner[0] == "copy"}
        for i, c in enumerate(comps):
            new_comps.append(replacements.get(("real", i), c))
        for key in sorted(touched_copies):
            cb, cc = copies[key]
            new_binders.extend(cb)
            for idx, cp in enumerate(cc):
                new_comps.append(replacements.get(("copy", key[0], key[1], idx), cp))
        found.add((tag, standard_form(assemble(new_binders, new_comps))))

    for members in classes.values():
        owner, comp = members[0]
        for pi, cont in comp.branches:
            if isinstance(pi, Tau):
                emit(TAU, {owner: cont})

    for r_members in classes.values():
        for s_members in classes.values():
            if r_members is s_members:
                if len(r_members) < 2:
                    continue
                (r_owner, r_comp), (s_owner, s_comp) = r_members
            else:
                (r_owner, r_comp), (s_owner, s_comp) = r_members[0], s_members[0]
            for rpi, rcont in r_comp.branches:
                if not isinstance(rpi, Receive):
                    continue
                for spi, scont in s_comp.branches:
                    if not isinstance(spi, Send):
                        continue
                    if rpi.channel != spi.channel or len(rpi.params) != len(spi.args):
                        continue
                    cont = substitute(rcont, dict(zip(rpi.params, spi.args)))
                    tag = REACT if not rpi.params else REACT_POLYADIC
                    emit(tag, {r_owner: cont, s_owner: scont})

    return frozenset(found)
