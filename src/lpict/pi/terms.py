"""Process term syntax: prefixes, sums, parallel composition, restriction, replication.

Terms are immutable. An operation that changes nothing may return the term it
was given: `normalize` returns a normal term itself, and `substitute` a
subterm it renames nothing in. A compound term stores its hash, its names and
its printed text on first use (`Cached`); a level, `(ν ã)(P1 | .. | Pn)`, which
`level_parts` reads in a loop, stores its names and text once, on its outermost
node. The successors of one reduction step share their components, so each is
hashed and printed once.
"""

from __future__ import annotations

from itertools import count
from typing import Mapping

from ..logic.formulas import Cached, frozen_record

Name = str


@frozen_record
class Tau:
    """Internal action prefix."""


@frozen_record
class Receive:
    """Input prefix: receive `params` on `channel`. Params bind in the continuation."""

    channel: Name
    params: tuple[Name, ...] = ()

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate binder in receive prefix on {self.channel!r}")


@frozen_record
class Send:
    """Output prefix: send `args` on `channel`."""

    channel: Name
    args: tuple[Name, ...] = ()


Prefix = Tau | Receive | Send


@frozen_record
class Nil:
    """The inert process."""


@frozen_record
class Sum(Cached):
    """Guarded choice. Each branch pairs an action prefix with its continuation.

    A lone prefixed term is a one-branch sum; the zero-branch sum is Nil.
    """

    branches: tuple[tuple[Prefix, "Process"], ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("empty sum; use Nil instead")


@frozen_record
class Par(Cached):
    """Parallel composition `P1 | .. | Pn` of two or more components, one node
    for the whole level. A nested Par component is a parenthesized group. The
    components come positionally, or as `components=`, which `replace` passes."""

    components: tuple["Process", ...]

    def __init__(self, *parts: "Process", components: tuple["Process", ...] = ()):
        components = parts or tuple(components)
        if len(components) < 2:
            raise ValueError("a parallel composition needs two or more components")
        object.__setattr__(self, "components", components)

    def __reduce__(self):
        return Par, self.components


@frozen_record
class Restrict(Cached):
    """`new name body`: name is private to body."""

    name: Name
    body: "Process"


@frozen_record
class Bang(Cached):
    """Replication."""

    body: "Process"


Process = Nil | Sum | Par | Restrict | Bang

NIL = Nil()


def level_parts(p: Process) -> tuple[tuple[Name, ...], tuple[Process, ...]]:
    """Split a term into its restriction prefix and the components of its
    parallel level. A normalized level is flat and has no nil components."""
    binders = []
    while isinstance(p, Restrict):
        binders.append(p.name)
        p = p.body
    return tuple(binders), p.components if isinstance(p, Par) else () if isinstance(p, Nil) else (p,)


def assemble(binders, comps) -> Process:
    body: Process = Par(*comps) if len(comps) > 1 else comps[0] if comps else NIL
    for b in reversed(binders):
        body = Restrict(b, body)
    return body


_NO_NAMES: tuple[frozenset[Name], frozenset[Name]] = (frozenset(), frozenset())


def free_names(p: Process) -> frozenset[Name]:
    return _names(p)[0]


def all_names(p: Process) -> frozenset[Name]:
    """Every name occurring in p, free or bound."""
    return _names(p)[1]


def _names(p: Process) -> tuple[frozenset[Name], frozenset[Name]]:
    """p's free names and all its names. A compound term finds both in one
    walk on first use and stores them in its `__dict__`."""
    if isinstance(p, Nil):
        return _NO_NAMES
    if not isinstance(p, (Sum, Par, Restrict, Bang)):
        raise TypeError(f"not a process term: {p!r}")
    names = p.__dict__.get("_names")
    if names is not None:
        return names
    if isinstance(p, Sum):
        free: set[Name] = set()
        every: set[Name] = set()
        for pi, cont in p.branches:
            cont_free, cont_all = _names(cont)
            if isinstance(pi, Receive):
                free.add(pi.channel)
                cont_free, cont_all = cont_free.difference(pi.params), cont_all.union(pi.params)
            elif isinstance(pi, Send):
                free.add(pi.channel)
                free.update(pi.args)
            free |= cont_free
            every |= cont_all
        names = frozenset(free), frozenset(free | every)
    elif isinstance(p, Bang):
        names = _names(p.body)
    else:  # a level: its binders bind in every component, of which it may have none
        binders, comps = level_parts(p)
        frees, alls = zip(_NO_NAMES, *map(_names, comps))
        names = frozenset().union(*frees).difference(binders), frozenset(binders).union(*alls)
    p.__dict__["_names"] = names
    return names


def fresh_names(base: Name):
    """base, base1, base2, ..: the names `fresh_name` tries in turn."""
    return (f"{base}{i or ''}" for i in count())


def fresh_name(base: Name, avoid) -> Name:
    return next(n for n in fresh_names(base) if n not in avoid)


def substitute(p: Process, mapping: Mapping[Name, Name]) -> Process:
    """Capture-avoiding simultaneous renaming of free names. A subterm with
    no free name that the mapping renames is returned itself."""
    return _subst(p, {k: v for k, v in mapping.items() if k != v})


def _subst(p: Process, m: Mapping[Name, Name]) -> Process:
    if free_names(p).isdisjoint(m):
        return p
    if isinstance(p, Sum):
        return Sum(tuple([_subst_branch(pi, cont, m) for pi, cont in p.branches]))
    if isinstance(p, Par):
        return Par(*[_subst(c, m) for c in p.components])
    if isinstance(p, Restrict):
        body, name = _subst_under_binders(p.body, (p.name,), m)
        return Restrict(name[0], body)
    return Bang(_subst(p.body, m))


def _subst_branch(pi: Prefix, cont: Process, m: Mapping[Name, Name]):
    if isinstance(pi, Tau):
        return (pi, _subst(cont, m))
    if isinstance(pi, Send):
        new = Send(m.get(pi.channel, pi.channel), tuple(m.get(a, a) for a in pi.args))
        return (new, _subst(cont, m))
    # Receive: channel is free, params bind in the continuation.
    channel = m.get(pi.channel, pi.channel)
    cont, params = _subst_under_binders(cont, pi.params, m)
    return (Receive(channel, params), cont)


def _subst_under_binders(body: Process, binders: tuple[Name, ...], m: Mapping[Name, Name]):
    """Apply m under `binders`, alpha-renaming any binder that would capture."""
    fv = free_names(body)
    live = {k: v for k, v in m.items() if k not in binders and k in fv}
    captured = [b for b in binders if b in live.values()]
    if captured:
        avoid = {*all_names(body), *live.values(), *binders}
        renaming: dict[Name, Name] = {}
        for b in captured:
            renaming[b] = fresh_name(b, avoid)
            avoid.add(renaming[b])
        body = _subst(body, renaming)
        binders = tuple(renaming.get(b, b) for b in binders)
    return _subst(body, live), binders
