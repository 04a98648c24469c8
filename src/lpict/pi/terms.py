"""Process term syntax: prefixes, sums, parallel composition, restriction, replication.

Terms are immutable; all operations return new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

Name = str


class _Term:
    """A compound term stores its hash on first use: the successors of one
    reduction step share their components. Each subclass names this
    `__hash__` in its body, where a frozen dataclass would make its own. A
    pickle leaves the stored hash out: string hashes differ between processes."""

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(tuple(getattr(self, name) for name in self.__match_args__))
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class Tau:
    """Internal action prefix."""


@dataclass(frozen=True)
class Receive:
    """Input prefix: receive `params` on `channel`. Params bind in the continuation."""

    channel: Name
    params: tuple[Name, ...] = ()

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate binder in receive prefix on {self.channel!r}")


@dataclass(frozen=True)
class Send:
    """Output prefix: send `args` on `channel`."""

    channel: Name
    args: tuple[Name, ...] = ()


Prefix = Union[Tau, Receive, Send]


@dataclass(frozen=True)
class Nil:
    """The inert process."""


@dataclass(frozen=True)
class Sum(_Term):
    """Guarded choice. Each branch pairs an action prefix with its continuation.

    A lone prefixed term is a one-branch sum; the zero-branch sum is Nil.
    """

    branches: tuple[tuple[Prefix, "Process"], ...]
    __hash__ = _Term.__hash__

    def __post_init__(self):
        if not self.branches:
            raise ValueError("empty sum; use Nil instead")


@dataclass(frozen=True, init=False)
class Par(_Term):
    """Parallel composition `P1 | .. | Pn` of two or more components, one node
    for the whole level. A nested Par component is a parenthesized group. The
    components come positionally, or as `components=`, which `replace` passes."""

    components: tuple["Process", ...]
    __hash__ = _Term.__hash__

    def __init__(self, *parts: "Process", components: tuple["Process", ...] = ()):
        components = parts or tuple(components)
        if len(components) < 2:
            raise ValueError("a parallel composition needs two or more components")
        object.__setattr__(self, "components", components)


@dataclass(frozen=True)
class Restrict(_Term):
    """`new name body`: name is private to body."""

    name: Name
    body: "Process"
    __hash__ = _Term.__hash__


@dataclass(frozen=True)
class Bang(_Term):
    """Replication."""

    body: "Process"
    __hash__ = _Term.__hash__


Process = Union[Nil, Sum, Par, Restrict, Bang]

NIL = Nil()


def free_names(p: Process) -> frozenset[Name]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Sum):
        out: set[Name] = set()
        for pi, cont in p.branches:
            if isinstance(pi, Tau):
                out |= free_names(cont)
            elif isinstance(pi, Receive):
                out.add(pi.channel)
                out |= free_names(cont) - set(pi.params)
            else:
                out.add(pi.channel)
                out |= set(pi.args)
                out |= free_names(cont)
        return frozenset(out)
    if isinstance(p, Par):
        return frozenset().union(*map(free_names, p.components))
    if isinstance(p, Restrict):
        return free_names(p.body) - {p.name}
    if isinstance(p, Bang):
        return free_names(p.body)
    raise TypeError(f"not a process term: {p!r}")


def all_names(p: Process) -> frozenset[Name]:
    """Every name occurring in p, free or bound."""
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Sum):
        out: set[Name] = set()
        for pi, cont in p.branches:
            if isinstance(pi, Receive):
                out.add(pi.channel)
                out |= set(pi.params)
            elif isinstance(pi, Send):
                out.add(pi.channel)
                out |= set(pi.args)
            out |= all_names(cont)
        return frozenset(out)
    if isinstance(p, Par):
        return frozenset().union(*map(all_names, p.components))
    if isinstance(p, Restrict):
        return all_names(p.body) | {p.name}
    if isinstance(p, Bang):
        return all_names(p.body)
    raise TypeError(f"not a process term: {p!r}")


def fresh_name(base: Name, avoid) -> Name:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(p: Process, mapping: Mapping[Name, Name]) -> Process:
    """Capture-avoiding simultaneous renaming of free names."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return p
    return _subst(p, mapping)


def _subst(p: Process, m: Mapping[Name, Name]) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Sum):
        return Sum(tuple(_subst_branch(pi, cont, m) for pi, cont in p.branches))
    if isinstance(p, Par):
        return Par(*(_subst(c, m) for c in p.components))
    if isinstance(p, Restrict):
        body, name = _subst_under_binders(p.body, (p.name,), m)
        return Restrict(name[0], body)
    if isinstance(p, Bang):
        return Bang(_subst(p.body, m))
    raise TypeError(f"not a process term: {p!r}")


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
    if not live:
        return body, binders
    captured = [b for b in binders if b in live.values()]
    if captured:
        avoid = set(fv) | set(live.values()) | set(live.keys()) | set(binders) | set(
            all_names(body)
        )
        renaming: dict[Name, Name] = {}
        new_binders = []
        for b in binders:
            if b in captured:
                nb = fresh_name(b, avoid)
                avoid.add(nb)
                renaming[b] = nb
                new_binders.append(nb)
            else:
                new_binders.append(b)
        body = _subst(body, renaming)
        binders = tuple(new_binders)
    return _subst(body, live), binders
