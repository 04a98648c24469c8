import contextlib
import io
import sys

from lpict.cli import run_cli
from lpict.pi import parser
from lpict.pi.congruence import standard_form, structurally_congruent
from lpict.pi.parser import parse_process, pretty_print
from lpict.pi.reduction import REACT, REACT_POLYADIC, TAU, nested_replication, reduce_step
from lpict.pi.terms import Bang, Par, Restrict, Sum, free_names, substitute

from conftest import profiled_calls, random_term

P = parse_process


def successors(term):
    return {(tag, t) for tag, t in reduce_step(term)}


def assert_single(term, expected_tag, expected_term):
    got = reduce_step(term)
    assert len(got) == 1
    tag, out = next(iter(got))
    assert tag == expected_tag
    assert structurally_congruent(out, expected_term)


def test_tau_rule():
    assert_single(P("tau.a<>.0 + b.0"), TAU, P("a<>.0"))


def test_react_nullary():
    assert_single(P("(a.p<>.0 + m.0) | (a<>.q<>.0 + n.0)"), REACT, P("p<>.0 | q<>.0"))


def test_react_polyadic_with_substitution():
    # x(y).y<c>.0 | x<z>.0: REACT' then {z/y} on the receiver's continuation
    term = P("x(y).y<c>.0 | x<z>.0")
    receiver_cont = P("y<c>.0")
    expected = substitute(receiver_cont, {"y": "z"})  # capture-avoidance oracle
    assert_single(term, REACT_POLYADIC, expected)


def test_no_redex_is_empty():
    assert reduce_step(P("a.0 | b<>.0")) == frozenset()
    assert reduce_step(P("0")) == frozenset()


def test_arity_mismatch_is_not_a_redex():
    assert reduce_step(P("x(y).0 | x<>.0")) == frozenset()
    assert reduce_step(P("x(y).0 | x<a,b>.0")) == frozenset()


def test_restricted_channel_reacts_inside():
    term = P("new a (a.p<>.0 | a<>.0)")
    assert_single(term, REACT, P("p<>.0"))


def test_reduction_under_restriction_keeps_scope():
    term = P("new a (a(y).y<>.0 | a<b>.0)")
    assert_single(term, REACT_POLYADIC, P("b<>.0"))


def test_replication_provides_copies():
    term = P("!(a.p<>.0) | a<>.0")
    outs = successors(term)
    assert len(outs) == 1
    tag, out = next(iter(outs))
    assert tag == REACT
    assert structurally_congruent(out, P("p<>.0 | !(a.p<>.0)"))


def test_same_bang_reacts_with_itself():
    # !Q == Q | Q | !Q: the receive of one copy meets the send of another
    term = P("!(a.0 + a<>.0)")
    outs = successors(term)
    assert len(outs) == 1
    tag, out = next(iter(outs))
    assert tag == REACT
    assert structurally_congruent(out, term)


def test_multiple_redexes_enumerated():
    term = P("a.p<>.0 | a<>.0 | tau.q<>.0")
    tags = {tag for tag, _ in reduce_step(term)}
    assert tags == {REACT, TAU}
    assert len(reduce_step(term)) == 2


def test_free_names_shrink(rng):
    for _ in range(150):
        term = random_term(rng, rng.randrange(0, 5))
        for _, successor in reduce_step(term):
            assert free_names(successor) <= free_names(term)


def test_struct_closure(rng):
    # congruent terms have identical successor sets (successors are computed
    # on canonical forms and returned in standard form)
    from lpict.pi.terms import NIL, Par

    for _ in range(80):
        term = random_term(rng, rng.randrange(0, 4))
        variant = Par(NIL, Par(term, NIL))
        assert reduce_step(term) == reduce_step(variant)


def test_interchangeable_restricted_senders_react_once_each():
    # the eight senders are congruent and own their binder, so the eight
    # receivers give one successor each, not one per sender
    n = 8
    senders = ["new k x<k>.k(v).0"] * n
    receivers = [f"x(y).y<b{i}>.0" for i in range(n)]
    outs = reduce_step(P(" | ".join(senders + receivers)))
    assert len(outs) == n
    assert {tag for tag, _ in outs} == {REACT_POLYADIC}
    for i in range(n):
        rest = senders[1:] + receivers[:i] + receivers[i + 1 :]
        expected = P(" | ".join(rest + [f"new k (k<b{i}>.0 | k(v).0)"]))
        assert (REACT_POLYADIC, standard_form(expected)) in outs


def test_two_members_of_one_class_react_with_each_other():
    outs = reduce_step(P("(a.p<>.0 + a<>.0) | (a.p<>.0 + a<>.0) | q(z).0"))
    assert outs == {(REACT, standard_form(P("p<>.0 | q(z).0")))}


def test_components_sharing_a_binder_are_not_interchangeable():
    # the two senders are alike, but only k1 is also heard by k1(z), so the
    # receiver gives two different successors
    term = P("new k1 new k2 (x<k1>.0 | k1(z).z<>.0 | x<k2>.0 | x(y).y<b>.0)")
    outs = reduce_step(term)
    assert len(outs) == 2
    assert (REACT_POLYADIC, standard_form(P("new k (k<b>.0 | k(z).z<>.0) | new k x<k>.0"))) in outs


def _free_names_calls(monkeypatch, term):
    # counted where congruence looks free_names up, as the benchmark's tracer does
    import lpict.pi.congruence as congruence

    calls = []
    monkeypatch.setattr(congruence, "free_names", lambda p: calls.append(p) or free_names(p))
    reduce_step(term)
    return len(calls)


def test_free_names_calls_grow_linearly_with_the_level(monkeypatch):
    # a successor keeps the labels of the groups its reaction leaves alone,
    # so a step does not re-scan the whole level once per successor
    def restricted(n):
        return P(" | ".join(["new k x<k>.k(v).0"] * n + [f"x(y).y<b{i}>.0" for i in range(n)]))

    at16 = _free_names_calls(monkeypatch, restricted(16))
    at32 = _free_names_calls(monkeypatch, restricted(32))
    assert at32 <= 5000
    assert at32 <= 2.5 * at16


def test_successor_binders_skip_only_the_names_still_free():
    # v0 is free in the term but not in its successor, so a binder may take it
    assert successors(P("tau.(new k k<>.0) + v0<>.0")) == {(TAU, P("new v0 v0<>.0"))}
    assert successors(P("tau.(new k k<v0>.0) + v1<>.0")) == {(TAU, P("new v1 v1<v0>.0"))}


def test_only_some_successors_take_the_second_naming_pass():
    # both successors share the receiver, decoded at the same index; only the
    # first has v0 free, so only there is its parameter named around it
    outs = reduce_step(P("y(z).z<>.0 | (tau.v0<>.0 + tau.0)"))
    assert {(tag, pretty_print(s)) for tag, s in outs} == {(TAU, "y(v1).v1<>.0 | v0<>.0"), (TAU, "y(v0).v0<>.0")}


def test_reduce_step_keeps_no_state_between_calls():
    import lpict.pi.congruence as congruence
    import lpict.pi.reduction as reduction

    def state():
        return {
            m.__name__: {k: (id(v), len(v) if isinstance(v, (dict, list, set)) else None) for k, v in vars(m).items()}
            for m in (congruence, reduction)
        }

    term = P(" | ".join(["new k x<k>.k(v).0"] * 4 + [f"x(y).y<b{i}>.0" for i in range(4)]))
    before = state()
    first = reduce_step(term)
    assert reduce_step(term) == first
    assert state() == before


def replication_on_level(p):
    if isinstance(p, Bang):
        return True
    if isinstance(p, Restrict):
        return replication_on_level(p.body)
    return isinstance(p, Par) and any(map(replication_on_level, p.components))


def nested_replications(p):
    """Every replication with a replication on its body's level, recursively."""
    if isinstance(p, Bang):
        return [p] * replication_on_level(p.body) + nested_replications(p.body)
    if isinstance(p, Restrict):
        return nested_replications(p.body)
    if isinstance(p, Par):
        return [b for c in p.components for b in nested_replications(c)]
    if isinstance(p, Sum):
        return [b for _, cont in p.branches for b in nested_replications(cont)]
    return []


def test_nested_replication_is_the_first_in_print_order(rng):
    found = 0
    for _ in range(3000):
        term = random_term(rng, 5)
        expected = nested_replications(term)
        got = nested_replication(term)
        if expected:
            found += 1
            assert got is expected[0]
        else:
            assert got is None
    assert found >= 20


def _senders_and_receivers(n):
    """n distinct senders and n equal receivers: a term with n successors."""
    return " | ".join([f"x<m{i}>.0" for i in range(n)] + ["x(y).y<c>.0"] * n)


def _marginals(counts):
    """The count added per unit of size between each two neighbouring sizes."""
    sizes = sorted(counts)
    return [(counts[b] - counts[a]) / (b - a) for a, b in zip(sizes, sizes[1:])]


def test_reduce_step_pairs_in_classes_plus_reactions():
    # README: the sends are indexed by channel and arity, so pairing costs the
    # classes plus the reactions, not the square of the classes.
    def one_reaction(n):  # 2n + 2 classes, one reaction
        return P(" | ".join(["x<>.0", "x.0"] + [f"a{i}<>.0" for i in range(n)] + [f"b{i}.0" for i in range(n)]))

    reduce_step(P(_senders_and_receivers(4)))  # one-time costs
    per_successor, lone = {}, {}
    for n in (8, 16, 32, 64):
        assert len(reduce_step(P(_senders_and_receivers(n)))) == n and len(reduce_step(one_reaction(n))) == 1
        per_successor[n] = profiled_calls(reduce_step, P(_senders_and_receivers(n))) / n
        lone[n] = profiled_calls(reduce_step, one_reaction(n))
    # each successor has 2n - 1 components, so its calls grow by a constant per added pair
    for marginals in (_marginals(per_successor), _marginals(lone)):
        assert max(marginals) <= 1.05 * min(marginals), marginals


def _texts_made(argv):
    """The `pretty_print` calls of one `run_cli(argv)` that make a text; the
    others return the text the term stored."""
    made = 0

    def profile(frame, event, arg):
        nonlocal made
        made += event == "call" and frame.f_code is parser._make_text.__code__

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            assert run_cli(argv) == 0
        finally:
            sys.setprofile(None)
    return made


def test_reduce_prints_each_component_of_a_step_once():
    # README: `lpict reduce` prints a successor by joining the stored texts of
    # the components it shares with its siblings. On n senders and n receivers
    # the n successors have 2n - 1 components each, but the texts a step makes
    # grow with the components they do not share: a constant per added pair.
    made = {}
    for n in (8, 16, 32):
        term = _senders_and_receivers(n)
        made[n] = _texts_made(["reduce", "--term", term, "--steps", "1"]) - _texts_made(["reduce", "--term", term, "--steps", "0"])
    marginals = _marginals(made)
    assert max(marginals) <= 1.05 * min(marginals), (made, marginals)
