import random
import re

import pytest

from lpict.pi.congruence import (
    is_standard_form,
    level_parts,
    normalize,
    standard_form,
    structurally_congruent,
)
from lpict.pi.parser import parse_process, pretty_print
from lpict.pi.terms import NIL, Bang, Par, Restrict, free_names

from conftest import FREE_NAMES, halves, random_term

cong = structurally_congruent
P = parse_process


def test_parallel_unit():
    for source in ("a.0", "tau.b<>.0", "new x x.0", "!a<b>.0"):
        assert cong(P(f"{source} | 0"), P(source))
        assert cong(Par(NIL, P(source)), P(source))


def test_parallel_commutative():
    assert cong(P("a.0 | b.0"), P("b.0 | a.0"))


def test_parallel_associative():
    assert cong(P("a.0 | (b.0 | c.0)"), P("(a.0 | b.0) | c.0"))


def test_distinct_free_channels_not_congruent():
    assert not cong(P("a.0"), P("b.0"))


def test_alpha_conversion():
    assert cong(P("new x x<a>.0"), P("new y y<a>.0"))
    assert cong(P("c(x).x<>.0"), P("c(y).y<>.0"))


def test_sum_reordering():
    assert cong(P("a.0 + b.0"), P("b.0 + a.0"))


def test_scope_extrusion():
    assert cong(P("new x (a.0 | x<b>.0)"), P("a.0 | new x x<b>.0"))


def test_restriction_of_unused_name():
    assert cong(P("new x 0"), P("0"))


def test_restriction_order_irrelevant():
    assert cong(P("new x new y (x<>.0 | y<>.0)"), P("new y new x (x<>.0 | y<>.0)"))


def test_replication_unfolding():
    assert cong(P("!a.0"), P("a.0 | !a.0"))
    assert cong(P("!(a.0 | b.0)"), P("a.0 | b.0 | !(a.0 | b.0)"))
    assert cong(P("!(new x x.0)"), P("new x x.0 | !(new x x.0)"))


def test_replication_copy_count_matters():
    # two visible copies are not one visible copy
    assert not cong(P("a.0 | a.0"), P("a.0"))
    assert cong(P("a.0 | a.0 | !a.0"), P("!a.0"))


def test_binder_permutation_with_asymmetric_use():
    left = P("new m new n (m.0 | m.0 | n.0)")
    right = P("new m new n (m.0 | n.0 | n.0)")
    # congruent: swap the two binders
    assert cong(left, right)


def test_standard_form_drops_unused_restriction():
    assert standard_form(P("new x 0")) == NIL


def test_standard_form_hoists_restriction():
    term = P("a.0 | new x (x<b>.0)")
    sf = standard_form(term)
    assert cong(sf, P("new x (a.0 | x<b>.0)"))
    binders, comps = level_parts(sf)
    assert len(binders) == 1 and len(comps) == 2


def test_standard_form_same_for_swapped_restrictions():
    a = standard_form(P("new x new y (x<>.0 | y<>.0)"))
    b = standard_form(P("new y new x (x<>.0 | y<>.0)"))
    assert a == b


def test_standard_form_properties(rng):
    for _ in range(250):
        term = random_term(rng, rng.randrange(0, 6))
        sf = standard_form(term)
        assert cong(sf, term)
        assert is_standard_form(sf)
        assert free_names(sf) == free_names(term)
        assert standard_form(sf) == sf


def test_is_standard_form_shape():
    assert is_standard_form(NIL)
    assert is_standard_form(P("a.0 | !b.0"))
    assert not is_standard_form(P("a.0 | 0"))
    assert not is_standard_form(Par(Restrict("x", P("x.0")), P("a.0")))
    assert not is_standard_form(Par(P("a.0"), Par(P("b.0"), P("c.0"))))


def test_congruence_is_equivalence(rng):
    # reflexive on arbitrary terms; symmetric and transitive across
    # law-generated variants
    for _ in range(150):
        term = random_term(rng, rng.randrange(0, 6))
        assert cong(term, term)
        variant = Par(term, NIL)
        variant2 = Par(NIL, Par(term, NIL))
        assert cong(term, variant) and cong(variant, term)
        assert cong(variant, variant2) and cong(term, variant2)


def test_scope_extrusion_random(rng):
    for _ in range(150):
        left = random_term(rng, 3)
        right = random_term(rng, 3)
        name = next(n for n in FREE_NAMES + ["fresh0"] if n not in free_names(left))
        assert cong(Restrict(name, Par(left, right)), Par(left, Restrict(name, right)))


def test_replication_law_random(rng):
    for _ in range(150):
        body = random_term(rng, 3)
        assert cong(Bang(body), Par(body, Bang(body)))


def _law_rewrites(term, rng):
    """Congruence-preserving rewrites applicable at the root."""
    out = [Par(term, NIL), Par(NIL, term)]
    if isinstance(term, Par):
        left, right = halves(term)
        out.append(Par(right, left))
        if isinstance(left, Par):
            ll, lr = halves(left)
            out.append(Par(ll, Par(lr, right)))
        if isinstance(right, Par):
            rl, rr = halves(right)
            out.append(Par(Par(left, rl), rr))
    if isinstance(term, Bang):
        out.append(Par(term.body, term))
    if isinstance(term, Restrict) and isinstance(term.body, Par):
        left, right = halves(term.body)
        if term.name not in free_names(left):
            out.append(Par(left, Restrict(term.name, right)))
    return out


def test_random_walk_of_laws_stays_congruent(rng):
    # apply chains of law rewrites; every intermediate stays congruent with
    # the origin, exercising transitivity through multi-step derivations
    for _ in range(60):
        origin = random_term(rng, rng.randrange(0, 4))
        current = origin
        for _ in range(rng.randrange(1, 5)):
            current = rng.choice(_law_rewrites(current, rng))
            assert cong(origin, current)
            assert cong(current, origin)


def test_congruence_symmetric_on_random_pairs(rng):
    for _ in range(150):
        left = random_term(rng, rng.randrange(0, 5))
        right = random_term(rng, rng.randrange(0, 5))
        flag = cong(left, right)
        assert flag == cong(right, left)
        if flag:
            assert free_names(left) == free_names(right)


def test_congruent_terms_print_differently_but_normalize_equal():
    a = P("new u (c<u>.0 | d.0) | e.0")
    b = P("e.0 | new w (d.0 | c<w>.0)")
    assert cong(a, b)
    assert standard_form(a) == standard_form(b)
    assert pretty_print(standard_form(a)) == pretty_print(standard_form(b))


def _one_level(binders, comps):
    return P("".join(f"new {b} " for b in binders) + "(" + " | ".join(comps) + ")")


def _renamed_copy(binders, comps, order, comp_order):
    """The level with its restrictions declared in `order`, its components
    listed in `comp_order` and every binder renamed."""
    fresh = {b: f"z{i}" for i, b in enumerate(reversed(binders))}
    rename = lambda text: re.sub(r"\b[bk]\d+\b", lambda m: fresh.get(m.group(0), m.group(0)), text)  # noqa: E731
    return _one_level([fresh[binders[i]] for i in order], [rename(comps[i]) for i in comp_order])


def _assert_congruent_copies(binders, comps, seed):
    rng = random.Random(seed)
    k, n = len(binders), len(comps)
    shuffled, comp_shuffle = list(range(k)), list(range(n))
    rng.shuffle(shuffled)
    rng.shuffle(comp_shuffle)
    p = _one_level(binders, comps)
    for order, comp_order in (
        (list(reversed(range(k))), list(reversed(range(n)))),
        (shuffled, comp_shuffle),
    ):
        q = _renamed_copy(binders, comps, order, comp_order)
        assert cong(p, q)
        assert standard_form(p) == standard_form(q)
        assert is_standard_form(standard_form(q))


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_restriction_reordering_many_binders(k):
    # each binder is told apart only through the free name it is linked to
    binders = [f"b{i}" for i in range(k)]
    link = list(range(k))
    random.Random(k).shuffle(link)
    comps = [f"b{i}(y).y<f{i}>.0" for i in range(k)] + [f"f{link[i]}<b{i}>.0" for i in range(k)]
    _assert_congruent_copies(binders, comps, seed=k)
    sf = standard_form(_one_level(binders, comps))
    assert len(level_parts(sf)[0]) == k
    assert standard_form(sf) == sf


def test_directed_ring_of_eight_binders():
    # every binder looks alike until one is individualized
    binders = [f"b{i}" for i in range(8)]
    comps = [f"b{i}<b{(i + 1) % 8}>.0" for i in range(8)]
    _assert_congruent_copies(binders, comps, seed=8)
    reversed_ring = _one_level(binders, [f"b{(i + 1) % 8}<b{i}>.0" for i in range(8)])
    assert cong(_one_level(binders, comps), reversed_ring)  # relabelling b_i -> b_-i
    two_rings = [f"b{i}<b{(i + 1) % 4 + 4 * (i // 4)}>.0" for i in range(8)]
    assert not cong(_one_level(binders, comps), _one_level(binders, two_rings))


def test_clique_of_eight_binders_with_one_marked():
    # every swap of two unmarked binders is an automorphism
    binders = [f"b{i}" for i in range(8)]
    comps = [f"b{i}<b{j}>.0" for i in range(8) for j in range(8) if i != j] + ["f<b3>.0"]
    _assert_congruent_copies(binders, comps, seed=56)
    assert not cong(_one_level(binders, comps), _one_level(binders, comps[1:]))


def _cubic(edges, n=8):
    binders = [f"b{i}" for i in range(n)]
    comps = [f"e<b{i},b{j}>.0 + e<b{j},b{i}>.0" for i, j in edges]
    return binders, comps


def test_regular_graphs_that_refinement_cannot_split():
    # the cube and the Moebius ladder on 8 vertices are both connected and
    # 3-regular, so colour refinement alone leaves every binder tied
    cube = _cubic([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)])
    ladder = _cubic([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    _assert_congruent_copies(*cube, seed=3)
    _assert_congruent_copies(*ladder, seed=4)
    assert not cong(_one_level(*cube), _one_level(*ladder))
    assert standard_form(_one_level(*cube)) != standard_form(_one_level(*ladder))


def test_random_cubic_graphs_keep_their_key_under_relabelling():
    # a cycle with random chords is regular, so refinement alone splits
    # nothing, and mostly has few automorphisms, so the labelling depends on
    # which binders are individualized
    rng = random.Random(1212)
    for trial in range(8):
        n = 10
        cycle = {frozenset((i, (i + 1) % n)) for i in range(n)}
        while True:
            ends = rng.sample(range(n), n)
            chords = [(ends[i], ends[i + 1]) for i in range(0, n, 2)]
            if not any(frozenset(c) in cycle for c in chords):
                break
        edges = [tuple(sorted(e)) for e in cycle] + chords
        _assert_congruent_copies(*_cubic(edges, n), seed=trial)


def test_replication_absorbs_its_copy_among_many_binders():
    others = " | ".join(f"new k{i} c<k{i}>.k{i}.0" for i in range(8))
    bang = "!(new x new y (a<x,y>.0 | x.y.0))"
    assert cong(P(f"{others} | {bang} | new u new v (a<u,v>.0 | u.v.0)"), P(f"{others} | {bang}"))
    assert not cong(P(f"{others} | {bang} | new u new v (a<u,v>.0 | v.u.0)"), P(f"{others} | {bang}"))
    # a level binder free in the replication stays bound around it
    assert cong(P("new k (!k<a>.0 | k<a>.0)"), P("new k !k<a>.0"))
    # a binder the copy shares with another component cannot be taken
    shared = standard_form(P("new u (a<u>.0 | b<u>.0) | !(new y a<y>.0)"))
    binders, comps = level_parts(shared)
    assert len(binders) == 1 and len(comps) == 3


def test_normalize_is_a_fixpoint(rng):
    for _ in range(2000):
        once = normalize(random_term(rng, 4))
        assert normalize(once) == once


def test_normalize_keeps_a_binder_name_that_does_not_clash():
    term = P("new k (k.0 | a<k>.0)")
    printed = []
    for _ in range(3):
        term = normalize(term)
        printed.append(pretty_print(term))
    assert printed == ["new k (k.0 | a<k>.0)"] * 3


def test_normalize_renames_a_binder_that_would_capture():
    # hoisting `new k` over the level would capture the free k of k<>.0,
    # and two sibling binders named m cannot both keep the name
    assert pretty_print(normalize(P("new k k.0 | k<>.0"))) == "new k1 (k1.0 | k<>.0)"
    assert pretty_print(normalize(P("new m m.0 | new m m<>.0"))) == "new m new m1 (m.0 | m1<>.0)"
    # an inner restriction of the same name holds only its own components
    shadowed = P("new k (k<>.0 | new k k.0)")
    assert pretty_print(normalize(shadowed)) == "new k new k1 (k<>.0 | k1.0)"
    assert not cong(shadowed, P("new k (k<>.0 | k.0)"))


def test_standard_form_binders_skip_the_free_names():
    sf = standard_form(P("new k (a<k>.0 | v0<k>.0) | v2(y).y<v1>.0 | new m m<v0>.0"))
    assert pretty_print(sf) == "new v3 new v4 (v2(v5).v5<v1>.0 | v3<v0>.0 | a<v4>.0 | v0<v4>.0)"
