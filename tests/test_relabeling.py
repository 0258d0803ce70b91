"""Property tests: the medial test, the invariant profile, classification and
affine recognition do not depend on how the elements of a table are labeled."""

from functools import cache

from hypothesis import given, settings, strategies as st

import quandles as Q

from conftest import alexander_by_scan, relabel

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@cache
def members():
    """Pairwise non-isomorphic quandles of orders 4 and 5."""
    return Q.census(4) + Q.census(5)


def relabelings(q):
    return st.permutations(q.elements()).map(lambda p: relabel(q, Q.Permutation(tuple(p))))


@PROPERTY
@given(st.data())
def test_medial_test_and_profile_survive_relabeling(data):
    q = data.draw(st.sampled_from(members()))
    r = data.draw(relabelings(q))
    assert Q.is_abelian(r) == Q.is_abelian(q)
    assert Q.invariant_profile(r) == Q.invariant_profile(q)


@PROPERTY
@given(st.data())
def test_classification_follows_a_shuffle(data):
    picks = data.draw(st.lists(st.sampled_from(members()), min_size=1, max_size=8))
    qs = [data.draw(relabelings(q)) for q in picks]
    order = data.draw(st.permutations(range(len(qs))))
    forward = Q.classify_family(qs)
    shuffled = Q.classify_family([qs[i] for i in order])
    expected = {frozenset(i for i, p in enumerate(picks) if p is q) for q in picks}
    assert {frozenset(c.members) for c in forward} == expected
    assert {frozenset(order[j] for j in c.members) for c in shuffled} == expected
    assert [c.representative for c in shuffled] == [c.representative for c in forward]


GROUPS = [g.cyclic_factors for n in range(1, 13) for g in Q.abelian_group_specs(n)]


@cache
def automorphisms(factors):
    return [t for t, _ in Q.enumerate_automorphisms(Q.AbelianGroupSpec(factors))]


@settings(PROPERTY, max_examples=30)
@given(st.data())
def test_affine_witness_survives_relabeling(data):
    factors = data.draw(st.sampled_from(GROUPS))
    q = Q.affine(Q.AbelianGroupSpec(factors), data.draw(st.sampled_from(automorphisms(factors))))
    r = data.draw(relabelings(q))
    w, v = Q.alexander_recognize(q), Q.alexander_recognize(r)
    assert (v.group, v.generator_images) == (w.group, w.generator_images)
    assert v == alexander_by_scan(r)
