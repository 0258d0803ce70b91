"""Property tests: the medial test, the invariant profile, classification and
affine recognition do not depend on how the elements of a table are labeled;
isomorphism mappings verify cell by cell; emit/parse and product/decompose
round trips return what they were given; and no gate keeps a table alive."""

import gc
import random
import weakref
from functools import cache

from hypothesis import given, settings, strategies as st

import quandles as Q

from conftest import alexander_by_scan, is_isomorphism, relabel

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


@PROPERTY
@given(st.data())
def test_isomorphism_mappings_verify_cell_by_cell(data):
    q = data.draw(st.sampled_from(members()))
    r, s = data.draw(relabelings(q)), data.draw(relabelings(q))
    for a, b in ((q, r), (r, s)):
        result = Q.are_isomorphic(a, b)
        assert result.isomorphic and is_isomorphism(a, b, result.mapping)


# letters, JSON escapes and non-ASCII; the emitters omit an empty name
NAMES = st.one_of(st.none(), st.text('aZ 1*"\\\n\té√🜁', min_size=1, max_size=12))


@PROPERTY
@given(st.data())
def test_table_text_and_json_round_trips(data):
    q = data.draw(st.sampled_from(members()))
    r = Q.Quandle(q.order, data.draw(relabelings(q)).table, name=data.draw(NAMES))
    text, as_json = Q.emit_table(r), Q.emit_table_json(r)
    assert Q.parse_table_text(text) == r and Q.parse_table_text(text).name is None
    assert Q.parse_table(text) == r
    for parsed in (Q.parse_table_json(as_json), Q.parse_table(as_json)):
        assert parsed == r and parsed.name == r.name


PHASE_TABLES = st.tuples(*[st.tuples(*[st.integers(0, 2)] * 3)] * 3)


@PROPERTY
@given(PHASE_TABLES)
def test_phase_text_round_trip(f):
    rule = Q.PhaseRule(f)
    assert Q.parse_phase_text(Q.emit_phase(rule)) == rule


@PROPERTY
@given(st.data())
def test_product_decompose_round_trip(data):
    base = data.draw(relabelings(data.draw(st.sampled_from(members()))))
    rule = Q.PhaseRule(data.draw(PHASE_TABLES))
    convention = data.draw(st.sampled_from(["xa", "ax"]))
    assert Q.decompose3(Q.product3(base, rule, convention), convention) == (base, rule)


def test_dropped_tables_are_freed():
    """The axiom verdict, the translations and the other derived data live on the table,
    so a table that went through every gated entry point is freed once dropped."""
    bases = [Q.dihedral(9), Q.TABLE1, Q.conjugation(Q.symmetric_group(3)), Q.dihedral(7)]
    rng, seen, refs = random.Random(16), set(), []
    for i in range(10**4):
        base = bases[i % len(bases)]
        images = list(base.elements())
        rng.shuffle(images)
        r = relabel(base, Q.Permutation(tuple(images)))
        if r.table in seen:
            continue
        seen.add(r.table)
        Q.ensure_quandle(r)
        Q.invariant_profile(r)
        Q.orbits(r)
        Q.inner_structure(r)
        Q.inn_group(r)
        assert Q.are_isomorphic(r, base).isomorphic
        assert len(Q.classify_family([base, r])) == 1
        Q.alexander_recognize(r, max_order=15)
        Q.audit_transfer(r, Q.trivial_rule(), alexander_budget=1)
        refs.append(weakref.ref(r))
        if len(refs) == 1000:
            break
    del r
    gc.collect()
    assert len(refs) == 1000
    assert [ref for ref in refs if ref() is not None] == []
