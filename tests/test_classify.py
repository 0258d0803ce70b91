import hashlib
import json
import random
import sys

import pytest

import quandles as Q

from conftest import (all_quandle_tables_by_columns, brute_isomorphic, census_by_labeled, derived_data_tables,
                      is_isomorphism, kept_by_both_cuts, least_relabeling_by_brute_force,
                      least_relabeling_by_orbit_scan, relabel, search_isomorphism_all_pairs)
import quandles.classify as classify_mod
from quandles.classify import _STAGES


def classify_pairwise(qs):
    """The former classify_family: each input against the first member of
    every class so far through are_isomorphic, then sorted by profile."""
    groups = []
    for i, q in enumerate(qs):
        for members in groups:
            if Q.are_isomorphic(qs[members[0]], q).isomorphic:
                members.append(i)
                break
        else:
            groups.append([i])
    classes = [Q.IsoClass(representative=min((qs[i] for i in m), key=lambda q: q.table),
                          members=tuple(m)) for m in groups]
    classes.sort(key=lambda c: (Q.invariant_profile(c.representative).sort_key(),
                                c.representative.table))
    return tuple(classes)


class TestInvariantProfile:
    def test_q1_spectrum(self):
        assert Q.invariant_profile(Q.Q1).spectrum == ((1, 3), (2, 9))

    def test_q2_spectrum(self):
        assert Q.invariant_profile(Q.Q2).spectrum == ((1, 2), (2, 10))

    def test_trivial_profile(self):
        p = Q.invariant_profile(Q.trivial(4))
        assert p.spectrum == ((1, 4),)
        assert p.orbit_sizes == (1, 1, 1, 1)
        assert p.centralizer_sizes == (1, 1, 1, 1)
        assert p.involutory and p.abelian and p.left_distributive
        assert not p.connected and not p.cyclic_type

    def test_relabeling_invariance(self, battery):
        rng = random.Random(20240817)
        for q in battery.values():
            images = list(range(1, q.order + 1))
            rng.shuffle(images)
            sigma = Q.Permutation(tuple(images))
            assert Q.invariant_profile(relabel(q, sigma)) == Q.invariant_profile(q)

    def test_format_spectrum(self):
        assert Q.format_spectrum(((1, 3), (2, 9))) == "{1:3,2:9}"

    def test_sort_key_follows_the_stages(self):
        for q in Q.census(4) + (Q.Q1, Q.Q2):
            assert Q.invariant_profile(q).sort_key() == tuple(f(q) for _, f, _ in _STAGES)


class TestAreIsomorphic:
    def test_q1_q2_not_isomorphic_with_spectrum_certificate(self):
        res = Q.are_isomorphic(Q.Q1, Q.Q2)
        assert not res.isomorphic
        assert res.verdict == "not-isomorphic"
        assert res.certificate == "generator order spectrum: {1:3,2:9} vs {1:2,2:10}"

    def test_self_isomorphic_identity(self, battery):
        for q in battery.values():
            res = Q.are_isomorphic(q, q)
            assert res.isomorphic
            assert res.mapping.is_identity()

    def test_dihedral_equals_affine_negation(self):
        g = Q.AbelianGroupSpec((3,))
        res = Q.are_isomorphic(Q.dihedral(3), Q.affine(g, Q.negation_automorphism(g)))
        assert res.isomorphic

    def test_relabelled_battery_members_map_back(self, battery):
        rng = random.Random(99)
        for q in battery.values():
            images = list(range(1, q.order + 1))
            rng.shuffle(images)
            sigma = Q.Permutation(tuple(images))
            res = Q.are_isomorphic(q, relabel(q, sigma))
            assert res.isomorphic
            phi = res.mapping
            # soundness: independently re-verify the homomorphism law
            for x in q.elements():
                for y in q.elements():
                    assert phi(Q.apply(q, x, y)) == Q.apply(relabel(q, sigma), phi(x), phi(y))

    def test_search_depth_is_not_bounded_by_the_stack(self):
        # trivial(300) forces nothing, so the search assigns 300 seeds one by one
        q = Q.trivial(300)
        images = list(q.elements())
        random.Random(300).shuffle(images)
        r = relabel(q, Q.Permutation(tuple(images)))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            phi = classify_mod._search_isomorphism(q, r)
        finally:
            sys.setrecursionlimit(limit)
        assert phi is not None and is_isomorphism(q, r, phi)

    def test_order_mismatch_certificate(self):
        res = Q.are_isomorphic(Q.trivial(3), Q.trivial(4))
        assert not res.isomorphic
        assert res.certificate.startswith("order:")

    def test_agrees_with_brute_force_on_small_orders(self):
        for n in (2, 3, 4):
            tables = Q.all_quandle_tables(n)
            for i in range(len(tables)):
                for j in range(i + 1, len(tables)):
                    assert (Q.are_isomorphic(tables[i], tables[j]).isomorphic
                            == brute_isomorphic(tables[i], tables[j])), (n, i, j)


class TestSearchOracle:
    """The search checks each pair of assigned elements once; the former search checked
    every ordered pair. Both must make the same choices and return the same mapping."""

    def test_mapping_equals_the_all_pairs_search(self):
        tables = derived_data_tables()
        by_order: dict[int, list] = {}
        for q in tables:
            by_order.setdefault(q.order, []).append(q)
        rng = random.Random(31)
        pairs = []
        for q in tables:
            images = list(q.elements())
            rng.shuffle(images)
            pairs.append((q, relabel(q, Q.Permutation(tuple(images)))))
            other = rng.choice(by_order[q.order])
            rng.shuffle(images)
            pairs.append((q, relabel(other, Q.Permutation(tuple(images)))))
        by_profile: dict = {}
        for q in tables:  # equal profiles, so some pairs reach a failing search
            by_profile.setdefault(Q.invariant_profile(q), []).append(q)
        pairs += [(a, b) for group in by_profile.values() for a in group for b in group if a is not b]
        found = [classify_mod._search_isomorphism(a, b) for a, b in pairs]
        assert found == [search_isomorphism_all_pairs(a, b) for a, b in pairs]
        assert sum(m is None for m in found) > 20 and sum(m is not None for m in found) > len(tables)


class TestClassifyFamily:
    def test_q1_q2_two_classes(self):
        assert len(Q.classify_family([Q.Q1, Q.Q2])) == 2

    def test_singleton(self):
        classes = Q.classify_family([Q.Q1])
        assert len(classes) == 1
        assert classes[0].members == (0,)

    def test_products_of_base_b_three_classes(self):
        products = [Q.product3(Q.BASE_B, r) for r in Q.enumerate_phase_rules()]
        assert len(Q.classify_family(products)) == 3

    def test_stable_under_input_permutation(self):
        qs = [Q.trivial(3), Q.dihedral(3), Q.swap_rule(0, 1).to_quandle(),
              Q.swap_rule(0, 2).to_quandle(), Q.dihedral(3)]
        forward = Q.classify_family(qs)
        backward = Q.classify_family(qs[::-1])
        assert len(forward) == len(backward) == 3
        assert [c.representative for c in forward] == [c.representative for c in backward]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_pairwise_oracle_on_labeled_tables(self, n):
        tables = Q.all_quandle_tables(n)
        assert Q.classify_family(tables) == classify_pairwise(tables)

    def test_profile_computed_once_per_input(self, monkeypatch):
        seen = []
        real = classify_mod.invariant_profile
        monkeypatch.setattr(classify_mod, "invariant_profile", lambda q: seen.append(q) or real(q))
        monkeypatch.setattr(classify_mod, "are_isomorphic", None)
        tables = Q.all_quandle_tables(4)
        classify_mod.classify_family(tables)
        assert seen == list(tables)

    def test_first_non_quandle_raises(self):
        broken = Q.from_table(2, [[1, 2], [1, 2]], name="broken")
        with pytest.raises(Q.NotAQuandleError, match="table broken fails axioms"):
            Q.classify_family([Q.trivial(2), broken, Q.from_table(2, [[2, 2], [1, 1]])])


def seeded_relabelings(q, rng, count):
    """count relabelings of q by permutations drawn from rng."""
    out = []
    for _ in range(count):
        images = list(q.elements())
        rng.shuffle(images)
        out.append(relabel(q, Q.Permutation(tuple(images))))
    return out


def census_digest(tables):
    """sha256 of census tables as compact JSON."""
    return hashlib.sha256(json.dumps(tables, separators=(",", ":")).encode()).hexdigest()


@pytest.fixture(scope="module")
def census_7():
    """census(7) and the reduced tables it enumerated, from one run: order 7 is the costliest
    census the suite runs."""
    enumerated = []
    real = classify_mod._tables

    def spy(n, reduced=False):
        enumerated.append(real(n, reduced))
        return enumerated[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_mod, "_tables", spy)
        reps = Q.census(7)
    return reps, enumerated


class TestCensus:
    def test_counts(self):
        assert len(Q.census(1)) == 1
        assert len(Q.census(2)) == 1
        assert len(Q.census(3)) == 3

    def test_order_4_against_labeled_oracle(self):
        # independent partition: brute-force classes of every labeled table
        labeled = Q.all_quandle_tables(4)
        assert len(labeled) == 36
        classes = []
        for i, q in enumerate(labeled):
            for cls in classes:
                if brute_isomorphic(labeled[cls[0]], q):
                    cls.append(i)
                    break
            else:
                classes.append([i])
        assert len(Q.census(4)) == len(classes) == 7
        members = [c.members for c in Q.classify_family(labeled)]
        assert sorted(members) == sorted(tuple(c) for c in classes)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_forced_columns_give_the_same_sequence(self, n):
        assert Q.all_quandle_tables(n) == all_quandle_tables_by_columns(n)

    def test_one_profile_per_enumerated_table(self, monkeypatch):
        calls = []
        kernel = classify_mod.invariant_profile
        monkeypatch.setattr(classify_mod, "invariant_profile", lambda q: calls.append(q) or kernel(q))
        assert len(Q.census(5)) == 22
        assert len(calls) == len({id(q) for q in calls}) == 32  # classes are sorted on those profiles

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_labeled_census(self, n):
        assert Q.census(n) == census_by_labeled(n)

    def test_order_6_digest(self):
        # the digest of the census(6) tables, computed once with census_by_labeled(6)
        tables = [q.table for q in Q.census(6)]
        assert len(tables) == 73
        assert census_digest(tables) == "52563b290222032b81bab6bea04f39476f602e7d4030b5ca58b4084f4b3686fb"

    def test_least_relabeling_matches_brute_force(self):
        rng = random.Random(13)
        for n in range(1, 6):
            for q in Q.census(n):
                for t in (q, *seeded_relabelings(q, rng, 3)):
                    assert classify_mod._least_relabeling(t).table == least_relabeling_by_brute_force(t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_least_relabeling_matches_orbit_scan_on_census(self, n):
        rng = random.Random(2400 + n)
        for q in Q.census(n):
            for t in (q, *seeded_relabelings(q, rng, 3)):
                assert classify_mod._least_relabeling(t).table == least_relabeling_by_orbit_scan(t).table

    def test_least_relabeling_matches_orbit_scan_on_order_7_sample(self, census_7):
        rng = random.Random(2407)
        for q in rng.sample(census_7[0], 40):
            t = seeded_relabelings(q, rng, 1)[0]
            assert classify_mod._least_relabeling(t).table == least_relabeling_by_orbit_scan(t).table == q.table

    @pytest.mark.parametrize("n", range(1, 8))
    def test_least_relabeling_matches_orbit_scan_on_trivial_and_dihedral(self, n):
        # large automorphism groups: without the automorphism cut, trivial(n) visits (n-1)! labelings
        rng = random.Random(2410 + n)
        for q in (Q.trivial(n), Q.dihedral(n)):
            for t in (q, *seeded_relabelings(q, rng, 3)):
                assert classify_mod._least_relabeling(t).table == least_relabeling_by_orbit_scan(t).table

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 3), (4, 7), (5, 32)])
    def test_reduced_tables_meet_every_class(self, n, count):
        labeled, reduced = Q.all_quandle_tables(n), classify_mod._tables(n, reduced=True)
        assert len(reduced) == count
        assert set(reduced) <= set(labeled)
        classes = Q.classify_family(labeled + reduced)
        assert len(classes) == len(Q.classify_family(labeled))
        assert all(max(c.members) >= len(labeled) for c in classes)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reduced_tables_are_the_labeled_ones_both_cuts_keep(self, n):
        # the cuts read off each finished table by brute force, in all_quandle_tables order
        kept = tuple(q for q in Q.all_quandle_tables(n) if kept_by_both_cuts(q))
        assert classify_mod._tables(n, reduced=True) == kept

    def test_reduced_counts_at_orders_6_and_7(self, census_7):
        assert len(classify_mod._tables(6, reduced=True)) == 161
        reps, enumerated = census_7
        assert [len(tables) for tables in enumerated] == [1065]
        tables = [q.table for q in reps]
        assert len(tables) == 298  # OEIS A181771
        # the digest of the census(7) tables when the cap was raised to 7, before the pruned relabeling
        assert census_digest(tables) == "9261ef298f1150c618cf75bb2a8a42d30869c2a1d5c106f46d833cbf8b31482d"

    def test_census_does_not_enumerate_every_labeled_table(self, monkeypatch):
        calls = []
        real = classify_mod.all_quandle_tables
        monkeypatch.setattr(classify_mod, "all_quandle_tables", lambda n: calls.append(n) or real(n))
        assert len(Q.census(5)) == 22
        assert calls == []

    def test_labeled_count_order_3(self):
        assert len(Q.all_quandle_tables(3)) == 5

    def test_representatives_pairwise_distinct(self):
        reps = Q.census(4)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not Q.are_isomorphic(reps[i], reps[j]).isomorphic

    def test_census_members_pass_axioms(self):
        for n in (1, 2, 3, 4):
            for q in Q.census(n):
                assert Q.check_axioms(q).overall

    def test_out_of_cap(self):
        with pytest.raises(ValueError):
            Q.census(9)
        with pytest.raises(ValueError):
            Q.census(0)

    def test_non_int_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            Q.census(2.0)

    @pytest.mark.parametrize("n", ["3", True])
    def test_string_or_bool_order_rejected(self, n):
        with pytest.raises(ValueError, match="order must be >= 1"):
            Q.census(n)

    def test_labeled_enumeration_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            Q.all_quandle_tables(-1)
