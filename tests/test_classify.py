import random
import sys

import pytest

import quandles as Q

from conftest import (all_quandle_tables_by_columns, brute_isomorphic, derived_data_tables, is_isomorphism,
                      relabel, search_isomorphism_all_pairs)
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
            Q.census(7)
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
