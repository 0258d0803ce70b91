import random

import pytest

import quandles as Q
from conftest import orbits_by_union_find, relabel

Q1_LISTING = [
    "R(1) = (1)",
    "R(2) = (1)",
    "R(3) = (1)",
    "R(4) = (7,10), (8,11), (9,12)",
    "R(5) = (7,10), (8,11), (9,12)",
    "R(6) = (7,10), (8,11), (9,12)",
    "R(7) = (4,10), (5,11), (6,12)",
    "R(8) = (4,10), (5,11), (6,12)",
    "R(9) = (4,10), (5,11), (6,12)",
    "R(10) = (4,7), (5,8), (6,9)",
    "R(11) = (4,7), (5,8), (6,9)",
    "R(12) = (4,7), (5,8), (6,9)",
]


class TestInnerStructure:
    def test_q1_listing(self):
        assert Q.inner_structure(Q.Q1).lines() == Q1_LISTING

    def test_q1_order_counts(self):
        st = Q.inner_structure(Q.Q1)
        assert st.count_of_order == {1: 3, 2: 9}
        assert st.summary == (1,) * 3 + (2,) * 9

    def test_q2_has_ten_of_order_two(self):
        assert Q.inner_structure(Q.Q2).count_of_order[2] == 10

    def test_trivial_all_identity(self):
        st = Q.inner_structure(Q.trivial(4))
        assert st.count_of_order == {1: 4}
        assert all(p.is_identity() for p in st.translations)

    def test_counts_sum_to_order(self, battery):
        for q in battery.values():
            st = Q.inner_structure(q)
            assert sum(st.count_of_order.values()) == q.order
            assert len(st.translations) == q.order

    def test_rerun_is_identical(self, battery):
        for q in battery.values():
            assert Q.inner_structure(q) == Q.inner_structure(q)

    def test_orders_match_cycle_lcm(self, battery):
        import math

        for q in battery.values():
            st = Q.inner_structure(q)
            for p, o in zip(st.translations, st.orders):
                lengths = [len(c) for c in p.cycles()]
                assert o == (math.lcm(*lengths) if lengths else 1)

    def test_rejects_broken_column(self):
        broken = Q.from_table(2, [[1, 2], [1, 2]])
        with pytest.raises(Q.NotAQuandleError):
            Q.inner_structure(broken)


class TestInnGroup:
    def test_trivial_is_order_one(self):
        assert Q.inn_group(Q.trivial(5)).order == 1

    def test_dihedral_3_generates_order_6(self):
        # three reflections of the triangle generate the full dihedral group
        assert Q.inn_group(Q.dihedral(3)).order == 6

    def test_dihedral_5_generates_order_10(self):
        assert Q.inn_group(Q.dihedral(5)).order == 10

    def test_q1_closure(self):
        group = Q.inn_group(Q.Q1)
        assert group.order == len(group.elements) == 6

    def test_group_laws(self):
        group = Q.inn_group(Q.dihedral(3))
        elements = set(group.elements)
        assert Q.Permutation.identity(3) in elements
        for g in elements:
            assert g.inverse() in elements
            for h in elements:
                assert g.compose(h) in elements

    def test_cap_exceeded(self):
        with pytest.raises(Q.BudgetExceededError):
            Q.inn_group(Q.dihedral(5), materialize_cap=3)

    @pytest.mark.parametrize("cap", [True, -1, 0, 2.5])
    def test_rejects_bad_cap(self, cap):
        with pytest.raises(ValueError, match="materialize_cap must be >= 1"):
            Q.inn_group(Q.dihedral(3), materialize_cap=cap)


class TestOrbits:
    def test_q1(self):
        assert Q.orbits(Q.Q1) == ((1,), (2,), (3,), (4, 7, 10), (5, 8, 11), (6, 9, 12))

    def test_dihedral_5_is_single(self):
        assert Q.orbits(Q.dihedral(5)) == ((1, 2, 3, 4, 5),)

    def test_trivial_singletons(self):
        assert Q.orbits(Q.trivial(3)) == ((1,), (2,), (3,))

    def test_generators_permute_orbits_preserving_size(self, battery):
        for q in battery.values():
            orbit_set = {frozenset(o) for o in Q.orbits(q)}
            for p in Q.translations(q):
                for o in orbit_set:
                    image = frozenset(p(x) for x in o)
                    assert image in orbit_set
                    assert len(image) == len(o)

    def test_rejects_broken_column(self):
        with pytest.raises(Q.NotAQuandleError, match="column 1 is not a bijection"):
            Q.orbits(Q.from_table(2, [[1, 2], [1, 2]]))

    def test_equal_union_find(self):
        tables = [q for n in range(1, 6) for q in Q.all_quandle_tables(n)]
        rng = random.Random(8)
        for q in Q.census(5):
            for _ in range(3):
                images = list(q.elements())
                rng.shuffle(images)
                tables.append(relabel(q, Q.Permutation(tuple(images))))
        tables += [Q.dihedral(n) for n in range(3, 13)]
        tables += [Q.conjugation(Q.symmetric_group(4)), Q.Q1, Q.Q2]
        tables += [Q.product3(Q.dihedral(5), rule) for rule in Q.enumerate_phase_rules()]
        for q in tables:
            assert Q.orbits(q) == orbits_by_union_find(q), q.table
        assert {len(Q.orbits(q)) for q in tables} >= {1, 2, 3, 5}
