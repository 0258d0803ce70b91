import dataclasses
import hashlib
import json
import random
from functools import cache
from itertools import permutations, product

import pytest

import quandles as Q
import quandles.construct as construct_mod
import quandles.core as core_mod
from conftest import (additive_by_pairs, affine_by_add, associativity_failure_by_scan, axioms_by_scan,
                      cycle_type_by_cycles, derived_data_tables, digits_by_division, order_by_scaling,
                      orbits_by_union_find, random_loops, types_by_translations)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Q.Permutation((1, 1, 3))

    @pytest.mark.parametrize("images", [(True,), (2, True), (True, 3, 2)])
    def test_rejects_bool_entry(self, images):
        with pytest.raises(ValueError, match="not a bijection"):
            Q.Permutation(images)

    def test_list_images_rejected(self):
        with pytest.raises(ValueError, match=r"images must be a tuple, got \[2, 1\]"):
            Q.Permutation([2, 1])

    def test_cycles_canonical(self):
        p = Q.Permutation((1, 3, 2, 5, 4, 6))
        assert p.cycles() == ((2, 3), (4, 5))
        assert p.cycle_string() == "(2,3), (4,5)"

    def test_identity_renders_as_one(self):
        assert Q.Permutation.identity(5).cycle_string() == "(1)"

    def test_order_is_lcm_of_cycle_lengths(self):
        p = Q.Permutation((2, 3, 1, 5, 4))
        assert p.order() == 6
        assert Q.Permutation.identity(4).order() == 1

    def test_cycle_type_kernel_runs_once_per_permutation(self, monkeypatch):
        calls = []
        kernel = core_mod._cycle_type_of
        monkeypatch.setattr(core_mod, "_cycle_type_of", lambda images: calls.append(images) or kernel(images))
        p = Q.Permutation((2, 3, 1, 5, 4))
        for _ in range(3):
            assert p.order() == 6
            assert p.cycle_type() == (3, 2)
        assert p.cycle_string() == "(1,2,3), (4,5)"
        assert calls == [p.images]

    def test_cycle_type_equals_the_cycles(self):
        perms = [Q.Permutation(p) for n in range(1, 6) for p in permutations(range(1, n + 1))]
        rng = random.Random(12)
        for n in (10, 40, 100):
            for _ in range(20):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                perms.append(Q.Permutation(tuple(images)))
        for p in perms:
            assert p.cycle_type() == cycle_type_by_cycles(p), p

    @pytest.mark.parametrize("images", [(1, 2.0, 3), (1.0,), (2, 1.0), (1, "2"), (3, 2, 1.5)])
    def test_rejects_non_int_image(self, images):
        with pytest.raises(ValueError, match="not a bijection"):
            Q.Permutation(images)

    def test_cached_cycle_type_is_invisible(self):
        p, fresh = Q.Permutation((2, 1, 3)), Q.Permutation((2, 1, 3))
        before = (repr(p), hash(p))
        assert p.cycle_type() == (2, 1)
        assert [f.name for f in dataclasses.fields(p)] == ["images"]
        assert p == fresh and (repr(p), hash(p)) == before == (repr(fresh), hash(fresh))

    def test_cycle_type_includes_fixed_points(self):
        p = Q.Permutation((2, 1, 3, 4))
        assert p.cycle_type() == (2, 1, 1)

    def test_compose_and_inverse(self):
        p = Q.Permutation((2, 3, 1))
        q = Q.Permutation((1, 3, 2))
        assert p.compose(q).images == tuple(p(q(x)) for x in (1, 2, 3))
        assert p.compose(p.inverse()) == Q.Permutation.identity(3)


class TestFromTable:
    def test_accepts_reference_table(self):
        q = Q.from_table(4, [[1, 1, 2, 2], [2, 2, 1, 1], [4, 4, 3, 3], [3, 3, 4, 4]])
        assert q.order == 4
        assert q == Q.TABLE1

    def test_singleton(self):
        q = Q.from_table(1, [[1]])
        assert Q.check_axioms(q).overall

    def test_non_quandle_is_representable(self):
        q = Q.from_table(2, [[1, 2], [1, 2]])
        assert not Q.check_axioms(q).overall

    def test_shape_mismatch_cites_row(self):
        with pytest.raises(ValueError, match="row 2"):
            Q.from_table(2, [[1, 2], [1]])

    def test_out_of_range_cites_position(self):
        with pytest.raises(ValueError, match="row 1, column 2"):
            Q.from_table(2, [[1, 3], [1, 2]])

    def test_bool_entry_rejected(self):
        with pytest.raises(ValueError, match="entry True at row 1, column 1"):
            Q.from_table(2, [[True, True], [2, 2]])

    def test_bool_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            Q.Quandle(True, ((1,),))

    @pytest.mark.parametrize("rows", [[[1, 1], [2, 2]], ([1, 1], [2, 2]), [(1, 1), (2, 2)]])
    def test_list_table_rejected(self, rows):
        with pytest.raises(ValueError, match="table must be a tuple of row tuples"):
            Q.Quandle(2, rows)
        assert Q.from_table(2, rows) == Q.trivial(2)


class TestCheckAxioms:
    def test_reference_table_passes(self):
        assert Q.check_axioms(Q.TABLE1).overall

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trivial_passes(self, n):
        assert Q.check_axioms(Q.trivial(n)).overall

    def test_q1_passes_exhaustively(self):
        assert Q.check_axioms(Q.Q1, witness_cap=None).overall

    def test_idempotency_witnesses(self):
        q = Q.from_table(2, [[2, 2], [1, 1]])
        report = Q.check_axioms(q)
        assert not report.idempotency.ok
        assert report.idempotency.witnesses == (1, 2)

    def test_row_constant_table_fails_invertibility(self):
        q = Q.from_table(2, [[1, 1], [2, 2]])
        report = Q.check_axioms(q)
        # note: this one is actually trivial(2), columns fine
        assert report.overall

    def test_column_collision_witness(self):
        q = Q.from_table(2, [[1, 2], [1, 2]])
        report = Q.check_axioms(q)
        assert not report.right_invertibility.ok
        assert report.right_invertibility.witnesses == ((1, 1, 2), (2, 1, 2))

    def test_witness_cap_limits_collection(self):
        q = Q.from_table(3, [[2, 1, 1], [3, 3, 2], [1, 2, 3]])
        capped = Q.check_axioms(q, witness_cap=1)
        full = Q.check_axioms(q, witness_cap=None)
        assert len(capped.idempotency.witnesses) <= 1
        assert len(full.idempotency.witnesses) >= len(capped.idempotency.witnesses)
        # verdicts never depend on the cap
        assert capped.idempotency.ok == full.idempotency.ok
        assert capped.right_invertibility.ok == full.right_invertibility.ok
        assert capped.self_distributivity.ok == full.self_distributivity.ok

    def test_deterministic(self, battery):
        for q in battery.values():
            assert Q.check_axioms(q) == Q.check_axioms(q)

    def test_rejects_bad_cap(self):
        for cap in (0, -1, True, 2.5, "3"):
            with pytest.raises(ValueError):
                Q.check_axioms(Q.trivial(2), witness_cap=cap)

    def test_cap_above_sys_maxsize_is_exhaustive(self):
        def witnesses(report):
            return report.idempotency, report.right_invertibility, report.self_distributivity

        rule = Q.literal_rule_A()
        for q in (Q.from_table(3, [[2, 1, 1], [3, 3, 2], [1, 2, 3]]), Q.Q1, rule.to_quandle()):
            report = Q.check_axioms(q, witness_cap=2**64)
            assert report.witness_cap == 2**64
            assert witnesses(report) == witnesses(Q.check_axioms(q, witness_cap=None))
        report = Q.validate_rule(rule, witness_cap=2**64)
        assert report.witness_cap == 2**64 and not report.overall
        assert witnesses(report) == witnesses(Q.validate_rule(rule, witness_cap=None))

    def test_summary_names_the_first_witness_of_each_failing_axiom(self):
        report = Q.check_axioms(Q.from_table(2, [[2, 1], [1, 1]]))
        assert report.summary() == ("idempotency fails at x=1; "
                                    "right invertibility fails at column y=2 (rows 1,2 collide); "
                                    "self-distributivity fails at (x,y,z)=(1,1,2)")
        assert Q.check_axioms(Q.TABLE1).summary() == "all axioms pass"


def _axiom_inputs():
    bases = [Q.dihedral(n) for n in range(3, 10)] + [Q.trivial(4), Q.TABLE1, Q.BASE_B]
    tables = [Q.product3(b, rule, conv) for b in bases
              for rule in (Q.literal_rule_A(), Q.literal_rule_B()) for conv in ("xa", "ax")]
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 7)
        tables.append(Q.from_table(n, [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]))
    return tables + [q for n in range(1, 5) for q in Q.all_quandle_tables(n)]


class TestCheckAxiomsOracle:
    @pytest.mark.parametrize("cap", [None, 1, 3])
    def test_reports_equal_the_per_axiom_loops(self, cap):
        tables = _axiom_inputs()
        assert any(not Q.check_axioms(q).self_distributivity.ok for q in tables[:40])
        for q in tables:
            assert Q.check_axioms(q, witness_cap=cap) == axioms_by_scan(q, witness_cap=cap), q.table


@cache
def _bijective_column_tables():
    """Magmas whose columns are all bijections: every one of order <= 3, a seeded
    sample of orders 2-7, and the labeled quandles of order 3-5 with two columns
    swapped."""
    tables = [Q.from_table(n, zip(*cols)) for n in (1, 2, 3)
              for cols in product(permutations(range(1, n + 1)), repeat=n)]
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randint(2, 7)
        tables.append(Q.from_table(n, zip(*(rng.sample(range(1, n + 1), n) for _ in range(n)))))
    for n in (3, 4, 5):
        for q in Q.all_quandle_tables(n):
            a, b = rng.sample(range(n), 2)
            cols = list(zip(*q.table))
            cols[a], cols[b] = cols[b], cols[a]
            tables.append(Q.from_table(n, zip(*cols)))
    return tables


class TestGeneratorVerdict:
    """Self-distributivity decided on a generating set, against the triple scan."""

    def test_verdict_equals_the_scan(self):
        tables = _bijective_column_tables()
        verdicts = [core_mod._generators_distribute(q) for q in tables]
        assert verdicts == [next(core_mod._distributivity_failures(q.table), None) is None
                            for q in tables]
        assert sum(verdicts) > 100 and not all(verdicts)

    @pytest.mark.parametrize("cap", [None, 1, 3])
    def test_reports_equal_the_per_axiom_loops(self, cap):
        for q in _bijective_column_tables()[::7]:
            assert Q.check_axioms(q, witness_cap=cap) == axioms_by_scan(q, witness_cap=cap), q.table

    def test_generators_generate(self):
        for q in [Q.dihedral(9), Q.trivial(4), Q.Q1, Q.Q2, Q.conjugation(Q.symmetric_group(4))]:
            closure = {s + 1 for s in q._generators}
            while (grown := closure | {q.entry(x, y) for x in closure for y in closure}) != closure:
                closure = grown
            assert closure == set(q.elements()), q.name
        assert Q.dihedral(9)._generators == (0, 1) and Q.trivial(4)._generators == (0, 1, 2, 3)

    def test_passing_table_is_never_scanned(self, monkeypatch, battery):
        def refuse(t):
            raise AssertionError("the triple scan ran on a passing table")

        monkeypatch.setattr(core_mod, "_distributivity_failures", refuse)
        tables = list(battery.values()) + [Q.dihedral(45), Q.trivial(20),
                                           Q.conjugation(Q.symmetric_group(4)),
                                           Q.product3(Q.dihedral(5), Q.named_rules()["swap01"])]
        tables += Q.all_quandle_tables(4)
        for q in tables:
            assert Q.check_axioms(q, witness_cap=None).overall, q.table


class TestDerivedData:
    """Orbits and per-orbit cycle types, computed once per table, against their oracles."""

    def test_types_equal_each_translations_cycle_type(self):
        for q in derived_data_tables():
            assert q._types == types_by_translations(q), q.table

    def test_orbits_equal_union_find(self):
        tables = derived_data_tables()
        for q in tables:
            assert q._orbits == orbits_by_union_find(q), q.table
        assert {len(q._orbits) for q in tables} >= {1, 2, 3, 5, 24}

    def test_profile_reads_one_cycle_type_per_orbit(self, monkeypatch):
        calls = []
        kernel = core_mod._cycle_type_of
        monkeypatch.setattr(core_mod, "_cycle_type_of", lambda images: calls.append(images) or kernel(images))
        Q.invariant_profile(Q.dihedral(45))
        assert len(calls) == 1
        calls.clear()
        q1 = Q.from_table(12, Q.Q1.table)  # a fresh object: nothing cached on it yet
        Q.invariant_profile(q1)
        assert len(calls) == len(Q.orbits(q1)) == 6

    def test_fields_are_invisible(self):
        q, fresh = Q.dihedral(7), Q.dihedral(7)
        before = (repr(q), hash(q))
        assert q._types and q._orbits and q._axioms.overall
        assert q == fresh and (repr(q), hash(q)) == before == (repr(fresh), hash(fresh))


class TestAxiomVerdictField:
    """Quandle._axioms: the report every gate reads, computed at most once per object."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        kernel = core_mod.check_axioms
        monkeypatch.setattr(core_mod, "check_axioms", lambda q, **kw: calls.append(q) or kernel(q, **kw))
        return calls

    def test_enumerated_tables_carry_the_report_a_fresh_check_gives(self):
        for n in range(1, 6):
            tables = Q.all_quandle_tables(n)
            assert n < 5 or len(tables) == 404
            for q in tables + Q.census(n):
                assert q._axioms == Q.check_axioms(Q.Quandle(q.order, q.table), witness_cap=1), q.table

    def test_census_checks_no_table(self, calls):
        assert [len(Q.census(n)) for n in (3, 4, 5)] == [3, 7, 22]
        assert calls == []

    def test_one_check_per_object_through_the_gate(self, calls):
        broken, fresh = Q.from_table(2, [[1, 2], [1, 2]]), Q.dihedral(5)
        for _ in range(3):
            with pytest.raises(Q.NotAQuandleError, match="right invertibility fails at column y=1"):
                Q.ensure_quandle(broken)
            Q.ensure_quandle(fresh)
            assert Q.invariant_profile(fresh).connected
        assert len(calls) == 2 and calls[0] is broken and calls[1] is fresh

    def test_audit_checks_a_fresh_base_once(self, calls, monkeypatch):
        monkeypatch.setattr(construct_mod, "check_axioms", core_mod.check_axioms)  # validate_rule's
        report = Q.audit_transfer(Q.dihedral(5), Q.dihedral_rule())
        assert len(calls) == 2  # the rule, the base; the product of two quandles is one
        assert calls[1] is report.base

    @pytest.mark.parametrize("conv", ["xa", "ax"])
    def test_audit_product_carries_the_report_a_fresh_check_gives(self, conv):
        for base in (Q.dihedral(5), Q.TABLE1, Q.BASE_B, Q.trivial(3)):
            for rule in Q.enumerate_phase_rules():
                p = Q.audit_transfer(base, rule, conv, alexander_budget=1).product
                assert p._axioms == Q.check_axioms(Q.Quandle(p.order, p.table), witness_cap=1), (rule.name, conv)


class TestApplyAndDual:
    def test_reference_cells(self):
        assert Q.apply(Q.Q1, 4, 7) == 10
        assert Q.apply(Q.TABLE1, 3, 2) == 4

    def test_idempotency_via_apply(self, battery):
        for q in battery.values():
            assert all(Q.apply(q, x, x) == x for x in q.elements())

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Q.apply(Q.TABLE1, 0, 1)
        with pytest.raises(ValueError, match="out of range"):
            Q.apply(Q.TABLE1, 1, 5)

    def test_bool_element_rejected(self):
        with pytest.raises(ValueError, match="x=True out of range"):
            Q.apply(Q.TABLE1, True, 2)
        with pytest.raises(ValueError, match="y=False out of range"):
            Q.dual_apply(Q.TABLE1, 1, False)

    def test_dual_reference_cell(self):
        assert Q.dual_apply(Q.Q1, 10, 4) == 7  # since 7 > 4 = 10

    def test_dual_on_trivial(self):
        assert Q.dual_apply(Q.trivial(3), 2, 3) == 2

    def test_dual_is_two_sided_inverse(self, battery):
        for q in battery.values():
            for x in q.elements():
                for y in q.elements():
                    assert Q.dual_apply(q, Q.apply(q, x, y), y) == x
                    assert Q.apply(q, Q.dual_apply(q, x, y), y) == x

    def test_dual_rejects_broken_column(self):
        q = Q.from_table(2, [[1, 2], [1, 2]])
        with pytest.raises(Q.NotAQuandleError, match="column 1"):
            Q.dual_apply(q, 1, 1)

    def test_right_translation_names_the_first_collision(self):
        # column 1 reads (2, 3, 3, 2): value 3 repeats at row 3 before value 2 does at row 4
        q = Q.from_table(4, [[2, 1, 1, 1], [3, 2, 2, 2], [3, 3, 3, 3], [2, 4, 4, 4]])
        with pytest.raises(Q.NotAQuandleError) as err:
            Q.right_translation(q, 1)
        assert str(err.value) == "column 1 is not a bijection: rows 2 and 3 both map to 3"


class TestFamilies:
    def test_trivial_rows(self):
        assert Q.trivial(3).table == ((1, 1, 1), (2, 2, 2), (3, 3, 3))

    def test_dihedral_rows(self):
        assert Q.dihedral(3).table == ((1, 3, 2), (3, 2, 1), (2, 1, 3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dihedral_passes_axioms(self, n):
        assert Q.check_axioms(Q.dihedral(n)).overall

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            Q.trivial(0)
        with pytest.raises(ValueError):
            Q.dihedral(0)

    @pytest.mark.parametrize("family,n", [(Q.trivial, "3"), (Q.dihedral, 2.0), (Q.trivial, True)])
    def test_non_int_order_rejected(self, family, n):
        with pytest.raises(ValueError, match=f"^order must be >= 1, got {n!r}$"):
            family(n)

    def test_column_fixes_own_index(self, battery):
        # idempotency restated: R_y(y) = y
        for q in battery.values():
            for y in q.elements():
                assert Q.right_translation(q, y)(y) == y


class TestRightTranslation:
    def test_q1_reference_listing(self):
        assert Q.right_translation(Q.Q1, 4).cycles() == ((7, 10), (8, 11), (9, 12))
        assert Q.right_translation(Q.Q1, 1).is_identity()

    def test_trivial_is_identity(self):
        for y in range(1, 5):
            assert Q.right_translation(Q.trivial(4), y).is_identity()

    def test_collision_witness_in_error(self):
        q = Q.from_table(2, [[1, 2], [1, 2]])
        with pytest.raises(Q.NotAQuandleError, match="rows 1 and 2"):
            Q.right_translation(q, 1)

    def test_translations_live_on_the_table(self):
        """One tuple per table object, none kept by the function: its zero-size cache stores nothing."""
        q, fresh = Q.dihedral(7), Q.dihedral(7)
        assert Q.translations(q) is Q.translations(q) is q._translations
        assert Q.translations(fresh) == Q.translations(q) and Q.translations(fresh) is not Q.translations(q)
        assert Q.translations(q) == tuple(Q.right_translation(q, y) for y in q.elements())
        assert Q.translations.cache_info().currsize == 0


class TestGroupTable:
    def test_rejects_non_associative(self):
        # a loop of order 5 (identity and inverses exist) that is not a group
        loop = [
            [1, 2, 3, 4, 5],
            [2, 1, 4, 5, 3],
            [3, 5, 1, 2, 4],
            [4, 3, 5, 1, 2],
            [5, 4, 2, 3, 1],
        ]
        with pytest.raises(ValueError, match="not associative"):
            Q.GroupTable.from_table(loop)

    def test_rejects_missing_inverse(self):
        with pytest.raises(ValueError, match="^element 2 has no inverse$"):
            Q.GroupTable.from_table(((1, 2), (2, 2)))

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Q.GroupTable.from_table([[1, 1], [2, 2]])

    def test_rejects_bool_entry(self):
        with pytest.raises(ValueError, match="entry True at row 1, column 1"):
            Q.GroupTable.from_table([[True]])

    def test_rejects_empty_table_like_the_families(self):
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            Q.GroupTable.from_table([])
        for family in (Q.trivial, Q.dihedral, Q.cyclic_group):
            with pytest.raises(ValueError, match="order must be >= 1, got 0"):
                family(0)

    @pytest.mark.parametrize("family, what", [
        (Q.cyclic_group, "order"), (Q.symmetric_group, "degree"), (Q.dihedral_group, "m")])
    def test_bool_size_rejected(self, family, what):
        with pytest.raises(ValueError, match=f"{what} must be >= 1, got True"):
            family(True)

    @pytest.mark.parametrize("order, table, message", [
        (2, ((1, 1), (1, 1)), "no identity element"),
        (3, ((1,),), "shape mismatch: expected 3 rows, got 1"),
        (1, [[1]], "table must be a tuple of row tuples"),
    ])
    def test_constructor_checks_the_group_laws(self, order, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Q.GroupTable(order, table)

    def test_identity_and_inverses_are_read_off_the_table(self):
        g = Q.GroupTable(3, ((2, 3, 1), (3, 1, 2), (1, 2, 3)))
        assert (g.identity, g.inverses) == (3, (2, 1, 3))
        with pytest.raises(TypeError):
            Q.GroupTable(3, g.table, identity=1, inverses=(1, 3, 2))

    def test_symmetric_group_order(self):
        assert Q.symmetric_group(3).order == 6

    def test_dihedral_group_order(self):
        assert Q.dihedral_group(4).order == 8

    def test_direct_product_order(self):
        z2 = Q.cyclic_group(2)
        assert Q.direct_product(z2, z2).order == 4

    def test_direct_product_rejects_a_quandle(self):
        with pytest.raises(ValueError, match=r"expected a GroupTable, got Quandle\(order=3"):
            Q.direct_product(Q.cyclic_group(2), Q.dihedral(3))
        with pytest.raises(ValueError, match="expected a GroupTable"):
            Q.direct_product(Q.dihedral(3), Q.cyclic_group(2))


class TestLightsTest:
    """GroupTable.from_table checks associativity on a generating set; the triple scan is the oracle."""

    def test_agrees_with_the_scan_on_random_loops(self):
        loops = random_loops(3000, seed=19)
        verdicts = [core_mod._generators_associate(t, e) for t, e in loops]
        assert verdicts == [associativity_failure_by_scan(t) is None for t, _ in loops]
        assert 500 < sum(verdicts) < len(loops) - 500  # both verdicts are well represented

    def test_from_table_keeps_the_lexicographic_witness(self):
        checked = 0
        for t, e in random_loops(3000, seed=19):
            witness = associativity_failure_by_scan(t)
            two_sided = all(any(t[x][y] == e == t[y][x] for y in range(len(t))) for x in range(len(t)))
            if witness is None or not two_sided:
                continue
            with pytest.raises(ValueError) as err:
                Q.GroupTable.from_table(t)
            assert str(err.value) == "not associative at ({},{},{})".format(*witness)
            checked += 1
        assert checked > 50

    def test_every_group_the_tests_build_passes(self, group_battery):
        groups = [*group_battery, Q.symmetric_group(4), Q.dihedral_group(3), Q.dihedral_group(6),
                  Q.direct_product(Q.symmetric_group(3), Q.cyclic_group(4))]
        for g in groups:
            assert associativity_failure_by_scan(g.table) is None, g.name
            assert core_mod._generators_associate(g.table, g.identity), g.name

    def test_greedy_generators_generate_the_group(self):
        g = Q.direct_product(Q.symmetric_group(3), Q.cyclic_group(4))
        closure = {s + 1 for s in core_mod._greedy_generators(g.table)}
        while (new := {g.mul(a, b) for a in closure for b in closure} - closure):
            closure |= new
        assert closure == set(range(1, g.order + 1))


class TestConjugation:
    def test_rejects_a_quandle(self):
        with pytest.raises(ValueError, match=r"expected a GroupTable, got Quandle\(order=3, name='dihedral\(3\)'\)"):
            Q.conjugation(Q.dihedral(3))

    def test_abelian_group_gives_trivial(self):
        assert Q.conjugation(Q.cyclic_group(3)).table == Q.trivial(3).table

    def test_s3_passes_axioms(self):
        q = Q.conjugation(Q.symmetric_group(3))
        assert q.order == 6
        assert Q.check_axioms(q).overall

    def test_identity_column_is_identity(self, group_battery):
        for g in group_battery:
            q = Q.conjugation(g)
            assert all(Q.apply(q, x, g.identity) == x for x in q.elements())

    def test_battery_passes_axioms(self, group_battery):
        for g in group_battery:
            assert Q.check_axioms(Q.conjugation(g)).overall, g.name


class TestGroupTableDigests:
    """sha256 of the compact JSON list of [name, table] over each family, recorded with the
    hand-written index formulas that the group constructors and dihedral used before the
    Cayley-table builder."""

    DIGESTS = {
        ("cyclic_group", "group"): "e7acfe02ba92aa7068ca55f904cfd6ab80f13488760f1b651c0665e33b3d8a85",
        ("cyclic_group", "conjugation"): "158ec668bff287020c706cbea1e29bfd3ad2fc091f4d06a8214d7e3a1f5d11bb",
        ("symmetric_group", "group"): "3087bb48169ee95e4267439bcaf0c55b81f90ba4ae88648f782d359f5be2174b",
        ("symmetric_group", "conjugation"): "885cc098ebfcc26857815c03d4adf270e09dcff5516e73842043bfab6a714498",
        ("dihedral_group", "group"): "9b2aee8b1909ad30b4a896aed2a12502196ef8d0fd85e7154fbbe9d81566d7ec",
        ("dihedral_group", "conjugation"): "25edd92bd3d67d4ca6895d55f919a087482f15a77725e815dc94cad4caadbfff",
        ("direct_product", "group"): "9b15ae2dd44511001213045cbe233b0c7d7b3ba302749dbf0e3892f6932495d1",
        ("direct_product", "conjugation"): "7b425752ca8cb75ca01886a7c13c5099e327ab0ceb84e59dd39c031ea6e0824f",
    }
    SIZES = {"cyclic_group": range(1, 13), "symmetric_group": range(1, 6), "dihedral_group": range(1, 9)}

    @pytest.mark.parametrize("family, kind", list(DIGESTS))
    def test_tables_match_the_pinned_digest(self, family, kind, group_battery):
        if family == "direct_product":  # every ordered pair of the battery
            groups = [Q.direct_product(g, h) for g in group_battery for h in group_battery]
        else:
            groups = [getattr(Q, family)(k) for k in self.SIZES[family]]
        tables = [Q.conjugation(g) if kind == "conjugation" else g for g in groups]
        pinned = json.dumps([[t.name, t.table] for t in tables], separators=(",", ":"))
        assert hashlib.sha256(pinned.encode()).hexdigest() == self.DIGESTS[family, kind]

    def test_dihedral_quandles_match_the_pinned_digest(self):
        pinned = json.dumps([[q.name, q.table] for q in map(Q.dihedral, range(1, 61))], separators=(",", ":"))
        assert hashlib.sha256(pinned.encode()).hexdigest() == (
            "b3bdaabd66ea9d2bfbd0ea378109a0ce82fc39419ccfdad1e8249d5688d74caa")


class TestAbelianGroupSpec:
    def test_rejects_small_factor(self):
        with pytest.raises(ValueError):
            Q.AbelianGroupSpec((1, 2))

    @pytest.mark.parametrize("factors", [[3], 5])
    def test_rejects_non_tuple_factors(self, factors):
        with pytest.raises(ValueError, match="cyclic factors must be a tuple of ints >= 2"):
            Q.AbelianGroupSpec(factors)

    def test_index_tuple_round_trip(self):
        g = Q.AbelianGroupSpec((2, 3))
        for i in range(1, 7):
            assert g.index_of(g.tuple_of(i)) == i

    def test_arithmetic(self):
        g = Q.AbelianGroupSpec((2, 3))
        a = g.index_of((1, 2))
        b = g.index_of((1, 1))
        assert g.tuple_of(g.add(a, b)) == (0, 0)
        assert g.add(a, g.negate(a)) == g.zero

    def test_trivial_group(self):
        g = Q.AbelianGroupSpec(())
        assert g.order == 1
        assert g.add(1, 1) == 1

    def test_digits_equal_division(self):
        groups = [g for n in range(1, 33) for g in Q.abelian_group_specs(n)]
        assert Q.AbelianGroupSpec(()) in groups
        for g in groups:
            assert [g.tuple_of(i) for i in range(1, g.order + 1)] == [
                digits_by_division(g, i) for i in range(1, g.order + 1)], g.describe()

    @pytest.mark.parametrize("method,args", [
        ("tuple_of", (5,)), ("tuple_of", (0,)), ("tuple_of", (True,)), ("tuple_of", (2.0,)),
        ("add", (0, 1)), ("sub", (1, 5)), ("negate", (-1,)), ("scale", (2, "1"))])
    def test_bad_index_rejected(self, method, args):
        with pytest.raises(ValueError, match=r"element index .* out of range 1\.\.4$"):
            getattr(Q.AbelianGroupSpec((4,)), method)(*args)

    @pytest.mark.parametrize("digits", [(1,), (1, 2, 0), ("a", 1), (True, 1), (1.0, 2), [1], 5, "12"])
    def test_index_of_rejects_malformed_digits(self, digits):
        g = Q.AbelianGroupSpec((2, 3))
        with pytest.raises(ValueError, match=r"^need 2 int digits for Z2 x Z3, got "):
            g.index_of(digits)

    def test_index_of_reduces_each_digit(self):
        g = Q.AbelianGroupSpec((2, 3))
        assert g.index_of((-1, -1)) == g.index_of([1, 2]) == g.index_of((3, 5)) == 6
        assert Q.AbelianGroupSpec(()).index_of(()) == 1

    @pytest.mark.parametrize("k", [2.5, True, "2", None])
    def test_scale_rejects_non_int_scalar(self, k):
        g = Q.AbelianGroupSpec((2, 3))
        message = f"^scalar must be an int, got {k!r}$"
        with pytest.raises(ValueError, match=message):
            g.scale(k, 2)
        with pytest.raises(ValueError, match=message):
            Q.scalar_automorphism(g, k)

    def test_order_of_equals_scaling(self):
        groups = [g for n in range(1, 33) for g in Q.abelian_group_specs(n)]
        assert Q.AbelianGroupSpec(()) in groups
        for g in groups:
            assert [g.order_of(i) for i in range(1, g.order + 1)] == [
                order_by_scaling(g, i) for i in range(1, g.order + 1)], g.describe()

    @pytest.mark.parametrize("i", [0, 5, True, 2.0])
    def test_order_of_rejects_bad_index(self, i):
        with pytest.raises(ValueError, match=r"element index .* out of range 1\.\.4$"):
            Q.AbelianGroupSpec((4,)).order_of(i)

    def test_cached_digits_are_invisible(self):
        g, fresh = Q.AbelianGroupSpec((2, 3)), Q.AbelianGroupSpec((2, 3))
        before = (repr(g), hash(g))
        assert g.tuple_of(6) == (1, 2)
        assert [f.name for f in dataclasses.fields(g)] == ["cyclic_factors"]
        assert g == fresh and (repr(g), hash(g)) == before == (repr(fresh), hash(fresh))


class TestAffine:
    def test_identity_gives_trivial(self):
        g = Q.AbelianGroupSpec((5,))
        assert Q.affine(g, Q.identity_automorphism(g)).table == Q.trivial(5).table

    def test_negation_gives_dihedral(self):
        g = Q.AbelianGroupSpec((3,))
        assert Q.affine(g, Q.negation_automorphism(g)).table == Q.dihedral(3).table

    def test_z12_times_5_passes(self):
        g = Q.AbelianGroupSpec((12,))
        assert Q.check_axioms(Q.affine(g, Q.scalar_automorphism(g, 5))).overall

    def test_non_unit_rejected(self):
        g = Q.AbelianGroupSpec((12,))
        with pytest.raises(ValueError, match="^4 is not a unit for Z12$"):
            Q.scalar_automorphism(g, 4)

    @pytest.mark.parametrize("r", [True, False, 2.5, "3"])
    def test_non_int_scalar_rejected(self, r):
        with pytest.raises(ValueError):
            Q.scalar_automorphism(Q.AbelianGroupSpec((4,)), r)

    def test_image_tuple_rejected_by_affine(self):
        g = Q.AbelianGroupSpec((3,))
        with pytest.raises(ValueError, match=r"^automorphism must be a Permutation, got \(1, 3, 2\)$"):
            Q.affine(g, (1, 3, 2))

    def test_image_tuple_rejected_by_validation(self):
        g = Q.AbelianGroupSpec((3,))
        with pytest.raises(ValueError, match=r"^automorphism must be a Permutation, got \(1, 3, 2\)$"):
            Q.validate_automorphism(g, (1, 3, 2))

    def test_degree_must_match_the_group_order(self):
        with pytest.raises(ValueError, match="^map degree 2 does not match group order 3$"):
            Q.validate_automorphism(Q.AbelianGroupSpec((3,)), Q.Permutation((1, 2)))

    def test_factor_tuple_rejected_as_group(self):
        with pytest.raises(ValueError, match=r"^group must be an AbelianGroupSpec, got \(3,\)$"):
            Q.affine((3,), Q.Permutation((1, 3, 2)))

    def test_non_additive_rejected(self):
        g = Q.AbelianGroupSpec((4,))
        # swaps residues 1 and 2: bijective but not additive
        t = Q.Permutation((1, 3, 2, 4))
        with pytest.raises(ValueError, match="not additive"):
            Q.affine(g, t)

    # every abelian group of order <= 6, and factor lists that are not invariant factor chains
    @pytest.mark.parametrize("factors", [g.cyclic_factors for n in range(1, 7)
                                         for g in Q.abelian_group_specs(n)] + [(2, 3), (3, 2), (4, 2)])
    def test_validation_matches_pairwise_oracle(self, factors):
        g = Q.AbelianGroupSpec(factors)
        for images in permutations(range(1, g.order + 1)):
            t = Q.Permutation(images)
            try:
                Q.validate_automorphism(g, t)
            except ValueError as err:
                assert str(err).startswith("not additive"), err
                assert not additive_by_pairs(g, t), images
            else:
                assert additive_by_pairs(g, t), images

    def test_all_units_pass_axioms_up_to_12(self):
        import math

        for n in range(2, 13):
            g = Q.AbelianGroupSpec((n,))
            for r in range(1, n + 1):
                if math.gcd(r, n) == 1:
                    q = Q.affine(g, Q.scalar_automorphism(g, r))
                    assert Q.check_axioms(q).overall, (n, r)

    def test_generator_images_validation(self):
        g = Q.AbelianGroupSpec((2, 4))
        # e1 has order 2, so its image must be 2-torsion
        bad = (g.index_of((0, 1)), g.index_of((0, 1)))
        with pytest.raises(ValueError, match="not additive"):
            Q.automorphism_from_images(g, bad)
        good = Q.automorphism_from_images(
            g, (g.index_of((1, 0)), g.index_of((0, 1))))
        assert good.is_identity()

    def test_generator_images_not_bijective(self):
        g = Q.AbelianGroupSpec((2, 4))
        # both images lie in the subgroup generated by (0, 1)
        with pytest.raises(ValueError, match="do not extend to a bijection"):
            Q.automorphism_from_images(g, (g.index_of((0, 2)), g.index_of((0, 1))))

    def test_bool_generator_image_rejected(self):
        with pytest.raises(ValueError, match="element index True out of range"):
            Q.automorphism_from_images(Q.AbelianGroupSpec((3,)), (True,))

    @pytest.mark.parametrize("images", [5, None, "1", {1: 2}])
    def test_generator_images_not_a_sequence_rejected(self, images):
        with pytest.raises(ValueError, match="^expected a tuple or list of 1 generator images, got "):
            Q.automorphism_from_images(Q.AbelianGroupSpec((3,)), images)

    # every abelian group of order <= 12, and factor lists that are not invariant factor chains
    @pytest.mark.parametrize("factors", [g.cyclic_factors for n in range(1, 13)
                                         for g in Q.abelian_group_specs(n)] + [(2, 3), (3, 2), (4, 2)])
    def test_affine_equals_cellwise_add(self, factors):
        g = Q.AbelianGroupSpec(factors)
        for t, _ in Q.enumerate_automorphisms(g):
            q, ref = Q.affine(g, t), affine_by_add(g, t)
            assert q == ref and q.name == ref.name, t

    def test_affine_adds_no_cell_by_cell(self, monkeypatch):
        g = Q.AbelianGroupSpec((2, 6))
        t = Q.automorphism_from_images(g, (g.index_of((1, 3)), g.index_of((0, 5))))
        expected = affine_by_add(g, t)

        def refuse(*args):
            raise AssertionError("affine() called AbelianGroupSpec.add or sub")

        monkeypatch.setattr(Q.AbelianGroupSpec, "add", refuse)
        monkeypatch.setattr(Q.AbelianGroupSpec, "sub", refuse)
        assert Q.affine(g, t) == expected
