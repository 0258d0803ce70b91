import warnings

import pytest

import quandles as Q
from conftest import medial_by_scan, orbits_by_union_find, product_by_definition

RULE_A_TABLE = ((0, 0, 2), (1, 1, 0), (2, 2, 2))
RULE_B_TABLE = ((0, 0, 0), (1, 1, 1), (2, 2, 1))

CENSUS_BASES = [q for n in (3, 4, 5) for q in Q.census(n)]  # 32 bases


class TestLiteralRules:
    def test_rule_a_table(self):
        assert Q.literal_rule_A().f == RULE_A_TABLE

    def test_rule_b_table(self):
        assert Q.literal_rule_B().f == RULE_B_TABLE

    def test_rule_a_spot_values(self):
        f = Q.literal_rule_A()
        assert f.entry(0, 1) == 0  # 0+1+2 mod 3
        assert f.entry(2, 2) == 2
        assert f.entry(0, 2) == 2  # collides with f(2,2) in column 2

    def test_rule_b_spot_values(self):
        f = Q.literal_rule_B()
        assert f.entry(0, 2) == 0  # 0+2+1 mod 3
        assert f.entry(2, 1) == 2  # 2+1+2 mod 3
        assert f.entry(2, 2) == 1  # falls through to a+b, breaking idempotency

    def test_rule_a_fails_invertibility_at_column_2(self):
        report = Q.validate_rule(Q.literal_rule_A())
        assert report.idempotency.ok
        assert not report.right_invertibility.ok
        assert report.right_invertibility.witnesses == ((2, 0, 2),)

    def test_rule_b_fails_idempotency_at_2(self):
        report = Q.validate_rule(Q.literal_rule_B())
        assert not report.idempotency.ok
        assert report.idempotency.witnesses == (2,)


class TestValidateRule:
    def test_trivial_rule_passes(self):
        assert Q.validate_rule(Q.trivial_rule()).overall

    def test_witnesses_in_phase_coordinates(self):
        rule = Q.rule_from_table([[1, 0, 0], [0, 0, 0], [0, 0, 0]])  # fails all three axioms
        report = Q.validate_rule(rule, witness_cap=None)
        assert report.idempotency == Q.AxiomVerdict(False, (0, 1, 2))
        assert report.right_invertibility == Q.AxiomVerdict(False, ((0, 1, 2), (1, 0, 1), (2, 0, 1)))
        assert report.self_distributivity.witnesses[:3] == ((0, 0, 1), (0, 0, 2), (0, 1, 0))
        elements = Q.check_axioms(rule.to_quandle(), witness_cap=None)
        assert report.self_distributivity == Q.AxiomVerdict(False, tuple(
            (x - 1, y - 1, z - 1) for x, y, z in elements.self_distributivity.witnesses))
        assert report.witness_cap is None and not report.overall

    def test_named_valid_rules_pass(self):
        for name in ("trivial", "dihedral", "swap01", "swap02", "swap12"):
            assert Q.is_valid_rule(Q.named_rules()[name]), name

    def test_phase_entry_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Q.rule_from_table([[0, 0, 3], [1, 1, 1], [2, 2, 2]])

    @pytest.mark.parametrize("i,j", [("0", 1), (0, "1"), (True, 2), (0, 2.0), (1, 0)])
    def test_swap_rule_takes_int_phases(self, i, j):
        with pytest.raises(ValueError, match=r"^need 0 <= i < j <= 2$"):
            Q.swap_rule(i, j)

    def test_bool_phase_entry_rejected(self):
        with pytest.raises(ValueError, match="phase entry True at \\(1,0\\)"):
            Q.PhaseRule(((0, 0, 0), (True, True, True), (2, 2, 2)))

    @pytest.mark.parametrize("rows", [[[0, 0, 0], [1, 1, 1], [2, 2, 2]],
                                      ([0, 0, 0], [1, 1, 1], [2, 2, 2])])
    def test_list_phase_table_rejected(self, rows):
        with pytest.raises(ValueError, match="phase table must be 3x3, as a tuple of row tuples"):
            Q.PhaseRule(rows)
        assert Q.rule_from_table(rows) == Q.trivial_rule()


class TestEnumeratePhaseRules:
    def test_exactly_five(self):
        rules = Q.enumerate_phase_rules()
        assert len(rules) == 5
        assert {r.name for r in rules} == {"trivial", "dihedral", "swap01", "swap02", "swap12"}
        assert [r.f for r in rules] == sorted(r.f for r in rules)

    def test_three_isomorphism_classes(self):
        rules = Q.enumerate_phase_rules()
        classes = Q.classify_family([r.to_quandle() for r in rules])
        assert len(classes) == 3

    def test_deterministic_order(self):
        assert Q.enumerate_phase_rules() == Q.enumerate_phase_rules()

    def test_matches_exhaustive_oracle(self):
        # independent oracle: all 3^9 tables through the axiom checker
        from itertools import product as cart

        valid = set()
        for combo in cart(range(3), repeat=9):
            rows = (combo[0:3], combo[3:6], combo[6:9])
            q = Q.Quandle(3, tuple(tuple(v + 1 for v in r) for r in rows))
            if Q.check_axioms(q, witness_cap=1).overall:
                valid.add(rows)
        assert valid == {r.f for r in Q.enumerate_phase_rules()}


class TestConventions:
    @pytest.mark.parametrize("conv", ["xa", "ax"])
    def test_pair_index_round_trip(self, conv):
        n = 4
        seen = set()
        for x in range(1, n + 1):
            for a in range(3):
                k = Q.pair_to_index(conv, n, x, a)
                assert 1 <= k <= 3 * n
                assert Q.index_to_pair(conv, n, k) == (x, a)
                seen.add(k)
        assert len(seen) == 3 * n

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            Q.pair_to_index("ya", 4, 1, 0)

    @pytest.mark.parametrize("func, args, message", [
        ("pair_to_index", ("ax", 3, 1, 5), r"pair \(1, 5\) is not in 1..3 x 0..2"),
        ("pair_to_index", ("xa", 3, 4, 0), r"pair \(4, 0\) is not in 1..3 x 0..2"),
        ("pair_to_index", ("xa", 3, True, 0), r"pair \(True, 0\) is not in 1..3 x 0..2"),
        ("pair_to_index", ("xa", 3, 1, 1.0), r"pair \(1, 1.0\) is not in 1..3 x 0..2"),
        ("index_to_pair", ("ax", 3, 0), "index 0 is not in 1..9"),
        ("index_to_pair", ("xa", 3, 100), "index 100 is not in 1..9"),
        ("index_to_pair", ("xa", 3, True), "index True is not in 1..9"),
        ("index_to_pair", ("xa", 0, 1), "order must be >= 1, got 0"),
    ])
    def test_out_of_range_arguments_raise(self, func, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(Q, func)(*args)


class TestProduct3:
    def test_q1_recomposition(self):
        assert Q.product3(Q.BASE_B, Q.trivial_rule(), "xa").table == Q.Q1.table

    def test_q2_recomposition(self):
        assert Q.product3(Q.BASE_B, Q.swap_rule(0, 1), "xa").table == Q.Q2.table

    def test_degenerate_base_warns_and_gives_phase_quandle(self):
        with pytest.warns(UserWarning, match="order 1"):
            p = Q.product3(Q.trivial(1), Q.trivial_rule(), "xa")
        assert p.table == Q.trivial(3).table

    def test_no_warning_at_order_3(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q.product3(Q.trivial(3), Q.trivial_rule())

    @pytest.mark.parametrize("conv", ["xa", "ax"])
    def test_matches_definition_over_census(self, conv):
        rules = Q.named_rules().values()  # the five valid rules and both literal case tables
        for base in CENSUS_BASES:
            for rule in rules:
                assert Q.product3(base, rule, conv).table == product_by_definition(base, rule, conv)

    def test_valid_products_pass_axioms(self, battery):
        bases = [battery[k] for k in ("trivial3", "dihedral3", "dihedral4", "table1", "baseB")]
        for base in bases:
            for rule in Q.enumerate_phase_rules():
                product = Q.product3(base, rule)
                assert Q.check_axioms(product, witness_cap=1).overall, (base.name, rule.name)

    def test_invalid_rule_products_fail_matching_axiom(self):
        base = Q.TABLE1
        bad_a = Q.product3(base, Q.literal_rule_A())
        report_a = Q.check_axioms(bad_a)
        assert not report_a.right_invertibility.ok
        # every broken column sits at phase b=2 under the xa convention
        for y, _, _ in report_a.right_invertibility.witnesses:
            assert Q.index_to_pair("xa", base.order, y)[1] == 2

        bad_b = Q.product3(base, Q.literal_rule_B())
        report_b = Q.check_axioms(bad_b)
        assert not report_b.idempotency.ok
        for x in report_b.idempotency.witnesses:
            assert Q.index_to_pair("xa", base.order, x)[1] == 2


class TestDecompose3:
    def test_q1_factors(self):
        base, rule = Q.decompose3(Q.Q1, "xa")
        assert base == Q.BASE_B
        assert rule == Q.trivial_rule()
        assert rule.name == "trivial"

    def test_q2_factors(self):
        base, rule = Q.decompose3(Q.Q2, "xa")
        assert base == Q.BASE_B
        assert rule == Q.swap_rule(0, 1)
        assert rule.name == "swap01"

    def test_dihedral9_does_not_factor(self):
        assert Q.decompose3(Q.dihedral(9), "xa") is None

    def test_order_not_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            Q.decompose3(Q.trivial(4), "xa")

    @pytest.mark.parametrize("conv", ["xa", "ax"])
    def test_round_trip_over_battery(self, conv, battery):
        bases = [battery[k] for k in ("trivial3", "dihedral3", "dihedral4", "table1", "baseB")]
        for base in bases + CENSUS_BASES:
            for rule in Q.enumerate_phase_rules():
                product = Q.product3(base, rule, conv)
                result = Q.decompose3(product, conv)
                assert result is not None
                got_base, got_rule = result
                assert got_base == base
                assert got_rule == rule


class TestAuditTransfer:
    def test_involutory_transfer_agrees(self):
        report = Q.audit_transfer(Q.TABLE1, Q.trivial_rule())
        rec = report.record("involutory")
        assert rec.holds_on_base and rec.holds_on_product and rec.agrees

    def test_connectivity_disagreement_flagged(self):
        report = Q.audit_transfer(Q.dihedral(3), Q.trivial_rule())
        rec = report.record("connected")
        assert rec.holds_on_base is True
        assert rec.holds_on_product is False
        assert rec.agrees is False
        assert rec in report.disagreements()

    def test_left_distributive_agreement_recorded(self):
        report = Q.audit_transfer(Q.trivial(3), Q.trivial_rule())
        rec = report.record("left-distributive")
        assert rec.agrees is True

    def test_alexander_disagreement_for_swap_rule(self):
        # trivial(3) is affine; its swap01 product has unequal orbit sizes, so it is not
        report = Q.audit_transfer(Q.trivial(3), Q.swap_rule(0, 1))
        rec = report.record("alexander")
        assert rec.holds_on_base is True
        assert rec.holds_on_product is False

    def test_budget_skip_is_none_not_false(self):
        report = Q.audit_transfer(Q.dihedral(3), Q.trivial_rule(), alexander_budget=5)
        rec = report.record("alexander")
        assert rec.holds_on_product is None
        assert rec.agrees is None

    @pytest.mark.parametrize("budget", [True, 0, -5])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=f"alexander_budget must be >= 1, got {budget}"):
            Q.audit_transfer(Q.dihedral(3), Q.trivial_rule(), alexander_budget=budget)

    def test_invalid_rule_rejected_with_report(self):
        with pytest.raises(Q.NotAQuandleError, match="phase rule"):
            Q.audit_transfer(Q.TABLE1, Q.literal_rule_A())
        # witnesses are in phase coordinates 0..2
        expected = {
            Q.literal_rule_A(): "phase rule fails axioms: right invertibility fails at column"
                                " y=2 (rows 0,2 collide); self-distributivity fails at"
                                " (x,y,z)=(1,0,2)",
            Q.literal_rule_B(): "phase rule fails axioms: idempotency fails at x=2; right"
                                " invertibility fails at column y=2 (rows 1,2 collide)",
        }
        for rule, message in expected.items():
            with pytest.raises(Q.NotAQuandleError) as err:
                Q.audit_transfer(Q.TABLE1, rule)
            assert str(err.value) == message

    def test_broken_base_rejected_with_report(self):
        broken = Q.from_table(2, [[1, 2], [1, 2]])
        with pytest.raises(Q.NotAQuandleError) as err:
            Q.audit_transfer(broken, Q.trivial_rule())
        assert str(err.value) == ("base fails axioms: right invertibility fails at column y=1"
                                  " (rows 1,2 collide)")

    @pytest.mark.parametrize("conv", ["xa", "ax"])
    def test_products_of_census_bases_against_oracles(self, conv):
        # the audit marks its product as passing the axioms (core._proven); a fresh copy is checked
        for base in CENSUS_BASES:
            for rule in Q.enumerate_phase_rules():
                report = Q.audit_transfer(base, rule, conv, alexander_budget=3 * base.order)
                fresh = Q.Quandle(report.product.order, report.product.table)
                assert Q.check_axioms(fresh).overall, (base.table, rule.name)
                assert Q.is_abelian(fresh) == medial_by_scan(fresh) == report.record("abelian").holds_on_product
                assert Q.orbits(fresh) == orbits_by_union_find(fresh)

    def test_claims_are_iff(self):
        report = Q.audit_transfer(Q.trivial(3), Q.dihedral_rule())
        assert all(rec.claim == "iff" for rec in report.records)
        assert [rec.property for rec in report.records] == [
            "involutory", "conjugate identities", "left-distributive",
            "abelian", "alexander", "connected"]
