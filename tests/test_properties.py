import ast
import functools
import inspect
import math
import random
import re
import warnings
from itertools import permutations

import pytest

import quandles as Q
import quandles.classify as classify_mod
import quandles.core as core_mod
import quandles.properties as properties_mod
from quandles.cli import main

from conftest import (additive_by_pairs, alexander_by_scan, conjugate_identities_by_scan,
                      left_distributive_by_scan, medial_by_scan, relabel)


def involutory_by_scan(q):
    """Independent implementation: (x>y)>y == x over all pairs."""
    return all(Q.apply(q, Q.apply(q, x, y), y) == x
               for x in q.elements() for y in q.elements())


class TestInvolutory:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_dihedral_family(self, n):
        assert Q.is_involutory(Q.dihedral(n))

    def test_trivial(self):
        assert Q.is_involutory(Q.trivial(4))

    def test_conj_s3_is_not(self, battery):
        assert not Q.is_involutory(battery["conj_s3"])

    def test_agrees_with_direct_scan(self, battery):
        for name, q in battery.items():
            assert Q.is_involutory(q) == involutory_by_scan(q), name

    def test_rejects_unchecked_input(self):
        broken = Q.from_table(2, [[1, 2], [1, 2]])
        with pytest.raises(Q.NotAQuandleError):
            Q.is_involutory(broken)


class TestAbelian:
    def test_affine_is_abelian(self):
        g = Q.AbelianGroupSpec((5,))
        assert Q.is_abelian(Q.affine(g, Q.scalar_automorphism(g, 2)))

    def test_trivial(self):
        assert Q.is_abelian(Q.trivial(4))

    def test_conj_s3_is_not(self, battery):
        assert not Q.is_abelian(battery["conj_s3"])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_scan_on_every_labeled_table(self, n):
        for q in Q.all_quandle_tables(n):
            assert Q.is_abelian(q) == medial_by_scan(q), q.table

    def test_agrees_with_scan_on_relabeled_census(self):
        rng = random.Random(5)
        for q in Q.census(5):
            for _ in range(3):
                images = list(q.elements())
                rng.shuffle(images)
                r = relabel(q, Q.Permutation(tuple(images)))
                assert Q.is_abelian(r) == medial_by_scan(r) == medial_by_scan(q), r.table

    def test_agrees_with_scan_on_named_tables(self):
        named = [Q.dihedral(n) for n in range(6, 13)]
        named += [Q.conjugation(Q.symmetric_group(4)), Q.Q1, Q.Q2]
        for q in named:
            assert Q.is_abelian(q) == medial_by_scan(q), q.name

    def test_agrees_with_scan_on_products_of_census_bases(self):
        bases = [q for n in (3, 4) for q in Q.census(n)]
        products = [Q.product3(b, r, conv) for b in bases for r in Q.enumerate_phase_rules()
                    for conv in ("xa", "ax")]
        verdicts = [Q.is_abelian(q) for q in products]
        assert verdicts == [medial_by_scan(q) for q in products]
        assert True in verdicts and False in verdicts

    def test_verdict_computed_once_per_table(self, monkeypatch):
        calls = []
        real = core_mod._is_medial
        monkeypatch.setattr(core_mod, "_is_medial", lambda q: calls.append(q) or real(q))
        q, twin = Q.conjugation(Q.symmetric_group(4)), Q.conjugation(Q.symmetric_group(4))
        for table in (q, q, twin):
            Q.is_abelian(table)
            Q.is_left_distributive(table)
            classify_mod.invariant_profile(table)
        assert [id(t) for t in calls] == [id(q), id(twin)]

    def test_cached_verdict_is_invisible(self):
        q, fresh = Q.dihedral(6), Q.dihedral(6)
        before = (repr(q), hash(q))
        assert Q.is_abelian(q) and "_medial" in vars(q)
        assert q == fresh and (repr(q), hash(q)) == before == (repr(fresh), hash(fresh))


class TestLeftDistributive:
    def test_dihedral_3(self):
        assert Q.is_left_distributive(Q.dihedral(3))

    def test_trivial(self):
        assert Q.is_left_distributive(Q.trivial(5))

    def test_abelian_implies_left_distributive(self, battery):
        for name, q in battery.items():
            if Q.is_abelian(q):
                assert Q.is_left_distributive(q), name

    def test_medial_table_is_never_scanned(self, monkeypatch):
        def refuse(t):
            raise AssertionError("is_left_distributive scanned a medial table")

        monkeypatch.setattr(properties_mod, "_distributivity_failures", refuse)
        tables = [q for n in range(1, 5) for q in Q.all_quandle_tables(n) if medial_by_scan(q)]
        tables += [Q.dihedral(45), Q.trivial(20), Q.product3(Q.dihedral(5), Q.named_rules()["dihedral"])]
        assert all(Q.is_left_distributive(q) for q in tables)

    def test_agrees_with_scan(self):
        tables = [q for n in range(1, 6) for q in Q.all_quandle_tables(n)]
        tables += [Q.conjugation(Q.symmetric_group(4)), Q.conjugation(Q.dihedral_group(4)), Q.Q1, Q.Q2]
        verdicts = [Q.is_left_distributive(q) for q in tables]
        assert verdicts == [left_distributive_by_scan(q) for q in tables]
        assert True in verdicts and False in verdicts


class TestConnected:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_dihedral_iff_odd(self, n):
        assert Q.is_connected(Q.dihedral(n)) == (n % 2 == 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trivial_iff_singleton(self, n):
        assert Q.is_connected(Q.trivial(n)) == (n == 1)

    def test_q1_orbits(self):
        assert not Q.is_connected(Q.Q1)
        assert Q.orbits(Q.Q1) == ((1,), (2,), (3,), (4, 7, 10), (5, 8, 11), (6, 9, 12))

    def test_agrees_with_orbit_count(self, battery):
        for name, q in battery.items():
            assert Q.is_connected(q) == (len(Q.orbits(q)) == 1), name


class TestCyclicType:
    def test_dihedral_3(self):
        assert Q.is_cyclic_type(Q.dihedral(3))

    def test_trivial_3(self):
        assert not Q.is_cyclic_type(Q.trivial(3))

    def test_order_1_rejected(self):
        with pytest.raises(ValueError):
            Q.is_cyclic_type(Q.trivial(1))

    def test_cyclic_type_implies_connected(self, battery):
        members = [q for q in battery.values() if q.order >= 2]
        members += list(Q.census(3)) + list(Q.census(4))
        seen_one = False
        for q in members:
            if Q.is_cyclic_type(q):
                seen_one = True
                assert Q.is_connected(q)
        assert seen_one


class TestConjugateIdentities:
    def test_hold_on_battery(self, battery):
        for name, q in battery.items():
            assert Q.conjugate_identities(q), name

    @pytest.mark.parametrize("n", range(1, 5))
    def test_scan_holds_on_every_labeled_table(self, n):
        for q in Q.all_quandle_tables(n):
            assert conjugate_identities_by_scan(q) and Q.conjugate_identities(q), q.table

    def test_scan_holds_on_census_5(self):
        for q in Q.census(5):
            assert conjugate_identities_by_scan(q) and Q.conjugate_identities(q), q.table

    def test_rejects_unchecked_input(self):
        with pytest.raises(Q.NotAQuandleError):
            Q.conjugate_identities(Q.from_table(2, [[1, 2], [1, 2]]))


class TestCentralizer:
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_trivial_is_singleton(self, a):
        assert Q.centralizer(Q.trivial(4), a) == (a,)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_dihedral3_is_everything(self, a):
        assert Q.centralizer(Q.dihedral(3), a) == (1, 2, 3)

    def test_q1_element_1(self):
        assert Q.centralizer(Q.Q1, 1) == (1,)

    def test_membership_is_symmetric(self, battery):
        for q in battery.values():
            for a in q.elements():
                for x in Q.centralizer(q, a):
                    assert a in Q.centralizer(q, x)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Q.centralizer(Q.trivial(3), 4)

    @pytest.mark.parametrize("a", [True, "x", 1.0])
    def test_non_int_rejected(self, a):
        with pytest.raises(ValueError, match="out of range"):
            Q.centralizer(Q.trivial(3), a)


class TestAbelianGroupSpecs:
    def test_order_8_has_three_classes(self):
        specs = Q.abelian_group_specs(8)
        assert [s.cyclic_factors for s in specs] == [(8,), (2, 4), (2, 2, 2)]

    def test_order_12_invariant_chains(self):
        specs = Q.abelian_group_specs(12)
        assert [s.cyclic_factors for s in specs] == [(12,), (2, 6)]

    def test_order_1(self):
        assert [s.cyclic_factors for s in Q.abelian_group_specs(1)] == [()]

    @pytest.mark.parametrize("n", [0, True])
    def test_bad_order_rejected(self, n):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n}"):
            Q.abelian_group_specs(n)


class TestEnumerateAutomorphisms:
    def test_cyclic_counts_euler_phi(self):
        for n, phi in ((2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (12, 4)):
            g = Q.AbelianGroupSpec((n,))
            assert sum(1 for _ in Q.enumerate_automorphisms(g)) == phi, n

    def test_elementary_abelian_gl(self):
        g = Q.AbelianGroupSpec((2, 2))
        assert sum(1 for _ in Q.enumerate_automorphisms(g)) == 6  # |GL(2,2)|

    def test_images_rebuild_the_permutation(self):
        g = Q.AbelianGroupSpec((2, 4))
        for t, images in Q.enumerate_automorphisms(g):
            assert Q.automorphism_from_images(g, images) == t

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_automorphisms(self, n):
        """Oracle: every bijection fixing the zero that the pairwise additivity check accepts."""
        for g in Q.abelian_group_specs(n):
            listed = list(Q.enumerate_automorphisms(g))
            images = [imgs for _, imgs in listed]
            assert images == sorted(images), g.cyclic_factors
            brute = set()
            for rest in permutations(range(2, n + 1)):
                t = Q.Permutation((1,) + rest)
                if additive_by_pairs(g, t):
                    brute.add(t)
            assert len(listed) == len(brute), g.cyclic_factors
            assert {t for t, _ in listed} == brute, g.cyclic_factors


class TestAlexanderRecognize:
    def test_trivial_4_recognized_by_identity(self):
        w = Q.alexander_recognize(Q.trivial(4))
        assert w is not None
        assert w.automorphism().is_identity()
        assert w.reproduces(Q.trivial(4))

    def test_dihedral_3_recognized_by_negation(self):
        w = Q.alexander_recognize(Q.dihedral(3))
        assert w.group.cyclic_factors == (3,)
        assert w.automorphism() == Q.negation_automorphism(w.group)

    def test_round_trip(self):
        g = Q.AbelianGroupSpec((4,))
        q = Q.affine(g, Q.scalar_automorphism(g, 3))
        w = Q.alexander_recognize(q)
        assert w is not None and w.reproduces(q)

    def test_non_affine_returns_none(self):
        # unequal orbit sizes rule out any affine presentation
        q = Q.swap_rule(0, 1).to_quandle()
        assert Q.alexander_recognize(q) is None

    def test_budget_exceeded_is_an_error(self):
        with pytest.raises(Q.BudgetExceededError):
            Q.alexander_recognize(Q.trivial(16))
        assert Q.alexander_recognize(Q.trivial(16), max_order=16) is not None

    def test_recognized_implies_abelian(self):
        for q in (Q.trivial(4), Q.dihedral(5), Q.TABLE1):
            if Q.alexander_recognize(q) is not None:
                assert Q.is_abelian(q)

    @pytest.mark.parametrize("budget", [True, False, 0, -5, 15.0, "15"])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=f"max_order must be >= 1, got {budget!r}"):
            Q.alexander_recognize(Q.trivial(4), max_order=budget)
        # the argument is checked before the table
        with pytest.raises(ValueError, match="max_order"):
            Q.alexander_recognize(Q.from_table(2, [[1, 2], [1, 2]]), max_order=budget)

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_cli_bad_budget_exits_1(self, budget, capsys):
        assert main(["props", "paper:table1", "--alexander-budget", budget]) == 1
        assert f"max_order must be >= 1, got {budget}" in capsys.readouterr().err
        assert main(["audit", "--base", "paper:table1", "--rule", "dihedral",
                     "--alexander-budget", budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"alexander_budget must be >= 1, got {budget}" in captured.err

    def test_slow_rejections_are_fast(self):
        # 2.8 s and 124 s for the brute-force search
        assert Q.alexander_recognize(Q.conjugation(Q.symmetric_group(4)), max_order=24) is None
        assert Q.alexander_recognize(Q.conjugation(Q.dihedral_group(8)), max_order=16) is None


def assert_same_witness(q, max_order=15):
    w = Q.alexander_recognize(q, max_order=max_order)
    assert w == alexander_by_scan(q, max_order=max_order), q.table
    return w


class TestAlexanderAgainstScan:
    """The gated search returns the brute-force search's lex-first witness."""

    def test_census_and_relabelings(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for q in Q.census(n):
                assert_same_witness(q)
                for _ in range(2):
                    images = list(q.elements())
                    rng.shuffle(images)
                    assert_same_witness(relabel(q, Q.Permutation(tuple(images))))

    def test_products_of_census_bases(self):
        rules = Q.enumerate_phase_rules()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # bases of order 1 and 2
            products = [Q.product3(b, r) for n in range(1, 6) for b in Q.census(n) for r in rules]
        for q in products:
            assert_same_witness(q)

    # the invariant factor chains of the benchmark's affine positives
    CHAINS = ((8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6),
              (13,), (14,), (15,), (16,), (2, 8))

    @pytest.mark.parametrize("factors", CHAINS)
    def test_affine_tables_over_workload_chains(self, factors):
        rng = random.Random(sum(factors))
        g = Q.AbelianGroupSpec(factors)
        automorphisms = [t for t, _ in Q.enumerate_automorphisms(g)]
        for t in rng.sample(automorphisms, min(2, len(automorphisms))):
            images = list(range(1, g.order + 1))
            rng.shuffle(images)
            q = relabel(Q.affine(g, t), Q.Permutation(tuple(images)))
            w = assert_same_witness(q, max_order=16)
            assert w is not None and w.reproduces(q)

    def test_named_non_affine(self):
        for q in (Q.conjugation(Q.dihedral_group(4)), Q.conjugation(Q.dihedral_group(6)),
                  Q.Q1, Q.Q2):
            assert assert_same_witness(q, max_order=12) is None, q.name


class TestAlexanderDirectSearch:
    """Each candidate is decided by the isomorphism search alone: no invariant
    stages, no axiom check on the candidate, no repeated scan of q."""

    # non-connected, so every chain of order 16 is searched: 25 candidates precede the witness
    GROUP = Q.AbelianGroupSpec((2, 2, 4))
    T = Q.Permutation((1, 6, 3, 8, 11, 16, 9, 14, 5, 2, 7, 4, 15, 12, 13, 10))

    def test_no_are_isomorphic_call(self, monkeypatch):
        q = Q.affine(self.GROUP, self.T)

        def refuse(*args):
            raise AssertionError("are_isomorphic called")

        monkeypatch.setattr(classify_mod, "are_isomorphic", refuse)
        w = Q.alexander_recognize(q, max_order=16)
        monkeypatch.undo()
        assert w == alexander_by_scan(q, max_order=16)
        assert w is not None and w.reproduces(q)

    def test_at_most_one_distributivity_scan(self, monkeypatch):
        q = Q.affine(self.GROUP, self.T)
        scans = []
        scan = core_mod._distributivity_failures

        def counted(t):
            scans.append(t)
            return scan(t)

        monkeypatch.setattr(core_mod, "_distributivity_failures", counted)
        monkeypatch.setattr(properties_mod, "_distributivity_failures", counted)
        w = Q.alexander_recognize(q, max_order=16)
        assert len(scans) <= 1  # q's own axiom gate, unless an earlier call cached its verdict
        monkeypatch.undo()
        assert w == alexander_by_scan(q, max_order=16)


class TestLemmaSumCheck:
    def test_z12_times_5(self):
        g = Q.AbelianGroupSpec((12,))
        assert Q.lemma_sum_check(g, Q.scalar_automorphism(g, 5))

    def test_z3_negation(self):
        g = Q.AbelianGroupSpec((3,))
        assert Q.lemma_sum_check(g, Q.negation_automorphism(g))

    def test_z7_times_3(self):
        g = Q.AbelianGroupSpec((7,))
        assert Q.lemma_sum_check(g, Q.scalar_automorphism(g, 3))

    def test_all_units_up_to_12(self):
        for n in range(2, 13):
            g = Q.AbelianGroupSpec((n,))
            for r in range(1, n + 1):
                if math.gcd(r, n) == 1:
                    assert Q.lemma_sum_check(g, Q.scalar_automorphism(g, r)), (n, r)

    def test_invalid_automorphism_rejected(self):
        g = Q.AbelianGroupSpec((4,))
        with pytest.raises(ValueError, match="not additive"):
            Q.lemma_sum_check(g, Q.Permutation((1, 3, 2, 4)))


class TestAffineBattery:
    def test_recognition_round_trips_up_to_8(self):
        for n in range(1, 9):
            for g in Q.abelian_group_specs(n):
                for t, _ in Q.enumerate_automorphisms(g):
                    q = Q.affine(g, t)
                    w = Q.alexander_recognize(q)
                    assert w is not None, (g.cyclic_factors, t.images)
                    assert w == alexander_by_scan(q), (g.cyclic_factors, t.images)
                    assert w.reproduces(q)
                    assert Q.is_abelian(q)


class TestNonQuandleArguments:
    """Every public function rejects a wrong-typed Quandle, PhaseRule or AbelianGroupSpec argument
    with a ValueError naming the expected type and the argument."""

    CASES = [
        ("classify_family", ([1],), "expected a Quandle, got 1"),
        ("invariant_profile", ("x",), "expected a Quandle, got 'x'"),
        ("are_isomorphic", (Q.trivial(2), 3), "expected a Quandle, got 3"),
        ("is_abelian", (3,), "expected a Quandle, got 3"),
        ("check_axioms", (3,), "expected a Quandle, got 3"),
        ("inn_group", (3,), "expected a Quandle, got 3"),
        ("audit_transfer", (3, Q.dihedral_rule()), "expected a Quandle, got 3"),
        ("product3", (3, Q.dihedral_rule()), "expected a Quandle, got 3"),
        ("decompose3", (3,), "expected a Quandle, got 3"),
        ("orbits", (3,), "expected a Quandle, got 3"),
        ("inner_structure", (3,), "expected a Quandle, got 3"),
        ("translations", (3,), "expected a Quandle, got 3"),
        ("apply", (3, 1, 1), "expected a Quandle, got 3"),
        ("dual_apply", (3, 1, 1), "expected a Quandle, got 3"),
        ("right_translation", (3, 1), "expected a Quandle, got 3"),
        ("centralizer", (3, 1), "expected a Quandle, got 3"),
        ("emit_table", (3,), "expected a Quandle, got 3"),
        ("emit_table_json", (3,), "expected a Quandle, got 3"),
        ("ensure_quandle", (3,), "expected a Quandle, got 3"),
        ("is_involutory", (3,), "expected a Quandle, got 3"),
        ("is_left_distributive", (3,), "expected a Quandle, got 3"),
        ("is_connected", (3,), "expected a Quandle, got 3"),
        ("is_cyclic_type", (3,), "expected a Quandle, got 3"),
        ("conjugate_identities", (3,), "expected a Quandle, got 3"),
        ("alexander_recognize", (3,), "expected a Quandle, got 3"),
        ("product3", (Q.trivial(3), "trivial"), "expected a PhaseRule, got 'trivial'"),
        ("audit_transfer", (Q.trivial(3), "trivial"), "expected a PhaseRule, got 'trivial'"),
        ("validate_rule", ("x",), "expected a PhaseRule, got 'x'"),
        ("is_valid_rule", ("x",), "expected a PhaseRule, got 'x'"),
        ("emit_phase", ("x",), "expected a PhaseRule, got 'x'"),
        ("formats.phase_obj", ("x",), "expected a PhaseRule, got 'x'"),
        ("validate_automorphism", ("x", Q.Permutation((1,))), "group must be an AbelianGroupSpec, got 'x'"),
        ("automorphism_from_images", ("x", (1,)), "group must be an AbelianGroupSpec, got 'x'"),
        ("scalar_automorphism", ("x", 1), "group must be an AbelianGroupSpec, got 'x'"),
        ("identity_automorphism", ("x",), "group must be an AbelianGroupSpec, got 'x'"),
        ("negation_automorphism", ("x",), "group must be an AbelianGroupSpec, got 'x'"),
        ("enumerate_automorphisms", ("x",), "group must be an AbelianGroupSpec, got 'x'"),
        ("affine", ("x", Q.Permutation((1,))), "group must be an AbelianGroupSpec, got 'x'"),
        ("lemma_sum_check", ("x", Q.Permutation((1,))), "group must be an AbelianGroupSpec, got 'x'"),
    ]

    @staticmethod
    def call(func, args):
        """Call func, a dotted name under quandles, with args, consuming a generator it returns."""
        result = functools.reduce(getattr, func.split("."), Q)(*args)
        if inspect.isgenerator(result):
            list(result)

    @pytest.mark.parametrize("func, args, message", CASES)
    def test_rejected_with_value_error(self, func, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.call(func, args)

    @pytest.mark.parametrize("bad", [3, [1]], ids=["int", "unhashable"])
    @pytest.mark.parametrize("func, args, message", CASES)
    def test_rejected_whatever_the_argument(self, func, args, message, bad):
        """Each case again with its rejected argument, the value that message names, replaced by bad."""
        head, _, named = message.rpartition("got ")
        named = ast.literal_eval(named)

        def swap(a):
            if type(a) is type(named) and a == named:
                return bad
            return [swap(b) for b in a] if type(a) is list else a

        with pytest.raises(ValueError, match=f"^{re.escape(head + 'got ' + repr(bad))}$"):
            self.call(func, tuple(map(swap, args)))

    def test_every_public_function_taking_a_quandle_is_covered(self):
        """A public function with a parameter annotated Quandle, PhaseRule or AbelianGroupSpec, in any
        position, must have a case for that type, so one that skips the check fails here."""
        kinds = {"Quandle", "PhaseRule", "AbelianGroupSpec"}

        def taken(f):
            return {getattr(p.annotation, "__name__", p.annotation)
                    for p in inspect.signature(f).parameters.values()} & kinds

        public = {name: f for name, f in vars(Q).items()
                  if not name.startswith("_") and callable(f) and not inspect.isclass(f)}
        public["formats.phase_obj"] = Q.formats.phase_obj  # not exported at the top level
        taking = {(name, kind) for name, f in public.items() for kind in taken(f)}
        assert len(taking) >= 38  # the introspection still finds them
        covered = {(func, re.search(r"an? (\w+), got", message)[1]) for func, _, message in self.CASES}
        assert taking <= covered
