import random
from functools import cache
from itertools import permutations

import pytest

import quandles as Q
import quandles.classify as classify_mod
from quandles.core import DEFAULT_WITNESS_CAP


@pytest.fixture(scope="session")
def battery():
    """Axiom-checked tables exercised across the suite."""
    return {
        "trivial1": Q.trivial(1),
        "trivial2": Q.trivial(2),
        "trivial3": Q.trivial(3),
        "dihedral3": Q.dihedral(3),
        "dihedral4": Q.dihedral(4),
        "dihedral5": Q.dihedral(5),
        "table1": Q.TABLE1,
        "baseB": Q.BASE_B,
        "q1": Q.Q1,
        "q2": Q.Q2,
        "conj_s3": Q.conjugation(Q.symmetric_group(3)),
    }


@pytest.fixture(scope="session")
def group_battery():
    """Groups of order <= 8 feeding the conjugation constructor."""
    z2 = Q.cyclic_group(2)
    groups = [Q.cyclic_group(n) for n in range(1, 9)]
    groups += [
        Q.direct_product(z2, z2),
        Q.direct_product(z2, Q.direct_product(z2, z2)),
        Q.direct_product(z2, Q.cyclic_group(4)),
        Q.symmetric_group(3),
        Q.dihedral_group(4),
        QUATERNION,
    ]
    return groups


# Q8 as units {1, -1, i, -i, j, -j, k, -k} in that order.
_Q8_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
_Q8_MULT = {
    ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
    ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
    ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
}


def _q8_mul(a, b):
    sign = 1
    if a.startswith("-"):
        sign, a = -sign, a[1:]
    if b.startswith("-"):
        sign, b = -sign, b[1:]
    if a == "1":
        out = b
    elif b == "1":
        out = a
    elif a == b:
        out = "-1"
    else:
        out = _Q8_MULT[(a, b)]
    if out.startswith("-"):
        sign, out = -sign, out[1:]
    return out if sign == 1 else "-" + out


QUATERNION = Q.GroupTable.from_table(
    [[_Q8_NAMES.index(_q8_mul(a, b)) + 1 for b in _Q8_NAMES] for a in _Q8_NAMES],
    name="Q8")


def relabel(q, sigma):
    """Conjugate the table by a permutation: entry'(x,y) = s(entry(s^-1 x, s^-1 y))."""
    inv = sigma.inverse()
    n = q.order
    rows = tuple(
        tuple(sigma(q.entry(inv(x), inv(y))) for y in range(1, n + 1))
        for x in range(1, n + 1))
    return Q.Quandle(n, rows)


def medial_by_scan(q):
    """The medial identity (w>x)>(y>z) = (w>y)>(x>z) over all 4-tuples."""
    t = q.table
    r = range(q.order)
    for w in r:
        rw = t[w]
        for x in r:
            a_row = t[rw[x] - 1]
            rx = t[x]
            for y in r:
                c_row = t[rw[y] - 1]
                ry = t[y]
                for z in r:
                    if a_row[ry[z] - 1] != c_row[rx[z] - 1]:
                        return False
    return True


def axioms_by_scan(q, witness_cap=DEFAULT_WITNESS_CAP):
    """The library's former check_axioms, verbatim: one hand-capped loop per axiom."""
    if witness_cap is not None and witness_cap < 1:
        raise ValueError("witness_cap must be None or >= 1")
    n, t = q.order, q.table
    cap = witness_cap

    idem = []
    for x in range(1, n + 1):
        if t[x - 1][x - 1] != x:
            idem.append(x)
            if cap is not None and len(idem) >= cap:
                break

    cols = []
    for y in range(1, n + 1):
        seen: dict[int, int] = {}
        for x in range(1, n + 1):
            v = t[x - 1][y - 1]
            if v in seen:
                cols.append((y, seen[v], x))
                break
            seen[v] = x
        if cap is not None and len(cols) >= cap:
            break

    triples = []
    done = False
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            xy = t[x - 1][y - 1]
            for z in range(1, n + 1):
                if t[xy - 1][z - 1] != t[t[x - 1][z - 1] - 1][t[y - 1][z - 1] - 1]:
                    triples.append((x, y, z))
                    if cap is not None and len(triples) >= cap:
                        done = True
                        break
            if done:
                break
        if done:
            break

    return Q.AxiomReport(
        idempotency=Q.AxiomVerdict(not idem, tuple(idem)),
        right_invertibility=Q.AxiomVerdict(not cols, tuple(cols)),
        self_distributivity=Q.AxiomVerdict(not triples, tuple(triples)),
        witness_cap=witness_cap,
    )


def left_distributive_by_scan(q):
    """x>(y>z) = (x>y)>(x>z) over all triples, on the table as given."""
    t = q.table
    r = range(q.order)
    for x in r:
        rx = t[x]
        for y in r:
            ry = t[y]
            xy_row = t[rx[y] - 1]
            for z in r:
                if rx[ry[z] - 1] != xy_row[rx[z] - 1]:
                    return False
    return True


def all_quandle_tables_by_columns(n):
    """The library's former all_quandle_tables, verbatim: every labeled order-n
    quandle by backtracking over all candidate columns, with no forced column."""
    col_candidates = []
    for y in range(1, n + 1):
        rest = [v for v in range(1, n + 1) if v != y]
        cands = []
        for perm in permutations(rest):
            col = [0] * n
            col[y - 1] = y
            for pos, v in zip(rest, perm):
                col[pos - 1] = v
            cands.append(tuple(col))
        col_candidates.append(cands)

    cols = []
    out = []

    def consistent(k):
        # (x>y)>z == (x>z)>(y>z) for every triple that column k completed
        for y in range(1, k + 1):
            cy = cols[y - 1]
            for z in range(1, k + 1):
                cz = cols[z - 1]
                w = cz[y - 1]
                if w > k or (y != k and z != k and w != k):
                    continue
                cw = cols[w - 1]
                for x in range(n):
                    if cz[cy[x] - 1] != cw[cz[x] - 1]:
                        return False
        return True

    def rec(k):
        if k == n:
            rows = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            out.append(Q.Quandle(n, rows))
            return
        for cand in col_candidates[k]:
            cols.append(cand)
            if consistent(k + 1):
                rec(k + 1)
            cols.pop()

    rec(0)
    return tuple(out)


def is_isomorphism(q1, q2, phi):
    """Check a mapping cell by cell: a bijection with phi(x>y) = phi(x)>phi(y)."""
    n = q1.order
    return (q2.order == n and sorted(phi.images) == list(range(1, n + 1))
            and all(phi(q1.entry(x, y)) == q2.entry(phi(x), phi(y))
                    for x in range(1, n + 1) for y in range(1, n + 1)))


def brute_isomorphic(q1, q2):
    """All-bijections oracle, independent of the backtracking search."""
    if q1.order != q2.order:
        return False
    n = q1.order
    for perm in permutations(range(1, n + 1)):
        if all(perm[q1.entry(x, y) - 1] == q2.entry(perm[x - 1], perm[y - 1])
               for x in range(1, n + 1) for y in range(1, n + 1)):
            return True
    return False


def conjugate_identities_by_scan(q):
    """The dual-operation inverse laws (x>y) >^-1 y = x = (x >^-1 y) > y, all pairs."""
    Q.ensure_quandle(q)
    t = q.table
    n = q.order
    for y in range(1, n + 1):
        inv = Q.translations(q)[y - 1].inverse()
        for x in range(1, n + 1):
            if inv(t[x - 1][y - 1]) != x or t[inv(x) - 1][y - 1] != x:
                return False
    return True


_affine = cache(Q.affine)


def alexander_by_scan(q, max_order=15):
    """Search for an affine presentation of q over some abelian group.

    Brute force over every abelian group of order n and every automorphism,
    with an isomorphism test per candidate; the first witness in (group chain,
    generator images) lexicographic order wins. Returns None when the search
    exhausts; raises BudgetExceededError when n exceeds max_order, which is
    distinct from a negative answer.

    The library's former alexander_recognize, verbatim except that the
    candidate tables come from a memoized Q.affine: they repeat from one
    input of an order to the next, and building them is most of the scan.
    """
    Q.ensure_quandle(q)
    if q.order > max_order:
        raise Q.BudgetExceededError(
            f"affine recognition capped at order {max_order}, got {q.order}")
    for group in Q.abelian_group_specs(q.order):
        for t, images in Q.enumerate_automorphisms(group):
            result = Q.are_isomorphic(q, _affine(group, t))
            if result.isomorphic:
                return Q.AffineWitness(group=group, generator_images=images,
                                       iso=result.mapping)
    return None


def additive_by_pairs(group, t):
    """The library's former validate_automorphism as a predicate: t(i + j) = t(i) + t(j)
    for every pair of elements, each sum taken through AbelianGroupSpec.add."""
    n = group.order
    return t.degree == n and all(t(group.add(i, j)) == group.add(t(i), t(j))
                                 for i in range(1, n + 1) for j in range(i, n + 1))


def cycle_type_by_cycles(p):
    """The library's former Permutation cycle type: lengths of cycles(), fixed points added."""
    lengths = sorted(map(len, p.cycles()), reverse=True)
    return tuple(lengths) + (1,) * (p.degree - sum(lengths))


def types_by_translations(q):
    """The cycle type of every right translation, each read off its own permutation."""
    return tuple(p.cycle_type() for p in Q.translations(q))


@cache
def derived_data_tables():
    """Quandles for the per-table derived data oracles: every labeled table of order
    <= 4, seeded relabelings of census(5), products of census bases under the five
    phase rules and both conventions, and four larger named tables."""
    tables = [q for n in range(1, 5) for q in Q.all_quandle_tables(n)]
    rng = random.Random(12)
    for q in Q.census(5):
        for _ in range(3):
            images = list(q.elements())
            rng.shuffle(images)
            tables.append(relabel(q, Q.Permutation(tuple(images))))
    tables += [Q.product3(b, r, conv) for n in (3, 4) for b in Q.census(n)
               for r in Q.enumerate_phase_rules() for conv in ("xa", "ax")]
    z29 = Q.AbelianGroupSpec((29,))
    tables += [Q.dihedral(45), Q.conjugation(Q.symmetric_group(4)),
               Q.affine(z29, Q.scalar_automorphism(z29, 3)), Q.trivial(24)]
    return tuple(tables)


def orbits_by_union_find(q):
    """The library's former orbits, verbatim: union-find over every translation's images."""
    n = q.order
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in Q.translations(q):
        for x in range(1, n + 1):
            rx, ry = find(x), find(p(x))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(groups[root]) for root in sorted(groups))


def digits_by_division(group, index):
    """The library's former AbelianGroupSpec.tuple_of, verbatim: mixed-radix
    division, last factor fastest."""
    k = index - 1
    digits = []
    for f in reversed(group.cyclic_factors):
        digits.append(k % f)
        k //= f
    return tuple(reversed(digits))


def affine_by_add(group, t):
    """The library's former affine, verbatim: one AbelianGroupSpec.add per cell."""
    Q.validate_automorphism(group, t)
    n = group.order
    shear = tuple(group.sub(y, t(y)) for y in range(1, n + 1))  # (1-t)(y)
    rows = tuple(
        tuple(group.add(t(x), shear[y - 1]) for y in range(1, n + 1))
        for x in range(1, n + 1))
    return Q.Quandle(n, rows, name=f"affine({group.describe()})")


def order_by_scaling(group, i):
    """The least k >= 1 with k*i = 0, found by scaling i by 1, 2, 3, ..."""
    k = 1
    while group.scale(k, i) != group.zero:
        k += 1
    return k


def search_isomorphism_all_pairs(q1, q2):
    """The library's former _search_isomorphism, verbatim: propagation checks every
    ordered pair of assigned elements, each unordered pair twice.

    Backtracking with forced-assignment propagation.

    Seeds are assigned rarest cycle type first; candidate images share the
    translation cycle type and are tried in ascending element order. Each
    assignment is closed under the table operation, so conflicts surface
    early. A mapping found is re-verified against both tables.
    """
    n = q1.order
    t1, t2 = q1.table, q2.table
    type1 = [None] + [p.cycle_type() for p in Q.translations(q1)]
    type2 = [None] + [p.cycle_type() for p in Q.translations(q2)]
    buckets: dict[tuple, list[int]] = {}
    for u in range(1, n + 1):
        buckets.setdefault(type2[u], []).append(u)
    if any(type1[x] not in buckets for x in range(1, n + 1)):
        return None
    seed_order = sorted(range(1, n + 1),
                        key=lambda x: (len(buckets[type1[x]]), type1[x], x))

    phi = [0] * (n + 1)
    used = [False] * (n + 1)
    assigned: list[int] = []

    def propagate(start: int) -> bool:
        qi = start
        while qi < len(assigned):
            e = assigned[qi]
            di = 0
            while di < len(assigned):
                d = assigned[di]
                for x, y in ((e, d), (d, e)):
                    w = t1[x - 1][y - 1]
                    w2 = t2[phi[x] - 1][phi[y] - 1]
                    pw = phi[w]
                    if pw:
                        if pw != w2:
                            return False
                    elif used[w2] or type1[w] != type2[w2]:
                        return False
                    else:
                        phi[w] = w2
                        used[w2] = True
                        assigned.append(w)
                di += 1
            qi += 1
        return True

    def rollback(mark: int) -> None:
        while len(assigned) > mark:
            e = assigned.pop()
            used[phi[e]] = False
            phi[e] = 0

    # Depth first on a stack of (bucket position of a seed's image, rollback mark).
    # A rollback restores the state in which that seed was the first free one.
    stack: list[tuple[int, int]] = []
    pos = 0
    while (x := next((e for e in seed_order if phi[e] == 0), None)) is not None:
        bucket = buckets[type1[x]]
        while pos < len(bucket) and used[bucket[pos]]:
            pos += 1
        if pos < len(bucket):
            mark = len(assigned)
            phi[x], used[bucket[pos]] = bucket[pos], True
            assigned.append(x)
            stack.append((pos, mark))
            if propagate(mark):
                pos = 0
                continue
        if not stack:
            return None
        pos, mark = stack.pop()
        rollback(mark)
        pos += 1

    mapping = Q.Permutation(tuple(phi[1:]))
    if not classify_mod._is_homomorphism(q1, q2, mapping):
        raise AssertionError("search returned a non-homomorphism")  # pragma: no cover
    return mapping


def inn_group_by_all_translations(q, materialize_cap=10**6):
    """The library's former inn_group, verbatim: breadth-first closure of every
    distinct right translation under composition, on Permutation objects."""
    gens = list(dict.fromkeys(Q.translations(q)))
    identity = Q.Permutation.identity(q.order)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = g.compose(h)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
                    if len(elements) > materialize_cap:
                        raise Q.BudgetExceededError(
                            f"group closure exceeded cap {materialize_cap}")
        frontier = new
    ordered = tuple(sorted(elements, key=lambda p: p.images))
    return Q.PermGroup(generators=tuple(gens), elements=ordered, order=len(ordered))
