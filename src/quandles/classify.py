"""Isomorphism invariants, pairwise isomorphism with certificates, family
classification, and a small-order census."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from itertools import permutations as _permutations
from operator import eq

from .core import Permutation, Quandle, _check_order, _cycle_type_of, _proven, translations  # noqa: F401 (perfbench traces it here)
from .properties import (
    ensure_quandle,
    is_abelian,
    is_connected,
    is_cyclic_type,
    is_involutory,
    is_left_distributive,
)

CENSUS_CAP = 8


def _spectrum(q: Quandle) -> tuple[tuple[int, int], ...]:
    counts: Counter = Counter()
    for orbit in q._orbits:  # one cycle type, so one order, per orbit
        counts[math.lcm(*q._types[orbit[0] - 1])] += len(orbit)
    return tuple(sorted(counts.items()))


def _centralizer_sizes(q: Quandle) -> tuple[int, ...]:
    # |centralizer(q, a)| counts the x with x>a = a>x: column a against row a
    return tuple(sorted(sum(map(eq, row, col)) for row, col in zip(q.table, zip(*q.table))))


def _cyclic_type_flag(q: Quandle) -> bool:
    return is_cyclic_type(q) if q.order >= 2 else False


def format_spectrum(spectrum) -> str:
    return "{" + ",".join(f"{k}:{v}" for k, v in spectrum) + "}"


def _fmt_plain(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# Comparison order follows the classification protocol: order structure first,
# centralizer patterns on ties, then the remaining flags.
_STAGES = (
    ("order", lambda q: q.order, _fmt_plain),
    ("generator order spectrum", _spectrum, format_spectrum),
    ("generator cycle types", lambda q: tuple(sorted(q._types)), _fmt_plain),
    ("orbit sizes", lambda q: tuple(sorted(map(len, q._orbits))), _fmt_plain),
    ("centralizer sizes", _centralizer_sizes, _fmt_plain),
    ("involutory", is_involutory, _fmt_plain),
    ("abelian", is_abelian, _fmt_plain),
    ("left distributive", is_left_distributive, _fmt_plain),
    ("connected", is_connected, _fmt_plain),
    ("cyclic type", _cyclic_type_flag, _fmt_plain),
)


@dataclass(frozen=True)
class InvariantProfile:
    """Isomorphism-invariant fingerprint. Equal profiles are necessary for
    isomorphism, never sufficient."""

    order: int
    spectrum: tuple[tuple[int, int], ...]
    cycle_types: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]
    centralizer_sizes: tuple[int, ...]
    involutory: bool
    abelian: bool
    left_distributive: bool
    connected: bool
    cyclic_type: bool

    def sort_key(self):
        return tuple(getattr(self, f.name) for f in fields(self))


def invariant_profile(q: Quandle) -> InvariantProfile:
    """The _STAGES values of q, one field per stage in the same order."""
    ensure_quandle(q)
    return InvariantProfile(*(f(q) for _, f, _ in _STAGES))


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: Permutation | None = None
    certificate: str | None = None

    @property
    def verdict(self) -> str:
        return "isomorphic" if self.isomorphic else "not-isomorphic"


def _is_homomorphism(q1: Quandle, q2: Quandle, phi: Permutation) -> bool:
    t1, t2 = q1.table, q2.table
    n = q1.order
    for x in range(n):
        px = phi.images[x]
        for y in range(n):
            if phi.images[t1[x][y] - 1] != t2[px - 1][phi.images[y] - 1]:
                return False
    return True


def _search_isomorphism(q1: Quandle, q2: Quandle) -> Permutation | None:
    """Backtracking with forced-assignment propagation.

    Seeds are assigned rarest cycle type first; candidate images share the
    translation cycle type and are tried in ascending element order. Each
    assignment is closed under the table operation, so conflicts surface
    early. A mapping found is re-verified against both tables. Both tables must
    satisfy the axioms: the cycle types are read per orbit (Quandle._types).
    """
    n = q1.order
    t1, t2 = q1.table, q2.table
    type1, type2 = [None, *q1._types], [None, *q2._types]
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
        # Each unordered pair of assigned elements is checked once, both products, when the
        # later one is reached; pairs below start were closed by an earlier call, and no
        # rollback cuts into them. Each value set is forced, phi(x>y) = phi(x)>phi(y), so any
        # visiting order gives the same closure, phi and verdict: the search is unchanged.
        qi = start
        while qi < len(assigned):
            e = assigned[qi]
            pe = phi[e]
            row1, row2 = t1[e - 1], t2[pe - 1]
            for d in assigned[:qi + 1]:
                pd = phi[d]
                for w, w2 in ((row1[d - 1], row2[pd - 1]), (t1[d - 1][e - 1], t2[pd - 1][pe - 1])):
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

    mapping = Permutation(tuple(phi[1:]))
    if not _is_homomorphism(q1, q2, mapping):
        raise AssertionError("search returned a non-homomorphism")  # pragma: no cover
    return mapping


def are_isomorphic(q1: Quandle, q2: Quandle) -> IsoResult:
    """Decide isomorphism with an explicit mapping or a certificate.

    Invariant filters run first, in the _STAGES order; a mismatch names the
    first differing invariant. On a full tie a backtracking search looks for
    a mapping, which is re-verified against both tables before being
    returned; an exhausted search certifies non-isomorphism.
    """
    ensure_quandle(q1)
    ensure_quandle(q2)
    for name, func, fmt in _STAGES:
        v1, v2 = func(q1), func(q2)
        if v1 != v2:
            return IsoResult(False, certificate=f"{name}: {fmt(v1)} vs {fmt(v2)}")
    mapping = _search_isomorphism(q1, q2)
    if mapping is None:
        return IsoResult(False, certificate="exhausted search")
    return IsoResult(True, mapping=mapping)


@dataclass(frozen=True)
class IsoClass:
    representative: Quandle
    members: tuple[int, ...]


def classify_family(qs) -> tuple[IsoClass, ...]:
    """Partition the inputs into isomorphism classes.

    Each input's invariant profile is computed once, and an input is searched
    only against the first member of each class with an equal profile. Members
    are input positions (0-based); a class's representative is its least
    table; classes are sorted by (profile key, representative table), so the
    output is stable under permuting the input.
    """
    return tuple(c for _, c in _keyed_classes(tuple(qs)))


def _keyed_classes(qs: tuple[Quandle, ...]) -> list[tuple[tuple, IsoClass]]:
    """(profile sort key, class) for each class of classify_family(qs), in its order."""
    profiles = [invariant_profile(q) for q in qs]
    buckets: dict[InvariantProfile, list[list[int]]] = {}
    for i, q in enumerate(qs):
        bucket = buckets.setdefault(profiles[i], [])
        for members in bucket:
            if _search_isomorphism(qs[members[0]], q) is not None:
                members.append(i)
                break
        else:
            bucket.append([i])
    classes = [(profile.sort_key(), IsoClass(representative=min((qs[i] for i in m), key=lambda q: q.table),
                                             members=tuple(m)))
               for profile, bucket in buckets.items() for m in bucket]
    return sorted(classes, key=lambda kc: (kc[0], kc[1].representative.table))


def _conjugate_below(c: tuple[int, ...], group) -> bool:
    """Whether h c h^-1 < c for some (h with a 0 in front, h^-1) in group."""
    padded = (0, *c)
    return any(tuple(map(h.__getitem__, map(padded.__getitem__, h_inv))) < c for h, h_inv in group)


def _columns_fixing(n: int, y: int) -> list[tuple[int, ...]]:
    """Every permutation of 1..n fixing y, as a column, lexicographically."""
    return [(*p[:y - 1], y, *p[y - 1:]) for p in _permutations([v for v in range(1, n + 1) if v != y])]


def all_quandle_tables(n: int) -> tuple[Quandle, ...]:
    """Every labeled order-n quandle, by backtracking over columns.

    Idempotency and column bijectivity are built in (column y is a permutation
    fixing y); self-distributivity prunes as soon as a triple is refutable. Once
    columns y and z are placed, column y>z is forced to R_z R_y R_z^-1, so it is
    the only candidate tried: every other one fails the same triples.
    """
    _check_order(n)
    return _tables(n)


def _tables(n: int, reduced: bool = False) -> tuple[Quandle, ...]:
    """The tables of all_quandle_tables(n), in its order; with reduced, only those that census's
    two symmetry cuts keep, which meet every isomorphism class (see census)."""
    columns = [_columns_fixing(n, y) for y in range(1, n + 1)]
    cols: list[tuple[int, ...]] = []
    out: list[Quandle] = []

    def consistent(k: int) -> bool:
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

    def forced(k: int) -> list[tuple[int, ...]] | None:
        # column k+1 as R_z R_y R_z^-1 for the first placed z, y with y > z = k+1
        for cz in cols:
            y = cz.index(k + 1)
            if y < k:
                cy, inv = cols[y], [0] * n
                for x, v in enumerate(cz):
                    inv[v - 1] = x
                return [tuple(cz[cy[i] - 1] for i in inv)]
        return None

    def rec(k: int, candidates, group) -> None:
        # group: the non-identity h of G_{k+1}, each as (h with a 0 in front, h^-1); see census
        if k == n:
            rows = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            out.append(_proven(Quandle(n, rows)))  # the columns and consistent() proved it
            return
        if k and group:  # G_{k+1} = G_k ∩ Stab(k+1) ∩ C(R_k)
            r = cols[-1]
            r_at = (0, *r).__getitem__
            group = [(h, h_inv) for h, h_inv in group
                     if h[k + 1] == k + 1 and tuple(map(h.__getitem__, r)) == tuple(map(r_at, h[1:]))]
        for cand in forced(k) or candidates[k]:
            if group and _conjugate_below(cand, group):
                continue  # cut B
            cols.append(cand)
            if consistent(k + 1):
                rec(k + 1, candidates, group)
            cols.pop()

    if not reduced:
        rec(0, columns, [])
        return tuple(out)
    types = {c: _cycle_type_of(c) for cs in columns for c in cs}
    firsts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for c in columns[0]:
        firsts.setdefault(types[c], c)  # the least R_1 of each cycle type: cut B on column 1
    stab_1 = [((0, *h), tuple(h.index(x) + 1 for x in range(1, n + 1))) for h in columns[0][1:]]
    for top, first in firsts.items():
        # cut A: no column has a cycle type above R_1's; a forced column is conjugate to a
        # placed one, so it passes too
        rec(0, [[first], *([c for c in cs if types[c] <= top] for cs in columns[1:])], stab_1)
    return tuple(out)


def _least_relabeling(q: Quandle) -> Quandle:
    """The lex-least relabeling of quandle q, by a pruned canonical-labeling search (McKay &
    Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 2014).

    Inn(q) lies in Aut(q) and moves each orbit's least element anywhere in its orbit, so only
    those need label 1. Row 1 is x > old_j over j, for the x labeled 1; filling it column by
    column places every label. At column j an unplaced old_j must give the cell its least value,
    so only ties branch, and a row 1 above the best table's is cut. A labeling whose table
    equals the best one gives an automorphism g. A candidate in the orbit of a tried one, under
    the automorphisms found so far that fix every placed element, gives the same tables, and so
    does the rest of the subtree where the labeling parts from the best one's (g maps onto it)."""
    n = q.order
    rows = [(), *((0, *row) for row in q.table)]  # rows[a][b] = a > b
    best: tuple[tuple[int, ...], ...] = ()
    best_old: tuple[int, ...] = ()
    autos: list[list[int]] = []  # g[a] for each automorphism g found, g[0] = 0
    jump = n  # after an automorphism: how many placed elements the branch to resume holds
    old: list[int] = []  # old[i] is the element labeled i + 1
    label = [0] * (n + 1)

    def in_tried_orbit(y: int, tried: list[int]) -> bool:
        gens = [g for g in autos if all(g[e] == e for e in old)]
        orbit, frontier = set(tried), list(tried)
        while frontier:
            e = frontier.pop()
            for g in gens:
                if g[e] not in orbit:
                    orbit.add(g[e])
                    frontier.append(g[e])
        return y in orbit

    def branch(candidates: list[int], j: int, tight: bool) -> None:
        # tight: cells 1..j-1 of row 1 equal the best table's
        nonlocal jump
        tried: list[int] = []
        for y in candidates:
            if tried and autos and in_tried_orbit(y, tried):  # read lazily: autos grow
                continue
            tried.append(y)
            old.append(y)
            label[y] = j
            before = best
            extend(j, tight)
            label[old.pop()] = 0
            if jump < j - 1:
                return
            jump = n
            tight = tight or best is not before  # a new best shares this row 1 prefix

    def extend(j: int, tight: bool) -> None:
        # cells 1..j-1 of row 1 are filled
        nonlocal best, best_old, jump
        mark = len(old)
        x_row = rows[old[0]]
        while j <= n:
            if j > len(old):  # old_j is an unplaced y giving the least cell; x > y != y takes j + 1
                value = {y: label[x_row[y]] or (j if x_row[y] == y else j + 1)
                         for y in range(1, n + 1) if not label[y]}
                least = min(value.values())
                if tight and least > best[0][j - 1]:
                    break
                candidates = [y for y, v in value.items() if v == least]
                if len(candidates) > 1:
                    branch(candidates, j, tight)
                    break
                old.append(candidates[0])
                label[candidates[0]] = j
            e = x_row[old[j - 1]]  # the cell; an unlabeled x > old_j takes the next label
            if not label[e]:
                old.append(e)
                label[e] = len(old)
            if tight:
                if label[e] > best[0][j - 1]:
                    break
                tight = label[e] == best[0][j - 1]
            j += 1
        else:
            if not tight:  # row 1 is below the best one's
                best, best_old = tuple(tuple(label[rows[a][b]] for b in old) for a in old), tuple(old)
            else:  # row 1 equals the best one's: compare the rest, row by row
                relabeled = (tuple(label[rows[a][b]] for b in old) for a in old[1:])
                for i, row in enumerate(relabeled, start=1):
                    if row != best[i]:
                        if row < best[i]:
                            best, best_old = (*best[:i], row, *relabeled), tuple(old)
                        break
                else:  # the same table: best_old[i] -> old[i] is an automorphism g
                    g = [0] * (n + 1)
                    for a, b in zip(best_old, old):
                        g[a] = b
                    autos.append(g)
                    # g maps the finished subtree where best_old left this path onto the one
                    # holding old, so the search resumes at the branch where they part
                    jump = next(i for i, (a, b) in enumerate(zip(best_old, old)) if a != b)
        while len(old) > mark:
            label[old.pop()] = 0

    branch([orbit[0] for orbit in q._orbits], 1, False)
    return _proven(Quandle(n, best))  # a relabeling of a quandle is one


def census(n: int) -> tuple[Quandle, ...]:
    """One representative per isomorphism class of order-n quandles, its class's lex-least
    table, sorted by (invariant profile key, table).

    Only a reduced set of labeled tables is enumerated and classified (_tables(n, reduced=True)),
    one that still meets every class; this is orderly generation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998). Cycle types are ordered as tuples of descending lengths.
    - Cut A: every class has a member whose R_1 has the greatest cycle type among its columns
      (relabel that y as 1), so no column's type may exceed R_1's.
    - Cut B: let G_k be the permutations fixing 1..k that commute with R_1..R_{k-1}. Relabeling by
      h in G_k keeps columns 1..k-1 and turns R_k into h R_k h^-1, so R_k need only be the least of
      those conjugates. Minimizing column 1, 2, ... in turn keeps the columns before each one and
      every column's cycle type, so the member cut A picked reaches a table both cuts keep.
    At n = 5 / 6 / 7 / 8 that leaves 32 / 161 / 1,065 / 8,915 tables; each class's lex-least
    table is then found from one member (_least_relabeling)."""
    if type(n) is int and not 1 <= n <= CENSUS_CAP:  # _check_order rejects non-ints
        raise ValueError(f"census supports 1 <= n <= {CENSUS_CAP}, got {n}")
    _check_order(n)
    classes = _keyed_classes(_tables(n, reduced=True))
    reps = [(key, _least_relabeling(c.representative)) for key, c in classes]
    return tuple(rep for _, rep in sorted(reps, key=lambda kr: (kr[0], kr[1].table)))
