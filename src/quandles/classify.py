"""Isomorphism invariants, pairwise isomorphism with certificates, family
classification, and a small-order census."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from itertools import permutations as _permutations
from operator import eq

from .core import Permutation, Quandle, _check_order, translations  # noqa: F401 (perfbench traces it here)
from .properties import (
    ensure_quandle,
    is_abelian,
    is_connected,
    is_cyclic_type,
    is_involutory,
    is_left_distributive,
)

CENSUS_CAP = 6


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
    qs = list(qs)
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
    classes = [IsoClass(representative=min((qs[i] for i in m), key=lambda q: q.table),
                        members=tuple(m))
               for bucket in buckets.values() for m in bucket]
    classes.sort(key=lambda c: (profiles[c.members[0]].sort_key(), c.representative.table))
    return tuple(classes)


def all_quandle_tables(n: int) -> tuple[Quandle, ...]:
    """Every labeled order-n quandle, by backtracking over columns.

    Idempotency and column bijectivity are built in (column y is a permutation
    fixing y); self-distributivity prunes as soon as a triple is refutable. Once
    columns y and z are placed, column y>z is forced to R_z R_y R_z^-1, so it is
    the only candidate tried: every other one fails the same triples.
    """
    _check_order(n)
    col_candidates = []
    for y in range(1, n + 1):
        rest = [v for v in range(1, n + 1) if v != y]
        cands = []
        for perm in _permutations(rest):
            col = [0] * n
            col[y - 1] = y
            for pos, v in zip(rest, perm):
                col[pos - 1] = v
            cands.append(tuple(col))
        col_candidates.append(cands)

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

    def rec(k: int) -> None:
        if k == n:
            rows = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            out.append(Quandle(n, rows))
            return
        for cand in forced(k) or col_candidates[k]:
            cols.append(cand)
            if consistent(k + 1):
                rec(k + 1)
            cols.pop()

    rec(0)
    return tuple(out)


def census(n: int) -> tuple[Quandle, ...]:
    """One representative per isomorphism class of order-n quandles.

    Hard cap at order 6: the column search blows up combinatorially beyond
    desk scale.
    """
    if type(n) is int and not 1 <= n <= CENSUS_CAP:  # all_quandle_tables rejects non-ints
        raise ValueError(f"census supports 1 <= n <= {CENSUS_CAP}, got {n}")
    labeled = all_quandle_tables(n)
    return tuple(cls.representative for cls in classify_family(labeled))
