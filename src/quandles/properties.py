"""Predicates on finite quandles: involutory, medial, left-distributive,
connectivity, cyclic type, affine recognition, and centralizers."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as _cartesian

from .core import (
    AbelianGroupSpec,
    BudgetExceededError,
    NotAQuandleError,
    Permutation,
    Quandle,
    _check_element,
    _check_order,
    _check_quandle,
    _displacements,
    _distributivity_failures,
    affine,
    automorphism_from_images,
)


def ensure_quandle(q: Quandle) -> None:
    """Reject non-Quandles and tables that fail the axioms; the predicates below assume them."""
    _check_quandle(q)
    if not q._axioms.overall:  # checked at most once per table object
        label = f"{q.name} " if q.name else ""
        raise NotAQuandleError(f"table {label}fails axioms: {q._axioms.summary()}")


def is_involutory(q: Quandle) -> bool:
    """True when every right translation has order at most 2."""
    ensure_quandle(q)
    return all(ct[0] <= 2 for ct in q._types)  # ct[0] is the longest cycle


def is_abelian(q: Quandle) -> bool:
    """The medial identity (w>x)>(y>z) = (w>y)>(x>z), decided as "the displacement
    group is abelian" on a generating set (core._is_medial), once per table."""
    ensure_quandle(q)
    return q._medial


def is_left_distributive(q: Quandle) -> bool:
    """x>(y>z) = (x>y)>(x>z) over all triples. Medial tables satisfy it (put w = x in
    the medial law and use idempotency); the others are scanned as self-distributivity
    of the opposite operation x*y = y>x, whose table is the transpose."""
    return is_abelian(q) or next(_distributivity_failures(tuple(zip(*q.table))), None) is None


def is_connected(q: Quandle) -> bool:
    """True when the right translations generate a transitive group (one orbit)."""
    ensure_quandle(q)
    return len(q._orbits) == 1


def is_cyclic_type(q: Quandle) -> bool:
    """True when each translation acts on the other n-1 elements as one (n-1)-cycle."""
    ensure_quandle(q)
    n = q.order
    if n < 2:
        raise ValueError(f"cyclic type needs order >= 2, got {n}")
    return n > 2 and all(ct == (n - 1, 1) for ct in q._types)


def conjugate_identities(q: Quandle) -> bool:
    """The dual-operation inverse laws (x>y) >^-1 y = x = (x >^-1 y) > y, all pairs.
    Both say R_y^-1 inverts R_y, so the bijective columns ensure_quandle checks imply them."""
    ensure_quandle(q)
    return True


def centralizer(q: Quandle, a: int) -> tuple[int, ...]:
    """All x with x>a = a>x, ascending."""
    _check_element(q, a, "a")
    t = q.table
    return tuple(x for x in range(1, q.order + 1) if t[x - 1][a - 1] == t[a - 1][x - 1])


def abelian_group_specs(n: int) -> tuple[AbelianGroupSpec, ...]:
    """All abelian groups of order n, one per isomorphism class, as invariant
    factor chains d1 | d2 | ... | dk (sorted by chain length, then lex)."""
    _check_order(n)

    def chains(m, bound=None):
        if m == 1:
            return [()]
        out = []
        for d in range(2, m + 1):
            if m % d:
                continue
            if bound is not None and bound % d:
                continue
            for rest in chains(m // d, d):
                out.append(rest + (d,))
        return out

    specs = sorted(set(chains(n)), key=lambda c: (len(c), c))
    return tuple(AbelianGroupSpec(c) for c in specs)


def enumerate_automorphisms(group: AbelianGroupSpec):
    """Yield (permutation, generator_images) for every automorphism, in
    lexicographic order of the image tuple."""
    candidates = [tuple(g for g in range(1, group.order + 1) if f % group.order_of(g) == 0)
                  for f in group.cyclic_factors]
    for images in _cartesian(*candidates):
        full = group._extend(images)
        if full is not None:
            yield Permutation(full), images


@dataclass(frozen=True)
class AffineWitness:
    """An affine presentation of a quandle: group, automorphism (as generator
    images), and the isomorphism onto the affine table."""

    group: AbelianGroupSpec
    generator_images: tuple[int, ...]
    iso: Permutation

    def automorphism(self) -> Permutation:
        return automorphism_from_images(self.group, self.generator_images)

    def reproduces(self, q: Quandle) -> bool:
        """Replay x>y = t(x) + (1-t)(y) through the isomorphism against q's table."""
        g = self.group
        t = self.automorphism()
        iso = self.iso
        n = q.order
        if g.order != n:
            return False
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                gx, gy = iso(x), iso(y)
                if iso(q.table[x - 1][y - 1]) != g.add(t(gx), g.sub(gy, t(gy))):
                    return False
        return True


def alexander_recognize(q: Quandle, max_order: int = 15) -> AffineWitness | None:
    """Search for an affine presentation of q over some abelian group.

    The first candidate in (group chain, generator images) order onto which the
    isomorphism search maps q wins; those that cannot match are skipped. Aff(A, t)
    is medial and its translations T_y t T_y^-1 have t's cycle type, so a
    non-medial q, or one whose translations have two cycle types, is not affine,
    and only t of q's cycle type are tried. A connected q is affine iff medial,
    with A isomorphic to Dis(q) = <R_x R_1^-1> (Hulpke, Stanovsky, Vojtechovsky,
    JPAA 2016; Jedlicka, Pilitowska, Stanovsky, Zamojska-Dzienio, J. Algebra
    2015), so only the chain with Dis(q)'s element-order counts is searched.
    Returns None when none matches; raises BudgetExceededError when n exceeds
    max_order, which is distinct from a negative answer.
    """
    from .classify import _search_isomorphism  # import here: classify uses these predicates

    _check_order(max_order, "max_order")
    ensure_quandle(q)
    if q.order > max_order:
        raise BudgetExceededError(
            f"affine recognition capped at order {max_order}, got {q.order}")
    cycle_types = set(q._types)
    if not is_abelian(q) or len(cycle_types) > 1:
        return None
    groups = abelian_group_specs(q.order)
    gens = dict.fromkeys(_displacements(q))
    if len({g[0] for g in gens}) == q.order:  # Dis(q) is transitive, so regular: gens is all of it
        dis_counts = Counter(Permutation(tuple(v + 1 for v in g)).order() for g in gens)
        groups = [g for g in groups if dis_counts == Counter(map(g.order_of, q.elements()))]
    for group in groups:
        for t, images in enumerate_automorphisms(group):
            if t.cycle_type() not in cycle_types:
                continue
            iso = _search_isomorphism(q, affine(group, t))  # complete, and re-checks its mapping
            if iso is not None:
                return AffineWitness(group=group, generator_images=images, iso=iso)
    return None


def lemma_sum_check(group: AbelianGroupSpec, t: Permutation) -> bool:
    """Verify a>b + b>a = a + b over the affine structure, for all pairs."""
    q = affine(group, t)
    return all(group.add(q.entry(a, b), q.entry(b, a)) == group.add(a, b)
               for a in q.elements() for b in q.elements())
