"""Inner automorphism structure: the right-translation generators, the group
they generate, and its orbits."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import BudgetExceededError, Permutation, Quandle, _check_order, translations

DEFAULT_MATERIALIZE_CAP = 10**6


@dataclass(frozen=True)
class InnerStructure:
    """Per-element cycle decompositions of the translations R_1..R_n, with the
    multiset of generator orders."""

    order: int
    translations: tuple[Permutation, ...]
    orders: tuple[int, ...]
    count_of_order: dict[int, int]

    @property
    def summary(self) -> tuple[int, ...]:
        return tuple(sorted(self.orders))

    def lines(self) -> list[str]:
        return [f"R({y}) = {p.cycle_string()}"
                for y, p in enumerate(self.translations, start=1)]


def inner_structure(q: Quandle) -> InnerStructure:
    """Requires bijective columns only, so rack-like tables are accepted."""
    trans = translations(q)
    orders = tuple(p.order() for p in trans)
    counts = Counter(orders)
    return InnerStructure(
        order=q.order,
        translations=trans,
        orders=orders,
        count_of_order={k: counts[k] for k in sorted(counts)},
    )


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators with its closure materialized."""

    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]
    order: int


def inn_group(q: Quandle, materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> PermGroup:
    """Breadth-first closure of the right translations under composition, on image tuples,
    over those of q._generators first: in a rack R_{y>z} = R_z R_y R_z^-1, so they give
    every R_y; any translation still missing is closed over after. Raises
    BudgetExceededError when the closure passes materialize_cap before completing.
    """
    _check_order(materialize_cap, "materialize_cap")
    trans = translations(q)
    gens = tuple(dict.fromkeys(trans))
    elements = {tuple(q.elements())}  # the identity
    _closure(elements, list(elements), [trans[s].images for s in q._generators], materialize_cap)
    if any(g.images not in elements for g in gens):
        _closure(elements, list(elements), [g.images for g in gens], materialize_cap)
    ordered = tuple(map(Permutation, sorted(elements)))
    return PermGroup(generators=gens, elements=ordered, order=len(ordered))


def _closure(elements: set, frontier: list, gens: list, cap: int) -> None:
    """Close elements, in place, under left composition with gens, starting from frontier."""
    lookups = [(0, *g).__getitem__ for g in gens]  # 1-based: lookup(x) = g(x) for x in 1..n
    while frontier:
        new = []
        for g in lookups:
            for h in frontier:
                c = tuple(map(g, h))
                if c not in elements:
                    elements.add(c)
                    new.append(c)
                    if len(elements) > cap:
                        raise BudgetExceededError(f"group closure exceeded cap {cap}")
        frontier = new


def orbits(q: Quandle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the translation group, each ascending, sorted by least element."""
    translations(q)  # raises NotAQuandleError on a non-bijective column
    return q._orbits
