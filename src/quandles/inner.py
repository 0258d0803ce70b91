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
    """Breadth-first closure of the right translations under composition.

    Raises BudgetExceededError when the closure passes materialize_cap before
    completing.
    """
    _check_order(materialize_cap, "materialize_cap")
    gens = list(dict.fromkeys(translations(q)))
    identity = Permutation.identity(q.order)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new: list[Permutation] = []
        for g in gens:
            for h in frontier:
                c = g.compose(h)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
                    if len(elements) > materialize_cap:
                        raise BudgetExceededError(
                            f"group closure exceeded cap {materialize_cap}")
        frontier = new
    ordered = tuple(sorted(elements, key=lambda p: p.images))
    return PermGroup(generators=tuple(gens), elements=ordered, order=len(ordered))


def orbits(q: Quandle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the translation group on {1..n}, each ascending, sorted by
    least element.

    The group is finite, so the orbit of x is its closure under the maps
    x -> x>y, whose images are read off row x of the table.
    """
    translations(q)  # raises NotAQuandleError on a non-bijective column
    t = q.table
    placed: set[int] = set()
    out = []
    for x in range(1, q.order + 1):
        if x not in placed:
            orbit, frontier = {x}, [x]
            while frontier:
                new = set(t[frontier.pop() - 1]) - orbit
                orbit |= new
                frontier.extend(new)
            placed |= orbit
            out.append(tuple(sorted(orbit)))
    return tuple(out)
