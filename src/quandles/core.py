"""Cayley-table model of finite quandles and the standard construction families.

Elements are 1-based throughout: an order-n table has entries in {1..n} and
entry(x, y) is the product x > y (row x, column y). Families defined on Z_n
are shifted onto {1..n} so printed tables can be compared cell for cell.
All values are immutable and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice, permutations as _permutations, product as _cartesian
from operator import add as _plus, itemgetter, mul, sub as _minus

DEFAULT_WITNESS_CAP = 10


class NotAQuandleError(ValueError):
    """An operation needed a table satisfying the quandle axioms and got one that does not."""


class BudgetExceededError(RuntimeError):
    """A bounded search or closure hit its cap before finishing."""


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}, stored as its image sequence: images[i-1] = sigma(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        if type(self.images) is not tuple:
            raise ValueError(f"permutation images must be a tuple, got {self.images!r}")
        n = len(self.images)
        if not {*map(type, self.images)} <= {int} or sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()})"

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition: each cycle starts at its least element,
        cycles are sorted by least element, fixed points are omitted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            seen[start - 1] = True
            cyc = [start]
            x = self(start)
            while x != start:
                seen[x - 1] = True
                cyc.append(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        return math.lcm(*self.cycle_type())

    def cycle_type(self) -> tuple[int, ...]:
        """Partition of the degree by cycle length, descending, fixed points included."""
        return self._cycle_type

    @cached_property
    def _cycle_type(self) -> tuple[int, ...]:
        # computed once per instance; the dataclass fields, ==, hash and repr ignore it
        return _cycle_type_of(self.images)

    def cycle_string(self) -> str:
        """Render like ``(7,10), (8,11), (9,12)``; the identity renders as ``(1)``."""
        cycs = self.cycles()
        if not cycs:
            return "(1)"
        return ", ".join("(" + ",".join(str(e) for e in c) + ")" for c in cycs)


def _cycle_type_of(images) -> tuple[int, ...]:
    """The cycle lengths of a 1-based image tuple, descending, fixed points included."""
    seen = [False] * (len(images) + 1)
    lengths = []
    for start in range(1, len(seen)):
        if not seen[start]:
            k, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = images[x - 1]
                k += 1
            lengths.append(k)
    return tuple(sorted(lengths, reverse=True))


@dataclass(frozen=True, repr=False)
class Quandle:
    """An order-n magma as a Cayley table; entry(x, y) = x > y.

    Construction does not check the quandle axioms (see check_axioms), only
    that the table is square with entries in range, so that broken tables can
    still be represented and analyzed.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_square(self.order, self.table)

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Quandle(order={self.order}{label})"

    def entry(self, x: int, y: int) -> int:
        return self.table[x - 1][y - 1]

    def elements(self) -> range:
        return range(1, self.order + 1)

    # Derived data, computed at most once per instance; ==, hash and repr ignore it.

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        """_greedy_generators of the table: a generating set under >, 0-based."""
        return _greedy_generators(self.table)

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the translation group, each ascending, sorted by least element: with
        bijective columns the group is finite, and x's orbit is its closure under row x."""
        t, n, placed, out = self.table, self.order, set(), []
        for x in range(1, n + 1):
            if x not in placed:
                orbit, frontier = {x}, [x]
                while frontier and len(orbit) < n - len(placed):
                    new = set(t[frontier.pop() - 1]) - orbit
                    orbit |= new
                    frontier.extend(new)
                placed |= orbit
                out.append(tuple(sorted(orbit)))
        return tuple(out)

    @cached_property
    def _types(self) -> tuple[tuple[int, ...], ...]:
        """The cycle type of each R_y, read once per orbit off its least element; once the
        axioms hold, R_{y>z} = R_z R_y R_z^-1 makes an orbit's translations conjugate."""
        types: list = [None] * self.order
        for orbit in self._orbits:
            ct = _cycle_type_of(tuple(map(itemgetter(orbit[0] - 1), self.table)))
            for y in orbit:
                types[y - 1] = ct
        return tuple(types)

    @cached_property
    def _medial(self) -> bool:
        """The medial verdict (see _is_medial); meaningful once the axioms hold."""
        return _is_medial(self)

    @cached_property
    def _axioms(self) -> AxiomReport:
        """check_axioms(self, witness_cap=1), the report every axiom gate reads."""
        return check_axioms(self, witness_cap=1)


def _greedy_generators(t) -> tuple[int, ...]:
    """A greedy generating set of the magma with 1-based table t, 0-based: each member is
    the least element outside the closure under the operation of the members before it."""
    inside = [False] * len(t)
    closed: list[int] = []  # the closure so far, in the order it grew
    gens = []
    for s in range(len(t)):
        if inside[s]:
            continue
        gens.append(s)
        inside[s] = True
        closed.append(s)
        i = len(closed) - 1
        while i < len(closed):  # combine each new element with itself and those before it
            e = closed[i]
            row = t[e]
            for d in closed[:i + 1]:
                for v in (row[d], t[d][e]):
                    if not inside[v - 1]:
                        inside[v - 1] = True
                        closed.append(v - 1)
            i += 1
    return tuple(gens)


def _check_order(n, what: str = "order") -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"{what} must be >= 1, got {n!r}")


def _check_square(n, table) -> None:
    """Raise unless table is a tuple of n row tuples of n ints in 1..n; a bool is not an int here."""
    _check_order(n)
    if type(table) is not tuple or any(type(row) is not tuple for row in table):
        raise ValueError("table must be a tuple of row tuples")
    if len(table) != n:
        raise ValueError(f"shape mismatch: expected {n} rows, got {len(table)}")
    for i, row in enumerate(table, start=1):
        if len(row) != n:
            raise ValueError(f"shape mismatch: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row, start=1):
            if type(v) is not int or not 1 <= v <= n:
                raise ValueError(f"entry {v!r} at row {i}, column {j} out of range 1..{n}")


def from_table(order, rows, name=None) -> Quandle:
    """Build a Quandle from any nested sequence of ints, without axiom checking."""
    table = tuple(tuple(row) for row in rows)
    return Quandle(order, table, name=name)


@dataclass(frozen=True)
class AxiomVerdict:
    ok: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts with witness cells for every violation (up to the cap)."""

    idempotency: AxiomVerdict
    right_invertibility: AxiomVerdict
    self_distributivity: AxiomVerdict
    witness_cap: int | None = DEFAULT_WITNESS_CAP

    @property
    def overall(self) -> bool:
        return (self.idempotency.ok and self.right_invertibility.ok
                and self.self_distributivity.ok)

    def summary(self) -> str:
        if self.overall:
            return "all axioms pass"
        return "; ".join(f"{label} fails at {prefix}{fmt.format(getattr(self, name).witnesses[0])}"
                         for name, label, fmt, prefix in _AXIOM_LAYOUT if not getattr(self, name).ok)


# (AxiomReport field, label, witness format, summary prefix) per axiom, in report order.
# A witness is an int (idempotency) or a tuple of cells; each format takes it as argument 0.
_AXIOM_LAYOUT = (
    ("idempotency", "idempotency", "x={0}", ""),
    ("right_invertibility", "right invertibility", "column y={0[0]} (rows {0[1]},{0[2]} collide)", ""),
    ("self_distributivity", "self-distributivity", "({0[0]},{0[1]},{0[2]})", "(x,y,z)="),
)


_PASSING = AxiomReport(*[AxiomVerdict(True)] * 3, witness_cap=1)  # check_axioms(q, witness_cap=1) of a quandle


def _proven(q: Quandle) -> Quandle:
    q.__dict__["_axioms"] = _PASSING  # for a table built to satisfy the axioms
    return q


def check_axioms(q: Quandle, witness_cap: int | None = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Check idempotency, column bijectivity, and right self-distributivity.

    Witness collection stops at witness_cap per axiom; pass None, or any cap of
    n^3 or more, for an exhaustive witness list. Verdicts are always exact. With
    every column bijective, self-distributivity is decided on a generating set
    (_generators_distribute); the lexicographic triple scan runs only when that
    fails or a column is not bijective, and supplies the witnesses.
    """
    _check_quandle(q)
    if witness_cap is not None:
        _check_order(witness_cap, "witness_cap")
    n, t = q.order, q.table
    stop = witness_cap and min(witness_cap, n ** 3)  # islice rejects stops above sys.maxsize
    idem = tuple(islice((x for x in range(1, n + 1) if t[x - 1][x - 1] != x), stop))
    repeats = ((y, *_first_repeat(col)[:2]) for y, col in enumerate(zip(*t), start=1)
               if len(set(col)) < n)  # entries lie in 1..n, so fewer than n values means a repeat
    cols = tuple(islice(repeats, stop))
    if not cols and _generators_distribute(q):
        triples = ()
    else:  # the scan finds the witnesses, in lexicographic order
        triples = tuple(islice(_distributivity_failures(t), stop))
    return AxiomReport(
        idempotency=AxiomVerdict(not idem, idem),
        right_invertibility=AxiomVerdict(not cols, cols),
        self_distributivity=AxiomVerdict(not triples, triples),
        witness_cap=witness_cap,
    )


def _first_repeat(col) -> tuple[int, int, int] | None:
    """(a, b, v) for the least 1-based row b whose value v already sat at row a, else None."""
    seen: dict[int, int] = {}
    for b, v in enumerate(col, start=1):
        a = seen.setdefault(v, b)
        if a != b:
            return a, b, v
    return None


def _columns(q: Quandle) -> list[tuple[int, ...]]:
    """0-based columns: _columns(q)[y][x] = (x+1 > y+1) - 1, so column y is R_{y+1}."""
    return [tuple(map((-1).__add__, col)) for col in zip(*q.table)]  # v - 1, at C speed


def _displacements(q: Quandle) -> list[tuple[int, ...]]:
    """g_x = R_x R_1^-1 for each x, generating Dis(q), as 0-based image tuples in
    element order (g_1 is the identity). Meaningful once the columns are bijective."""
    cols = _columns(q)
    r1_inv = sorted(range(q.order), key=cols[0].__getitem__)  # argsort inverts R_1
    return [tuple(map(col.__getitem__, r1_inv)) for col in cols]


def _generators_distribute(q: Quandle) -> bool:
    """Self-distributivity of a table with bijective columns, decided on a generating set.

    (x>y)>z = (x>z)>(y>z) for all x, y says R_z R_y = R_{y>z} R_z for every y: R_z is
    an endomorphism. If R_a and R_b are bijective endomorphisms, R_{a>b} = R_b R_a R_b^-1
    is one too, so the z with R_z an endomorphism are closed under >, and checking z in
    q._generators decides every z. Each check compares whole composed columns, in
    O(n^2) per generator; an identity R_z is an endomorphism and is skipped.
    """
    cols = _columns(q)
    identity = tuple(range(q.order))
    after = [itemgetter(*c) for c in cols]  # after[y](c) is the column c composed with R_y
    for s in q._generators:
        cs, after_s = cols[s], after[s]
        if cs != identity and any(after[y](cs) != after_s(cols[w]) for y, w in enumerate(cs)):
            return False
    return True


def _is_medial(q: Quandle) -> bool:
    """The medial identity (w>x)>(y>z) = (w>y)>(x>z) of a quandle, decided as "Dis(q)
    is abelian" (Jedlicka, Pilitowska, Stanovsky, Zamojska-Dzienio, "The structure of
    medial quandles", J. Algebra 2015), where Dis(q) is generated by g_x = R_x R_1^-1.

    It suffices that g_s is central for each s in q._generators. Let C be the set of y
    with g_y central in Dis(q). For y, z in C, g_{y>z} = g_z g_{y>1} g_{z>1}^-1 (from
    R_{y>z} = R_z R_y R_z^-1), and g_{w>1} = R_1 g_w R_1^-1 is central whenever g_w is,
    since Dis(q) is normal in Inn(q). So C is closed under >, contains the generators,
    and is all of q. That costs O(|S| k n) for the generators S and k distinct g_x.
    With k <= 2 the group is cyclic (g_1 is the identity), hence abelian.
    """
    g = _displacements(q)
    distinct = dict.fromkeys(g)
    if len(distinct) <= 2:
        return True
    after = [(h, itemgetter(*h)) for h in distinct]  # (h, f -> f composed with h)
    for s in q._generators:
        after_s = itemgetter(*g[s])
        if any(after_h(g[s]) != after_s(h) for h, after_h in after):
            return False
    return True


def _distributivity_failures(t):
    """Yield each 1-based (x, y, z) with (x>y)>z != (x>z)>(y>z) in table t, lexicographically."""
    rows = [[v - 1 for v in row] for row in t]
    r = range(len(rows))
    for x in r:
        rx = rows[x]
        for y in r:
            ry = rows[y]
            xy_row = rows[rx[y]]
            for z in r:
                if xy_row[z] != rows[rx[z]][ry[z]]:
                    yield x + 1, y + 1, z + 1


def _check_element(q: Quandle, v: int, argname: str) -> None:
    _check_quandle(q)
    if type(v) is not int or not 1 <= v <= q.order:
        raise ValueError(f"{argname}={v!r} out of range 1..{q.order}")


def apply(q: Quandle, x: int, y: int) -> int:
    """x > y."""
    _check_element(q, x, "x")
    _check_element(q, y, "y")
    return q.table[x - 1][y - 1]


def dual_apply(q: Quandle, x: int, y: int) -> int:
    """The dual product x >^-1 y: the unique z with z > y = x."""
    _check_element(q, x, "x")
    return right_translation(q, y).inverse()(x)


def right_translation(q: Quandle, y: int) -> Permutation:
    """The permutation x -> x > y (column y read as a map on rows)."""
    _check_element(q, y, "y")
    images = tuple(q.table[x - 1][y - 1] for x in range(1, q.order + 1))
    try:
        return Permutation(images)
    except ValueError:  # entries lie in 1..n, so a non-bijective column has a repeat
        a, b, v = _first_repeat(images)
        raise NotAQuandleError(f"column {y} is not a bijection: rows {a} and {b} both map to {v}") from None


@lru_cache(maxsize=None)
def translations(q: Quandle) -> tuple[Permutation, ...]:
    """All right translations R_1..R_n; raises NotAQuandleError on a non-bijective column."""
    _check_quandle(q)
    return tuple(Permutation(col) if len(set(col)) == q.order else right_translation(q, y)
                 for y, col in enumerate(zip(*q.table), start=1))


def trivial(n: int) -> Quandle:
    """x > y = x for all x, y."""
    _check_order(n)
    return Quandle(n, tuple((x,) * n for x in range(1, n + 1)), name=f"trivial({n})")


def dihedral(n: int) -> Quandle:
    """x > y = 2y - x on Z_n, shifted to {1..n}."""
    _check_order(n)
    return Quandle(n, _cayley(range(n), lambda x, y: (2 * y - x) % n), name=f"dihedral({n})")


@dataclass(frozen=True, repr=False)
class GroupTable:
    """A finite group as a 1-based Cayley table; the group laws are checked at construction."""

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)
    identity: int = field(init=False)  # read off the table, as are the inverses
    inverses: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n, table = self.order, self.table
        _check_square(n, table)
        elements = range(1, n + 1)
        identity = next((e for e in elements
                         if all(table[e - 1][x - 1] == x == table[x - 1][e - 1] for x in elements)), None)
        if identity is None:
            raise ValueError("no identity element")
        inverses = tuple(next((y for y in elements if table[x - 1][y - 1] == identity == table[y - 1][x - 1]), None)
                         for x in elements)
        if None in inverses:
            raise ValueError(f"element {inverses.index(None) + 1} has no inverse")
        if not _generators_associate(table, identity):  # the scan finds the lexicographic witness
            a, b, c = next((a, b, c) for a, b, c in _cartesian(range(n), repeat=3)
                           if table[table[a][b] - 1][c] != table[a][table[b][c] - 1])
            raise ValueError(f"not associative at ({a + 1},{b + 1},{c + 1})")
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", inverses)

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"GroupTable(order={self.order}{label})"

    @staticmethod
    def from_table(rows, name=None) -> "GroupTable":
        table = tuple(tuple(row) for row in rows)
        return GroupTable(len(table), table, name=name)

    def mul(self, x: int, y: int) -> int:
        return self.table[x - 1][y - 1]

    def inv(self, x: int) -> int:
        return self.inverses[x - 1]


def _generators_associate(t, identity: int) -> bool:
    """Associativity of the 1-based table t, decided on a generating set (Light's test; Clifford
    and Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2).

    The a with (xa)y = x(ay) for all x, y are closed under the product: for such a and b,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y). So checking the a in
    _greedy_generators(t) decides every a. Each check compares whole rows, row xa against
    row x read through row a, in O(n^2) per generator; the identity passes and is skipped.
    """
    rows = [tuple(map((-1).__add__, row)) for row in t]  # 0-based values, at C speed
    for a in _greedy_generators(t):
        if a + 1 != identity:
            through_a = itemgetter(*rows[a])  # through_a(row x) is the row of x(ay) over y
            if any(rows[rx[a]] != through_a(rx) for rx in rows):
                return False
    return True


def _check_group(g) -> None:
    if not isinstance(g, GroupTable):
        raise ValueError(f"expected a GroupTable, got {g!r}")


def _check_quandle(q) -> None:
    if not isinstance(q, Quandle):
        raise ValueError(f"expected a Quandle, got {q!r}")


def conjugation(g: GroupTable) -> Quandle:
    """The conjugation quandle of a group: x > y = y^-1 x y."""
    _check_group(g)
    rows = _cayley(range(1, g.order + 1), lambda x, y: g.mul(g.mul(g.inv(y), x), y))
    return Quandle(g.order, rows, name=f"conj({g.name})" if g.name else None)


def _cayley(elements, product) -> tuple[tuple[int, ...], ...]:
    """The 1-based table of product on elements, each element numbered by its position in the list."""
    index = {e: i for i, e in enumerate(elements, start=1)}
    return tuple(tuple(index[product(a, b)] for b in elements) for a in elements)


def cyclic_group(n: int) -> GroupTable:
    """Z_n; element k + 1 is the residue k."""
    _check_order(n)
    return GroupTable.from_table(_cayley(range(n), lambda a, b: (a + b) % n), name=f"Z{n}")


def symmetric_group(m: int) -> GroupTable:
    """S_m on m letters; elements ordered lexicographically by image tuple. Desk scale only."""
    _check_order(m, "degree")
    elements = list(_permutations(range(1, m + 1)))  # generated in lexicographic order
    return GroupTable.from_table(_cayley(elements, lambda p, q: tuple(p[i - 1] for i in q)), name=f"S{m}")


def dihedral_group(m: int) -> GroupTable:
    """D_m of order 2m: pairs (rotation a, flip b), flips outermost, so (a, b) is element b*m + a + 1."""
    _check_order(m, "m")
    elements = [(a, b) for b in (0, 1) for a in range(m)]
    return GroupTable.from_table(_cayley(
        elements, lambda p, q: ((p[0] + (-q[0] if p[1] else q[0])) % m, p[1] ^ q[1])), name=f"D{m}")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product group; pairs (a, b) with b fastest, so (a, b) is element (a-1)*|h| + b."""
    _check_group(g)
    _check_group(h)
    elements = list(_cartesian(range(1, g.order + 1), range(1, h.order + 1)))
    name = f"{g.name}x{h.name}" if g.name and h.name else None
    return GroupTable.from_table(_cayley(
        elements, lambda p, q: (g.mul(p[0], q[0]), h.mul(p[1], q[1]))), name=name)


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Direct product of cyclic groups Z_f1 x ... x Z_fk, elements coded as
    mixed-radix tuples (last factor fastest) and addressed by indices {1..n}."""

    cyclic_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.cyclic_factors
        if type(fs) is not tuple or not all(type(f) is int and f >= 2 for f in fs):
            raise ValueError(f"cyclic factors must be a tuple of ints >= 2, got {fs!r}")

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_factors)

    @property
    def zero(self) -> int:
        return 1

    def describe(self) -> str:
        if not self.cyclic_factors:
            return "Z1"
        return " x ".join(f"Z{f}" for f in self.cyclic_factors)

    @cached_property
    def _digits(self) -> tuple[tuple[int, ...], ...]:
        """Every element's digits, in index order; len() is the group order."""
        return tuple(_cartesian(*map(range, self.cyclic_factors)))

    def tuple_of(self, index: int) -> tuple[int, ...]:
        digits = self._digits
        if type(index) is not int or not 1 <= index <= len(digits):
            raise ValueError(f"element index {index!r} out of range 1..{len(digits)}")
        return digits[index - 1]

    def index_of(self, digits) -> int:
        """The index of a digit vector, one int digit per factor, each reduced modulo it."""
        k = len(self.cyclic_factors)
        if not isinstance(digits, (tuple, list)) or list(map(type, digits)) != [int] * k:
            raise ValueError(f"need {k} int digits for {self.describe()}, got {digits!r}")
        return self._encode(digits)

    def _encode(self, digits) -> int:
        """index_of without its checks, for digits (any iterable) the group produced itself."""
        k = 0
        for f, v in zip(self.cyclic_factors, digits):
            k = k * f + (v % f)
        return k + 1

    def order_of(self, i: int) -> int:
        """The additive order of element i: the lcm of f / gcd(d, f) over its digits d."""
        return math.lcm(*(f // math.gcd(d, f) for d, f in zip(self.tuple_of(i), self.cyclic_factors)))

    def add(self, i: int, j: int) -> int:
        a, b = self.tuple_of(i), self.tuple_of(j)
        return self._encode(x + y for x, y in zip(a, b))

    def negate(self, i: int) -> int:
        return self._encode(-x for x in self.tuple_of(i))

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.negate(j))

    def scale(self, k: int, i: int) -> int:
        if type(k) is not int:
            raise ValueError(f"scalar must be an int, got {k!r}")
        return self._encode(k * x for x in self.tuple_of(i))

    def _extend(self, images) -> tuple[int, ...] | None:
        """The image tuple of the additive map sending e_i to images[i], or None when it
        is not a bijection: digits d map to the index of sum_i d_i * g_i, summed digit
        by digit over the images' own digits g_i (reduced modulo each factor)."""
        slots = tuple(zip(*map(self.tuple_of, images)))  # slots[j][i]: digit j of g_i
        full = tuple(self._encode([sum(map(mul, d, s)) for s in slots]) for d in self._digits)
        return full if len(set(full)) == len(full) else None


def validate_automorphism(group: AbelianGroupSpec, t: Permutation) -> None:
    """Raise unless t is additive: its images of the canonical generators have orders
    dividing their factors, and the additive map they define is t."""
    if not isinstance(group, AbelianGroupSpec):
        raise ValueError(f"group must be an AbelianGroupSpec, got {group!r}")
    if not isinstance(t, Permutation):
        raise ValueError(f"automorphism must be a Permutation, got {t!r}")
    fs = group.cyclic_factors
    if t.degree != group.order:
        raise ValueError(f"map degree {t.degree} does not match group order {group.order}")
    images = tuple(t(group.index_of([int(i == j) for j in range(len(fs))])) for i in range(len(fs)))
    if any(f % group.order_of(g) for f, g in zip(fs, images)) or group._extend(images) != t.images:
        raise ValueError(f"not additive: generator images {images} do not extend to this map")


def automorphism_from_images(group: AbelianGroupSpec, images) -> Permutation:
    """Extend images of the canonical generators to the full map and validate it.

    images[i] is the element index of t(e_i). Raises if some image has an
    incompatible order (the extension would not be additive) or the extended
    map is not bijective.
    """
    factors = group.cyclic_factors
    if not isinstance(images, (tuple, list)) or len(images) != len(factors):
        raise ValueError(f"expected a tuple or list of {len(factors)} generator images, got {images!r}")
    for pos, (f, img) in enumerate(zip(factors, images), start=1):
        if f % group.order_of(img):  # order_of rejects a bad index
            raise ValueError(
                f"image of generator {pos} has order not dividing {f}: not additive")
    full = group._extend(images)
    if full is None:
        raise ValueError("generator images do not extend to a bijection")
    return Permutation(full)


def scalar_automorphism(group: AbelianGroupSpec, r: int) -> Permutation:
    """x -> r*x; raises when r is not an int or not a unit for the group."""
    images = tuple(group.scale(r, i) for i in range(1, group.order + 1))
    try:
        return Permutation(images)
    except ValueError:
        raise ValueError(f"{r} is not a unit for {group.describe()}") from None


def identity_automorphism(group: AbelianGroupSpec) -> Permutation:
    return Permutation.identity(group.order)


def negation_automorphism(group: AbelianGroupSpec) -> Permutation:
    return scalar_automorphism(group, -1)


def affine(group: AbelianGroupSpec, t: Permutation) -> Quandle:
    """The affine quandle x > y = t(x) + (1-t)(y) over an abelian group.

    t is an automorphism given as a permutation of element indices; additivity
    is verified here, bijectivity is inherent in the type.
    """
    validate_automorphism(group, t)
    digits, encode = group._digits, group._encode
    tx = [digits[v - 1] for v in t.images]  # t(x)'s digits
    shear = [tuple(map(_minus, d, e)) for d, e in zip(digits, tx)]  # (1-t)(y)'s digits, unreduced
    rows = tuple(tuple(encode(map(_plus, a, s)) for s in shear) for a in tx)
    return Quandle(group.order, rows, name=f"affine({group.describe()})")
