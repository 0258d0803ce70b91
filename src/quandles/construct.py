"""Order-3n phase products: a base quandle crossed with a quandle structure on Z_3.

The second coordinate of (x,a) > (y,b) is f(a,b) for a 3x3 phase rule f. Two
literal case-table rules (thm31, thm32) are kept verbatim for auditing even
though they fail the axioms; the five valid rules are enumerable and named.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from . import properties
from .classify import all_quandle_tables
from .core import (
    DEFAULT_WITNESS_CAP,
    _AXIOM_LAYOUT,
    AxiomReport,
    AxiomVerdict,
    BudgetExceededError,
    NotAQuandleError,
    Quandle,
    _check_order,
    _proven,
    check_axioms,
)

PHASES = (0, 1, 2)

Convention = str  # "xa" or "ax"


@dataclass(frozen=True)
class PhaseRule:
    """A 3x3 table f over Z_3 = {0,1,2}; entry(a,b) is the output phase of
    (x,a) > (y,b). A rule is valid when (Z_3, f) is itself a quandle."""

    f: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if type(self.f) is not tuple or len(self.f) != 3 or any(
                type(row) is not tuple or len(row) != 3 for row in self.f):
            raise ValueError("phase table must be 3x3, as a tuple of row tuples")
        for a, row in enumerate(self.f):
            for b, v in enumerate(row):
                if type(v) is not int or v not in PHASES:
                    raise ValueError(f"phase entry {v!r} at ({a},{b}) out of range 0..2")

    def entry(self, a: int, b: int) -> int:
        return self.f[a][b]

    def to_quandle(self) -> Quandle:
        """The same table as an order-3 magma on {1,2,3}."""
        rows = tuple(tuple(v + 1 for v in row) for row in self.f)
        return Quandle(3, rows, name=self.name)


def rule_from_table(rows, name=None) -> PhaseRule:
    return PhaseRule(tuple(tuple(row) for row in rows), name=name)


def trivial_rule() -> PhaseRule:
    return rule_from_table([[a] * 3 for a in PHASES], name="trivial")


def dihedral_rule() -> PhaseRule:
    return rule_from_table(
        [[(2 * b - a) % 3 for b in PHASES] for a in PHASES], name="dihedral")


def swap_rule(i: int, j: int) -> PhaseRule:
    """The rule whose only non-identity column transposes phases i and j.

    Idempotency forces that column to sit at the remaining phase.
    """
    if type(i) is not int or type(j) is not int or not 0 <= i < j <= 2:
        raise ValueError("need 0 <= i < j <= 2")
    col = ({0, 1, 2} - {i, j}).pop()

    def f(a, b):
        if b != col:
            return a
        return j if a == i else i if a == j else a

    return rule_from_table([[f(a, b) for b in PHASES] for a in PHASES], name=f"swap{i}{j}")


def literal_rule_A() -> PhaseRule:
    """The first order-3n case table, verbatim: a+b+2 when (a,b) is (1,1) or
    (0,1); a when (a,b) is (2,2) or (2,1); a+b otherwise (all mod 3)."""

    def f(a, b):
        if (a, b) in ((1, 1), (0, 1)):
            return (a + b + 2) % 3
        if (a, b) in ((2, 2), (2, 1)):
            return a
        return (a + b) % 3

    return rule_from_table([[f(a, b) for b in PHASES] for a in PHASES], name="thm31")


def literal_rule_B() -> PhaseRule:
    """The second order-3n case table, verbatim: a+b+2 when (a,b) is (1,1),
    (0,1) or (2,1); a+b+1 when (a,b) is (0,2) or (1,2); a+b otherwise."""

    def f(a, b):
        if (a, b) in ((1, 1), (0, 1), (2, 1)):
            return (a + b + 2) % 3
        if (a, b) in ((0, 2), (1, 2)):
            return (a + b + 1) % 3
        return (a + b) % 3

    return rule_from_table([[f(a, b) for b in PHASES] for a in PHASES], name="thm32")


def named_rules() -> dict[str, PhaseRule]:
    return {
        "trivial": trivial_rule(),
        "dihedral": dihedral_rule(),
        "swap01": swap_rule(0, 1),
        "swap02": swap_rule(0, 2),
        "swap12": swap_rule(1, 2),
        "thm31": literal_rule_A(),
        "thm32": literal_rule_B(),
    }


def _match_rule_name(f: tuple[tuple[int, ...], ...]) -> str | None:
    for name, rule in named_rules().items():
        if rule.f == f:
            return name
    return None


def _to_phases(verdict: AxiomVerdict) -> AxiomVerdict:
    """Shift witnesses from the 1-based element coding to phases 0..2."""
    return replace(verdict, witnesses=tuple(
        tuple(v - 1 for v in w) if isinstance(w, tuple) else w - 1 for w in verdict.witnesses))


def validate_rule(rule: PhaseRule, witness_cap: int | None = DEFAULT_WITNESS_CAP) -> AxiomReport:
    """Run the table axiom checker on (Z_3, f); witnesses come back in phase
    coordinates 0..2 rather than the 1-based element coding."""
    report = check_axioms(rule.to_quandle(), witness_cap=witness_cap)
    return replace(report, **{name: _to_phases(getattr(report, name)) for name, *_ in _AXIOM_LAYOUT})


def is_valid_rule(rule: PhaseRule) -> bool:
    return validate_rule(rule, witness_cap=1).overall


def enumerate_phase_rules() -> tuple[PhaseRule, ...]:
    """All phase rules that make (Z_3, f) a quandle, in lexicographic table order:
    the labeled order-3 quandles shifted from {1,2,3} to phases 0..2."""
    rules = []
    for q in all_quandle_tables(3):
        f = tuple(tuple(v - 1 for v in row) for row in q.table)
        rules.append(PhaseRule(f, name=_match_rule_name(f)))
    return tuple(sorted(rules, key=lambda r: r.f))


def pair_to_index(convention: Convention, n: int, x: int, a: int) -> int:
    """Flatten (x, a) in {1..n} x Z_3 to {1..3n}."""
    _check_order(n)
    if type(x) is not int or not 1 <= x <= n or type(a) is not int or a not in PHASES:
        raise ValueError(f"pair ({x!r}, {a!r}) is not in 1..{n} x 0..2")
    if convention == "xa":
        return 3 * (x - 1) + a + 1
    if convention == "ax":
        return n * a + x
    raise ValueError(f"unknown convention {convention!r}")


def index_to_pair(convention: Convention, n: int, k: int) -> tuple[int, int]:
    _check_order(n)
    if type(k) is not int or not 1 <= k <= 3 * n:
        raise ValueError(f"index {k!r} is not in 1..{3 * n}")
    if convention == "xa":
        return (k - 1) // 3 + 1, (k - 1) % 3
    if convention == "ax":
        return (k - 1) % n + 1, (k - 1) // n
    raise ValueError(f"unknown convention {convention!r}")


def _pair_layout(convention: Convention, n: int):
    """The pairs (x, a) in index order, and the 1-based index of each pair."""
    pairs = [index_to_pair(convention, n, k) for k in range(1, 3 * n + 1)]
    return pairs, {pair: k for k, pair in enumerate(pairs, start=1)}


def _product_table(base: Quandle, rule: PhaseRule, convention: Convention):
    pairs, index = _pair_layout(convention, base.order)
    rows = []
    for x, a in pairs:
        brow = base.table[x - 1]
        frow = rule.f[a]
        rows.append(tuple(index[brow[y - 1], frow[b]] for y, b in pairs))
    return tuple(rows)


def product3(base: Quandle, rule: PhaseRule, convention: Convention = "xa") -> Quandle:
    """The order-3n table with (x,a) > (y,b) = (x > y, f(a,b)).

    No axiom check is performed: invalid rules are allowed so their broken
    products can be audited. Base orders below 3 are accepted with a warning,
    since the construction is stated for n >= 3.
    """
    if base.order < 3:
        warnings.warn(
            f"product base has order {base.order}; the construction is stated for n >= 3",
            stacklevel=2)
    name = f"{base.name}*{rule.name}" if base.name and rule.name else None
    return Quandle(3 * base.order, _product_table(base, rule, convention), name=name)


def decompose3(q: Quandle, convention: Convention = "xa"):
    """Factor q as product3(base, rule, convention) if possible, else None.

    The candidate base is read off the phase-(0,0) cells and the candidate
    rule off the x=y=1 block; an exact recomposition check then decides.
    Round trip: decompose3(product3(B, f, c), c) == (B, f).
    """
    if q.order % 3:
        raise ValueError(f"order {q.order} is not divisible by 3")
    n = q.order // 3
    pairs, index = _pair_layout(convention, n)

    def cell(u, v):  # the pair u > v in q
        return pairs[q.table[index[u] - 1][index[v] - 1] - 1]

    base_rows = tuple(tuple(cell((x, 0), (y, 0))[0] for y in range(1, n + 1)) for x in range(1, n + 1))
    f = tuple(tuple(cell((1, a), (1, b))[1] for b in PHASES) for a in PHASES)
    try:
        base = Quandle(n, base_rows)
        rule = PhaseRule(f, name=_match_rule_name(f))
    except ValueError:
        return None
    if _product_table(base, rule, convention) != q.table:
        return None
    return base, rule


@dataclass(frozen=True)
class PropertyTransfer:
    """Whether one property holds on the base and on the product; None means
    the evaluation was skipped (search budget)."""

    property: str
    holds_on_base: bool | None
    holds_on_product: bool | None
    claim: str = "iff"

    @property
    def agrees(self) -> bool | None:
        if self.holds_on_base is None or self.holds_on_product is None:
            return None
        return self.holds_on_base == self.holds_on_product


@dataclass(frozen=True)
class TransferReport:
    base: Quandle
    rule: PhaseRule
    convention: str
    product: Quandle
    records: tuple[PropertyTransfer, ...]

    def record(self, property_name: str) -> PropertyTransfer:
        for r in self.records:
            if r.property == property_name:
                return r
        raise KeyError(property_name)

    def disagreements(self) -> tuple[PropertyTransfer, ...]:
        return tuple(r for r in self.records if r.agrees is False)


def _alexander_flag(q: Quandle, budget: int) -> bool | None:
    try:
        return properties.alexander_recognize(q, max_order=budget) is not None
    except BudgetExceededError:
        return None


def audit_transfer(base: Quandle, rule: PhaseRule, convention: Convention = "xa",
                   alexander_budget: int = 15) -> TransferReport:
    """Evaluate each transferable property on the base and on its phase product
    and record, per property, whether the two sides agree with the iff claim.

    Raises when the rule or base fails the axioms; the report in the error
    message replaces the audit in that case.
    """
    _check_order(alexander_budget, "alexander_budget")
    rule_report = validate_rule(rule, witness_cap=1)
    if not rule_report.overall:
        raise NotAQuandleError(f"phase rule fails axioms: {rule_report.summary()}")
    if not base._axioms.overall:
        raise NotAQuandleError(f"base fails axioms: {base._axioms.summary()}")

    product = _proven(product3(base, rule, convention))  # a direct product of two quandles
    evaluators = (
        ("involutory", properties.is_involutory),
        ("conjugate identities", properties.conjugate_identities),
        ("left-distributive", properties.is_left_distributive),
        ("abelian", properties.is_abelian),
        ("alexander", lambda q: _alexander_flag(q, alexander_budget)),
        ("connected", properties.is_connected),
    )
    records = tuple(
        PropertyTransfer(name, func(base), func(product))
        for name, func in evaluators)
    return TransferReport(base=base, rule=rule, convention=convention,
                          product=product, records=records)
