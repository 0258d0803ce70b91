"""Command-line front end.

Exit codes: 0 success / positive verdict, 1 parse, IO, or usage error,
2 axiom failure, 3 negative verdict (not isomorphic, no factorization).
The environment variable QF_WITNESS_CAP overrides the default witness cap
(0 means exhaustive).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections import Counter

from . import classify as classify_mod
from . import construct as construct_mod
from . import inner as inner_mod
from . import properties as props_mod
from .core import (
    DEFAULT_WITNESS_CAP,
    _AXIOM_LAYOUT,
    AxiomReport,
    BudgetExceededError,
    NotAQuandleError,
    Quandle,
    check_axioms,
)
from .datasets import BUILTIN_QUANDLES, builtin
from .formats import (
    TableFormatError,
    emit_phase,
    emit_table,
    emit_table_json,
    parse_phase_text,
    parse_table,
    phase_obj,
    table_obj,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AXIOM = 2
EXIT_NEGATIVE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems to exit code 1 instead
    def error(self, message):
        raise UsageError(message)


def _load_quandle(spec: str) -> Quandle:
    if spec.startswith("paper:"):
        return builtin(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        text = fh.read()
    q = parse_table(text)
    return Quandle(q.order, q.table, name=q.name or spec)


def _load_rule(spec: str) -> construct_mod.PhaseRule:
    rules = construct_mod.named_rules()
    if spec in rules:
        return rules[spec]
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_phase_text(fh.read())
    known = ", ".join(sorted(rules))
    raise ValueError(f"unknown rule {spec!r}; named rules: {known} (or a phase file path)")


def _witness_cap(args) -> int | None:
    if getattr(args, "witness_cap", None) is not None:
        v = args.witness_cap
    else:
        env = os.environ.get("QF_WITNESS_CAP")
        if env is None:
            return DEFAULT_WITNESS_CAP
        try:
            v = int(env)
        except ValueError:
            raise UsageError(f"QF_WITNESS_CAP={env!r} is not an integer") from None
    if v < 0:
        raise UsageError("witness cap must be >= 0 (0 means exhaustive)")
    return None if v == 0 else v


def _match_builtin(q: Quandle) -> str | None:
    for key, value in BUILTIN_QUANDLES.items():
        if value == q:
            return key
    return None


def _fmt_bool(v) -> str:
    if v is None:
        return "unknown"
    return "true" if v else "false"


def _print_report(report: AxiomReport) -> None:
    for name, label, fmt, _ in _AXIOM_LAYOUT:
        verdict = getattr(report, name)
        if verdict.ok:
            print(f"{label}: pass")
        else:
            print(f"{label}: FAIL [{', '.join(map(fmt.format, verdict.witnesses))}]")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")


def _report_obj(report: AxiomReport) -> dict:
    obj = {name: {"ok": getattr(report, name).ok, "witnesses": list(getattr(report, name).witnesses)}
           for name, *_ in _AXIOM_LAYOUT}  # json writes witness tuples as arrays
    return {**obj, "overall": report.overall, "witness_cap": report.witness_cap}


def cmd_check(args) -> int:
    q = _load_quandle(args.input)
    report = check_axioms(q, witness_cap=_witness_cap(args))
    if args.format == "json":
        obj = {"order": q.order, "name": q.name, **_report_obj(report)}
        print(json.dumps(obj, indent=2))
    else:
        label = f" ({q.name})" if q.name else ""
        print(f"quandle of order {q.order}{label}")
        _print_report(report)
    return EXIT_OK if report.overall else EXIT_AXIOM


def cmd_construct(args) -> int:
    base = _load_quandle(args.base)
    rule = _load_rule(args.rule)
    cap = _witness_cap(args) if args.validate else None  # a bad cap fails before any warning
    product = construct_mod.product3(base, rule, args.convention)
    code = EXIT_OK
    if args.validate:
        report = check_axioms(product, witness_cap=cap)
        if args.format == "json":
            print(json.dumps({**table_obj(product), "report": _report_obj(report)}, indent=2))
        else:
            sys.stdout.write(emit_table(product))
            _print_report(report)
        code = EXIT_OK if report.overall else EXIT_AXIOM
    else:
        if args.format == "json":
            sys.stdout.write(emit_table_json(product))
        else:
            sys.stdout.write(emit_table(product))
    return code


def cmd_inn(args) -> int:
    q = _load_quandle(args.input)
    structure = inner_mod.inner_structure(q)
    group = group_error = None
    try:
        group = inner_mod.inn_group(q)
    except BudgetExceededError as err:
        group_error = str(err)
    else:
        counts = Counter(p.order() for p in group.elements)
    if args.format == "json":
        obj = {
            "order": q.order,
            "name": q.name,
            "generators": [
                {"element": y, "cycles": [list(c) for c in p.cycles()], "order": o}
                for y, (p, o) in enumerate(zip(structure.translations, structure.orders), start=1)
            ],
            "count_of_order": {str(k): v for k, v in structure.count_of_order.items()},
        }
        if group is not None:
            obj["group"] = {"order": group.order,
                            "count_of_order": {str(k): counts[k] for k in sorted(counts)}}
        else:
            obj["group"] = {"error": group_error}
        print(json.dumps(obj, indent=2))
    else:
        for line in structure.lines():
            print(line)
        for k, v in structure.count_of_order.items():
            print(f"order {k}: {v}")
        if group is not None:
            spectrum = ", ".join(f"{k}: {counts[k]}" for k in sorted(counts))
            print(f"inner group order: {group.order}")
            print(f"inner group element orders: {spectrum}")
        else:
            print(f"inner group: {group_error}")
    return EXIT_OK


def _alexander_summary(q: Quandle, budget: int):
    try:
        witness = props_mod.alexander_recognize(q, max_order=budget)
    except BudgetExceededError as err:
        return None, str(err)
    return witness, None


def cmd_props(args) -> int:
    q = _load_quandle(args.input)
    profile = classify_mod.invariant_profile(q)
    flags = {name: getattr(profile, name)
             for name in ("involutory", "abelian", "left_distributive", "connected", "cyclic_type")}
    witness, budget_note = _alexander_summary(q, args.alexander_budget)
    orbit_list = inner_mod.orbits(q)
    cent_sizes = [len(props_mod.centralizer(q, a)) for a in range(1, q.order + 1)]
    if args.format == "json":
        if budget_note is not None:
            alexander = {"recognized": None, "reason": budget_note}
        elif witness is None:
            alexander = {"recognized": False}
        else:
            alexander = {
                "recognized": True,
                "group": list(witness.group.cyclic_factors),
                "generator_images": list(witness.generator_images),
                "iso": list(witness.iso.images),
            }
        obj = {"order": q.order, "name": q.name, **flags,
               "alexander": alexander,
               "orbits": [list(o) for o in orbit_list],
               "centralizer_sizes": cent_sizes}
        print(json.dumps(obj, indent=2))
    else:
        print(f"order: {q.order}" + (f" ({q.name})" if q.name else ""))
        for key, value in flags.items():
            print(f"{key.replace('_', ' ')}: {_fmt_bool(value)}")
        if budget_note is not None:
            print(f"alexander: {budget_note}")
        elif witness is None:
            print("alexander: none")
        else:
            group = witness.group

            def residue(img):
                digits = group.tuple_of(img)
                return digits[0] if len(digits) == 1 else digits

            images = ", ".join(f"e{i} -> {residue(img)}"
                               for i, img in enumerate(witness.generator_images, start=1))
            images = images or "identity on the trivial group"
            print(f"alexander: yes ({group.describe()}; {images})")
        print("orbits: " + " ".join("{" + ",".join(map(str, o)) + "}" for o in orbit_list))
        print("centralizer sizes: " + " ".join(map(str, cent_sizes)))
    return EXIT_OK


def cmd_iso(args) -> int:
    q1 = _load_quandle(args.first)
    q2 = _load_quandle(args.second)
    result = classify_mod.are_isomorphic(q1, q2)
    if args.format == "json":
        obj = {"isomorphic": result.isomorphic,
               "mapping": list(result.mapping.images) if result.mapping else None,
               "certificate": result.certificate}
        print(json.dumps(obj, indent=2))
    else:
        print(result.verdict)
        if result.mapping is not None:
            print("mapping: " + " ".join(map(str, result.mapping.images)))
        if result.certificate is not None:
            print(f"certificate: {result.certificate}")
    return EXIT_OK if result.isomorphic else EXIT_NEGATIVE


def cmd_classify(args) -> int:
    qs = [_load_quandle(spec) for spec in args.inputs]
    classes = classify_mod.classify_family(qs)
    if args.format == "json":
        obj = {"classes": len(classes),
               "members": [[args.inputs[i] for i in cls.members] for cls in classes],
               "representatives": [table_obj(cls.representative) for cls in classes]}
        print(json.dumps(obj, indent=2))
    else:
        print(f"classes: {len(classes)}")
        for i, cls in enumerate(classes, start=1):
            labels = ", ".join(args.inputs[m] for m in cls.members)
            print(f"class {i}: {labels}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    q = _load_quandle(args.input)
    result = construct_mod.decompose3(q, args.convention)
    if result is None:
        if args.format == "json":
            print(json.dumps({"factors": None, "convention": args.convention}, indent=2))
        else:
            print(f"no factorization under convention {args.convention}")
        return EXIT_NEGATIVE
    base, rule = result
    base_key = _match_builtin(base)
    if args.format == "json":
        obj = {"convention": args.convention,
               "base": {**table_obj(base), "builtin": base_key},
               "rule": phase_obj(rule)}
        print(json.dumps(obj, indent=2))
    else:
        if base_key:
            print(f"base = {base_key}")
        else:
            print("base:")
            sys.stdout.write(emit_table(base))
        if rule.name:
            print(f"rule = {rule.name}")
        else:
            print("rule:")
            sys.stdout.write(emit_phase(rule))
    return EXIT_OK


def cmd_audit(args) -> int:
    base = _load_quandle(args.base)
    rule = _load_rule(args.rule)
    report = construct_mod.audit_transfer(base, rule, args.convention,
                                          alexander_budget=args.alexander_budget)
    if args.format == "json":
        obj = {
            "base": {**table_obj(base), "builtin": _match_builtin(base)},
            "rule": phase_obj(rule),
            "convention": args.convention,
            "product_order": report.product.order,
            "records": [
                {"property": r.property, "base": r.holds_on_base,
                 "product": r.holds_on_product, "claim": r.claim, "agrees": r.agrees}
                for r in report.records
            ],
        }
        print(json.dumps(obj, indent=2))
    else:
        base_label = base.name or args.base
        rule_label = rule.name or args.rule
        print(f"base: {base_label} (order {base.order})")
        print(f"rule: {rule_label}")
        print(f"convention: {args.convention}")
        print(f"product order: {report.product.order}")
        width = max(len(r.property) for r in report.records)
        print(f"{'property'.ljust(width)}  base     product  claim  agrees")
        for r in report.records:
            agrees = "yes" if r.agrees else "NO" if r.agrees is False else "unknown"
            print(f"{r.property.ljust(width)}  {_fmt_bool(r.holds_on_base).ljust(7)}  "
                  f"{_fmt_bool(r.holds_on_product).ljust(7)}  {r.claim.ljust(5)}  {agrees}")
        bad = report.disagreements()
        if bad:
            names = ", ".join(r.property for r in bad)
            print(f"disagreements: {len(bad)} ({names})")
        else:
            print("disagreements: none")
    return EXIT_OK


def cmd_census(args) -> int:
    reps = classify_mod.census(args.n)
    if args.format == "json":
        obj = {"order": args.n, "classes": len(reps),
               "representatives": [table_obj(q) for q in reps]}
        print(json.dumps(obj, indent=2))
    else:
        print(f"census order {args.n}: {len(reps)} classes")
        for q in reps:
            print()
            sys.stdout.write(emit_table(q))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="quandles",
                     description="Finite quandle workbench: check, construct, and classify Cayley tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("check", cmd_check, "run the axiom checker on a table")
    p.add_argument("input", help="table file or builtin key (paper:...)")
    p.add_argument("--witness-cap", type=int, default=None,
                   help="witnesses kept per axiom; 0 means exhaustive")

    p = add("construct", cmd_construct, "emit the order-3n phase product of a base table")
    p.add_argument("--base", required=True, help="base table file or builtin key")
    p.add_argument("--rule", required=True,
                   help="named phase rule (trivial, dihedral, swap01, swap02, swap12, thm31, thm32) or a phase file")
    p.add_argument("--convention", choices=("xa", "ax"), default="xa")
    p.add_argument("--validate", action="store_true",
                   help="append an axiom report and set the exit code from it")
    p.add_argument("--witness-cap", type=int, default=None)

    p = add("inn", cmd_inn, "print the translation listing, order spectrum, and inner group")
    p.add_argument("input")

    p = add("props", cmd_props, "print the property flags of a table")
    p.add_argument("input")
    p.add_argument("--alexander-budget", type=int, default=15,
                   help="max order for affine recognition")

    p = add("iso", cmd_iso, "decide isomorphism of two tables (exit 0/3)")
    p.add_argument("first")
    p.add_argument("second")

    p = add("classify", cmd_classify, "partition tables into isomorphism classes")
    p.add_argument("inputs", nargs="+")

    p = add("decompose", cmd_decompose, "factor a table as base x phase rule (exit 0/3)")
    p.add_argument("input")
    p.add_argument("--convention", choices=("xa", "ax"), default="xa")

    p = add("audit", cmd_audit, "evaluate property transfer between a base and its product")
    p.add_argument("--base", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--convention", choices=("xa", "ax"), default="xa")
    p.add_argument("--alexander-budget", type=int, default=15)

    p = add("census", cmd_census, f"representatives of all quandles of one order (n <= {classify_mod.CENSUS_CAP})")
    p.add_argument("n", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():  # a library warning becomes one stderr line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except NotAQuandleError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_AXIOM
        except (UsageError, TableFormatError, OSError, BudgetExceededError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
