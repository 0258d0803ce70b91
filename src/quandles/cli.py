"""Command-line front end.

Each subcommand returns one ``Result`` (exit code, JSON object, text lines);
text and JSON are two renderings of the same answer. ``main`` writes the one
``--format`` picks to stdout once, after the command succeeds.

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
    parse_phase_text,
    parse_table,
    phase_obj,
    table_obj,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AXIOM = 2
EXIT_NEGATIVE = 3

Result = tuple[int, dict, list[str]]


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
    if args.witness_cap is not None:
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


def _report_lines(report: AxiomReport) -> list[str]:
    lines = []
    for name, label, fmt, _ in _AXIOM_LAYOUT:
        verdict = getattr(report, name)
        if verdict.ok:
            lines.append(f"{label}: pass")
        else:
            lines.append(f"{label}: FAIL [{', '.join(map(fmt.format, verdict.witnesses))}]")
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return lines


def _report_obj(report: AxiomReport) -> dict:
    obj = {name: {"ok": getattr(report, name).ok, "witnesses": list(getattr(report, name).witnesses)}
           for name, *_ in _AXIOM_LAYOUT}  # json writes witness tuples as arrays
    return {**obj, "overall": report.overall, "witness_cap": report.witness_cap}


def cmd_check(args) -> Result:
    q = _load_quandle(args.input)
    report = check_axioms(q, witness_cap=_witness_cap(args))
    obj = {"order": q.order, "name": q.name, **_report_obj(report)}
    label = f" ({q.name})" if q.name else ""
    lines = [f"quandle of order {q.order}{label}", *_report_lines(report)]
    return (EXIT_OK if report.overall else EXIT_AXIOM), obj, lines


def cmd_construct(args) -> Result:
    base = _load_quandle(args.base)
    rule = _load_rule(args.rule)
    cap = _witness_cap(args)  # a bad cap fails before any warning
    product = construct_mod.product3(base, rule, args.convention)
    obj, lines = table_obj(product), emit_table(product).splitlines()
    if not args.validate:
        return EXIT_OK, obj, lines
    report = check_axioms(product, witness_cap=cap)
    code = EXIT_OK if report.overall else EXIT_AXIOM
    return code, {**obj, "report": _report_obj(report)}, lines + _report_lines(report)


def cmd_inn(args) -> Result:
    q = _load_quandle(args.input)
    structure = inner_mod.inner_structure(q)
    obj = {
        "order": q.order,
        "name": q.name,
        "generators": [
            {"element": y, "cycles": [list(c) for c in p.cycles()], "order": o}
            for y, (p, o) in enumerate(zip(structure.translations, structure.orders), start=1)
        ],
        "count_of_order": {str(k): v for k, v in structure.count_of_order.items()},
    }
    lines = structure.lines() + [f"order {k}: {v}" for k, v in structure.count_of_order.items()]
    try:
        group = inner_mod.inn_group(q)
    except BudgetExceededError as err:
        obj["group"] = {"error": str(err)}
        lines.append(f"inner group: {err}")
    else:
        counts = Counter(p.order() for p in group.elements)
        spectrum = {str(k): counts[k] for k in sorted(counts)}
        obj["group"] = {"order": group.order, "count_of_order": spectrum}
        lines.append(f"inner group order: {group.order}")
        lines.append("inner group element orders: " + ", ".join(f"{k}: {v}" for k, v in spectrum.items()))
    return EXIT_OK, obj, lines


def cmd_props(args) -> Result:
    q = _load_quandle(args.input)
    profile = classify_mod.invariant_profile(q)
    flags = {name: getattr(profile, name)
             for name in ("involutory", "abelian", "left_distributive", "connected", "cyclic_type")}
    try:
        witness = props_mod.alexander_recognize(q, max_order=args.alexander_budget)
    except BudgetExceededError as err:
        alexander, alexander_text = {"recognized": None, "reason": str(err)}, str(err)
    else:
        alexander, alexander_text = {"recognized": False}, "none"
        if witness is not None:
            group = witness.group

            def residue(img):
                digits = group.tuple_of(img)
                return digits[0] if len(digits) == 1 else digits

            images = ", ".join(f"e{i} -> {residue(img)}"
                               for i, img in enumerate(witness.generator_images, start=1))
            images = images or "identity on the trivial group"
            alexander = {
                "recognized": True,
                "group": list(group.cyclic_factors),
                "generator_images": list(witness.generator_images),
                "iso": list(witness.iso.images),
            }
            alexander_text = f"yes ({group.describe()}; {images})"
    orbit_list = inner_mod.orbits(q)
    cent_sizes = [len(props_mod.centralizer(q, a)) for a in range(1, q.order + 1)]
    obj = {"order": q.order, "name": q.name, **flags,
           "alexander": alexander,
           "orbits": [list(o) for o in orbit_list],
           "centralizer_sizes": cent_sizes}
    lines = [f"order: {q.order}" + (f" ({q.name})" if q.name else "")]
    lines += [f"{key.replace('_', ' ')}: {_fmt_bool(value)}" for key, value in flags.items()]
    lines.append(f"alexander: {alexander_text}")
    lines.append("orbits: " + " ".join("{" + ",".join(map(str, o)) + "}" for o in orbit_list))
    lines.append("centralizer sizes: " + " ".join(map(str, cent_sizes)))
    return EXIT_OK, obj, lines


def cmd_iso(args) -> Result:
    q1 = _load_quandle(args.first)
    q2 = _load_quandle(args.second)
    result = classify_mod.are_isomorphic(q1, q2)
    obj = {"isomorphic": result.isomorphic,
           "mapping": list(result.mapping.images) if result.mapping else None,
           "certificate": result.certificate}
    lines = [result.verdict]
    if result.mapping is not None:
        lines.append("mapping: " + " ".join(map(str, result.mapping.images)))
    if result.certificate is not None:
        lines.append(f"certificate: {result.certificate}")
    return (EXIT_OK if result.isomorphic else EXIT_NEGATIVE), obj, lines


def cmd_classify(args) -> Result:
    qs = [_load_quandle(spec) for spec in args.inputs]
    classes = classify_mod.classify_family(qs)
    obj = {"classes": len(classes),
           "members": [[args.inputs[i] for i in cls.members] for cls in classes],
           "representatives": [table_obj(cls.representative) for cls in classes]}
    lines = [f"classes: {len(classes)}"]
    for i, cls in enumerate(classes, start=1):
        labels = ", ".join(args.inputs[m] for m in cls.members)
        lines.append(f"class {i}: {labels}")
    return EXIT_OK, obj, lines


def cmd_decompose(args) -> Result:
    q = _load_quandle(args.input)
    result = construct_mod.decompose3(q, args.convention)
    if result is None:
        return (EXIT_NEGATIVE, {"factors": None, "convention": args.convention},
                [f"no factorization under convention {args.convention}"])
    base, rule = result
    base_key = _match_builtin(base)
    obj = {"convention": args.convention,
           "base": {**table_obj(base), "builtin": base_key},
           "rule": phase_obj(rule)}
    if base_key:
        lines = [f"base = {base_key}"]
    else:
        lines = ["base:", *emit_table(base).splitlines()]
    if rule.name:
        lines.append(f"rule = {rule.name}")
    else:
        lines += ["rule:", *emit_phase(rule).splitlines()]
    return EXIT_OK, obj, lines


def cmd_audit(args) -> Result:
    base = _load_quandle(args.base)
    rule = _load_rule(args.rule)
    report = construct_mod.audit_transfer(base, rule, args.convention,
                                          alexander_budget=args.alexander_budget)
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
    width = max(len(r.property) for r in report.records)
    lines = [f"base: {base.name or args.base} (order {base.order})",
             f"rule: {rule.name or args.rule}",
             f"convention: {args.convention}",
             f"product order: {report.product.order}",
             f"{'property'.ljust(width)}  base     product  claim  agrees"]
    for r in report.records:
        agrees = "yes" if r.agrees else "NO" if r.agrees is False else "unknown"
        lines.append(f"{r.property.ljust(width)}  {_fmt_bool(r.holds_on_base).ljust(7)}  "
                     f"{_fmt_bool(r.holds_on_product).ljust(7)}  {r.claim.ljust(5)}  {agrees}")
    bad = report.disagreements()
    if bad:
        names = ", ".join(r.property for r in bad)
        lines.append(f"disagreements: {len(bad)} ({names})")
    else:
        lines.append("disagreements: none")
    return EXIT_OK, obj, lines


def cmd_census(args) -> Result:
    reps = classify_mod.census(args.n)
    obj = {"order": args.n, "classes": len(reps),
           "representatives": [table_obj(q) for q in reps]}
    lines = [f"census order {args.n}: {len(reps)} classes"]
    for q in reps:
        lines += ["", *emit_table(q).splitlines()]
    return EXIT_OK, obj, lines


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
            code, obj, lines = args.func(args)
            text = json.dumps(obj, indent=2) if args.format == "json" else "\n".join(lines)
            # the one stdout write; inside the try, so a closed pipe is one error line
            sys.stdout.write(text + "\n")
            return code
        except NotAQuandleError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_AXIOM
        except (UsageError, TableFormatError, OSError, BudgetExceededError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
