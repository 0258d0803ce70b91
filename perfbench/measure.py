"""Metric definitions and the arithmetic that turns raw runs into them.

End-to-end metrics come from untraced runs; per-layer metrics from traced
ones. Per-layer ``_s`` figures are self time in seconds per timed op, and
counts are per timed op too, so they do not grow with the number of ops that
fit in the run. ``_ms`` figures are medians.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("correct_share", "ratio", "higher"),
)

CLI_COMMANDS = ("check", "inn", "props", "iso", "classify", "construct", "decompose",
                "audit", "census")

# name -> (unit, better, how): how is ("self", span names), ("calls", span
# names) or a key handled in layer_metrics.
LAYERS = {
    "classify.all_quandle_tables_s": ("s/op", "lower", ("self", "classify.all_quandle_tables")),
    "classify.labeled_tables": ("1/op", "lower", ("count", "labeled_tables")),
    "classify.classify_family_s": ("s/op", "lower", ("self", "classify.classify_family")),
    "classify.classes": ("1/op", "higher", ("count", "classes")),
    "classify.are_isomorphic_calls": ("1/op", "lower", ("calls", "classify.are_isomorphic")),
    "classify.iso_positive_ratio": ("ratio", "higher", "iso_positive_ratio"),
    "classify.are_isomorphic_s": ("s/op", "lower", ("self", "classify.are_isomorphic")),
    "classify.iso_by_invariant": ("1/op", "higher", ("count", "iso_by_invariant")),
    "classify.iso_by_search": ("1/op", "lower", ("calls", "classify._search_isomorphism")),
    "classify.iso_search_path_s": ("s/op", "lower",
                                   ("self", "classify._search_isomorphism",
                                    "classify._is_homomorphism")),
    "classify.invariant_profile_s": ("s/op", "lower", ("self", "classify.invariant_profile")),
    "properties.is_abelian_s": ("s/op", "lower", ("self", "properties.is_abelian")),
    "properties.is_left_distributive_s": ("s/op", "lower",
                                          ("self", "properties.is_left_distributive")),
    "properties.centralizer_s": ("s/op", "lower", ("self", "properties.centralizer")),
    "properties.ensure_quandle_s": ("s/op", "lower", ("self", "properties.ensure_quandle")),
    "properties.ensure_quandle_calls": ("1/op", "lower", ("calls", "properties.ensure_quandle")),
    "core.check_axioms_s": ("s/op", "lower", ("self", "core.check_axioms")),
    "core.check_axioms_calls": ("1/op", "lower", ("calls", "core.check_axioms")),
    "core.translations_s": ("s/op", "lower", ("self", "core.translations")),
    "core.translations_calls": ("1/op", "lower", ("calls", "core.translations")),
    "core.translations_hit_ratio": ("ratio", "higher", "translations_hit_ratio"),
    "core.translations_cached": ("count", "lower", "translations_cached"),
    "properties.alexander_s": ("s/op", "lower", ("self", "properties.alexander_recognize")),
    "properties.alexander_calls": ("1/op", "lower", ("calls", "properties.alexander_recognize")),
    "properties.alexander_candidates": ("1/op", "lower", "alexander_candidates"),
    "properties.alexander_yield": ("ratio", "higher", "alexander_yield"),
    "core.affine_s": ("s/op", "lower", ("self", "core.affine")),
    "core.affine_calls": ("1/op", "lower", ("calls", "core.affine")),
    "construct.audit_transfer_s": ("s/op", "lower", ("self", "construct.audit_transfer")),
    "construct.validate_rule_s": ("s/op", "lower", ("self", "construct.validate_rule")),
    "construct.product3_s": ("s/op", "lower", ("self", "construct.product3")),
    "construct.decompose3_s": ("s/op", "lower", ("self", "construct.decompose3")),
    "inner.inn_group_s": ("s/op", "lower", ("self", "inner.inn_group")),
    "inner.inn_group_elements": ("1/op", "lower", ("count", "inn_group_elements")),
    "inner.orbits_s": ("s/op", "lower", ("self", "inner.orbits")),
    "inner.inner_structure_s": ("s/op", "lower", ("self", "inner.inner_structure")),
    "formats.parse_s": ("s/op", "lower", ("self", "formats.parse_table", "formats.parse_table_text",
                                          "formats.parse_table_json", "formats.parse_phase_text")),
    "formats.parse_calls": ("1/op", "lower", ("calls", "formats.parse_table",
                                              "formats.parse_phase_text")),
    "formats.emit_s": ("s/op", "lower", ("self", "formats.emit_table", "formats.emit_table_json",
                                         "formats.emit_phase", "formats.table_obj",
                                         "formats.phase_obj")),
    "formats.stdout_bytes": ("B/op", "lower", "stdout_bytes"),
    "cli.import_s": ("s", "lower", "import_s"),
    "cli.main_s": ("s/op", "lower", "main_s"),
    "cli.process_overhead_s": ("s/op", "lower", "process_overhead_s"),
    **{f"cli.{c}_ms": ("ms", "lower", f"{c}_ms") for c in CLI_COMMANDS},
    "trace.overhead_s": ("s/op", "lower", "overhead_s"),
}


def nearest_rank(sorted_samples, p: float) -> float:
    """The p-th percentile by nearest rank (p in 0..100)."""
    rank = max(1, math.ceil(p / 100 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def tail_percentile(samples) -> tuple[int, float]:
    """The highest whole percentile that still has TAIL_BEYOND samples above
    its nearest-rank position, with its value.

    Below 2 * TAIL_BEYOND samples no percentile above the median qualifies,
    and the median is returned as the tail.
    """
    s = sorted(samples)
    n = len(s)
    for p in range(99, 50, -1):
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p, nearest_rank(s, p)
    return 50, statistics.median(s)


OP_PERCENTILE = 90


def smoothed(rounds):
    """Each op's latency replaced by the 90th percentile (nearest rank) of
    that op's latencies over all rounds of the run.

    Every round runs the same op mix, so position j of each round is the
    same op on fresh inputs. The machine's speed moves between a steady slow
    state and faster spells of varying depth that last seconds to minutes
    (other tenants of the host); a high percentile per op reads the steady
    state whenever the run spends a tenth of its time in it, where a median
    or a minimum flips with the mix of states.
    """
    per_op = [nearest_rank(sorted(col), OP_PERCENTILE) for col in zip(*rounds)]
    return per_op * len(rounds)


def end_to_end(setup_samples, rounds, failed: int, peak_rss_mb: float):
    """The six end-to-end metrics, plus the tail's percentile and sample count.

    ``rounds`` holds one list of op latencies (seconds) per round.
    """
    samples = smoothed(rounds)
    p, tail = tail_percentile(samples)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": len(samples) / sum(samples),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "correct_share": 1 - failed / len(samples),
    }
    return metrics, {"tail_percentile": p, "samples": len(samples)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(layer: dict) -> dict:
    """Per-layer metrics from a traced run's ``layer`` record (see worker.py)."""
    t = layer["totals"]
    ops = t["ops"]
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]
    iso_calls = calls.get("classify.are_isomorphic", 0)
    cli = layer.get("cli", [])
    by_cmd = {c: [r["main_s"] for r in cli if r["command"] == c] for c in CLI_COMMANDS}
    (traced_s, traced_n), (plain_s, plain_n) = layer["wall"]["traced"], layer["wall"]["plain"]
    special = {
        "iso_positive_ratio": _ratio(counts.get("iso_positive", 0), iso_calls),
        "translations_hit_ratio": _ratio(layer["translations_hits"],
                                         layer["translations_hits"] + layer["translations_misses"]),
        "translations_cached": layer["translations_cached"] or 0,
        "alexander_candidates": _ratio(t["alexander_candidates"], ops),
        "alexander_yield": _ratio(counts.get("alexander_witnesses", 0), t["alexander_candidates"]),
        "stdout_bytes": _ratio(sum(r["stdout_bytes"] for r in cli), len(cli)),
        "import_s": statistics.median([r["import_s"] for r in cli]) if cli else 0.0,
        "main_s": _ratio(sum(r["main_s"] for r in cli), len(cli)),
        "process_overhead_s": _ratio(sum(r["wall_s"] - r["import_s"] - r["main_s"] for r in cli),
                                     len(cli)),
        "overhead_s": _ratio(traced_s, traced_n) - _ratio(plain_s, plain_n),
        **{f"{c}_ms": statistics.median(v) * 1e3 if v else 0.0 for c, v in by_cmd.items()},
    }
    out = {}
    for name, (_, _, how) in LAYERS.items():
        if isinstance(how, str):
            out[name] = special[how]
        elif how[0] == "self":
            out[name] = _ratio(sum(self_s.get(n, 0.0) for n in how[1:]), ops)
        elif how[0] == "calls":
            out[name] = _ratio(sum(calls.get(n, 0) for n in how[1:]), ops)
        else:
            out[name] = _ratio(counts.get(how[1], 0), ops)
    return out
