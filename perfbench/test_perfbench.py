"""Tests for the benchmark's own helpers: tail percentile, self time, and
that a tampered answer is counted as a failure."""

import json
from pathlib import Path

import pytest

import checks
import gen
import measure
import spans
import worker

Q = worker.import_package()


@pytest.mark.parametrize("n, p", [(21, 52), (100, 90), (109, 90), (110, 90),
                                  (200, 95), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    samples = list(range(n, 0, -1))
    got_p, value = measure.tail_percentile(samples)
    assert got_p == p
    rank = sorted(samples).index(value) + 1
    assert n - rank >= 10
    if p < 99:  # the next percentile up would leave fewer than ten beyond
        assert n - measure.math.ceil((p + 1) / 100 * n) < 10


def test_tail_percentile_falls_back_to_median_when_too_few():
    assert measure.tail_percentile([5, 1, 3]) == (50, 3)
    assert measure.tail_percentile(range(1, 21)) == (50, 10.5)


def test_self_time_subtracts_children():
    s = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("d", 11.0, 12.0, -1),
    ]
    assert spans.self_times(s) == {"a": 3.0, "b": 6.0, "c": 1.0, "d": 1.0}
    assert spans.count_within(s, "c", "a") == 1
    assert spans.count_within(s, "d", "a") == 0


def test_tracer_records_nesting_through_every_namespace():
    tracer = spans.Tracer()
    wrapped, restore = spans.install(tracer)
    try:
        assert Q.core.translations is wrapped["core.translations"]
        assert Q.classify.translations is wrapped["core.translations"]
        assert Q.translations is wrapped["core.translations"]
        q = Q.dihedral(5)
        b = Q.from_table(5, gen.relabel(q.table, [2, 3, 1, 5, 4]))
        tracer.enabled = True
        Q.are_isomorphic(q, b)
        tracer.enabled = False
        op_spans, counts, pairs = tracer.take()
    finally:
        restore()
    assert Q.core.translations is wrapped["core.translations"].__wrapped__
    assert op_spans[0][0] == "classify.are_isomorphic" and op_spans[0][3] == -1
    assert all(s[3] >= 0 for s in op_spans[1:])
    assert counts["iso_positive"] == 1 and len(pairs) == 1
    selfs = spans.self_times(op_spans)
    total = op_spans[0][2] - op_spans[0][1]
    assert sum(selfs.values()) == pytest.approx(total)


def _op(call, check):
    return worker.Op("test", call, check)


def test_wrong_mapping_counts_as_failed():
    q = Q.dihedral(7)
    b = Q.from_table(7, gen.relabel(q.table, [3, 1, 2, 7, 5, 6, 4]))
    honest = worker.run_op(_op(lambda: Q.are_isomorphic(q, b),
                               lambda r: worker.IsoRelabel.check_positive(q, b, r)))
    assert honest[2] is None
    tampered = Q.IsoResult(True, mapping=Q.Permutation.identity(7))
    _, _, failure = worker.run_op(_op(lambda: tampered,
                                      lambda r: worker.IsoRelabel.check_positive(q, b, r)))
    assert failure is not None and "not an isomorphism" in failure


def test_wrong_affine_witness_counts_as_failed():
    g = Q.AbelianGroupSpec((2, 4))
    images = gen.affine_pick(gen.round_rng("test", 0, 0), g.cyclic_factors)
    q = Q.affine(g, Q.automorphism_from_images(g, images))
    w = Q.alexander_recognize(q)
    assert worker.Affine.check_positive(q, w) is None
    images = list(w.iso.images)
    images[0], images[1] = images[1], images[0]
    bad = Q.AffineWitness(group=w.group, generator_images=w.generator_images,
                          iso=Q.Permutation(tuple(images)))
    assert worker.Affine.check_positive(q, bad) is not None


def test_flipped_exit_code_counts_as_failed():
    cli = worker.Cli.__new__(worker.Cli)
    cli.seed, cli.tables = 7, {}
    cli.pins = {"paper-x": {"exit": 3, "stdout": checks.digest(b"not-isomorphic\n")}}
    assert cli.check("paper-x", (3, b"not-isomorphic\n", {})) is None
    assert "exit code" in cli.check("paper-x", (0, b"not-isomorphic\n", {}))
    assert "stdout" in cli.check("paper-x", (3, b"isomorphic\n", {}))


def test_exception_counts_as_failed_and_lowers_correct_share():
    def boom():
        raise ValueError("tampered")
    _, result, failure = worker.run_op(_op(boom, lambda r: None))
    assert result is None and "ValueError" in failure
    metrics, _ = measure.end_to_end([0.1], [[0.01, 0.02]] * 2, failed=1, peak_rss_mb=10.0)
    assert metrics["correct_share"] == 0.75


def test_reference_tables_match_the_package():
    rule = Q.named_rules()
    for name, f in gen.PHASE_RULES.items():
        assert rule[name].f == f
    base = gen.relabel(gen.dihedral_rows(5), [4, 2, 5, 1, 3])
    for convention in ("xa", "ax"):
        want = Q.product3(Q.from_table(5, base), rule["swap01"], convention).table
        assert gen.product_rows(base, gen.PHASE_RULES["swap01"], convention) == want
    s = Q.AbelianGroupSpec((29,))
    assert gen.affine_cyclic_rows(29, 3) == Q.affine(s, Q.scalar_automorphism(s, 3)).table
    assert gen.dihedral_rows(9) == Q.dihedral(9).table


def test_benchmark_json_lists_the_measured_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(k, u, b) for k, (u, b, _) in measure.LAYERS.items()]
