"""One closed-loop benchmark process: a single client, no threads.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Runs from the checkout root. Set-up (importing ``quandles`` from ``src/`` and
building the workload's inputs through the package's own constructors) is
timed from the first line of this file. The loop then runs whole rounds
until ``--seconds`` have passed, starting each op only after the previous
one returned, and prints one JSON object on stdout.

With ``--trace 1`` even rounds run with the benchmark's wrappers recording
spans and odd rounds with them switched off; the per-layer figures come from
the traced rounds and the difference in wall time per op is the tracing
overhead.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2  # peak RSS and cache size are read after this many rounds
CLI_TIMEOUT_S = 60
# The pinned stdout assumes the default witness cap.
CLI_ENV = {k: v for k, v in os.environ.items() if k != "QF_WITNESS_CAP"}


class Op:
    """One timed call and the check of its answer (None when it passes)."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind, self.call, self.check = kind, call, check


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import quandles
    if not Path(quandles.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"quandles imported from {quandles.__file__}, not from the checkout")
    return quandles


def relabeled(Q, q, rng):
    return Q.from_table(q.order, gen.relabel(q.table, gen.permutation(rng, q.order)))


class Census:
    """census(n) for n = 3, 4, 5; there is no seeded input."""

    def __init__(self, Q, seed, pins):
        self.Q, self.pins = Q, pins["census"]

    def round(self, rng):
        return [Op(f"census({n})", lambda n=n: self.Q.census(n),
                   lambda r, n=n: self.check(n, r)) for n in (3, 4, 5)]

    def check(self, n, reps):
        if len(reps) != checks.A181771[n]:
            return f"census({n}) gave {len(reps)} classes, A181771 says {checks.A181771[n]}"
        if checks.digest([q.table for q in reps]) != self.pins[str(n)]:
            return f"census({n}) representatives differ from the pinned ones"
        return None


class IsoRelabel:
    """are_isomorphic on fresh relabelings: one positive and one negative
    pair per pool table, then classify_family over the round's relabelings."""

    def __init__(self, Q, seed, pins):
        self.Q, self.pins = Q, pins["iso-relabel"]
        rule = Q.named_rules()
        s = Q.AbelianGroupSpec((29,))
        # Grouped by order; each table's negative partner is the next one of its order.
        groups = [
            [("dihedral(24)", Q.dihedral(24)), ("trivial(24)", Q.trivial(24)),
             ("conj(S4)", Q.conjugation(Q.symmetric_group(4))),
             ("dihedral(8)*swap01", Q.product3(Q.dihedral(8), rule["swap01"]))],
            [("dihedral(27)", Q.dihedral(27)),
             ("dihedral(9)*trivial", Q.product3(Q.dihedral(9), rule["trivial"])),
             ("dihedral(9)*dihedral", Q.product3(Q.dihedral(9), rule["dihedral"]))],
            [("affine(Z29,3)", Q.affine(s, Q.scalar_automorphism(s, 3))),
             ("dihedral(29)", Q.dihedral(29))],
            [("dihedral(36)", Q.dihedral(36)),
             ("dihedral(12)*swap12", Q.product3(Q.dihedral(12), rule["swap12"]))],
            [("dihedral(45)", Q.dihedral(45)),
             ("dihedral(15)*swap01", Q.product3(Q.dihedral(15), rule["swap01"]))],
        ]
        self.pool = []  # (name, table, partner name, partner table)
        for g in groups:
            for i, (name, q) in enumerate(g):
                pname, pq = g[(i + 1) % len(g)]
                self.pool.append((name, q, pname, pq))

    def round(self, rng):
        Q = self.Q
        ops, fresh = [], []
        for name, q, pname, pq in self.pool:
            b = relabeled(Q, q, rng)
            fresh.append(b)
            ops.append(Op("positive", lambda q=q, b=b: Q.are_isomorphic(q, b),
                          lambda r, q=q, b=b: self.check_positive(q, b, r)))
            c = relabeled(Q, pq, rng)
            key = f"{name} | {pname}"
            ops.append(Op("negative", lambda q=q, c=c: Q.are_isomorphic(q, c),
                          lambda r, key=key: self.check_negative(key, r)))
        names = [p[0] for p in self.pool]
        ops.append(Op("classify_family", lambda: Q.classify_family(fresh),
                      lambda r: self.check_classes(names, r)))
        return ops

    @staticmethod
    def check_positive(q, b, r):
        if not r.isomorphic or r.mapping is None:
            return f"relabeled {q.name} reported not isomorphic"
        if not checks.is_isomorphism(q.table, b.table, r.mapping.images):
            return f"mapping for {q.name} is not an isomorphism"
        return None

    def check_negative(self, key, r):
        if r.isomorphic:
            return f"{key} reported isomorphic"
        if checks.digest(r.certificate) != self.pins["certificates"][key]:
            return f"{key}: certificate {r.certificate[:60]!r} differs from the pinned one"
        return None

    def check_classes(self, names, classes):
        got = sorted(sorted(names[i] for i in c.members) for c in classes)
        if got != self.pins["classes"]:
            return f"classify_family gave {len(classes)} classes, not the pinned partition"
        return None


AFFINE_GROUPS = ((8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6),
                 (13,), (14,), (15,), (16,), (2, 8))


class Affine:
    """alexander_recognize(q, max_order=24) on seeded affine positives and on
    fixed non-affine negatives, plus audit_transfer over small bases."""

    def __init__(self, Q, seed, pins):
        self.Q, self.pins = Q, pins["affine"]
        rule = Q.named_rules()
        # conj(S4) alone is about half a round. Three fresh relabelings of
        # conj(D4), the next slowest op, put the eleventh slowest op of any
        # run of 3 to 10 rounds on conj(D4), so latency_tail_ms does not jump
        # between op kinds with the number of rounds that fit in the run.
        self.negatives = [("conj(D4)", Q.conjugation(Q.dihedral_group(4)))] * 3 + [
            ("conj(D6)", Q.conjugation(Q.dihedral_group(6))),
            ("conj(S4)", Q.conjugation(Q.symmetric_group(4))),
            ("paper:q1", Q.Q1),
            ("paper:q2", Q.Q2),
            ("dihedral(3)*swap01", Q.product3(Q.dihedral(3), rule["swap01"])),
            ("paper:table1*swap12", Q.product3(Q.TABLE1, rule["swap12"])),
            ("dihedral(5)*swap01", Q.product3(Q.dihedral(5), rule["swap01"])),
        ]
        self.bases = [("paper:table1", Q.TABLE1), ("paper:baseB", Q.BASE_B),
                      ("dihedral(3)", Q.dihedral(3)), ("dihedral(5)", Q.dihedral(5))]
        self.rules = [(r.name, r) for r in Q.enumerate_phase_rules()]
        self.groups = [Q.AbelianGroupSpec(f) for f in AFFINE_GROUPS]

    def round(self, rng):
        Q = self.Q
        ops = []
        for g in self.groups:
            images = gen.affine_pick(rng, g.cyclic_factors)
            q = relabeled(Q, Q.affine(g, Q.automorphism_from_images(g, images)), rng)
            ops.append(Op("positive", lambda q=q: Q.alexander_recognize(q, max_order=24),
                          lambda r, q=q: self.check_positive(q, r)))
        for name, q in self.negatives:
            b = relabeled(Q, q, rng)
            ops.append(Op("negative", lambda b=b: Q.alexander_recognize(b, max_order=24),
                          lambda r, name=name: None if r is None else f"{name} recognized as affine"))
        for bname, base in self.bases:
            b = relabeled(Q, base, rng)
            for rname, rule in self.rules:
                key = f"{bname} * {rname}"
                ops.append(Op("audit", lambda b=b, rule=rule: Q.audit_transfer(b, rule),
                              lambda r, key=key: self.check_audit(key, r)))
        return ops

    @staticmethod
    def check_positive(q, w):
        if w is None:
            return f"affine table of order {q.order} not recognized"
        if not checks.affine_replay(q.table, w.group.cyclic_factors, w.generator_images,
                                    w.iso.images):
            return f"witness over {w.group.cyclic_factors} fails the replay"
        if not w.reproduces(q):
            return "AffineWitness.reproduces rejects its own witness"
        return None

    def check_audit(self, key, report):
        got = [[r.property, r.holds_on_base, r.holds_on_product] for r in report.records]
        if got != self.pins["audits"][key]:
            return f"audit {key} records differ from the pinned ones"
        return None


class Cli:
    """Each op runs one ``quandles`` subcommand in a fresh interpreter through
    perfbench/launch.py, as a shell would run the installed command."""

    def __init__(self, seed, pins):
        self.seed, self.pins = seed, pins["cli"]
        self.tables = gen.write_cli_inputs(ROOT, seed)
        self.trace = False  # set by the loop for each round
        self.spans_dir = None  # where traced launchers write their spans, if anywhere

    def round(self, rng):
        return [Op(label, lambda label=label, argv=argv: self.run(label, argv),
                   lambda r, label=label: self.check(label, r))
                for label, argv in gen.CLI_OPS]

    def run(self, label, argv):
        """Returns (exit code, stdout bytes, launcher report)."""
        cmd = [sys.executable, str(ROOT / "perfbench" / "launch.py")]
        if self.trace:
            cmd.append("--trace")
            if self.spans_dir is not None:
                cmd += ["--spans-out", str(self.spans_dir / f"{label}.json")]
        proc = subprocess.run(cmd + ["--"] + argv, cwd=ROOT, capture_output=True,
                              timeout=CLI_TIMEOUT_S, env=CLI_ENV)
        last = proc.stderr.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        report = json.loads(last[len(b"PERFBENCH "):]) if last.startswith(b"PERFBENCH ") else None
        return proc.returncode, proc.stdout, report

    def check(self, label, result):
        code, out, report = result
        pin = self.pins[label]
        if report is None:
            return f"{label}: the launcher sent no report"
        if code != pin["exit"]:
            return f"{label}: exit code {code}, pinned {pin['exit']}"
        if (label.startswith("paper-") or self.seed == 0) and checks.digest(out) != pin["stdout"]:
            return f"{label}: stdout differs from the pinned digest"
        if label == gen.CLI_ISO_POSITIVE[0]:
            line = next((s for s in out.decode().splitlines() if s.startswith("mapping: ")), "")
            images = [int(v) for v in line.split()[1:]]
            a, b = (self.tables[n] for n in gen.CLI_ISO_POSITIVE[1:])
            if not checks.is_isomorphism(a, b, images):
                return f"{label}: the printed mapping is not an isomorphism"
        return None


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_op(op):
    """Time one op; returns (seconds, result, failure or None)."""
    start = perf_counter()
    try:
        result = op.call()
    except Exception as err:  # an unexpected exception is a failed op, not a stopped run
        return perf_counter() - start, None, f"{op.kind}: {type(err).__name__}: {err}"
    elapsed = perf_counter() - start
    try:
        failure = op.check(result)
    except Exception as err:
        failure = f"{op.kind}: check raised {type(err).__name__}: {err}"
    return elapsed, result, failure


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("census", "iso-relabel", "affine", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    is_cli = args.workload == "cli"
    if is_cli:
        workload = Cli(args.seed, pins)
    else:
        Q = import_package()
        cls = {"census": Census, "iso-relabel": IsoRelabel, "affine": Affine}[args.workload]
        workload = cls(Q, args.seed, pins)
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work_dir = ROOT / ".bench_work"
    layer = {"translations_hits": 0, "translations_misses": 0, "translations_cached": None,
             "wall": {"traced": [0.0, 0], "plain": [0.0, 0]}, "cli": []}
    totals = spans.LayerTotals()
    if is_cli:
        cached = []  # translations cache size at the end of each traced launcher
        if args.trace:
            workload.spans_dir = work_dir / "spans-cli"
            workload.spans_dir.mkdir(parents=True, exist_ok=True)
    else:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            wrapped, _ = spans.install(tracer)
            cache = wrapped["core.translations"].__wrapped__
        else:
            cache = Q.core.translations

    def trace_library_op(op):
        """Run one op with the wrappers recording, then the stage probe."""
        before = cache.cache_info()
        tracer.enabled = True
        result = run_op(op)
        tracer.enabled = False
        after = cache.cache_info()
        layer["translations_hits"] += after.hits - before.hits
        layer["translations_misses"] += after.misses - before.misses
        op_spans, counts, pairs = tracer.take()
        tracer.enabled = True
        spans.probe_stages(Q.classify._STAGES, wrapped, pairs)
        tracer.enabled = False
        probe_spans, _, _ = tracer.take()
        totals.add_op(op.kind, op_spans, counts, probe_spans)
        return result

    def record_cli_report(op, traced, elapsed, result):
        code, out, report = result
        if report is None:
            return
        if traced:
            totals.merge(report["totals"])
            layer["translations_hits"] += report["translations_hits"]
            layer["translations_misses"] += report["translations_misses"]
            cached.append(report["translations_cached"])
        else:  # process timings come from the rounds without wrappers
            layer["cli"].append({"command": dict(gen.CLI_OPS)[op.kind][0], "wall_s": elapsed,
                                 "stdout_bytes": len(out), "import_s": report["import_s"],
                                 "main_s": report["main_s"]})

    latencies, failures = [], []
    rss = None
    rounds = 0
    loop_start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - loop_start < args.seconds:
        traced = bool(args.trace) and rounds % 2 == 0
        if is_cli:
            workload.trace = traced
        latencies.append([])
        for op in workload.round(gen.round_rng(args.workload, args.seed, rounds)):
            op_start = perf_counter()
            if traced and not is_cli:
                elapsed, result, failure = trace_library_op(op)
            else:
                elapsed, result, failure = run_op(op)
                if is_cli and args.trace and result is not None:
                    record_cli_report(op, traced, elapsed, result)
            wall = layer["wall"]["traced" if traced else "plain"]
            wall[0] += perf_counter() - op_start
            wall[1] += 1
            latencies[-1].append(elapsed)
            if failure is not None:
                failures.append(failure)
        rounds += 1
        if is_cli:
            workload.spans_dir = None  # spans of the first traced round are enough
        if rounds == MIN_ROUNDS:
            rss = peak_rss_mb(children=is_cli)
            if not is_cli:
                layer["translations_cached"] = cache.cache_info().currsize

    out = {"setup_s": setup_s, "latencies": latencies, "failures": failures,
           "rounds": rounds, "peak_rss_mb": rss}
    if args.trace:
        if is_cli:
            layer["translations_cached"] = sum(cached) / len(cached) if cached else 0
        else:
            work_dir.mkdir(exist_ok=True)
            (work_dir / f"spans-{args.workload}.json").write_text(json.dumps(totals.sample))
        layer["totals"] = totals.as_dict()
        out["layer"] = layer
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
