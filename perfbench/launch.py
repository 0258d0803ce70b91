"""Run one ``quandles`` subcommand the way the installed console script does.

    python3 perfbench/launch.py [--trace] [--spans-out FILE] [--import-only] -- ARGS...

The package is imported from the checkout's ``src/``. Stdout carries the
command's own bytes only; timings go to stderr as a last line
``PERFBENCH {json}``. With ``--trace`` the benchmark's wrappers are installed
before ``cli.main`` runs, so the traced and untraced runs share this launcher.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    import quandles.cli as cli
    import_s = perf_counter() - T0
    report = {"import_s": import_s}
    if "--import-only" in opts:
        sys.stderr.write("PERFBENCH " + json.dumps(report) + "\n")
        return 0

    tracer = None
    if "--trace" in opts:
        import spans
        tracer = spans.Tracer()
        wrapped, _ = spans.install(tracer)
        cache = wrapped["core.translations"].__wrapped__
        tracer.enabled = True
    start = perf_counter()
    try:
        code = cli.main(args)
    finally:
        report["main_s"] = perf_counter() - start
        sys.stdout.flush()
    if tracer is not None:
        tracer.enabled = False
        info = cache.cache_info()
        op_spans, counts, pairs = tracer.take()
        tracer.enabled = True
        spans.probe_stages(cli.classify_mod._STAGES, wrapped, pairs)
        tracer.enabled = False
        probe_spans, _, _ = tracer.take()
        totals = spans.LayerTotals()
        totals.add_op(args[0], op_spans, counts, probe_spans)
        report.update(totals=totals.as_dict(), translations_hits=info.hits,
                      translations_misses=info.misses, translations_cached=info.currsize)
        if "--spans-out" in opts:
            Path(opts[opts.index("--spans-out") + 1]).write_text(json.dumps(op_spans))
    sys.stderr.write("PERFBENCH " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
