"""Benchmark entry point for the quandles workbench.

    python3 perfbench/run.py --workload {census,iso-relabel,affine,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; only the standard library is needed. Each
run is a closed loop with one client (see DESIGN.md). With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Lines before it describe the run: seed, Python version,
nproc, git commit, the tail percentile and its sample count, and any failed
answers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "iso-relabel", "affine", "cli")
SETUP_RUNS = 9  # fresh processes whose set-up time gives the reported median
DEADLINE_S = 170  # the whole run, set-up processes included


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(cmd, deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    (the cli worker has a launcher child of its own) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark child timed out: {' '.join(cmd[1:4])}")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_time(workload: str, seed: int, deadline: float) -> float:
    """Set-up of one fresh process: for cli, importing the package in a new
    interpreter; otherwise the worker's import plus input construction."""
    if workload == "cli":
        err = run_child([sys.executable, str(HERE / "launch.py"), "--import-only", "--"],
                        deadline).stderr
        return json.loads(err.decode().rstrip().rsplit("\n", 1)[-1][len("PERFBENCH "):])["import_s"]
    out = run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "0", "--setup-only"], deadline).stdout
    return json.loads(out)["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "quandles" / "__init__.py").is_file():
        print(f"error: no quandles package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "python": platform.python_version(), "nproc": os.cpu_count(),
                      "commit": git_commit(), "loop": "closed, 1 client"}))
    # Outside cli the measuring worker's own set-up is one of the samples.
    is_cli = args.workload == "cli"
    setups = []
    if not args.trace:
        setups = [setup_time(args.workload, args.seed, deadline)
                  for _ in range(SETUP_RUNS if is_cli else SETUP_RUNS - 1)]
    raw = json.loads(run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)], deadline).stdout)
    if not is_cli:
        setups.append(raw["setup_s"])

    rounds, failures = raw["latencies"], raw["failures"]
    attempted = sum(len(r) for r in rounds)
    for f in failures[:20]:
        print(f"FAILED: {f}")
    if args.trace:
        metrics = measure.layer_metrics(raw["layer"])
        units = {name: unit for name, (unit, _, _) in measure.LAYERS.items()}
    else:
        metrics, detail = measure.end_to_end(setups, rounds, len(failures), raw["peak_rss_mb"])
        units = {name: unit for name, unit, _ in measure.END_TO_END}
        print(json.dumps({"rounds": raw["rounds"], **detail,
                          "failed_share": len(failures) / attempted}))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
