"""Record the answers the benchmark pins, from the code in this checkout.

    python3 perfbench/pin.py > perfbench/pins.json

The committed pins.json was produced at the commit that introduced the
benchmark; the workloads compare every later answer against it. Rerun this
only when an answer is meant to change, and say so where the change is
described.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import gen
import worker


def main() -> int:
    Q = worker.import_package()
    empty = {"census": {}, "iso-relabel": {}, "affine": {}, "cli": {}}
    pins = {"census": {str(n): checks.digest([q.table for q in Q.census(n)]) for n in (3, 4, 5)}}

    iso = worker.IsoRelabel(Q, 0, empty)
    certificates = {}
    for name, q, pname, pq in iso.pool:
        r = Q.are_isomorphic(q, pq)
        if r.isomorphic:
            raise SystemExit(f"negative pair {name} | {pname} is isomorphic")
        certificates[f"{name} | {pname}"] = checks.digest(r.certificate)
    classes = Q.classify_family([p[1] for p in iso.pool])
    names = [p[0] for p in iso.pool]
    pins["iso-relabel"] = {
        "certificates": certificates,
        "classes": sorted(sorted(names[i] for i in c.members) for c in classes),
    }

    aff = worker.Affine(Q, 0, empty)
    pins["affine"] = {"audits": {
        f"{bname} * {rname}": [[r.property, r.holds_on_base, r.holds_on_product]
                               for r in Q.audit_transfer(base, rule).records]
        for bname, base in aff.bases for rname, rule in aff.rules}}

    gen.write_cli_inputs(worker.ROOT, 0)
    pins["cli"] = {}
    for label, argv in gen.CLI_OPS:
        proc = subprocess.run([sys.executable, "-m", "quandles.cli"] + argv, cwd=worker.ROOT,
                              capture_output=True, env={"PYTHONPATH": str(worker.ROOT / "src")})
        pins["cli"][label] = {"exit": proc.returncode, "stdout": checks.digest(proc.stdout)}
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
