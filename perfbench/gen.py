"""Seeded inputs for the benchmark, built without the package under test.

The seed stays on the benchmark's side: the package only ever receives the
tables, relabelings and automorphisms generated here. Every random choice
comes from ``round_rng(workload, seed, round)``, so one seed gives the same
inputs on every run and every machine.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from checks import extend_images

CLI_DIR = Path(".bench_work") / "cli"  # relative to the checkout root, the CLI's cwd


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def permutation(rng: random.Random, n: int) -> list[int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def relabel(rows, images):
    """The table carried along x -> images[x-1]: s(x) > s(y) = s(x > y)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        sx = images[x] - 1
        for y in range(n):
            out[sx][images[y] - 1] = images[rows[x][y] - 1]
    return tuple(tuple(r) for r in out)


def affine_pick(rng: random.Random, factors) -> tuple[int, ...]:
    """Random generator images of an automorphism of Z_f1 x ... x Z_fk."""
    n = 1
    for f in factors:
        n *= f
    while True:
        images = tuple(rng.randint(1, n) for _ in factors)
        if extend_images(factors, images) is not None:
            return images


# Reference tables for the CLI's input files, from their defining formulas.

def dihedral_rows(n: int):
    return tuple(tuple((2 * y - x) % n + 1 for y in range(n)) for x in range(n))


def affine_cyclic_rows(n: int, u: int):
    """x > y = u*x + (1-u)*y on Z_n."""
    return tuple(tuple((u * x + (1 - u) * y) % n + 1 for y in range(n)) for x in range(n))


PHASE_RULES = {
    "trivial": ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
    "dihedral": ((0, 2, 1), (2, 1, 0), (1, 0, 2)),
    "swap01": ((0, 0, 1), (1, 1, 0), (2, 2, 2)),
    "swap02": ((0, 2, 0), (1, 1, 1), (2, 0, 2)),
}


def _pair_index(convention, n, x, a):
    return 3 * (x - 1) + a + 1 if convention == "xa" else n * a + x


def product_rows(base, rule, convention="xa"):
    """(x,a) > (y,b) = (x > y, f(a,b)), flattened by the given convention."""
    n = len(base)
    pairs = sorted(((x, a) for x in range(1, n + 1) for a in range(3)),
                   key=lambda p: _pair_index(convention, n, *p))
    return tuple(
        tuple(_pair_index(convention, n, base[x - 1][y - 1], rule[a][b]) for y, b in pairs)
        for x, a in pairs)


def table_text(rows, comment: str) -> str:
    lines = [f"# {comment}", f"quandle {len(rows)}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def table_json(rows) -> str:
    return json.dumps({"order": len(rows), "table": [list(r) for r in rows]}) + "\n"


def cli_inputs(seed: int):
    """File contents for the cli workload: {file name: (rows or None, text)}."""
    rng = round_rng("cli", seed, 0)

    def shuffled(rows):
        return relabel(rows, permutation(rng, len(rows)))

    d45 = shuffled(dihedral_rows(45))
    p15 = shuffled(product_rows(dihedral_rows(15), PHASE_RULES["swap01"]))
    d27 = shuffled(dihedral_rows(27))
    d27b = shuffled(dihedral_rows(27))
    p9 = shuffled(product_rows(dihedral_rows(9), PHASE_RULES["trivial"]))
    a29 = shuffled(affine_cyclic_rows(29, 3))
    b5 = shuffled(dihedral_rows(5))
    prod = product_rows(b5, PHASE_RULES["dihedral"], "ax")
    return {
        "d45.txt": (d45, table_text(d45, "dihedral(45), relabeled")),
        "p15.json": (p15, table_json(p15)),
        "d27.json": (d27, table_json(d27)),
        "d27b.txt": (d27b, table_text(d27b, "dihedral(27), relabeled")),
        "p9.txt": (p9, table_text(p9, "dihedral(9) x trivial rule, relabeled")),
        "a29.json": (a29, table_json(a29)),
        "b5.txt": (b5, table_text(b5, "dihedral(5), relabeled")),
        "prod.json": (prod, table_json(prod)),
        "swap02.phase": (None, "# swap02 as a phase file\nphase\n"
                         + "\n".join(" ".join(map(str, r)) for r in PHASE_RULES["swap02"]) + "\n"),
    }


def _f(name: str) -> str:
    return str(CLI_DIR / name)


# (label, argv). Labels starting with "paper-" read only built-in tables, so
# their stdout does not depend on the seed.
CLI_OPS = (
    ("paper-check-q1", ["check", "paper:q1"]),
    ("paper-check-q2-json", ["check", "paper:q2", "--format", "json"]),
    ("paper-inn-q1", ["inn", "paper:q1"]),
    ("paper-props-table1", ["props", "paper:table1"]),
    ("paper-iso-q1-q2", ["iso", "paper:q1", "paper:q2"]),
    ("paper-classify-json", ["classify", "paper:q1", "paper:q2", "paper:table1",
                             "paper:baseB", "--format", "json"]),
    ("paper-construct-ax", ["construct", "--base", "paper:baseB", "--rule", "swap01",
                            "--convention", "ax"]),
    ("paper-construct-thm31", ["construct", "--base", "paper:table1", "--rule", "thm31",
                               "--validate", "--witness-cap", "0"]),
    ("paper-construct-thm32-json", ["construct", "--base", "paper:table1", "--rule", "thm32",
                                    "--validate", "--witness-cap", "0", "--format", "json"]),
    ("paper-decompose-q2", ["decompose", "paper:q2"]),
    ("paper-audit-table1", ["audit", "--base", "paper:table1", "--rule", "trivial"]),
    ("paper-audit-baseB-json", ["audit", "--base", "paper:baseB", "--rule", "dihedral",
                                "--format", "json"]),
    ("paper-census-4", ["census", "4"]),
    ("file-check-d45", ["check", _f("d45.txt")]),
    ("file-check-a29-json", ["check", _f("a29.json"), "--format", "json"]),
    ("file-inn-d45", ["inn", _f("d45.txt")]),
    ("file-inn-a29-json", ["inn", _f("a29.json"), "--format", "json"]),
    ("file-props-d27", ["props", _f("d27.json")]),
    ("file-iso-positive", ["iso", _f("d27.json"), _f("d27b.txt")]),
    ("file-iso-negative-json", ["iso", _f("d45.txt"), _f("p15.json"), "--format", "json"]),
    ("file-classify", ["classify", _f("d27.json"), _f("d27b.txt"), _f("p9.txt")]),
    ("file-construct-phasefile", ["construct", "--base", _f("b5.txt"), "--rule",
                                  _f("swap02.phase"), "--convention", "ax"]),
    ("file-decompose-ax", ["decompose", _f("prod.json"), "--convention", "ax"]),
    ("file-decompose-none", ["decompose", _f("d27.json")]),
    ("file-audit-json", ["audit", "--base", _f("b5.txt"), "--rule", "swap12",
                         "--format", "json"]),
)

# The positive iso op's mapping is re-checked against these two files.
CLI_ISO_POSITIVE = ("file-iso-positive", "d27.json", "d27b.txt")


def write_cli_inputs(root: Path, seed: int):
    """Write the cli workload's files under ``root``; returns their tables."""
    out_dir = root / CLI_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {}
    for name, (rows, text) in cli_inputs(seed).items():
        (out_dir / name).write_text(text, encoding="utf-8")
        tables[name] = rows
    return tables
