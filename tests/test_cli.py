import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

import quandles as Q
from quandles.cli import main


@pytest.fixture()
def broken_table(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("quandle 2\n1 2\n1 2\n")
    return str(path)


@pytest.fixture()
def broken_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2, "table": [[1,2],[1,2]]}')
    return str(path)


@pytest.fixture()
def order_2_base(tmp_path):
    path = tmp_path / "trivial2.txt"
    path.write_text(Q.emit_table(Q.trivial(2)))
    return str(path)


@pytest.fixture()
def all_axioms_fail(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text('{"order": 2, "name": "bad2", "table": [[2, 1], [1, 1]]}')
    return str(path)


GOLDEN = Path(__file__).parent / "golden"

SMALL_BASE_WARNING = "warning: product base has order 2; the construction is stated for n >= 3\n"


class TestCheck:
    def test_builtin_passes(self, capsys):
        assert main(["check", "paper:table1"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_q1_passes(self, capsys):
        assert main(["check", "paper:q1"]) == 0

    def test_broken_table_exits_2_with_witness(self, broken_table, capsys):
        assert main(["check", broken_table]) == 2
        out = capsys.readouterr().out
        assert "right invertibility: FAIL" in out
        assert "column y=1" in out

    def test_missing_file_exits_1(self, capsys):
        assert main(["check", "no-such-file.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("quandle 2\n1 9\n1 2\n")
        assert main(["check", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_deeply_nested_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"order": 1, "table": ' + "[" * 200_000)
        assert main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1

    def test_unknown_builtin_exits_1(self, capsys):
        assert main(["check", "paper:nope"]) == 1

    def test_json_format(self, capsys):
        assert main(["check", "paper:q1", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["overall"] is True
        assert obj["order"] == 12

    def test_witness_cap_env(self, broken_table, capsys, monkeypatch):
        monkeypatch.setenv("QF_WITNESS_CAP", "1")
        main(["check", broken_table, "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["right_invertibility"]["witnesses"]) == 1
        monkeypatch.setenv("QF_WITNESS_CAP", "0")  # exhaustive
        main(["check", broken_table, "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["right_invertibility"]["witnesses"]) == 2

    def test_witness_cap_flag_beats_env(self, broken_table, capsys, monkeypatch):
        monkeypatch.setenv("QF_WITNESS_CAP", "5")
        main(["check", broken_table, "--witness-cap", "1", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["right_invertibility"]["witnesses"]) == 1

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_witness_cap_above_sys_maxsize_is_exhaustive(self, source, broken_table, capsys, monkeypatch):
        huge = "9" * 23
        flag = ["--witness-cap", huge] if source == "flag" else []
        if source == "env":
            monkeypatch.setenv("QF_WITNESS_CAP", huge)
        assert main(["check", "paper:q1", *flag]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert main(["check", broken_table, "--format", "json", *flag]) == 2
        out, err = capsys.readouterr()
        obj = json.loads(out)
        assert err == "" and obj["witness_cap"] == int(huge)
        assert len(obj["right_invertibility"]["witnesses"]) == 2

    def test_bad_env_value_exits_1(self, broken_table, capsys, monkeypatch):
        monkeypatch.setenv("QF_WITNESS_CAP", "many")
        assert main(["check", broken_table]) == 1

    def test_report_bytes_when_every_axiom_fails(self, all_axioms_fail, capsys):
        assert main(["check", all_axioms_fail, "--witness-cap", "2"]) == 2
        assert capsys.readouterr().out == (
            "quandle of order 2 (bad2)\n"
            "idempotency: FAIL [x=1, x=2]\n"
            "right invertibility: FAIL [column y=2 (rows 1,2 collide)]\n"
            "self-distributivity: FAIL [(1,1,2), (1,2,1)]\n"
            "overall: FAIL\n")

    def test_json_report_bytes_when_every_axiom_fails(self, all_axioms_fail, capsys):
        assert main(["check", all_axioms_fail, "--witness-cap", "2", "--format", "json"]) == 2
        expected = {"order": 2, "name": "bad2",
                    "idempotency": {"ok": False, "witnesses": [1, 2]},
                    "right_invertibility": {"ok": False, "witnesses": [[2, 1, 2]]},
                    "self_distributivity": {"ok": False, "witnesses": [[1, 1, 2], [1, 2, 1]]},
                    "overall": False, "witness_cap": 2}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestConstruct:
    def test_q1_byte_identical(self, capsys):
        assert main(["construct", "--base", "paper:baseB", "--rule", "trivial"]) == 0
        assert capsys.readouterr().out == Q.emit_table(Q.Q1)

    def test_q2_byte_identical(self, capsys):
        assert main(["construct", "--base", "paper:baseB", "--rule", "swap01"]) == 0
        assert capsys.readouterr().out == Q.emit_table(Q.Q2)

    def test_thm31_validate_exits_2(self, capsys):
        code = main(["construct", "--base", "paper:table1", "--rule", "thm31", "--validate"])
        assert code == 2
        out = capsys.readouterr().out
        assert "right invertibility: FAIL" in out
        # failing columns are exactly the phase b=2 columns 3,6,9,12
        assert "column y=3" in out

    @pytest.mark.parametrize("rule,fmt,golden", [("thm31", "text", "construct_thm31_validate.txt"),
                                                 ("thm32", "json", "construct_thm32_validate.json")])
    def test_exhaustive_validate_bytes(self, rule, fmt, golden, capsys):
        argv = ["construct", "--base", "paper:table1", "--rule", rule, "--validate",
                "--witness-cap", "0", "--format", fmt]
        assert main(argv) == 2
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_unknown_rule_exits_1(self, capsys):
        assert main(["construct", "--base", "paper:baseB", "--rule", "nope"]) == 1
        assert "named rules" in capsys.readouterr().err

    def test_rule_from_file(self, tmp_path, capsys):
        path = tmp_path / "rule.txt"
        path.write_text(Q.emit_phase(Q.swap_rule(0, 1)))
        assert main(["construct", "--base", "paper:baseB", "--rule", str(path)]) == 0
        assert capsys.readouterr().out == Q.emit_table(Q.Q2)

    def test_json_output_parses_back(self, capsys):
        main(["construct", "--base", "paper:baseB", "--rule", "trivial", "--format", "json"])
        assert Q.parse_table_json(capsys.readouterr().out) == Q.Q1

    def test_small_base_warning_is_one_stderr_line(self, order_2_base, capsys):
        with pytest.warns(UserWarning):
            expected = Q.emit_table(Q.product3(Q.trivial(2), Q.named_rules()["trivial"]))
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main(["construct", "--base", order_2_base, "--rule", "trivial"]) == 0
        assert leaked == []
        assert capsys.readouterr() == (expected, SMALL_BASE_WARNING)

    @pytest.mark.parametrize("validate", [["--validate"], []], ids=["validate", "no-validate"])
    def test_bad_witness_cap_fails_before_the_small_base_warning(self, validate, order_2_base, capsys):
        argv = ["construct", "--base", order_2_base, "--rule", "trivial", *validate, "--witness-cap", "-1"]
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert raised == []
        assert capsys.readouterr() == ("", "error: witness cap must be >= 0 (0 means exhaustive)\n")


class TestInn:
    def test_q1_listing_and_summary(self, capsys):
        assert main(["inn", "paper:q1"]) == 0
        out = capsys.readouterr().out
        assert "R(4) = (7,10), (8,11), (9,12)" in out
        assert "R(1) = (1)" in out
        assert "order 2: 9" in out
        assert "inner group order: 6" in out

    def test_q2_summary(self, capsys):
        main(["inn", "paper:q2"])
        assert "order 2: 10" in capsys.readouterr().out

    def test_json(self, capsys):
        main(["inn", "paper:q1", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["count_of_order"] == {"1": 3, "2": 9}
        assert obj["generators"][3]["cycles"] == [[7, 10], [8, 11], [9, 12]]
        assert obj["group"]["order"] == 6

    def test_broken_table_exits_2(self, broken_table):
        assert main(["inn", broken_table]) == 2


class TestProps:
    def test_q1(self, capsys):
        assert main(["props", "paper:q1"]) == 0
        out = capsys.readouterr().out
        assert "involutory: true" in out
        assert "connected: false" in out
        assert "orbits: {1} {2} {3} {4,7,10} {5,8,11} {6,9,12}" in out

    def test_broken_table_is_one_stderr_line(self, broken_json, capsys):
        assert main(["props", broken_json]) == 2
        assert capsys.readouterr() == ("", f"error: table {broken_json} fails axioms: right invertibility"
                                           " fails at column y=1 (rows 1,2 collide)\n")

    def test_alexander_witness_reported(self, capsys):
        main(["props", "paper:table1"])
        assert "alexander: yes" in capsys.readouterr().out

    def test_json(self, capsys):
        main(["props", "paper:table1", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["alexander"]["recognized"] is True
        assert obj["involutory"] is True


class TestIso:
    def test_q1_q2_exit_3_with_certificate(self, capsys):
        assert main(["iso", "paper:q1", "paper:q2"]) == 3
        out = capsys.readouterr().out
        assert "not-isomorphic" in out
        assert "certificate: generator order spectrum: {1:3,2:9} vs {1:2,2:10}" in out

    def test_self_iso_exit_0(self, capsys):
        assert main(["iso", "paper:q1", "paper:q1"]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_json(self, capsys):
        main(["iso", "paper:q1", "paper:q2", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["isomorphic"] is False
        assert obj["mapping"] is None


class TestClassify:
    def test_two_classes(self, capsys):
        assert main(["classify", "paper:q1", "paper:q2"]) == 0
        assert "classes: 2" in capsys.readouterr().out

    def test_members_labelled_by_input(self, capsys):
        main(["classify", "paper:q1", "paper:q2", "paper:q1"])
        out = capsys.readouterr().out
        assert "classes: 2" in out
        assert "paper:q1, paper:q1" in out


class TestDecompose:
    def test_q1(self, capsys):
        assert main(["decompose", "paper:q1"]) == 0
        out = capsys.readouterr().out
        assert "base = paper:baseB" in out
        assert "rule = trivial" in out

    def test_q2(self, capsys):
        assert main(["decompose", "paper:q2"]) == 0
        out = capsys.readouterr().out
        assert "base = paper:baseB" in out
        assert "rule = swap01" in out

    def test_no_factorization_exits_3(self, tmp_path, capsys):
        path = tmp_path / "d9.txt"
        path.write_text(Q.emit_table(Q.dihedral(9)))
        assert main(["decompose", str(path)]) == 3
        assert "no factorization" in capsys.readouterr().out

    def test_json(self, capsys):
        main(["decompose", "paper:q2", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["base"]["builtin"] == "paper:baseB"
        assert obj["rule"]["name"] == "swap01"


class TestAudit:
    def test_connectivity_disagreement_visible(self, tmp_path, capsys):
        path = tmp_path / "d3.txt"
        path.write_text(Q.emit_table(Q.dihedral(3)))
        assert main(["audit", "--base", str(path), "--rule", "trivial"]) == 0
        out = capsys.readouterr().out
        assert "disagreements: 1 (connected)" in out

    def test_invalid_rule_exits_2(self, capsys):
        assert main(["audit", "--base", "paper:table1", "--rule", "thm31"]) == 2
        assert "phase rule fails axioms" in capsys.readouterr().err

    def test_broken_base_is_one_stderr_line(self, broken_json, capsys):
        assert main(["audit", "--base", broken_json, "--rule", "trivial"]) == 2
        assert capsys.readouterr() == (
            "", "error: base fails axioms: right invertibility fails at column y=1 (rows 1,2 collide)\n")

    def test_json_records(self, capsys):
        main(["audit", "--base", "paper:table1", "--rule", "trivial", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        names = [r["property"] for r in obj["records"]]
        assert names == ["involutory", "conjugate identities", "left-distributive",
                         "abelian", "alexander", "connected"]
        assert all(r["claim"] == "iff" for r in obj["records"])

    def test_small_base_warning_is_one_stderr_line(self, order_2_base, capsys):
        assert main(["audit", "--base", order_2_base, "--rule", "trivial"]) == 0
        out, err = capsys.readouterr()
        assert "product order: 6" in out
        assert err == SMALL_BASE_WARNING


class TestCensus:
    def test_order_3(self, capsys):
        assert main(["census", "3"]) == 0
        out = capsys.readouterr().out
        assert "census order 3: 3 classes" in out
        assert out.count("quandle 3") == 3

    def test_out_of_cap_exits_1(self, capsys):
        assert main(["census", "9"]) == 1

    def test_json(self, capsys):
        main(["census", "2", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["classes"] == 1


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys):
        main(["inn", "paper:q2"])
        first = capsys.readouterr().out
        main(["inn", "paper:q2"])
        assert capsys.readouterr().out == first

    def test_usage_error_exits_1(self, capsys):
        assert main(["check"]) == 1


# Byte matrix: exit code and sha256 of stdout and stderr for fixed invocations,
# recorded in tests/golden/cli_matrix.json. The inputs are written into the
# working directory under fixed names, since a file's name shows up in the
# output. Regenerate the golden file (only when a change of output is
# intended) with: PYTHONPATH=src python tests/test_cli.py
MATRIX_FILES = {
    "broken.txt": "quandle 2\n1 2\n1 2\n",
    "bad.json": '{"order": 2, "table": [[1,2],[1,2]]}',
    "bad2.json": '{"order": 2, "name": "bad2", "table": [[2, 1], [1, 1]]}',
    "trivial2.txt": Q.emit_table(Q.trivial(2)),
    "d3.txt": Q.emit_table(Q.dihedral(3)),
    "d9.txt": Q.emit_table(Q.dihedral(9)),
    # decomposes into a base that is no builtin and a rule that has no name
    "unnamed9.txt": Q.emit_table(Q.product3(Q.dihedral(3), Q.PhaseRule(((0, 2, 1), (0, 1, 0), (0, 0, 2))))),
    "swap01.phase": Q.emit_phase(Q.swap_rule(0, 1)),
}

MATRIX = [
    "check paper:q1",
    "check paper:q1 --format json",
    "check broken.txt",
    "check broken.txt --format json",
    "check bad2.json --witness-cap 2",
    "check bad2.json --witness-cap 0 --format json",
    "QF_WITNESS_CAP=1 check broken.txt --format json",
    "QF_WITNESS_CAP=many check broken.txt",
    "check paper:q1 --witness-cap -3",
    "check no-such-file.txt",
    "construct --base paper:baseB --rule trivial",
    "construct --base paper:baseB --rule swap01 --format json",
    "construct --base paper:baseB --rule swap01.phase --convention ax",
    "construct --base paper:baseB --rule trivial --validate",
    "construct --base paper:baseB --rule trivial --validate --format json",
    "construct --base paper:table1 --rule thm31 --validate",
    "construct --base paper:table1 --rule thm32 --validate --format json",
    "construct --base trivial2.txt --rule trivial",
    "construct --base trivial2.txt --rule trivial --format json",
    "construct --base trivial2.txt --rule trivial --validate --witness-cap -1",
    "construct --base paper:baseB --rule nope",
    "inn paper:q1",
    "inn paper:q2 --format json",
    "inn d3.txt",
    "inn bad.json",
    "props paper:q1",
    "props paper:q1 --format json",
    "props paper:table1",
    "props paper:table1 --format json",
    "props trivial2.txt",
    "props paper:q1 --alexander-budget 3",
    "props paper:q1 --alexander-budget 3 --format json",
    "props bad.json",
    "iso paper:q1 paper:q2",
    "iso paper:q1 paper:q2 --format json",
    "iso paper:q1 paper:q1",
    "iso paper:q1 paper:q1 --format json",
    "classify paper:q1 paper:q2 paper:q1",
    "classify paper:q1 paper:q2 paper:q1 --format json",
    "decompose paper:q1",
    "decompose paper:q2 --format json",
    "decompose unnamed9.txt",
    "decompose unnamed9.txt --format json",
    "decompose d9.txt",
    "decompose d9.txt --format json",
    "decompose d9.txt --convention ax",
    "audit --base paper:table1 --rule trivial",
    "audit --base paper:table1 --rule trivial --format json",
    "audit --base d3.txt --rule trivial",
    "audit --base paper:table1 --rule trivial --alexander-budget 3",
    "audit --base paper:table1 --rule trivial --alexander-budget 3 --format json",
    "audit --base trivial2.txt --rule trivial",
    "audit --base trivial2.txt --rule trivial --format json",
    "audit --base paper:table1 --rule thm31",
    "audit --base bad.json --rule trivial",
    "census 1",
    "census 2",
    "census 3",
    "census 4",
    "census 5",
    "census 6",
    "census 3 --format json",
    "census 9",
    "check",
]

MATRIX_GOLDEN = GOLDEN / "cli_matrix.json"


def run_matrix_case(case: str) -> dict:
    """Run one case in process, in a working directory holding MATRIX_FILES.
    Leading NAME=value words set environment variables for the run."""
    words = case.split()
    env = {}
    while "=" in words[0]:
        key, value = words.pop(0).split("=", 1)
        env[key] = value
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env):
        if "QF_WITNESS_CAP" not in env:
            os.environ.pop("QF_WITNESS_CAP", None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(words)
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def write_matrix_files(root: Path) -> None:
    for name, text in MATRIX_FILES.items():
        (root / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("case", MATRIX)
def test_cli_matrix_bytes(case, tmp_path, monkeypatch):
    write_matrix_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    golden = json.loads(MATRIX_GOLDEN.read_text(encoding="utf-8"))
    assert run_matrix_case(case) == golden[case]


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_one_error_line_and_exit_1():
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
        code = main(["census", "3"])
    assert code == 1
    assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


def test_module_entry_point_matches_main(capsys):
    argv = ["iso", "paper:q1", "paper:q2"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "quandles.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert main(argv) == 3
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, capsys.readouterr().out, "")


def test_package_imports_only_the_standard_library():
    """Zero runtime dependencies: every import in the package is relative or from the standard
    library, and importing the library does not load the CLI."""
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted((src / "quandles").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, node.lineno, name)
    probe = f"import sys; sys.path.insert(0, {str(src)!r}); import quandles; print('quandles.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_no_module_level_memo():
    """Derived data lives on the table objects, so the package keeps no functools cache of its own;
    the one exception is the zero-size cache on core.translations, which stores nothing."""
    src = Path(__file__).resolve().parent.parent / "src" / "quandles"
    caches = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        caches.append((path.name, node.name, ast.unparse(dec)))
    assert caches == [("core.py", "translations", "lru_cache(maxsize=0)")]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_matrix_files(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            golden = {case: run_matrix_case(case) for case in MATRIX}
        finally:
            os.chdir(here)
    MATRIX_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
