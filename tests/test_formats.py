import pytest

import quandles as Q
from quandles.cli import main
from quandles.formats import TableFormatError


class TestTableText:
    def test_round_trip_battery(self, battery):
        for name, q in battery.items():
            parsed = Q.parse_table_text(Q.emit_table(q))
            assert parsed.order == q.order and parsed.table == q.table, name

    def test_emit_is_canonical(self):
        text = Q.emit_table(Q.Q1)
        assert text.startswith("quandle 12\n")
        assert text == Q.emit_table(Q.parse_table_text(text))
        assert not any(line != line.rstrip() for line in text.splitlines())

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\nquandle 2\n# rows follow\n1 1\n\n2 2\n"
        q = Q.parse_table_text(text)
        assert q.table == ((1, 1), (2, 2))

    def test_missing_header(self):
        with pytest.raises(TableFormatError, match="header"):
            Q.parse_table_text("1 1\n2 2\n")

    def test_bad_entry_cites_line_and_column(self):
        with pytest.raises(TableFormatError, match="line 3, column 2"):
            Q.parse_table_text("quandle 2\n1 1\n2 9\n")

    def test_non_integer_cites_position(self):
        with pytest.raises(TableFormatError, match="line 2, column 1"):
            Q.parse_table_text("quandle 2\nx 1\n2 2\n")

    def test_short_row(self):
        with pytest.raises(TableFormatError, match="expected 2 entries"):
            Q.parse_table_text("quandle 2\n1\n2 2\n")

    def test_missing_rows(self):
        with pytest.raises(TableFormatError, match="expected 2 rows"):
            Q.parse_table_text("quandle 2\n1 1\n")

    def test_trailing_garbage(self):
        with pytest.raises(TableFormatError, match="unexpected content"):
            Q.parse_table_text("quandle 2\n1 1\n2 2\n1 1\n")


class TestTableJson:
    def test_round_trip(self, battery):
        for q in battery.values():
            parsed = Q.parse_table_json(Q.emit_table_json(q))
            assert parsed.table == q.table

    def test_sniffing(self):
        assert Q.parse_table(Q.emit_table_json(Q.TABLE1)) == Q.TABLE1
        assert Q.parse_table(Q.emit_table(Q.TABLE1)) == Q.TABLE1

    def test_missing_fields(self):
        with pytest.raises(TableFormatError, match="order"):
            Q.parse_table_json('{"table": [[1]]}')

    def test_invalid_json(self):
        with pytest.raises(TableFormatError, match="invalid JSON"):
            Q.parse_table_json("{nope")

    def test_bad_shape_reported(self):
        with pytest.raises(TableFormatError, match="shape"):
            Q.parse_table_json('{"order": 2, "table": [[1, 2]]}')

    def test_bool_order_rejected(self):
        with pytest.raises(TableFormatError, match="order"):
            Q.parse_table_json('{"order": true, "table": [[1]]}')

    def test_bool_entries_rejected(self):
        with pytest.raises(TableFormatError, match="entry True at row 1, column 1"):
            Q.parse_table_json(BOOL_ENTRIES)

    def test_cli_check_on_bool_entries_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bools.json"
        path.write_text(BOOL_ENTRIES)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "entry True" in out.err


BOOL_ENTRIES = '{"order": 2, "table": [[true, true], [2, 2]]}'


class TestPhaseText:
    def test_round_trip_named_rules(self):
        for name, rule in Q.named_rules().items():
            parsed = Q.parse_phase_text(Q.emit_phase(rule))
            assert parsed == rule, name

    def test_header_required(self):
        with pytest.raises(TableFormatError, match="header"):
            Q.parse_phase_text("0 0 0\n1 1 1\n2 2 2\n")

    def test_entry_range(self):
        with pytest.raises(TableFormatError, match="out of range 0..2"):
            Q.parse_phase_text("phase\n0 0 3\n1 1 1\n2 2 2\n")
