"""Tests: multi-statement programs and CSV export."""

import pytest

from repro.errors import QuerySyntaxError
from repro.eval.export import EXPORTERS, export_fig8a, export_fig13
from repro.lang.parser import parse_program


class TestParseProgram:
    def test_semicolon_separated(self):
        chains = parse_program(
            "var a = stream.window(wsize=4ms).fft();"
            "var b = stream.window(wsize=50ms).sbp()"
        )
        assert [c.var_name for c in chains] == ["a", "b"]

    def test_blank_line_separated_multiline_statements(self):
        program = """
var seizure = stream.window(wsize=4ms)
.fft().svm()

var movements = stream.window(wsize=50ms).sbp()
.kf(params)
"""
        chains = parse_program(program)
        assert [c.var_name for c in chains] == ["seizure", "movements"]
        assert chains[0].call_names == ["window", "fft", "svm"]
        assert chains[1].call_names == ["window", "sbp", "kf"]

    def test_comments_skipped(self):
        chains = parse_program(
            "// the detection chain\nstream.window(wsize=4ms).fft()"
        )
        assert len(chains) == 1

    def test_empty_program_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_program("\n// nothing here\n")


class TestExport:
    def test_fig8a_csv(self, tmp_path):
        export_fig8a(tmp_path)
        content = (tmp_path / "fig8a.csv").read_text()
        assert content.splitlines()[0].startswith("design,")
        assert "SCALO" in content and "HALO+NVM" in content

    def test_fig13_csv(self, tmp_path):
        export_fig13(tmp_path)
        content = (tmp_path / "fig13.csv").read_text()
        assert "Low Power" in content

    def test_exporter_registry_covers_every_figure(self):
        assert set(EXPORTERS) == {
            "fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15",
        }
