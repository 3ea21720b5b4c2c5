"""Tests: CSV export."""

from repro.eval.export import EXPORTERS, export_fig8a, export_fig13


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
