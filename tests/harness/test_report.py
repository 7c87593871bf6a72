"""ASCII report renderer tests."""

from repro.harness.report import render_breakdown, render_series, render_table


class TestRenderTable:
    def test_alignment_and_content(self):
        out = render_table("T", ["a", "bb"], [["1", "22"], ["333", "4"]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "333" in out

    def test_note_appended(self):
        out = render_table("T", ["x"], [["1"]], note="shape holds")
        assert out.endswith("shape holds")


class TestRenderSeries:
    def test_values_formatted(self):
        out = render_series("S", "n", [1, 2], {"v": [1.5, 2.25]})
        assert "1.50" in out
        assert "2.25" in out

    def test_none_rendered_as_crash(self):
        out = render_series("S", "n", [1], {"v": [None]})
        assert "crash" in out


class TestRenderBreakdown:
    def test_percentages(self):
        out = render_breakdown("B", ("native", "commit"), [("k", {"native": 0.25, "commit": 0.75})])
        assert "25.0%" in out
        assert "75.0%" in out

    def test_missing_phase_zero(self):
        out = render_breakdown("B", ("native", "commit"), [("k", {"native": 1.0})])
        assert " 0.0%" in out
