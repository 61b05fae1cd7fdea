"""The one-shot Markdown reproduction report."""

import pytest

from repro.analysis.report import generate_report


class TestGenerateReport:
    def test_selected_experiments_render(self, tmp_path):
        out = tmp_path / "r.md"
        text = generate_report(
            fidelity="smoke", experiments=("table1", "fig6"), out_path=out
        )
        assert out.read_text() == text
        assert "# Clover (SC '23) — reproduction report" in text
        assert "Table 1" in text
        assert "Fig. 6" in text
        assert "4.4" in text  # the worked example's value

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(ValueError, match="valid"):
            generate_report(experiments=("fig99",))

    def test_headers_and_fences_balanced(self):
        text = generate_report(fidelity="smoke", experiments=("fig3",))
        assert text.count("```") % 2 == 0
        assert text.count("## ") == 1

    def test_section_titles_are_the_registry_descriptions(self):
        from repro.analysis.experiments import EXPERIMENT_REGISTRY

        text = generate_report(fidelity="smoke", experiments=("table1",))
        assert "\n## Table 1 — applications and model variants\n" in text
        assert all(e.description for e in EXPERIMENT_REGISTRY.values())

    def test_no_write_without_path(self, tmp_path):
        before = set(tmp_path.iterdir())
        generate_report(fidelity="smoke", experiments=("table1",))
        assert set(tmp_path.iterdir()) == before
