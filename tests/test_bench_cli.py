"""``python -m repro.bench``: one figure by name, and a bad name."""

from repro.bench.__main__ import main


def test_named_figure_prints_its_table(capsys):
    assert main(["repro.bench", "fig15"]) == 0
    assert capsys.readouterr().out.strip()


def test_unknown_figure_is_usage_error(capsys):
    assert main(["repro.bench", "fig99"]) == 2
    assert "unknown figure 'fig99'" in capsys.readouterr().out
