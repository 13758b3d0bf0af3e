"""The one renderer and the one front end for the paper's experiments.

Every ``format_*`` in :mod:`repro.sim.experiments` returns a markdown
section (a ``## `` title over one table), and ``repro-sim campaign``
prints those sections to stdout.
"""

import pytest

from repro.cli import main
from repro.sim.experiments import (
    EXPERIMENTS,
    MACHINES,
    POLICIES,
    TABLE1_COLUMNS,
    VARIANTS,
    WIDTHS,
    figure3,
    figure4,
)

#: Small hand-built results, one per experiment, in its runner's shape.
SAMPLES = {
    "fig3": {k: {v: 1.0 + i / 8 for i, v in enumerate(VARIANTS)} for k in ("compress", "go")},
    "fig4": {w: {v: w * (1.0 + i / 8) for i, v in enumerate(VARIANTS)} for w in WIDTHS},
    "fig5": {p: {w: 1.5 * w for w in WIDTHS} for p in POLICIES},
    "fig6": {m: {v: {w: 1.2 * w for w in WIDTHS} for v in ("SMT", "TME", "REC/RS/RU")}
             for m in MACHINES},
    "table1": {name: {key: 12.5 for key, _ in TABLE1_COLUMNS}
               for name in ("compress", "1 prog avg", "2 progs avg")},
    "ablation-confidence": {1: 1.1, 8: 1.25, 15: 1.2},
}


def table_cells(text):
    """Each markdown table row of ``text``, keyed by its first cell."""
    rows = ([cell.strip() for cell in line.strip("|").split("|")]
            for line in text.splitlines() if line.startswith("| "))
    return {cells[0]: cells[1:] for cells in rows}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_each_renderer_emits_one_titled_markdown_table(name):
    text = EXPERIMENTS[name][1](SAMPLES[name])
    assert text.startswith("## ")
    lines = text.splitlines()
    table = [i for i, line in enumerate(lines) if line.startswith("|")]
    assert len(table) >= 3  # header, rule and at least one row
    assert table == list(range(table[0], table[0] + len(table)))  # one table
    assert len({lines[i].count("|") for i in table}) == 1  # every row, every column


def test_campaign_prints_figure3_cell_for_cell(capsys):
    argv = ["campaign", "fig3", "--jobs", "1", "--no-cache", "--commit-target", "250"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("## Figure 3")
    data = figure3(commit_target=250)
    cells = table_cells(out)
    assert cells["program"] == VARIANTS
    assert "compress" in data
    for kernel, row in data.items():
        assert cells[kernel] == [f"{row[v]:.3f}" for v in VARIANTS]


def test_campaign_prints_figure4_cell_for_cell(capsys):
    argv = ["campaign", "fig4", "--jobs", "1", "--no-cache",
            "--commit-target", "200", "--num-mixes", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    data = figure4(commit_target=200, num_mixes=1)
    cells = table_cells(out)
    assert cells["programs"] == VARIANTS
    for width, row in data.items():
        assert cells[str(width)] == [f"{row[v]:.3f}" for v in VARIANTS]
        assert f"* {width} program(s): REC/RS/RU is" in out
    assert out.count("vs TME") == len(data)


def test_campaign_prints_table1(capsys):
    argv = ["campaign", "table1", "--jobs", "1", "--no-cache",
            "--commit-target", "250", "--num-mixes", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("## Table 1")
    cells = table_cells(out)
    assert cells["Program"] == [label for _, label in TABLE1_COLUMNS]
    assert {"compress", "1 prog avg", "2 progs avg", "4 progs avg"} <= set(cells)
