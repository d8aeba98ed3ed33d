"""Documented code runs: the python blocks of README.md and PAPER.md, the
``qtomo`` lines of the READMEs' shell blocks, and every demo script."""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qtomo import cli, measurement, simulation
from qtomo.cli import _GRID_HEADER, _build_parser, main
from qtomo.measurement import CHUNK_TRIALS

from test_exports import DELETED

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_TIMEOUT_S = 300


def _cli_lines():
    for doc in ("README.md", "demos/README.md"):
        for block in re.findall(r"```sh\n(.*?)```", (ROOT / doc).read_text(), flags=re.DOTALL):
            yield from (line for line in block.splitlines() if line.startswith("qtomo "))


CLI_LINES = list(_cli_lines())


def test_readme_python_blocks_run():
    for doc in ("README.md", "PAPER.md"):
        blocks = re.findall(r"```python\n(.*?)```", (ROOT / doc).read_text(), flags=re.DOTALL)
        assert blocks, doc
        # One namespace per document: later blocks use names the earlier ones define.
        namespace = {}
        for block in blocks:
            exec(compile(block, doc, "exec"), namespace)


def test_readme_cli_lines_found():
    # Eight in README.md, one in demos/README.md.
    assert len(CLI_LINES) == 9


def test_readme_gone_paragraph_names_every_deleted_name():
    # Every name deleted from the exports is named in a code span of the
    # README paragraph that says what is gone and what replaces it.
    readme = (ROOT / "README.md").read_text()
    (gone,) = [para for para in readme.split("\n\n") if " are gone" in para]
    spans = " ".join(re.findall(r"`([^`]*)`", gone))
    missing = sorted({name for _, name in DELETED if not re.search(rf"\b{name}\b", spans)})
    assert missing == []


def test_readme_grid_paragraph_names_every_csv_column():
    # The paragraph that describes comparison.csv, not the --theta keys,
    # which share most of the names.
    readme = (ROOT / "README.md").read_text()
    (grid,) = [para for para in readme.split("\n\n") if "writes `comparison.csv`" in para]
    spans = set(re.findall(r"`([^`]*)`", grid))
    assert [column for column in _GRID_HEADER if column not in spans] == []


def test_readme_cli_sections_name_only_existing_flags():
    # Every --flag in a code span or `qtomo` shell line of a subcommand's
    # section is one of that subcommand's options; a span that starts with
    # another subcommand's name, such as `povm-check --dim`, is read
    # against that one.
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {name: set(p._option_string_actions) for name, p in subparsers.choices.items()}
    readme = (ROOT / "README.md").read_text()
    cli = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    unknown = []
    for section in cli.split("\n### ")[1:]:
        title, body = section.split("\n", 1)
        if title == "Exit codes":
            continue
        assert title in options, title
        shell = [
            line.removeprefix("qtomo ")
            for block in re.findall(r"```sh\n(.*?)```", body, flags=re.DOTALL)
            for line in block.splitlines()
            if line.startswith("qtomo ")
        ]
        spans = re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", body, flags=re.DOTALL))
        for text in shell + spans:
            first = text.split(" ", 1)[0]
            command = first if first in options else title
            flags = re.findall(r"--[a-z][a-z-]*", text)
            unknown += [(title, flag) for flag in flags if flag not in options[command]]
    assert unknown == []


def test_readme_block_budget_matches_the_module():
    # Determinism's row-block formula, its k = 10 trial count and its
    # whole-chunk bound read the module's budget.
    readme = (ROOT / "README.md").read_text()
    formula = re.search(r"`max\(1, 2\*\*(\d+) // \(16 k²\)\)`", readme)
    trials = re.search(
        r"([\d,]+) trials at k = 10, and one\s+block for the whole chunk at k ≤ (\d+)", readme
    )
    assert formula and trials, "Determinism no longer states the block budget"
    assert 2 ** int(formula.group(1)) == simulation._BLOCK_BYTES
    assert int(trials.group(1).replace(",", "")) == simulation._BLOCK_BYTES // (16 * 10**2)
    whole = int(trials.group(2))
    assert simulation._BLOCK_BYTES // (16 * whole**2) >= CHUNK_TRIALS
    assert simulation._BLOCK_BYTES // (16 * (whole + 1) ** 2) < CHUNK_TRIALS


def test_readme_count_table_cap_matches_the_module():
    # Determinism's table cap and the largest r it tabulates at each d read
    # the module's cap, over at least three outcomes.
    readme = (ROOT / "README.md").read_text()
    cap = re.search(r"at most\s+`2\*\*(\d+)` = ([\d,]+) of them", readme)
    edges = re.findall(r"r ≤ ([\d,]+) at\s+d = (\d+)", readme)
    assert cap and edges, "Determinism no longer states the count table cap"
    assert 2 ** int(cap.group(1)) == int(cap.group(2).replace(",", "")) == measurement._TABLE_CELLS
    for shots, d in ((int(r.replace(",", "")), max(int(d), 3)) for r, d in edges):
        assert math.comb(shots + d - 1, d - 1) <= measurement._TABLE_CELLS
        assert math.comb(shots + d, d - 1) > measurement._TABLE_CELLS


def test_readme_slab_budget_matches_the_module():
    # The compare paragraph's slab budget and its plane count at grid 41
    # read the module's budget.
    readme = (ROOT / "README.md").read_text()
    budget = re.search(r"([\d,]+)\s+cube points \((\d+) planes at grid 41\)", readme)
    assert budget, "the compare paragraph no longer states the slab budget"
    assert int(budget.group(1).replace(",", "")) == cli._SLAB_POINTS
    assert int(budget.group(2)) == cli._SLAB_POINTS // 41**2


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    """Each documented command exits 0 in a scratch directory holding the
    README's ``counts.json``, with repository paths made absolute and every
    ``--out`` moved under that directory; every path it prints exists, and
    a command without ``--out`` prints one JSON document."""
    readme = (ROOT / "README.md").read_text()
    counts = re.search(r"`counts.json` like\n\n```json\n(.*?)```", readme, flags=re.DOTALL)
    (tmp_path / "counts.json").write_text(counts.group(1))
    argv = shlex.split(line)[1:]
    for i, arg in enumerate(argv):
        if i and argv[i - 1] == "--out":
            argv[i] = str(tmp_path / Path(arg).relative_to(Path(arg).anchor))
        elif (ROOT / arg).is_file():
            argv[i] = str(ROOT / arg)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        printed = out.splitlines()
        assert printed and all(Path(path).is_file() for path in printed), printed
    else:
        json.loads(out)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=DEMO_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr
