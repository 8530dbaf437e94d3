import contextlib
import inspect
import io
import json
import re
from dataclasses import fields
from pathlib import Path

import sparseppc
from sparseppc import sim
from sparseppc.design import CostDesign
from sparseppc.sim import SimConfig

from .src_lines import code_lines

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_lists_every_config_field():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    assert set(json.loads(blocks[0])) == set(SimConfig.__dataclass_fields__)


def test_readme_lists_the_columns_of_every_csv():
    listed = {name: re.findall(r"`(\w+)`", cols) for name, cols in
              re.findall(r"^- `(\w+)\.csv`: (.*)$", README.read_text(), flags=re.M)}
    cfg = SimConfig(trials=1, train_trials=1, steps=4, noise={"kind": "gaussian", "sigma": 0.01})
    mc = sim.monte_carlo(cfg)
    sweep = sim.sweep_regularization(cfg, "l2", [1e2])
    rates = sim.bitrate_experiment(cfg)
    built = {"trace": sim.trace_columns(mc), "trajectory": sim.trajectory_columns(mc),
             "summary": sim.summary_columns(mc), "sweep": sim.sweep_columns(sweep),
             "rates": sim.rate_columns(rates), "packets": sim.packet_columns(rates)}
    assert listed == {name: list(columns) for name, columns in built.items()}


def test_readme_lists_the_fields_of_design_json():
    listed = re.findall(r"^- `design\.json`: (.*)$", README.read_text(), flags=re.M)
    assert len(listed) == 1
    assert re.findall(r"`(\w+)`", listed[0]) == [f.name for f in fields(CostDesign)]


def test_readme_library_quick_start_runs():
    blocks = re.findall(r"^## Library quick start\n\n```python\n(.*?)```",
                        README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    sparsity, feasible = out.getvalue().split()
    assert 1 <= int(sparsity) <= 10 and feasible == "True"


def test_readme_lists_the_public_names():
    listed = re.findall(r"^\*\*Public names\.\*\*.*?\n\n(.*?)\n\n", README.read_text(),
                        flags=re.S | re.M)
    assert len(listed) == 1
    names = re.findall(r"`(\w+)`", listed[0])
    public = [name for name in dir(sparseppc) if not name.startswith("_")
              and not inspect.ismodule(getattr(sparseppc, name))]
    assert sorted(names) == public


def test_src_lines_counts_neither_blanks_comments_nor_docstrings():
    # a two-line docstring, a comment, a blank line, and one line of code
    # whose string holds a '#'
    snippet = '"""Module\ndocstring."""\n# a comment\n\nx = """# not a comment"""\n'
    assert len(snippet.splitlines()) == 5 and code_lines(snippet) == 1
