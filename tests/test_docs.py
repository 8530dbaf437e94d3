import json
import re
from dataclasses import fields
from pathlib import Path

from sparseppc import sim
from sparseppc.design import CostDesign
from sparseppc.sim import SimConfig

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
