import json
import re
from pathlib import Path

from sparseppc.sim import SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_lists_every_config_field():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    assert set(json.loads(blocks[0])) == set(SimConfig.__dataclass_fields__)
