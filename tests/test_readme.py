"""The README's Python quick start runs against the current API."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the values its comments quote
    assert namespace["r"] == pytest.approx(2.0, abs=1e-12)
    assert namespace["x"] == pytest.approx(5.513, abs=5e-4)
    assert float(np.trace(namespace["xi"])) == pytest.approx(namespace["x"], abs=1e-12)
    exact, lower = namespace["exact"], namespace["lower"]
    assert exact.value == pytest.approx(12.711, abs=5e-4)
    assert exact.pair_certified and exact.value == lower
    assert namespace["pair"] == (1, 3)
    assert lower <= namespace["upper"] == pytest.approx(sum(namespace["sigmas"]), rel=1e-15)


def test_readme_yaml_config_runs(tmp_path):
    # the README's config, its plain start: 1e-3 included, runs as written
    from fisusc.cli import main
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    cfg_path, out = tmp_path / "sweep.yaml", tmp_path / "sep.csv"
    cfg_path.write_text(blocks[0])
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 51
