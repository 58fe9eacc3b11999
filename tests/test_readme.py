"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

import pytest

from geotrips.records import write_records_csv
from geotrips.synthgen import SynthConfig, generate

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i + 1}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, tmp_path, four_zone_geojson, four_zone_map, monkeypatch):
    """Each block runs in a directory holding the `zones.geojson` and
    `corpus.csv` the examples name, so a name the README shows and the
    package lacks fails here."""
    records, _ = generate(SynthConfig(
        seed=7, n_agents=4, zone_map=four_zone_map,
        od_weights={("alpha", "beta"): 0.5, ("beta", "alpha"): 0.5},
    ))
    with open(tmp_path / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        write_records_csv(records, fh)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
