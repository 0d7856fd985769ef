"""The benchmark's own output checks, run on the seed-0 configs: a change
that would make the benchmark report an item incorrect fails here."""

import importlib.util
from pathlib import Path

import pytest

from slenderfall import cli

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# the first block of the sweep stream: 8 polylines, 3 helices, 3 rings and
# 2 rods, which take all three solve paths
SWEEP_ITEMS = len(workloads._BLOCK_KINDS)


@pytest.fixture(scope="module")
def reference():
    ref = workloads.load_reference()
    assert ref["seed"] == workloads.DEFAULT_SEED
    return ref


def test_seed_configs_are_the_recorded_ones(reference):
    for name in workloads.WORKLOADS:
        configs = workloads.make_configs(name, workloads.DEFAULT_SEED)
        assert workloads.configs_sha256(configs) == reference["config_sha256"][name]


@pytest.mark.parametrize("name, items", [("helix-large", 1), ("fall-long", 1),
                                         ("sweep-small", SWEEP_ITEMS)])
def test_items_pass_the_benchmark_checks(tmp_path, reference, name, items):
    configs = workloads.make_configs(name, workloads.DEFAULT_SEED)[:items]
    for index, raw in enumerate(configs):
        out = tmp_path / str(index)
        status = cli.run(cli.parse_config(raw), workloads.MODES[name], out)
        workloads.check_item(name, raw, out, status, reference[name], index)
