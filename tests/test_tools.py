"""The tools under ``tools/`` run on this tree."""

import importlib.util
from pathlib import Path

import rdpgtest


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_runs_a_tiny_cell_on_the_power_study_replicates():
    calibration = _tool("calibration")
    cell = calibration.run_cell(rdpgtest, ("projection", 20, 30, "two_block", None),
                                replicates=3, permutations=5, seed=5)
    assert sorted(cell) == ["graph", "oracle"]
    for arm in cell.values():
        assert 0 <= arm["rejections"] <= 3 and arm["size"] == arm["rejections"] / 3
    lines = calibration.diff({"c": cell}, {"c": cell})
    assert len(lines) == 3 and all("+0.000 ±" in line for line in lines[1:])
