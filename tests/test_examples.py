"""The example scripts must run end-to-end (small scales)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quickstart():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "revenue in Germany" in result.stdout
    assert "1500.00" in result.stdout  # Munich TV + Berlin Radio


def test_tpcd_olap():
    result = run_example("tpcd_olap.py", "600")
    assert result.returncode == 0, result.stderr
    assert "cross-checked against the sequential scan - OK" in result.stdout


def test_streaming_updates():
    result = run_example("streaming_updates.py", "800")
    assert result.returncode == 0, result.stderr
    assert "insert latency" in result.stdout
    assert "tech volume" in result.stdout


@pytest.mark.slow
def test_index_comparison():
    result = run_example("index_comparison.py", "800")
    assert result.returncode == 0, result.stderr
    assert "selectivity 25%" in result.stdout
    assert "dc-tree" in result.stdout


def test_warehouse_lifecycle():
    result = run_example("warehouse_lifecycle.py", "500")
    assert result.returncode == 0, result.stderr
    assert "bulk-loaded 500 records" in result.stdout
    assert "the loaded tree is live" in result.stdout
