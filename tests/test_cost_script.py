"""`experiments/cost.py` runs end to end at its smallest scene size."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cost_at_32(tmp_path):
    out = tmp_path / "cost.json"
    proc = subprocess.run([sys.executable, str(ROOT / "experiments" / "cost.py"),
                           "--sizes", "32", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert re.fullmatch("[0-9a-f]{64}", result["source_sha256"])
    (row,) = result["sizes"]
    assert row["size"] == "32x32x28"
    assert row["seconds"] > 0 and row["minor_faults"] >= 0
    # one BLAS thread does the work, so CPU time stays near wall time
    assert 0 < row["cpu_seconds"] <= 1.5 * row["seconds"]
    assert row["seconds_per_mvoxel"] == row["seconds"] / (32 * 32 * 28 / 1e6)
    # the default profile needs tens of MB; the bound only catches a kept tape
    assert 0 < row["vmhwm_mb"] < 1000
    assert re.fullmatch("[0-9a-f]{64}", row["sha256"])
