import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, option",
    [("lr_oracle_sweep.py", "--max-total"), ("bijection_sweep.py", "--max-n")],
)
def test_sweep_rejects_a_negative_budget(script, option):
    # an empty sweep would check nothing and still report that all checks passed
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), option, "-1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{option} must be nonnegative" in proc.stderr
