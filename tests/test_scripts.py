import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["-h"], ["--max-total", "12"], ["lr-rule-vs-expansion"]])
def test_crosscheck_takes_no_arguments(argv, process_env):
    # the table fixes every budget, so an argument could only be a mistake
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "crosscheck.py"), *argv],
        capture_output=True, text=True, env=process_env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "takes no arguments" in proc.stderr


def test_a_disagreement_ends_the_run_naming_the_check_and_the_case(crosscheck, capfd):
    Check = crosscheck.Check
    crosscheck.CHECKS = (
        Check("agrees", lambda budget: iter([((budget,), True)]), 1, 3, 60),
        Check("planted", lambda budget: iter([(("[2,1]", budget), False)]), 1, 5, 60),
        Check("never-run", lambda budget: iter([((budget,), True)]), 1, 7, 60),
    )
    assert crosscheck.main([]) == 1
    out, err = capfd.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["name"], line["budget"], line["cases"]) for line in lines] == [("agrees", 3, 1)]
    assert err.splitlines() == ["error: planted disagrees at [2,1], 5"]


def test_each_check_agrees_at_its_tier1_budget(check):
    # every route pair of the table, written there once, at a budget small enough for each run
    assert check.tier1 < check.budget
    assert check.sweep(check.tier1), f"{check.name} works out no case at {check.tier1}"
