import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import _load

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


def test_a_check_of_no_cases_ends_the_run(crosscheck, capfd):
    Check = crosscheck.Check
    crosscheck.CHECKS = (Check("empty", lambda budget: iter(()), 1, 3, 60),)
    assert crosscheck.main([]) == 1
    assert capfd.readouterr() == ("", "error: empty works out no case at 3\n")


def test_each_check_agrees_at_its_tier1_budget(check):
    # every route pair of the table, written there once, at a budget small enough for each run
    assert check.tier1 < check.budget
    check.sweep(check.tier1)


PLANTED = {"pytest.ini": "[pytest]\naddopts = -p no:hypothesispytest\n", "src/tableaux/__init__.py": "",
           "src/tableaux/planted.py": "def double(x):\n    return x + x  # x + x\n",
           "tests/test_planted.py": "from tableaux.planted import double\n\n\ndef test_double():\n    assert double(3) == 6"
                                    "\n\n\ndef test_fails():\n    assert False\n"}
DOUBLE, FAILS = "tests/test_planted.py::test_double", "tests/test_planted.py::test_fails"


@pytest.fixture
def mutants(tmp_path):
    """``scripts/mutants.py`` on a planted tree: one source file, two tests, no hypothesis plugin (slow to load)."""
    for path, text in PLANTED.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    module = _load("mutants", "scripts/mutants.py")
    module.ROOT = tmp_path
    return module


def test_mutants_takes_no_arguments(mutants, capfd):
    assert mutants.main(["-h"]) == 2
    assert capfd.readouterr() == ("", "usage: mutants.py\nerror: takes no arguments, got ['-h']\n")


def test_a_survivor_ends_the_run_naming_it(mutants, capfd):
    # a comment edit changes nothing a test can see, and the run ends before the second row
    mutants.MUTANTS = (mutants.Mutant("comment", "planted.py", "# x + x", "# x - x", (DOUBLE,)),
                       mutants.Mutant("never-run", "planted.py", "return x + x", "return x - x", (DOUBLE,)))
    assert mutants.main([]) == 1
    out, err = capfd.readouterr()
    assert [(line["name"], line["killed"]) for line in map(json.loads, out.splitlines())] == [("comment", False)]
    assert err == f"error: comment survives {DOUBLE}\n"


@pytest.mark.parametrize("old, found", [("x * 3", 0), ("x + x", 2)])
def test_an_old_text_not_found_once_ends_the_run(mutants, capfd, old, found):
    mutants.MUTANTS = (mutants.Mutant("misplaced", "planted.py", old, "x", (DOUBLE,)),)
    assert mutants.main([]) == 1
    assert capfd.readouterr() == ("", f"error: misplaced: old text found {found} times in planted.py\n")


def test_a_failing_unmutated_tree_ends_the_run_before_any_mutant(mutants, capfd):
    mutants.MUTANTS = (mutants.Mutant("unrun", "planted.py", "return x + x", "return x - x", (DOUBLE, FAILS)),)
    assert mutants.main([]) == 1
    assert capfd.readouterr() == ("", f"error: the unmutated tree fails {FAILS}\n")
