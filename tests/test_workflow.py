from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_are_well_formed():
    # a workflow that is not valid YAML runs no step at all, so no CI step can catch it
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    jobs = workflow["jobs"]
    assert jobs
    for job, spec in jobs.items():
        assert spec["steps"], job
        for step in spec["steps"]:
            assert "name" in step, (job, step)
            assert ("run" in step) != ("uses" in step), (job, step["name"])


def test_every_run_step_has_a_timeout():
    # without one, a step that hangs holds the runner until the job's own limit
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    for job, spec in workflow["jobs"].items():
        for step in spec["steps"]:
            if "run" in step:
                minutes = step.get("timeout-minutes")
                assert isinstance(minutes, int) and minutes > 0, (job, step["name"])


def test_cross_checks_run_from_one_table(crosscheck):
    # a new route registers in scripts/crosscheck.py, not as an inline one-liner or a sweep script
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for spec in workflow["jobs"].values() for step in spec["steps"] if "run" in step]
    table = [step for step in steps if "scripts/crosscheck.py" in step["run"]]
    assert [step["run"].strip() for step in table] == ["PYTHONPATH=src python scripts/crosscheck.py"]
    assert table[0]["timeout-minutes"] * 60 >= max(check.limit_s for check in crosscheck.CHECKS)
    for step in steps:
        # the 1200-box step builds its argument with python -c, which imports nothing of the library
        assert not any("python -c" in line and "tableaux" in line for line in step["run"].splitlines()), step["name"]
        assert "_sweep.py" not in step["run"], step["name"]
