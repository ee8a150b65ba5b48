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
