import ast
import os
import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import _load

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"


@pytest.fixture
def workflow():
    """``.github/workflows/tests.yml``, parsed; without PyYAML the test is skipped."""
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load(WORKFLOW.read_text())


def test_workflow_steps_are_well_formed(workflow):
    # a workflow that is not valid YAML runs no step at all, so no CI step can catch it
    jobs = workflow["jobs"]
    assert jobs
    for job, spec in jobs.items():
        assert spec["steps"], job
        for step in spec["steps"]:
            assert "name" in step, (job, step)
            assert ("run" in step) != ("uses" in step), (job, step["name"])


def test_lowest_python_in_the_matrix_is_the_supported_floor(workflow):
    # a matrix above the floor leaves the oldest supported Python untested; 3.10 has no tomllib, so a regex reads it
    versions = [version for spec in workflow["jobs"].values()
                for version in spec.get("strategy", {}).get("matrix", {}).get("python-version", [])]
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', (REPO / "pyproject.toml").read_text(), re.M)
    assert versions and floor
    assert min(versions, key=lambda version: tuple(map(int, version.split(".")))) == floor.group(1)


def test_ci_installs_the_test_extra(workflow):
    # the install step and pyproject's test extra are one set of packages kept in two places
    (install,) = [step["run"] for spec in workflow["jobs"].values() for step in spec["steps"]
                  if "pip install" in step.get("run", "")]
    words = shlex.split(install)
    extra = re.search(r"^test = (\[.*\])$", (REPO / "pyproject.toml").read_text(), re.M)
    assert extra
    assert sorted(words[words.index("install") + 1:]) == sorted(ast.literal_eval(extra.group(1)))


def test_every_run_step_has_a_timeout(workflow):
    # without one, a step that hangs holds the runner until the job's own limit
    for job, spec in workflow["jobs"].items():
        for step in spec["steps"]:
            if "run" in step:
                minutes = step.get("timeout-minutes")
                assert isinstance(minutes, int) and minutes > 0, (job, step["name"])


def test_cross_checks_run_from_one_table(crosscheck, workflow):
    # a new route registers in scripts/crosscheck.py, not as an inline one-liner or a sweep script
    steps = [step for spec in workflow["jobs"].values() for step in spec["steps"] if "run" in step]
    table = [step for step in steps if "scripts/crosscheck.py" in step["run"]]
    assert [step["run"].strip() for step in table] == ["PYTHONPATH=src python scripts/crosscheck.py"]
    # the checks run one after another in the one step, so the step outlasts every limit added up
    assert table[0]["timeout-minutes"] * 60 >= sum(check.limit_s for check in crosscheck.CHECKS)
    for step in steps:
        # a check that imports the library is a tier-1 test or a table entry, never a python -c line
        assert not any("python -c" in line and "tableaux" in line for line in step["run"].splitlines()), step["name"]
        assert "_sweep.py" not in step["run"], step["name"]


def test_mutants_run_in_one_step_that_outlasts_every_pytest_run(workflow):
    # the unmutated tree, then each mutant, is one pytest run under the per-run limit
    mutants = _load("mutants", "scripts/mutants.py")
    steps = [step for spec in workflow["jobs"].values() for step in spec["steps"] if "mutants.py" in step.get("run", "")]
    assert [step["run"].strip() for step in steps] == ["python scripts/mutants.py"]
    assert steps[0]["timeout-minutes"] * 60 >= (len(mutants.MUTANTS) + 1) * mutants.LIMIT_S


def _bench_steps(workflow):
    return [step for spec in workflow["jobs"].values() for step in spec["steps"]
            if "bench/run.py" in step.get("run", "")]


def test_benchmark_self_checks_run_every_workload(workflow):
    # a workload added to bench/run.py is self-checked by these steps, with no new step
    commands = [re.search(r"python3 bench/run\.py[^)|]*", step["run"]).group(0).strip() for step in _bench_steps(workflow)]
    assert commands == [
        "python3 bench/run.py --workload all --seconds 1",
        "python3 bench/run.py --workload all --seconds 1 --trace 1",
    ]


@pytest.mark.skipif(shutil.which("bash") is None, reason="the workflow's run steps are bash scripts")
@pytest.mark.parametrize("second, fails", [("true", False), ("false", True), (None, True)])
def test_every_workload_step_fails_unless_each_result_is_correct(workflow, tmp_path, second, fails):
    # a python3 that prints three workloads' reports stands in for bench/run.py;
    # the second reads correct, not correct, or has no result line
    lines = []
    for name, correct in [("oracle", "true"), ("lr_table", second), ("cli", "true")]:
        lines.append(f"workload {name}, seed 1, 1 s, trace 0, Python 3")
        if correct is not None:
            lines.append(f'{{"correct": {correct}, "attempted": 1, "failed": 0, "metrics": {{}}}}')
    fake = tmp_path / "python3"
    fake.write_text("#!/bin/sh\ncat <<'EOF'\n" + "\n".join(lines) + "\nEOF\n")
    fake.chmod(0o755)
    env = {**os.environ, "PATH": os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")])}
    steps = [step for step in _bench_steps(workflow) if "--workload all" in step["run"]]
    assert len(steps) == 2
    for step in steps:
        proc = subprocess.run(["bash", "-e", "-c", step["run"]], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=60)
        assert (proc.returncode != 0) == fails, (step["name"], proc.stdout, proc.stderr)


def test_the_integer_rule_is_written_once():
    # a hand-written copy of the rule drifts from it: only _count, _ints and the polynomial scalar test hold one
    def names(node):
        return [getattr(item, "id", None) for item in (node.elts if isinstance(node, (ast.Tuple, ast.Set)) else [node])]

    def copies(node, where):
        where = node.name if isinstance(node, ast.FunctionDef) else where
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and "bool" in names(node.args[-1])
                or isinstance(node, ast.Set) and names(node) == ["int"]):
            yield where
        for child in ast.iter_child_nodes(node):
            yield from copies(child, where)

    found = {(path.name, where) for path in (REPO / "src" / "tableaux").glob("*.py")
             for where in copies(ast.parse(path.read_text()), "<module>")}
    assert found == {("partitions.py", "_count"), ("partitions.py", "_ints"), ("polynomials.py", "_scalar")}


def test_the_frozen_references_import_nothing_from_tableaux():
    # a reference that reads the library's own loops moves with a fault in them, and passes
    tree = ast.parse((REPO / "tests" / "frozen.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [module for module in modules if module.partition(".")[0] == "tableaux"] == []


def test_every_test_readme_names_exists():
    # README names a test as tests/<file>.py::<class>::<test>; one renamed or folded away leaves it pointing at nothing
    def defined(file, name):
        scope = ast.parse((REPO / "tests" / file).read_text(encoding="utf-8")).body
        for part in name.split("::"):
            nodes = [node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == part]
            if not nodes:
                return False
            scope = nodes[0].body
        return True

    cited = re.findall(r"`tests/(\w+\.py)::([\w:]+)`", (REPO / "README.md").read_text(encoding="utf-8"))
    assert len(cited) == 3
    assert [f"{file}::{name}" for file, name in cited if not defined(file, name)] == []
