import faulthandler
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from tableaux import SkewShape, enumerate_ssyt, partitions_of

ROOT = Path(__file__).resolve().parents[1]

# A test still running after this many seconds ends the run with every thread's
# traceback. It is above the longest wait inside any test (a thread join at 120 s)
# and far above the slowest test, so only a hang reaches it.
TEST_WALL_LIMIT_S = 300

_stderr = None


def pytest_configure(config):
    # fd 2 while capture is suspended: the terminal, where a dump written into
    # the capture file of the running test would never be shown
    global _stderr
    _stderr = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    if _stderr is not None:
        _stderr.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(TEST_WALL_LIMIT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def _load(name, relative):
    """The file at ``relative`` to the repository root, run as a fresh module ``name``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def crosscheck():
    """``scripts/crosscheck.py`` loaded as a fresh module, its ``CHECKS`` free to replace."""
    return _load("crosscheck", "scripts/crosscheck.py")


def pytest_generate_tests(metafunc):
    # a test that takes ``check`` runs once per entry of the cross-check table, named by the entry
    if "check" in metafunc.fixturenames:
        checks = _load("crosscheck", "scripts/crosscheck.py").CHECKS
        metafunc.parametrize("check", checks, ids=[check.name for check in checks])


@pytest.fixture(scope="session")
def pairs():
    """The one walk over (λ, μ) by total degree, ``pairs`` of ``scripts/crosscheck.py``."""
    return _load("crosscheck", "scripts/crosscheck.py").pairs


@pytest.fixture(scope="session")
def bender_knuth_calls():
    """The one Bender–Knuth sweep: each filling with entries up to 3 of every ν/λ with |ν| <= 7 and at most
    6 boxes, with each index 1 and 2."""
    shapes = [SkewShape(outer, inner) for n in range(8) for outer in partitions_of(n)
              for k in range(max(0, n - 6), n + 1) for inner in partitions_of(k) if outer.contains(inner)]
    calls = [(filling, i) for skew in shapes for filling in enumerate_ssyt(skew, 3) for i in (1, 2)]
    assert (len(shapes), len(calls)) == (434, 7860)
    return calls


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py`` loaded as a module; the tests read it and never change it."""
    return _load("workloads", "bench/workloads.py")


@pytest.fixture
def process_env():
    """The environment for a child interpreter that imports ``tableaux`` from this checkout's src/."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
