import faulthandler
import importlib.util
import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

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


@pytest.fixture
def crosscheck():
    """``scripts/crosscheck.py`` loaded as a fresh module, its ``CHECKS`` free to replace."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "crosscheck.py"
    spec = importlib.util.spec_from_file_location("crosscheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
