import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from posmlp import tensor as T

# Hypothesis keeps no example database and writes its other files outside the
# checkout, so a test run leaves nothing in the working tree; the directory is
# removed when the session ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="posmlp-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile("posmlp", database=None)
settings.load_profile("posmlp")


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


# Tests never write into the working tree.  The checkout's paths are listed
# when the session starts; a path that appears by its end fails the run.
_CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_LISTED = {"__pycache__", ".git"}
_PATHS_AT_START = pytest.StashKey()


def _checkout_paths():
    paths = set()
    for top, dirs, files in os.walk(_CHECKOUT):
        dirs[:] = [d for d in dirs if d not in _NOT_LISTED]
        paths.update(os.path.relpath(os.path.join(top, name), _CHECKOUT) for name in dirs + files)
    return paths


def pytest_sessionstart(session):
    session.config.stash[_PATHS_AT_START] = _checkout_paths()


def pytest_sessionfinish(session, exitstatus):
    before = session.config.stash.get(_PATHS_AT_START, None)
    if before is None:
        return
    new = sorted(_checkout_paths() - before)
    if new:
        session.config.get_terminal_writer().line(
            "\ntests wrote into the working tree: " + ", ".join(new), red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def checked_mode():
    """Fail fast on NaN/Inf everywhere in the suite."""
    T.set_checked(True)
    yield
    T.set_checked(False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
