import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from posmlp import tensor as T

# Hypothesis keeps no example database and writes its other files outside the
# checkout, so a test run leaves nothing in the working tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="posmlp-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile("posmlp", database=None)
settings.load_profile("posmlp")


@pytest.fixture(autouse=True)
def checked_mode():
    """Fail fast on NaN/Inf everywhere in the suite."""
    T.set_checked(True)
    yield
    T.set_checked(False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
