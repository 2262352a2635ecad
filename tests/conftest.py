import os

import pytest

from rdplab import metrics, stagger
from reference_tables import paper_table


@pytest.fixture
def paper_tables(monkeypatch):
    """The scalar routes build the paper's table of their spec
    (``reference_tables.paper_table``) in place of the library's."""
    monkeypatch.setattr(stagger, "build_boundaries", paper_table)


@pytest.fixture(scope="session", autouse=True)
def no_child_outlives_the_tests():
    """Once every test has run, the engine's helpers are retired and no
    child of this process is left, running or unreaped."""
    yield
    metrics.retire_helpers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
