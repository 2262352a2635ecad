import pytest

from rdplab import stagger
from reference_tables import paper_table


@pytest.fixture
def paper_tables(monkeypatch):
    """The scalar routes build the paper's table of their spec
    (``reference_tables.paper_table``) in place of the library's."""
    monkeypatch.setattr(stagger, "build_boundaries", paper_table)
