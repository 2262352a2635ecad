"""The code-line counter in ``tools/code_lines.py``."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).parents[1] / "tools" /
                          "code_lines.py"))

SNIPPET = '''"""Module docstring,
over two lines."""

import os   # a comment


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a string
that spans lines"""
        return (text,
                os.sep)


async def run():
    "One-line docstring."
    "not a docstring: the second statement"
    return "no docstring either"
'''

# import, class, def, text =, return (, os.sep), async def, the second
# string statement and return: docstrings, comments, blank lines and the
# string's second line do not count
SNIPPET_LINES = 9


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert TOOL["code_lines"](SNIPPET) == SNIPPET_LINES
    assert TOOL["code_lines"]('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_counts_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\ny = (2,\n     3)\n")
    assert TOOL["main"]([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "3", str(tmp_path / "b.py"), str(SNIPPET_LINES),
        str(tmp_path / "pkg" / "a.py"), str(SNIPPET_LINES + 3), "total"]
