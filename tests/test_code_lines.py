"""``tools/code_lines.py``: what counts as a code line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_comments_blank_lines_and_docstrings_count_nothing():
    source = '''"""Module docstring,
over two lines."""
import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return (1 +
                2)


x = """a string that is no docstring
spans two lines"""
'''
    # import, class, def, the two-line return and the two-line string
    assert code_lines.code_lines(source) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""doc"""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "1", "3"]
    assert lines[-1].split() == ["3", "total"]
