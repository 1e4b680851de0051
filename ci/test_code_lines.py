"""``ci/code_lines.py``: the code-line count of ``src/netctrl``."""
from ci.code_lines import code_lines, count, main

SOURCE = '''"""A module docstring
over two lines."""
import os  # a trailing comment keeps its line

# a comment line alone


def f(x):
    """A function docstring."""
    return (x +
            1)


class C:
    """A class docstring."""
    y = """a string in code,
not a docstring"""
'''


def test_counts_code_lines_alone():
    # import, def, the two lines of the return, class and the two lines of
    # the assignment; the docstrings, the comment line and the blank lines
    # are left out
    assert code_lines(SOURCE) == 7


def test_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text(SOURCE)
    (tmp_path / "two.py").write_text("x = 1\n\n# y = 2\n")
    assert count(tmp_path) == {"one": 7, "two": 1}
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "one 7\ntwo 1\ntotal 8\n"
