"""The line counter (loc.py) on a small synthetic module."""

import loc

SOURCE = '''"""Module docstring,
on two lines."""

# A comment, then a blank line.

def f(x):
    """One-line docstring."""
    y = x + 1  # a trailing comment keeps its line
    """A string after a statement
    is an expression, not a docstring."""
    return (y,
            x)


class C:
    """A class docstring
    spanning

    four lines."""
'''


def test_counts_lines_and_code_lines():
    # Code: def f, y = ..., the two-line string expression, the two-line
    # return and class C.
    assert loc.count(SOURCE) == (19, 7)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        " lines   code  module", "    19      7  a.py", "     2      1  b.py",
        "    21      8  total"]
