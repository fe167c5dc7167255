"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import math


class Shape:
    """Class docstring."""

    sides = 4  # code with a trailing comment

    def area(self, side):
        """Function docstring,

        over three lines."""
        # Another comment.
        return (side
                * side)


async def fetch():
    """One-line docstring."""


TEXT = """a string that is not a docstring,
over two lines"""
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, sides, def area, the two lines of the return, async def,
    # and the two lines of TEXT.
    assert load_tool().code_lines(path) == 9


def test_main_lists_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "big.py").write_text(SOURCE)
    (tmp_path / "small.py").write_text("x = 1\n\n# note\n")
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     9  big", "     1  small", "    10  total"]
