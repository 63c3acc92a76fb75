"""tools/code_lines.py's count: code lines only, never blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as code

# a comment line does not count


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function docstring,

        over three lines."""
        note = """a string that is not a docstring
        counts on every line it spans"""
        return (self.size
                * self.size)


async def run():
    "A one-line docstring in plain quotes."
    return math.pi
'''


def test_counts_code_lines_of_a_fixture():
    # import, class, size, def, note (2 lines), return (2 lines), async def, return
    assert code_lines.code_lines(FIXTURE) == 10


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"    10 {tmp_path / 'a.py'}", f"     2 {tmp_path / 'pkg' / 'b.py'}", "    12 total"]
