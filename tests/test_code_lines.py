"""``scripts/code_lines.py``, the count behind the ROADMAP's line gates."""

import contextlib
import importlib.util
import io
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import math


class Thing:
    """Class docstring."""

    size = 2  # a trailing comment does not hide code

    def area(self):
        """Method docstring,

        with a blank line inside.
        """
        # comment inside a body
        return self.size * self.size


def twice(x):
    \'\'\'Function docstring.\'\'\'
    note = """a string that is not a docstring
    spans two code lines"""
    return 2 * x + len(note)
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, size, def area, return, def twice, note (2 lines), return
    assert load_script().code_lines(path) == 9


def test_main_total_is_the_sum_of_its_rows():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert load_script().main() == 0
    rows = [line.split() for line in buffer.getvalue().splitlines()]
    *modules, (label, total) = rows
    assert label == "total"
    assert modules and all(name.endswith(".py") for name, _ in modules)
    assert int(total) == sum(int(count) for _, count in modules)
