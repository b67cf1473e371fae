"""The rules of ``tools/code_lines.py``, the size measure of ``src/``.

Docstrings, comments and blank lines count 0; a string that spans lines
inside code, and an expression wrapped over lines, count every line they
span.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring."""
# a comment
x = 1  # c
y = """one
two"""


def f(a):
    """Docstring
    over two lines."""
    return (a +
            1)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_not_docstrings_or_comments():
    # x = 1, the two lines of y, def, and the two lines of the return
    assert load_tool().code_lines(SAMPLE) == 6


def test_count_tree_reports_wc_and_code_lines_per_module(tmp_path):
    tool = load_tool()
    package = tmp_path / tool.PACKAGE
    package.mkdir(parents=True)
    (package / "sample.py").write_text(SAMPLE)
    (package / "empty.py").write_text("")
    counts = tool.count_tree(tmp_path)
    assert counts == {"empty.py": (0, 0), "sample.py": (12, 6)}
    assert tool.total(counts) == (12, 6)
