"""Tests for the repository's tools."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_src_lines_counts_code_apart_from_blanks_comments_and_docstrings():
    snippet = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    a value, not a docstring"""
    "a bare string"
    return math.sqrt(x), text
'''
    # Code: the import, the def, both lines of the assigned string, the return.
    assert src_lines.count(snippet) == (14, 5)


def test_src_lines_reports_a_failed_export_in_one_line(capsys):
    # An unknown revision, or a tree that is no git checkout, makes
    # git archive fail: one error line and exit 2, not a traceback.
    assert src_lines.main(["--against", "no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot export no-such-rev: ") and err.count("\n") == 1
