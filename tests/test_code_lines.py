"""tools/code_lines.py counts the code lines every size claim quotes."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""

    text = """a string
that is no docstring"""
    return x, text


class C:
    """Class docstring,
    on two lines."""

    value = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code(tmp_path, capsys):
    # docstrings, comments and blank lines do not count; the two-line
    # string that is no docstring counts on both of its lines
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    tool = _tool()
    # import, def, text = """..., its second line, return, class, value
    assert tool.code_lines(path) == 7
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    tool.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"     0 {tmp_path / 'empty.py'}",
        f"     7 {path}",
        "     7 total",
    ]
