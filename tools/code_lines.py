"""Count code lines in Python sources: lines that hold a token of code.

Docstrings, comments, blank lines and layout tokens (newlines, indents)
do not count; a line counts once however many tokens it holds.  A token
that spans lines, such as a triple-quoted string that is not a docstring,
counts on each line it covers.

    python tools/code_lines.py src/            # every .py file below src/
    python tools/code_lines.py a.py b.py       # just these files

Prints one "count path" line per file and a total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree):
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    source = Path(path).read_text()
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def _files(paths):
    for p in map(Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def main(paths):
    if not paths:
        sys.exit("usage: code_lines.py PATH...")
    total = 0
    for f in _files(paths):
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
