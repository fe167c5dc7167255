"""Count code lines per module of ``src/secrecylab``.

A code line holds at least one token that is not a comment.  Blank lines,
comment lines and the lines of module, class and function docstrings are
not counted; a line that holds code and a trailing comment is.  Uses only
the standard library.

Usage: ``python tools/code_lines.py [PACKAGE_DIR]``; PACKAGE_DIR defaults to this
checkout's ``src/secrecylab``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER))


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in one Python source file."""
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "secrecylab"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
