"""Count the lines of each module of a package: total lines and code lines.

    python3 tools/loc.py              # src/rdpgtest of this tree
    python3 tools/loc.py PACKAGE_DIR  # any directory of .py files

Code lines leave out blank lines, comment lines and the lines of
docstrings (the first string statement of a module, class or function).
A line that holds code and a comment counts as code. The last row sums
the modules.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree):
    """The start ``(line, column)`` of each docstring in the module ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source):
    """``(total, code)`` line counts of the Python ``source`` text."""
    docstrings, code = _docstrings(ast.parse(source)), set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _LAYOUT and token.start not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "rdpgtest"
    rows = [(path.name, *count(path.read_text())) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
