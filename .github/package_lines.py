"""Print the number of code lines in the ``spinbath`` package.

A code line is a non-blank line that holds something other than a comment
or a docstring (the leading string of a module, class or function).
Comments are found with ``tokenize`` and docstrings with ``ast``.  The
count gates nothing; it is printed so every change reports its size by the
same rule.  Run it from anywhere, on the package, another directory or
one file:

    python .github/package_lines.py [directory-or-file]
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinbath"
_NOT_CODE = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text()
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    target = Path(argv[0]) if argv else PACKAGE
    paths = [target] if target.is_file() else sorted(target.rglob("*.py"))
    print(sum(code_lines(path) for path in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
