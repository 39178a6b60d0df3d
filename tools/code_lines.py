"""Code lines of a package: the lines that hold a token other than a comment
or a blank, less the module, class and function docstrings.

Usage, from the root of a checkout:

    python tools/code_lines.py src/twomode

Prints one line per module, ``count path``, and then ``count total``.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines of the module at ``path``."""
    with tokenize.open(path) as source:
        lines = {row for tok in tokenize.generate_tokens(source.readline) if tok.type not in _LAYOUT
                 for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    total = 0
    for module in sorted(Path(sys.argv[1]).rglob("*.py")):
        count = code_lines(module)
        total += count
        print(count, module)
    print(total, "total")
