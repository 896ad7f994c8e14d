"""Count the physical lines and the code lines of a package's modules.

A code line is a line that holds a Python token, once blank lines,
comment lines and the lines of docstrings are dropped; the docstrings
are the ones that ast finds on the module, its classes and its
functions.  Both counts are printed per module and in total.

Usage: python tools/code_lines.py [package directory]

The directory defaults to the repository's src/hpdicke.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring of the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node,
                                                               clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """Physical lines and code lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else
                Path(__file__).resolve().parents[1] / "src" / "hpdicke")
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>8,}{code:>8,}")
    print(f"{'total':<16}{total_lines:>8,}{total_code:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
